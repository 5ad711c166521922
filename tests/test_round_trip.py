"""Every file format survives parse -> to_json -> parse, and to_json is a fixed point.

The formats are those of ``check rbs``, ``check ybp``, ``check hrbs``,
``check aybe-infinity`` and ``check mc`` (a serialized cochain or a
classical triple), each read as the command line reads it.  Parsing is where
coefficients become the one exact form of maps and tensors, and ``to_json``
is where they are written back, so the round trip pins that boundary.  It
runs on every saved input and on Hypothesis-drawn documents whose
coefficients have mixed denominators and come in several spellings:
``"2/4"`` as well as ``"1/2"``, decimals, JSON integers and zeros, which the
first ``to_json`` writes in lowest terms (or drops) and the second writes
the same.
"""

import itertools
import json
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from rbsinfty import cli
from rbsinfty.graded import GradedSpace, MatrixAlgebra, MultiMap
from rbsinfty.linfty import TAGS, TAG_ALG, CochainElement
from rbsinfty.residuals import HomotopyRBS
from rbsinfty.yang_baxter import InfinityYBPair, YBPair

DATA = Path(__file__).resolve().parent / "data"


# -- the formats: (parse, to_json, the parts an equal object must share) ----------


def _parse_rbs(data):
    space, algebra = cli._matrix_setup(data)
    return (space, *cli._operator_pair(data, algebra.space))


def _parse_ybp(data):
    space, algebra = cli._matrix_setup(data)
    return space, YBPair.from_json(algebra, data)


def _parse_aybe(data):
    space, algebra = cli._matrix_setup(data)
    return space, InfinityYBPair.from_json(algebra, data)


def _parse_triple(data):
    space = GradedSpace.from_json(data["space"])
    product = MultiMap.from_json(space, space, data["product"], field="product")
    return (space, product, *cli._operator_pair(data, space), data.get("truncation", 3))


FORMATS = {
    "rbs": (
        _parse_rbs,
        lambda p: {"space": p[0].to_json(), "R": p[1].to_json(), "S": p[2].to_json()},
        lambda p: p,
    ),
    "ybp": (
        _parse_ybp,
        lambda p: {"space": p[0].to_json(), **p[1].to_json()},
        lambda p: (p[0], p[1].r, p[1].s),
    ),
    "hrbs": (
        HomotopyRBS.from_json,
        HomotopyRBS.to_json,
        lambda s: (s.space, s.truncation, dict(s.m), dict(s.r), dict(s.s)),
    ),
    "aybe": (
        _parse_aybe,
        lambda p: {"space": p[0].to_json(), **p[1].to_json()},
        lambda p: (p[0], p[1].truncation, dict(p[1].r), dict(p[1].s)),
    ),
    "cochain": (
        CochainElement.from_json,
        CochainElement.to_json,
        lambda c: (c.space, c.degree, c.truncation, c.parts),
    ),
    "triple": (
        _parse_triple,
        lambda p: {
            "space": p[0].to_json(),
            "product": p[1].to_json(),
            "R": p[2].to_json(),
            "S": p[3].to_json(),
            "truncation": p[4],
        },
        lambda p: p,
    ),
}


def _format_of(path: Path, data: dict) -> str:
    kind = path.name.split("_")[0]
    if kind == "mc":
        return "cochain" if "parts" in data else "triple"
    return kind


def _assert_round_trip(kind: str, data: dict) -> dict:
    """Parse ``data``, write it, parse the JSON text of what was written: the
    two parses are equal and write the same; what was written is returned."""
    parse, to_json, parts = FORMATS[kind]
    first = parse(data)
    written = to_json(first)
    second = parse(json.loads(json.dumps(written)))
    assert parts(second) == parts(first)
    assert to_json(second) == written
    return written


@pytest.mark.parametrize(
    "path", sorted(DATA.glob("*_input.json")), ids=lambda p: p.name
)
def test_every_saved_input_round_trips(path):
    data = json.loads(path.read_text(encoding="utf-8"))
    _assert_round_trip(_format_of(path, data), data)


def test_the_saved_inputs_cover_every_format():
    kinds = set()
    for path in DATA.glob("*_input.json"):
        kinds.add(_format_of(path, json.loads(path.read_text(encoding="utf-8"))))
    assert kinds == set(FORMATS)


# -- drawn documents ----------------------------------------------------------------

# numerators and denominators whose sums need common denominators up to 60
_NUMERATORS = st.integers(-7, 7)
_DENOMINATORS = st.sampled_from((1, 2, 3, 4, 5, 6, 10, 12))


@st.composite
def _coefficients(draw):
    """A rational in one of the spellings a file may use."""
    n, q = draw(_NUMERATORS), draw(_DENOMINATORS)
    value = Fraction(n, q)
    k = draw(st.sampled_from((1, 1, 2, 3)))
    spellings = [str(value), f"{value.numerator * k}/{value.denominator * k}"]
    if value.denominator == 1:
        spellings.append(value.numerator)
    if 10**3 % value.denominator == 0:
        spellings.append(f"{float(value):.3f}")
    return draw(st.sampled_from(spellings))


def _space(draw, degrees=st.integers(-1, 1), dim=(1, 2)):
    n = draw(st.integers(*dim))
    return [{"name": f"v{k}", "degree": draw(degrees)} for k in range(1, n + 1)]


def _degrees(basis):
    return {b["name"]: b["degree"] for b in basis}


def _end_degrees(basis):
    """The degrees of End(V)'s basis e_p^q, as `MatrixAlgebra` names them."""
    return {
        MatrixAlgebra.unit_name(p, q): a["degree"] - b["degree"]
        for p, a in enumerate(basis, 1)
        for q, b in enumerate(basis, 1)
    }


def _map(draw, degrees, arity, degree):
    """A serialized map: homogeneous entries, at most one per input tuple."""
    entries = []
    for ins in itertools.product(sorted(degrees), repeat=arity):
        target = sum(degrees[name] for name in ins) + degree
        outs = [name for name in sorted(degrees) if degrees[name] == target]
        chosen = draw(st.lists(st.sampled_from(outs), unique=True)) if outs else []
        if chosen:
            entries.append({"in": list(ins), "out": {o: draw(_coefficients()) for o in chosen}})
    return {"arity": arity, "degree": degree, "entries": entries}


def _tensor(draw, degrees, order, degree):
    """A serialized tensor of one degree."""
    factors = [
        f
        for f in itertools.product(sorted(degrees), repeat=order)
        if sum(degrees[name] for name in f) == degree
    ]
    chosen = draw(st.lists(st.sampled_from(factors), unique=True, max_size=6)) if factors else []
    return {
        "order": order,
        "entries": [{"factors": list(f), "coeff": draw(_coefficients())} for f in chosen],
    }


@st.composite
def _documents(draw):
    """``(format, document)``: a valid file of a drawn format."""
    kind = draw(st.sampled_from(sorted(FORMATS)))
    if kind == "triple":
        basis = _space(draw, st.just(0))
        degrees = _degrees(basis)
        return kind, {
            "space": {"basis": basis},
            "product": _map(draw, degrees, 2, 0),
            "R": _map(draw, degrees, 1, 0),
            "S": _map(draw, degrees, 1, 0),
            "truncation": draw(st.integers(2, 4)),
        }
    basis = _space(draw)
    if kind == "rbs":
        end = _end_degrees(basis)
        return kind, {
            "space": {"basis": basis},
            "R": _map(draw, end, 1, 0),
            "S": _map(draw, end, 1, 0),
        }
    if kind == "ybp":
        end = _end_degrees(basis)
        pair = {k: _tensor(draw, end, 2, 0) for k in "rs"}
        return kind, {"space": {"basis": basis}, **pair}
    if kind == "aybe":
        end = _end_degrees(basis)
        d = _tensor(draw, end, 1, -1)
        families = {
            k: {"1": d, **{str(n): _tensor(draw, end, n, n - 2) for n in (2, 3)}}
            for k in "rs"
        }
        return kind, {"space": {"basis": basis}, "truncation": 3, **families}
    degrees = _degrees(basis)
    if kind == "hrbs":
        families = {
            key: {str(n): _map(draw, degrees, n, n + shift) for n in (1, 2)}
            for key, shift in (("m", -2), ("r", -1), ("s", -1))
        }
        return kind, {"space": {"basis": basis}, "truncation": 2, **families}
    # a cochain of degree -1 on the suspension: algebra maps of map degree
    # -1, operator maps of map degree 0
    suspended = {name: d + 1 for name, d in degrees.items()}
    parts = [
        {"tag": tag, "map": _map(draw, suspended, arity, -1 if tag == TAG_ALG else 0)}
        for tag in TAGS
        for arity in (1, 2)
        if draw(st.booleans())
    ]
    return kind, {"space": {"basis": basis}, "degree": -1, "truncation": 2, "parts": parts}


@settings(max_examples=150, deadline=None)
@given(_documents())
def test_drawn_documents_round_trip_in_lowest_terms(document):
    kind, data = document
    written = _assert_round_trip(kind, data)
    # every coefficient written is the canonical text of a nonzero rational
    for coefficient in _written_coefficients(written):
        assert coefficient == str(Fraction(coefficient)) and Fraction(coefficient)


def _written_coefficients(value):
    """The coefficient strings of a written document: the values under
    ``out`` and ``coeff``."""
    if isinstance(value, dict):
        for key, item in value.items():
            if key == "out":
                yield from item.values()
            elif key == "coeff":
                yield item
            else:
                yield from _written_coefficients(item)
    elif isinstance(value, list):
        for item in value:
            yield from _written_coefficients(item)
