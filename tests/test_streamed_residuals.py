"""The streamed residuals side by side with the per-row path they replaced.

`HomotopyRBS` and `InfinityYBPair` stream the integer rows of every
composite of a residual into one table, and draw compositions only from
their support.  The oracles below are the targets as they were: each row a
validated `MultiMap` (`compose_tensor`) or `TensorElem` (the slot fold on
`Fraction`s), summed a second time (`MultiMap.combination`,
`TensorElem.sum`).  The residual formula (`residuals._residual`) and the
support both sides draw compositions from are the same, so what is compared
is the two ways of evaluating the rows; the support generator is compared
with the filtered compositions on its own.
"""

import importlib.util
import itertools
import random
from pathlib import Path

import pytest

from rbsinfty.graded import (
    MultiMap,
    TensorElem,
    compose_tensor,
    raise_indices,
)
from rbsinfty.residuals import HomotopyRBS, _residual
from rbsinfty.signs import compositions
from rbsinfty.yang_baxter import InfinityYBPair, check_infinity_ybp

from test_f_map_paths import ALGEBRAS, _pair
from test_residuals import _random_structure
from oracles import random_tensor

TOOL = Path(__file__).parent.parent / "tools" / "dense_residuals.py"


class _OracleRBS(HomotopyRBS):
    """End(V) with one validated map per row, summed again."""

    def compose_row(self, f, parts):
        return compose_tensor(f, parts)

    def sum(self, arity, degree, terms):
        return MultiMap.combination(self.space, self.space, arity, degree, terms)

    inner = sum


class _OraclePair(InfinityYBPair):
    """The tensor operad with one `TensorElem` per row, folded slot by slot
    on `Fraction`s and summed again."""

    def compose_row(self, f, parts):
        product, degrees = self.algebra.product_map().evaluate, self.algebra.space._degrees
        order, i, table = f.order, 1, dict(f.items())
        for u in parts:
            if u is None:
                i += 1
                continue
            rows = []
            for a, ca in table.items():
                tail = sum(degrees[x] for x in a[i:])
                head, ai, aj, rest = a[: i - 1], a[i - 1], a[i], a[i + 1 :]
                for b, cb in u.items():
                    odd = tail % 2 and sum(degrees[y] for y in b) % 2
                    coeff = -ca * cb if odd else ca * cb
                    for left, v in product((ai, b[0])).items():
                        for right, w in product((b[-1], aj)).items():
                            rows.append((head + (left,) + b[1:-1] + (right,) + rest, coeff * v * w))
            order += u.order - 2
            i += u.order - 1
            table = dict(TensorElem(self.algebra, order, rows).items())
        return TensorElem(self.algebra, order, table)

    def sum(self, arity, degree, terms):
        rows = ((factors, sign * c) for sign, t in terms for factors, c in t.items())
        return TensorElem(self.algebra, arity + 1, rows)

    inner = sum


def _oracle_of(structure):
    return _OracleRBS(
        structure.space,
        m=structure.m,
        r=structure.r,
        s=structure.s,
        truncation=structure.truncation,
    )


def _compare_structures(structure, arities):
    """Every residual of ``arities`` (family -> range) on both sides; the
    number of nonzero ones."""
    oracle, nonzero = _oracle_of(structure), 0
    for family, ns in arities.items():
        for n in ns:
            streamed = _residual(structure, family, n)
            assert streamed == _residual(oracle, family, n), (family, n)
            nonzero += not streamed.is_zero()
    return nonzero


@pytest.mark.parametrize("degrees", [(0, 1, 2), (0, 1, -1)])
@pytest.mark.parametrize("seed", (0, 1, 3))
def test_streamed_residuals_of_a_random_structure_match_the_per_row_path(seed, degrees):
    s = _random_structure(seed, degrees)
    assert s.gen("m", 1) is not None and s.gen("m", 3) is not None
    arities = {family: range(1, 6) for family in ("m", "R", "S")}
    assert _compare_structures(s, arities) > 10


def _dense_tool():
    spec = importlib.util.spec_from_file_location("dense_residuals", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


@pytest.mark.parametrize("seed", (1, 2))
def test_streamed_residuals_of_the_dense_structure_match_the_per_row_path(seed):
    # every residual that can be nonzero: m to 2T - 1, R and S to T^2
    T = 3
    s = _dense_tool().dense_structure([-1, 0], T, seed)
    assert sorted(s.m) == sorted(s.r) == sorted(s.s) == [1, 2, 3]
    arities = {"m": range(1, 2 * T), "R": range(1, T * T + 1), "S": range(1, T * T + 1)}
    assert _compare_structures(s, arities) > 15


def test_the_dense_residuals_tool_prints_time_and_one_hash(capsys):
    tool = _dense_tool()
    tables = tool.residuals(tool.dense_structure([-1, 0], 2, 1), 2)
    assert [(family, n) for family, n, _ in tables] == [
        ("m", 1), ("m", 2), ("m", 3),
        ("R", 1), ("S", 1), ("R", 2), ("S", 2), ("R", 3), ("S", 3), ("R", 4), ("S", 4),
    ]
    assert len(tool.digest(tables)) == 64


def _oracle_pair(pair):
    return _OraclePair(pair.algebra, r=pair.r, s=pair.s, truncation=pair.truncation)


@pytest.mark.parametrize("seed", range(4))
def test_streamed_pair_residuals_match_the_per_row_path(seed):
    pair = _pair(seed, truncation=5)
    oracle = _oracle_pair(pair)
    nonzero = 0
    for n in range(1, pair.truncation):
        for family in ("R", "S"):
            streamed = _residual(pair, family, n)
            assert streamed == _residual(oracle, family, n), (seed, family, n)
            nonzero += not streamed.is_zero()
        assert check_infinity_ybp(pair, n) == tuple(
            -_residual(oracle, family, n) for family in ("R", "S")
        )
    assert nonzero >= 6


def test_streamed_pair_residuals_match_on_an_algebra_with_denominators():
    # structure constants with denominators and products with several
    # terms; the algebra has no element of degree -1, so d = 0
    algebra = ALGEBRAS["twisted"]
    rng = random.Random("twisted-pair")
    d = random_tensor(rng, algebra, 1, degree=-1, density=0.9)
    r = {1: d, 2: random_tensor(rng, algebra, 2, 0, 0.5), 3: random_tensor(rng, algebra, 3, 1, 0.2)}
    s = {1: d, 2: random_tensor(rng, algebra, 2, 0, 0.5), 3: random_tensor(rng, algebra, 3, 1, 0.2)}
    pair = InfinityYBPair(algebra, r=r, s=s, truncation=4)
    oracle = _oracle_pair(pair)
    for n, family in itertools.product((1, 2, 3), ("R", "S")):
        assert _residual(pair, family, n) == _residual(oracle, family, n), (family, n)


@pytest.mark.parametrize("name", sorted(ALGEBRAS))
def test_the_integer_images_of_m1_and_m2_are_the_unit_insertions(name):
    algebra = ALGEBRAS[name]
    one = algebra.unit
    d = random_tensor(random.Random(name), algebra, 1, degree=-1, density=0.9)
    # only the algebras with elements of degree -1 have a nonzero d
    assert d.is_zero() == (-1 not in algebra.space._degrees.values())
    pair = InfinityYBPair(algebra, r={1: d}, s={1: d})
    assert pair.gen("m", 2) == raise_indices(one, (1,), 3)
    if d.is_zero():
        assert pair.gen("m", 1) is None
    else:
        assert pair.gen("m", 1) == raise_indices(d, (2,), 2) - raise_indices(d, (1,), 2)
    # m_2 is made once per algebra
    assert InfinityYBPair(algebra).gen("m", 2) is pair.gen("m", 2)


def test_support_compositions_are_the_filtered_compositions():
    # in the same order, for every set of allowed parts up to 7 and n <= 12
    checked = 0
    for n in range(1, 13):
        for k in range(1, n + 2):
            every = list(compositions(n, k))
            for size in range(0, 4):
                for allowed in itertools.combinations(range(1, 8), size):
                    want = [c for c in every if set(c) <= set(allowed)]
                    assert list(compositions(n, k, set(allowed))) == want, (n, k, allowed)
                    checked += bool(want)
    assert checked > 500


def test_a_structure_supports_its_nonzero_members():
    s = _random_structure(0, (0, 1, 2))
    for family, images in (("m", s.m), ("R", s.r), ("S", s.s)):
        assert set(s.support(family)) == set(images)
    pair = _pair(0, truncation=4)
    assert set(pair.support("R")) == {n - 1 for n in pair.r if n > 1}
