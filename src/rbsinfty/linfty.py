"""The controlling L-infinity algebra of a multiplication with two companion operators.

Deformations of a triple (associative product, left operator, right operator)
are governed by a graded vector space with three columns:

* an algebra column of multilinear maps on the suspended module, valued in
  the suspended module, and
* two operator columns, one per companion operator.

Cochains are stored at the suspended level throughout (see
:class:`CochainElement`), so the bracket formulas below never materialize a
shift operator: a cochain of intrinsic degree ``D`` keeps algebra maps of
map-degree ``D`` and operator maps of map-degree ``D + 1``, every bracket
``l_k`` has intrinsic degree ``k - 2``, and Maurer-Cartan elements sit in
intrinsic degree ``-1``.

The nonzero brackets are:

* ``l_2`` of two algebra cochains: the Gerstenhaber bracket of braces;
* ``l_{n+1}`` of one algebra cochain of arity ``n`` with ``n`` operator
  cochains: a symmetrized sum of brace substitutions, with the identity slot
  sitting after the first-column operators and before the second-column ones;
* permutations of these, fixed by graded antisymmetry: permuting the inputs
  multiplies by the signature times the Koszul sign of the permutation on
  intrinsic degrees.

Everything else vanishes, including any component whose algebra-cochain arity
differs from the number of operator inputs.

The Maurer-Cartan residual and the twisted differential are expanded by
column sums (multilinearity, as in Dotsenko-Shadrin-Vallette, *Maurer-Cartan
methods in deformation theory*): the pieces of a degree ``-1`` cochain are
odd, so each algebra piece is composed once per split of its slots between
the operator columns, each slot taking the sum of its column, with signs
that depend on the piece and the split alone (see `mc_residual`).
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, Mapping, Optional, Sequence, Union

from .graded import (
    GradedSpace,
    MultiMap,
    _MISSING,
    _field,
    _IntegerTable,
    _json_array,
    _json_int,
    _reject_repeats,
    _signed_rows,
    _slot_choices,
)
from .sampling import random_multimap
from .signs import koszul_chi, parity_sign, shuffles

TAG_ALG = "alg"
TAG_R = "rbo_r"
TAG_S = "rbo_s"
TAGS = (TAG_ALG, TAG_R, TAG_S)


def _staircase(degrees: Sequence[int]) -> int:
    """sum_{k=1}^{len-1} sum_{j<=k} degrees[j-1]: each entry but the last,
    weighted by how many later entries it precedes."""
    return sum(sum(degrees[:k]) for k in range(1, len(degrees)))


@dataclass(frozen=True)
class Piece:
    """One homogeneous component of a cochain: a column tag plus its stored map.

    The map always acts on the suspension of the underlying module.  For the
    algebra column the intrinsic degree is the map degree; for the operator
    columns the stored map is the suspension of the operator component, so
    the intrinsic degree is one less than the map degree.
    """

    tag: str
    map: MultiMap

    def __post_init__(self):
        if self.tag not in TAGS:
            raise ValueError(f"unknown column tag {self.tag!r}")

    @property
    def arity(self) -> int:
        return self.map.arity

    @property
    def degree(self) -> int:
        return self.map.degree if self.tag == TAG_ALG else self.map.degree - 1


class CochainElement:
    """A cochain of the three-column deformation complex.

    ``space`` is the unsuspended module; all stored maps act on its
    suspension (same basis names, degrees shifted up by one).  ``parts``
    maps column tags to ``{arity: MultiMap}`` families, or is an iterable of
    ``(tag, MultiMap)`` pairs.  The constructor is the one place where
    components are combined: the maps given for one tag and arity are
    summed in one table, and zero maps are dropped.  All components of a
    cochain must share one intrinsic degree.
    """

    __slots__ = ("space", "suspended", "parts", "degree", "truncation")

    def __init__(
        self,
        space: GradedSpace,
        parts: Union[
            Mapping[str, Mapping[int, MultiMap]], Iterable[tuple], None
        ] = None,
        truncation: Optional[int] = None,
        degree: Optional[int] = None,
    ):
        self.space = space
        self.suspended = space.suspend()
        if hasattr(parts, "items"):
            for family in parts.values():
                for arity, m in family.items():
                    if m.arity != arity:
                        raise ValueError(
                            f"map of arity {m.arity} stored under key {arity}"
                        )
            parts = [(tag, m) for tag, family in parts.items() for m in family.values()]
        grouped: dict[tuple[str, int], list[MultiMap]] = {}
        for tag, m in parts or ():
            if tag not in TAGS:
                raise ValueError(f"unknown column tag {tag!r}")
            grouped.setdefault((tag, m.arity), []).append(m)
        clean: dict[str, dict[int, MultiMap]] = {}
        inferred = degree
        for (tag, arity), maps in grouped.items():
            m = maps[0]
            if len(maps) > 1:
                m = MultiMap.sum(self.suspended, self.suspended, arity, m.degree, maps)
            if m.is_zero():
                continue
            if m.space_in != self.suspended or m.space_out != self.suspended:
                raise ValueError("component does not act on the suspended module")
            d = m.degree if tag == TAG_ALG else m.degree - 1
            if inferred is None:
                inferred = d
            elif d != inferred:
                raise ValueError(
                    f"components of mixed degrees {inferred} and {d} in one cochain"
                )
            clean.setdefault(tag, {})[arity] = m
        self.parts = clean
        self.degree = inferred
        arities = [a for family in clean.values() for a in family]
        if truncation is None:
            truncation = max(arities, default=1)
        if truncation < 1:
            raise ValueError(f"truncation must be >= 1, got {truncation}")
        if any(a > truncation for a in arities):
            raise ValueError(f"component arity exceeds truncation {truncation}")
        self.truncation = truncation

    # -- queries --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.parts

    def pieces(self) -> list[Piece]:
        return [
            Piece(tag, self.parts[tag][arity])
            for tag in TAGS
            if tag in self.parts
            for arity in sorted(self.parts[tag])
        ]

    # -- linear structure -------------------------------------------------

    @classmethod
    def sum(
        cls, space: GradedSpace, cochains: Iterable["CochainElement"]
    ) -> "CochainElement":
        """The sum of cochains on one module, each component built in one table.

        The sum takes the degree of the first cochain that has one.
        """
        degree = None
        pairs = []
        for c in cochains:
            if c.space != space:
                raise ValueError("cochains live on different modules")
            if degree is None:
                degree = c.degree
            for tag, family in c.parts.items():
                pairs += [(tag, m) for m in family.values()]
        return cls(space, pairs, degree=degree)

    def __add__(self, other: "CochainElement") -> "CochainElement":
        return CochainElement.sum(self.space, (self, other))

    def __rmul__(self, scalar) -> "CochainElement":
        parts = {
            tag: {arity: scalar * m for arity, m in family.items()}
            for tag, family in self.parts.items()
        }
        return CochainElement(self.space, parts, degree=self.degree)

    __mul__ = __rmul__

    def __neg__(self) -> "CochainElement":
        return self.__rmul__(-1)

    def __sub__(self, other: "CochainElement") -> "CochainElement":
        return self + (-other)

    def __eq__(self, other):
        if not isinstance(other, CochainElement):
            return NotImplemented
        return self.space == other.space and self.parts == other.parts

    def __repr__(self):
        if self.is_zero():
            return "CochainElement(0)"
        bits = [
            f"{tag}[{arity}]" for tag in TAGS for arity in sorted(self.parts.get(tag, {}))
        ]
        return f"CochainElement(degree={self.degree}; {', '.join(bits)})"

    # -- serialization ----------------------------------------------------

    def to_json(self) -> dict:
        return {
            "space": self.space.to_json(),
            "degree": self.degree,
            "truncation": self.truncation,
            "parts": [
                {"tag": tag, "map": self.parts[tag][arity].to_json()}
                for tag in TAGS
                if tag in self.parts
                for arity in sorted(self.parts[tag])
            ],
        }

    @classmethod
    def from_json(cls, data: Mapping) -> "CochainElement":
        space = GradedSpace.from_json(data.get("space", _MISSING))
        suspended = space.suspend()
        parts = [
            (
                _field(entry, "tag", str),
                MultiMap.from_json(suspended, suspended, entry.get("map")),
            )
            for entry in _json_array(data.get("parts", []), "parts")
        ]
        _reject_repeats((tag, m.arity) for tag, m in parts)
        truncation = _json_int(data.get("truncation"), "truncation", optional=True)
        degree = _json_int(data.get("degree"), "degree", optional=True)
        return cls(space, parts, truncation=truncation, degree=degree)


# -- suspension dictionary --------------------------------------------------


def suspend_alg_map(f: MultiMap) -> MultiMap:
    """A multilinear self-map of the module, rewritten on the suspension.

    The suspended map returns the suspension of the original value, times
    ``(-1)**((n-1)|f| + sum_{k=1}^{n-1} sum_{j<=k} |v_j|)`` on inputs of
    underlying degrees ``|v_1|, ..., |v_n|``.  On a module concentrated in
    degree zero this is a plain relabelling.
    """
    if f.space_in != f.space_out:
        raise ValueError("only self-maps of one module can be suspended here")
    space = f.space_in
    rows = {}
    for ins, outs in f.rows.items():
        degrees = [space.degree(name) for name in ins]
        sign = parity_sign((f.arity - 1) * f.degree + _staircase(degrees))
        rows[ins] = {out: sign * n for out, n in outs.items()}
    suspended = space.suspend()
    return MultiMap(suspended, suspended, f.arity, f.degree + 1 - f.arity, rows, f.denominator)


def classical_cochain(
    product: MultiMap, r_op: MultiMap, s_op: MultiMap, truncation: int = 3
) -> CochainElement:
    """Degree ``-1`` cochain packaging a product and an operator pair.

    The inputs are plain (unsuspended) maps on a module concentrated in
    degree zero: a binary product and two linear operators.  The result is
    a Maurer-Cartan element exactly when the product is associative and the
    operators satisfy the coupled operator identities.
    """
    space = product.space_in
    for m, what, arity in ((product, "product", 2), (r_op, "first operator", 1), (s_op, "second operator", 1)):
        if m.space_in != space or m.space_out != space:
            raise ValueError(f"{what} does not act on the common module")
        if m.arity != arity:
            raise ValueError(f"{what} must have arity {arity}, got {m.arity}")
    if any(space.degree(name) != 0 for name in space):
        raise ValueError(
            "packaged cochains need a module concentrated in degree zero; "
            "build graded cochains directly at the suspended level"
        )
    if truncation < 2:
        raise ValueError("truncation must be >= 2 to hold a binary product")
    parts = {
        TAG_ALG: {2: suspend_alg_map(product)},
        TAG_R: {1: suspend_alg_map(r_op)},
        TAG_S: {1: suspend_alg_map(s_op)},
    }
    return CochainElement(space, parts, truncation=truncation, degree=-1)


# -- the bracket family ------------------------------------------------------


def _orderings(maps: Sequence[MultiMap]) -> list[tuple[list[MultiMap], int]]:
    """Each distinct ordering of the operator maps ``maps`` once, with the
    summed Koszul sign ``chi`` (on their intrinsic degrees, map degree - 1)
    of the permutations that give it.

    Permutations that only exchange equal maps (the same object) give the
    same ordering.  Their signs are summed, not counted: two equal odd maps
    add, two equal even maps cancel, and an ordering whose signs cancel is
    left out.
    """
    first: dict[int, int] = {}
    pattern = tuple(first.setdefault(id(m), k) for k, m in enumerate(maps))
    parities = tuple((m.degree - 1) & 1 for m in maps)
    return [
        ([maps[k] for k in order], chi)
        for order, chi in _index_orderings(pattern, parities)
    ]


@lru_cache(maxsize=None)
def _index_orderings(
    pattern: tuple[int, ...], parities: tuple[int, ...]
) -> tuple[tuple[tuple[int, ...], int], ...]:
    """`_orderings` on positions: ``pattern[k]`` names the first position
    holding the same map as position k.  Each distinct ordering is given by
    the positions of its first permutation, with its summed chi; it depends
    on nothing else, so each pair is worked out once per process."""
    groups: dict[tuple[int, ...], list] = {}
    for sigma in itertools.permutations(range(1, len(pattern) + 1)):
        key = tuple(pattern[s - 1] for s in sigma)
        group = groups.setdefault(key, [tuple(s - 1 for s in sigma), 0])
        group[1] += _chi(sigma, parities)
    return tuple((order, chi) for order, chi in groups.values() if chi)


@lru_cache(maxsize=None)
def _chi(sigma: tuple[int, ...], parities: tuple[int, ...]) -> int:
    """`koszul_chi` of ``sigma`` on degrees given by their parities, all it
    depends on; each pair is computed once per process."""
    return koszul_chi(sigma, parities)


def _operator_rows(
    F: MultiMap, gs: Sequence[tuple], hs: Sequence[tuple], numerator: int = 1
) -> Iterator[tuple]:
    """The operator terms of F with the slots ``gs`` of the first operator
    column and ``hs`` of the second, times ``numerator``, as streams (see
    `_bracket_rows`); ``F.arity`` is ``len(gs) + len(hs)``.  Every operator
    term is signed here, by one exponent on the slots' intrinsic degrees
    ``g`` and ``h``::

        base = n F.degree + stair(g) + stair(h) + (sum g)(n - j)

    with ``n`` slots, ``j`` of them in the first column, and ``stair`` the
    `_staircase`.  A slot is ``(part, hosts, degree)``: the part F takes
    there (a map, or the triple of `_IntegerTable.part` for a sum of maps),
    the maps it sums, and their intrinsic degree.  When one column is empty
    the plain substitution F(gs, hs) has sign ``(-1)^base``.  In each brace
    term the first slot of a nonempty column climbs outside and the identity
    fills the slot between the columns inside; the inner composition is
    summed once in an `_IntegerTable`, read as a part, and each map c the
    slot sums is composed over it with sign ``(-1)^(1 + base + c.degree
    (F.degree + M))``, M 0 for the first column and the summed map degree of
    ``gs`` for the second."""
    space = F.space_in
    n, j = len(gs) + len(hs), len(gs)
    parts = [part for part, _, _ in [*gs, *hs]]
    g = [d for _, _, d in gs]
    base = n * F.degree + _staircase(g) + _staircase([d for _, _, d in hs]) + sum(g) * (n - j)
    degree = F.degree + sum(d + 1 for _, _, d in [*gs, *hs])
    if j in (0, n):
        yield TAG_R if j == n else TAG_S, degree, *_signed_rows(
            F, [parts], space, numerator * parity_sign(base)
        )
    for tag, slots, M, layout in (
        (TAG_R, gs, 0, parts[1:j] + [None] + parts[j:]),
        (TAG_S, hs, sum(g) + j, parts[:j] + [None] + parts[j + 1 :]),
    ):
        if not slots or not slots[0][1]:
            continue
        _, hosts, d = slots[0]
        inner = _IntegerTable()
        inner.add(*_signed_rows(F, [layout], space))
        part = inner.part(degree - d - 1, space)
        sign = numerator * parity_sign(1 + base + (d + 1) * (F.degree + M))
        for host in hosts:
            yield tag, degree, *_signed_rows(host, _slot_choices(host, [part]), space, sign)


def _operator_terms(
    F: MultiMap, gs: Sequence[MultiMap], hs: Sequence[MultiMap], outer: int
) -> Iterator[tuple]:
    """The bracket of one algebra cochain with operator cochains, times
    ``outer``, as streams (see `_bracket_rows`).

    ``gs`` feed the first operator column, ``hs`` the second.  Each distinct
    ordering pair ``(pg, ph)`` of the two columns (see `_orderings`) is
    composed once, by `_operator_rows`, with its summed Koszul signs."""
    second = _orderings(hs)
    for pg, chi_g in _orderings(gs):
        for ph, chi_h in second:
            yield from _operator_rows(
                F,
                [(m, (m,), m.degree - 1) for m in pg],
                [(m, (m,), m.degree - 1) for m in ph],
                outer * chi_g * chi_h,
            )


def _bracket_rows(pieces: Sequence[Piece], numerator: int = 1) -> Iterator[tuple]:
    """The bracket of ``pieces`` times ``numerator``, as streams ``(tag, map
    degree, denominator, rows)`` of the integer rows of `_signed_rows`;
    nothing when the bracket vanishes.  `_tables` sums them."""
    n = len(pieces)
    if n < 2 or any(p.map.is_zero() for p in pieces):
        return
    alg_positions = [i for i, p in enumerate(pieces) if p.tag == TAG_ALG]
    if n == 2 and len(alg_positions) == 2:
        # the Gerstenhaber bracket {sf}{sh} - (-1)^(|sf||sh|) {sh}{sf}
        sf, sh = pieces[0].map, pieces[1].map
        space = sf.space_in
        degree = sf.degree + sh.degree
        swap = parity_sign(sf.degree * sh.degree)
        yield TAG_ALG, degree, *_signed_rows(sf, _slot_choices(sf, [sh]), space, numerator)
        yield TAG_ALG, degree, *_signed_rows(
            sh, _slot_choices(sh, [sf]), space, -swap * numerator
        )
        return
    if len(alg_positions) != 1:
        return
    a = alg_positions[0]
    first = [i for i, p in enumerate(pieces) if i != a and p.tag == TAG_R]
    second = [i for i, p in enumerate(pieces) if i != a and p.tag == TAG_S]
    order = [a] + first + second
    F = pieces[a].map
    if F.arity != n - 1:
        return
    chi = _chi(tuple(i + 1 for i in order), tuple(p.degree & 1 for p in pieces))
    yield from _operator_terms(
        F,
        [pieces[i].map for i in first],
        [pieces[i].map for i in second],
        numerator * chi,
    )


def _cochain(
    space: GradedSpace,
    tables: Mapping[str, tuple[int, _IntegerTable]],
    degree: Optional[int] = None,
) -> CochainElement:
    """The cochain on ``space`` whose components are the summed tables of
    `_tables`, each split by the length of its input tuples into one map per
    arity, of the map degree of its first stream; ``degree`` is passed on to
    `CochainElement`."""
    suspended = space.suspend()
    maps = []
    for tag, (map_degree, t) in tables.items():
        arities: dict[int, dict] = {}
        for ins, row in t.rows.items():
            arities.setdefault(len(ins), {})[ins] = row
        maps += [
            (tag, MultiMap(suspended, suspended, arity, map_degree, rows, t.denominator))
            for arity, rows in arities.items()
        ]
    return CochainElement(space, maps, degree=degree)


def _tables(streams: Iterable[tuple]) -> dict[str, tuple[int, _IntegerTable]]:
    """``{tag: (map degree, table)}``: the streams of each column summed in
    one `_IntegerTable`, whatever their arities (input tuples of different
    lengths never meet), the tables of `_cochain`."""
    tables: dict[str, tuple[int, _IntegerTable]] = {}
    for tag, degree, denominator, rows in streams:
        entry = tables.get(tag)
        if entry is None:
            entry = tables[tag] = (degree, _IntegerTable())
        entry[1].add(denominator, rows)
    return tables


def _nonzero(table: _IntegerTable) -> bool:
    return any(n for row in table.rows.values() for n in row.values())


def l_bracket(space: GradedSpace, pieces: Sequence[Piece]) -> CochainElement:
    """One bracket of the controlling L-infinity algebra.

    Graded antisymmetric: permuting the inputs multiplies by the signature
    times the Koszul sign on intrinsic degrees.  Nonzero only for two
    algebra cochains, or for one algebra cochain of arity ``n`` together
    with exactly ``n`` operator cochains.  The one-bracket case of
    `_bracket_rows`, summed by `_tables`.
    """
    _check_pieces(space, pieces)
    return _cochain(space, _tables(_bracket_rows(pieces)))


def _check_pieces(space: GradedSpace, pieces: Sequence[Piece]) -> None:
    suspended = space.suspend()
    for p in pieces:
        if p.map.space_in != suspended or p.map.space_out != suspended:
            raise ValueError("piece does not act on the suspension of the given module")


# -- the homotopy Jacobi identities ------------------------------------------


def _jacobi_sum(
    space: GradedSpace, pieces: Sequence[Piece]
) -> tuple[CochainElement, bool]:
    """The homotopy Jacobi combination of ``pieces``, and whether one of its
    terms is nonzero.

    The inner brackets are cochains, as their pieces feed the outer ones.
    Each outer bracket is summed in integer tables of its own, to tell
    whether it vanishes, and its signed rows are added to the tables of the
    combination, which is built once; it takes the degree of the first
    nonzero term, as `CochainElement.sum` would."""
    _check_pieces(space, pieces)
    n = len(pieces)
    parities = tuple(p.degree & 1 for p in pieces)
    combination: dict[str, tuple[int, _IntegerTable]] = {}
    degree = None
    for i in range(2, n):  # the unary bracket vanishes, killing i = 1 and i = n
        j = n + 1 - i
        for sigma in shuffles((i, n - i)):
            sign = parity_sign(i * (j - 1)) * _chi(sigma, parities)
            inner = l_bracket(space, [pieces[s - 1] for s in sigma[:i]])
            if inner.is_zero():
                continue
            rest = [pieces[s - 1] for s in sigma[i:]]
            for piece in inner.pieces():
                term = _tables(_bracket_rows([piece] + rest, sign))
                for tag, (map_degree, table) in term.items():
                    if not _nonzero(table):
                        continue
                    if degree is None:
                        degree = map_degree if tag == TAG_ALG else map_degree - 1
                    entry = combination.get(tag)
                    if entry is None:
                        entry = combination[tag] = (map_degree, _IntegerTable())
                    rows = table.rows.items()
                    entry[1].add(table.denominator, ((ins, 1, row) for ins, row in rows))
    return _cochain(space, combination, degree), degree is not None


# -- Maurer-Cartan theory -----------------------------------------------------


def _columns(alpha: CochainElement) -> tuple:
    """The suspended module of ``alpha`` and its three columns as slots of
    `_operator_rows`: the sum of each column's maps in one `_IntegerTable`,
    read as a part (input tuples of different lengths never meet), the maps
    themselves, and their intrinsic degree -1; ``alpha`` must have degree
    -1."""
    if alpha.degree not in (None, -1):
        raise ValueError(
            f"Maurer-Cartan candidates must have degree -1, got {alpha.degree}"
        )
    columns = [alpha.suspended]
    for tag in TAGS:
        maps = list(alpha.parts.get(tag, {}).values())
        table = _IntegerTable()
        for m in maps:
            table.add(m.denominator, ((ins, 1, row) for ins, row in m.rows.items()))
        map_degree = -1 if tag == TAG_ALG else 0
        columns.append((table.part(map_degree, alpha.suspended), maps, -1))
    return tuple(columns)


def _column_rows(columns: tuple, leads: Sequence[Optional[Piece]]) -> Iterator[tuple]:
    """The streams of the Maurer-Cartan residual (lead None) or of the
    twisted differential of each lead, over the `_columns` of alpha, with
    the terms and signs that `mc_residual` and `twisted_differential`
    state."""
    space, (abar, algebra, _), first, second = columns
    for lead in leads:
        x = None if lead is None else lead.map
        if lead is None or lead.tag == TAG_ALG:
            for F in algebra if x is None else [x]:
                yield TAG_ALG, F.degree - 1, *_signed_rows(F, _slot_choices(F, [abar]), space)
                for j in range(F.arity + 1):
                    yield from _operator_rows(F, [first] * j, [second] * (F.arity - j))
            for a in algebra if x is not None else ():
                yield TAG_ALG, x.degree - 1, *_signed_rows(
                    a, _slot_choices(a, [x]), space, -parity_sign(x.degree)
                )
            continue
        D, in_first = lead.degree, lead.tag == TAG_R
        column = first if in_first else second
        for F in algebra:
            n = F.arity
            for j in range(n + 1):
                size, shift = (j, D + 1) if in_first else (n - j, (1 + j) * (1 + D))
                for p in range(size):
                    placed = [column] * p + [(x, (x,), D)] + [column] * (size - p - 1)
                    gs, hs = (placed, [second] * (n - j)) if in_first else ([first] * j, placed)
                    yield from _operator_rows(F, gs, hs, parity_sign(shift + p * (1 + D)))


def mc_residual(alpha: CochainElement) -> CochainElement:
    """``sum_{k>=2} (1/k!) l_k(alpha, ..., alpha)``, expanded by column sums.

    Raises unless ``alpha`` is homogeneous of intrinsic degree ``-1``.  Every
    piece of such an ``alpha`` is odd, so ``l_k`` is symmetric in its inputs
    and the sum runs over every sequence of pieces with weight one.  Two
    algebra pieces give ``sum_a a{A}``, A the sum of the algebra pieces.  An
    algebra piece F of arity n with n operator pieces is composed once per
    split j, each of its j first-column slots taking the sum R of the first
    column and each other slot the sum S of the second.  The signs depend on
    (F, j) alone (`_operator_rows` on degrees -1): ``(-1)^base``, with
    ``base = n|F| - j(j-1)/2 - (n-j)(n-j-1)/2 - j(n-j)``, for the plain term
    F(R, ..., R) (j = n) or F(S, ..., S) (j = 0), and ``(-1)^(1 + base)`` for
    each piece of a column composed over F(R^(j-1), id, S^(n-j)) (first
    column) or F(R^j, id, S^(n-j-1)) (second).  The rows of one column
    stream into one integer table, split into one map per arity.
    """
    return _cochain(alpha.space, _tables(_column_rows(_columns(alpha), [None])))


def twisted_differential(
    alpha: CochainElement, x: Union[CochainElement, Piece]
) -> CochainElement:
    """``sum_{k>=1} (1/k!) l_{k+1}(x, alpha, ..., alpha)``.

    Squares to zero whenever ``alpha`` is Maurer-Cartan, and lowers the
    intrinsic degree by one.  The argument occupies the leading slot: under
    the graded antisymmetry convention used here, leading placement is what
    makes the square vanish (for odd-degree arguments the two placements
    agree, since ``alpha`` is odd).  Raises unless ``alpha`` has intrinsic
    degree ``-1``: its odd pieces make each bracket symmetric in the ``alpha``
    slots, whatever the parity of ``x``, so the sum runs over every sequence
    of ``alpha`` pieces after each piece of ``x``, with weight one, and is
    expanded by column sums as in `mc_residual`.  An algebra piece x of map
    degree delta gives ``x{A} - (-1)^delta sum_a a{x}`` and the operator
    terms of F = x.  An operator piece x of intrinsic degree D takes each
    position p of its column in the operator terms of each algebra piece F
    and split j, with D at its slot in ``base``, and the Koszul sign that
    moves it there past F and the odd pieces before it: ``(-1)^(p(1 + D))``
    times ``(-1)^(D + 1)`` in the first column or ``(-1)^((1 + j)(1 + D))``
    in the second.  A brace term whose climbing piece is x has sign
    ``(-1)^(1 + base + (D + 1)|F|)``.
    """
    if isinstance(x, Piece):
        x = CochainElement(alpha.space, {x.tag: {x.arity: x.map}})
    if x.space != alpha.space:
        raise ValueError("cochains live on different modules")
    return _cochain(alpha.space, _tables(_column_rows(_columns(alpha), x.pieces())))


def _vanishes(streams: Iterable[tuple]) -> bool:
    """Whether the streams of `_tables` sum to the zero cochain; the sums
    stay integer tables, as nothing but their zeros is read."""
    return not any(_nonzero(table) for _, table in _tables(streams).values())


def basis_cochains(
    space: GradedSpace, max_arity: int = 2
) -> Iterator[CochainElement]:
    """Every single-entry cochain component of arity ``1..max_arity``.

    For each column tag, input tuple, and output name the entry fixes a
    unique map degree, so the enumeration spans all cochains supported in
    the given arity range.
    """
    if max_arity < 1:
        raise ValueError(f"max_arity must be >= 1, got {max_arity}")
    suspended = space.suspend()
    names = list(suspended)
    for tag in TAGS:
        for arity in range(1, max_arity + 1):
            for ins in itertools.product(names, repeat=arity):
                ins_degree = sum(suspended.degree(n) for n in ins)
                for out in names:
                    degree = suspended.degree(out) - ins_degree
                    m = MultiMap(suspended, suspended, arity, degree, {ins: {out: 1}})
                    yield CochainElement(space, {tag: {arity: m}})


def twist_square_defects(alpha: CochainElement, max_arity: int = 2) -> dict:
    """Apply the twisted differential twice to each basis cochain.

    Returns a JSON-ready report; when ``alpha`` satisfies the Maurer-Cartan
    equation every double application must vanish exactly.  Both
    applications are the column-sum expansion of `twisted_differential`,
    each algebra piece composed once per split j and position p of the
    argument, with its signs.  The second is only tested for zero, so its
    sums stay integer tables, over the columns of ``alpha`` summed once.
    """
    checked = 0
    failures = []
    columns = _columns(alpha)
    for cochain in basis_cochains(alpha.space, max_arity):
        once = twisted_differential(alpha, cochain)
        checked += 1
        if not _vanishes(_column_rows(columns, once.pieces())):
            piece = cochain.pieces()[0]
            failures.append(
                {"tag": piece.tag, "arity": piece.arity, "map": piece.map.to_json()}
            )
    return {"checked": checked, "failures": failures, "ok": not failures}


# -- randomized verification ---------------------------------------------------


def random_piece(
    rng: random.Random,
    space: GradedSpace,
    arity: int,
    tag: Optional[str] = None,
    degree: Optional[int] = None,
    density: float = 0.7,
    attempts: int = 5,
) -> Piece:
    """A random homogeneous cochain component on the suspension of ``space``."""
    tag = tag if tag is not None else rng.choice(TAGS)
    suspended = space.suspend()
    m = MultiMap.zero(suspended, suspended, arity, 0)
    for _ in range(attempts):
        chosen = degree if degree is not None else rng.choice((-1, 0, 1))
        m = random_multimap(rng, suspended, suspended, arity, chosen, density=density)
        if not m.is_zero():
            break
    return Piece(tag, m)


_JACOBI_PATTERNS = (
    ("alg", "alg", "alg"),
    ("alg1", "alg", "op"),
    ("alg1", "op", "op"),
    ("alg1", "alg1", "op"),
    ("alg1", "alg2", "op", "op"),
    ("alg", "alg", "alg", "alg"),
    ("alg1", "alg1", "alg2", "op"),
    ("alg2", "op", "op", "op"),
)


def verify_generalized_jacobi(
    dim: int = 2, truncation: int = 3, trials: int = 120, seed: int = 0
) -> dict:
    """Randomized check of the homotopy Jacobi identities up to four inputs.

    Draws tuples of random homogeneous cochain components on a graded module
    of the given dimension (basis degrees ``0, 1, ..., dim - 1``), evaluates
    the Jacobi combination, and reports any nonzero defect: each failure
    lists its inputs and the nonzero components of the defect, with the
    number of input tuples on which each is nonzero.  ``active`` counts the
    trials in which at least one individual term was nonzero; a run with no
    active trial checked nothing and is refused.
    """
    if dim < 1:
        raise ValueError("module dimension must be >= 1")
    if truncation < 1:
        raise ValueError("truncation must be >= 1")
    if dim == 1 and truncation == 1:
        raise ValueError(
            "dimension 1 at truncation 1 has nothing to check: every bracket "
            "of arity-1 cochains on a one-dimensional module vanishes"
        )
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = random.Random(seed)
    space = GradedSpace((f"v{k + 1}", k) for k in range(dim))
    active = 0
    failures: list[dict] = []
    for trial in range(trials):
        if rng.random() < 0.7:
            pattern = rng.choice(_JACOBI_PATTERNS)
        else:
            pattern = tuple(
                rng.choice(("alg", "op")) for _ in range(rng.choice((3, 4)))
            )
        pieces = []
        for token in pattern:
            if token == "alg1":
                tag, arity = TAG_ALG, 1
            elif token == "alg2":
                tag, arity = TAG_ALG, min(2, truncation)
            elif token == "alg":
                tag, arity = TAG_ALG, rng.randint(1, truncation)
            else:
                tag, arity = rng.choice((TAG_R, TAG_S)), rng.randint(1, truncation)
            pieces.append(random_piece(rng, space, arity, tag=tag))
        defect, nonzero_term = _jacobi_sum(space, pieces)
        active += nonzero_term
        if not defect.is_zero():
            failures.append(
                {
                    "trial": trial,
                    "pattern": list(pattern),
                    "inputs": [
                        {"tag": p.tag, "arity": p.arity, "degree": p.degree}
                        for p in pieces
                    ],
                    "defect": [
                        {
                            "tag": p.tag,
                            "arity": p.arity,
                            "nonzero_entries": len(p.map.rows),
                        }
                        for p in defect.pieces()
                    ],
                }
            )
    if not active:
        raise ValueError(
            f"active 0 of {trials} trials: every term of every Jacobi combination "
            "vanished, so nothing was checked; draw more trials or another seed"
        )
    return {
        "identity": "generalized-jacobi",
        "module_dimension": dim,
        "truncation": truncation,
        "max_inputs": 4,
        "trials": trials,
        "seed": seed,
        "active": active,
        "failures": failures,
        "ok": not failures,
    }
