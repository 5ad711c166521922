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
"""

from __future__ import annotations

import itertools
import random
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from math import factorial, prod
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

    def component(self, tag: str, arity: int) -> MultiMap:
        if tag not in TAGS:
            raise ValueError(f"unknown column tag {tag!r}")
        stored = self.parts.get(tag, {}).get(arity)
        if stored is not None:
            return stored
        base = self.degree if self.degree is not None else 0
        map_degree = base if tag == TAG_ALG else base + 1
        return MultiMap.zero(self.suspended, self.suspended, arity, map_degree)

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


def _suspension_signed(
    f: MultiMap, space: GradedSpace, degree: int, target: GradedSpace, target_degree: int
) -> MultiMap:
    """f's rows signed as in `suspend_alg_map`, for the unsuspended
    ``degree`` of the map and input degrees read in the unsuspended
    ``space``, as the map of ``target_degree`` on ``target``."""
    rows = {}
    for ins, outs in f.rows.items():
        degrees = [space.degree(name) for name in ins]
        sign = parity_sign((f.arity - 1) * degree + _staircase(degrees))
        rows[ins] = {out: sign * n for out, n in outs.items()}
    return MultiMap(target, target, f.arity, target_degree, rows, f.denominator)


def suspend_alg_map(f: MultiMap) -> MultiMap:
    """A multilinear self-map of the module, rewritten on the suspension.

    The suspended map returns the suspension of the original value, times
    ``(-1)**((n-1)|f| + sum_{k=1}^{n-1} sum_{j<=k} |v_j|)`` on inputs of
    underlying degrees ``|v_1|, ..., |v_n|``.  On a module concentrated in
    degree zero this is a plain relabelling.
    """
    if f.space_in != f.space_out:
        raise ValueError("only self-maps of one module can be suspended here")
    suspended = f.space_in.suspend()
    return _suspension_signed(f, f.space_in, f.degree, suspended, f.degree + 1 - f.arity)


def desuspend_alg_map(m: MultiMap) -> MultiMap:
    """Inverse of :func:`suspend_alg_map`."""
    if m.space_in != m.space_out:
        raise ValueError("only self-maps of one module can be desuspended here")
    space = m.space_in.suspend(-1)
    degree = m.degree + m.arity - 1
    return _suspension_signed(m, space, degree, space, degree)


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


def _operator_terms(
    F: MultiMap,
    gs: Sequence[MultiMap],
    hs: Sequence[MultiMap],
    outer: int,
    denominator: int = 1,
    memo: Optional[dict] = None,
) -> Iterator[tuple]:
    """The bracket of one algebra cochain with operator cochains, times
    ``outer / denominator``, as streams (see `_bracket_rows`).

    ``gs`` feed the first operator column, ``hs`` the second; ``F.arity``
    equals ``n = len(gs) + len(hs)`` and ``j = len(gs)``.  Each distinct
    ordering pair ``(pg, ph)`` of the two columns (see `_orderings`) is
    composed once, with one base exponent on intrinsic degrees
    ``|g| = (map degree) - 1``::

        base = n F.degree + stair(pg) + stair(ph) + (sum |g|)(n - j)

    with ``stair`` the `_staircase` of the degrees.  When one column is
    empty the plain substitution F(pg, ph) has sign ``(-1)^base``.  In each
    brace term the first operator c of a nonempty column climbs outside and
    the identity fills the slot between the columns inside; its sign is
    ``(-1)^(1 + base + c.degree (F.degree + M))``, where M is 0 for the
    first column and the summed map degree of ``gs`` for the second.  The
    inner composition F(layout) of a brace term stays an `_IntegerTable`,
    read by `_signed_rows` through its `_output_index`, and is made once
    per F and layout of the same maps in ``memo``, keyed by their identity.
    """
    if memo is None:
        memo = {}
    n, j = len(gs) + len(hs), len(gs)
    space = F.space_in
    arity = sum(m.arity for m in [*gs, *hs])
    degree = F.degree + sum(m.degree for m in [*gs, *hs])
    shift = sum(m.degree - 1 for m in gs) * (n - j)
    g_degree = sum(m.degree for m in gs)
    second = [
        (ph, chi_h, _staircase([m.degree - 1 for m in ph])) for ph, chi_h in _orderings(hs)
    ]
    for pg, chi_g in _orderings(gs):
        base_g = n * F.degree + _staircase([m.degree - 1 for m in pg]) + shift
        for ph, chi_h, stair_h in second:
            sign = outer * chi_g * chi_h
            base = base_g + stair_h
            if j in (0, n):
                tag = TAG_R if j == n else TAG_S
                yield tag, arity, degree, *_signed_rows(
                    F, [pg + ph], space, sign * parity_sign(base), denominator
                )
            for tag, column, M in ((TAG_R, pg, 0), (TAG_S, ph, g_degree)):
                if not column:
                    continue
                layout = pg[1:] + [None] + ph if tag == TAG_R else pg + [None] + ph[1:]
                c = column[0]
                climb = parity_sign(1 + base + c.degree * (F.degree + M))
                # `l_bracket` or `CochainElement` checked that every piece
                # acts on one suspended space, so the composition is not
                # checked again
                key = (id(F), *map(id, layout))
                part = memo.get(key)
                if part is None:
                    inner = _IntegerTable()
                    inner.add(*_signed_rows(F, [layout], space))
                    part = memo[key] = inner.part(degree - c.degree, space)
                yield tag, arity, degree, *_signed_rows(
                    c, _slot_choices(c, [part]), space, sign * climb, denominator
                )


def _bracket_rows(
    pieces: Sequence[Piece],
    numerator: int = 1,
    denominator: int = 1,
    memo: Optional[dict] = None,
) -> Iterator[tuple]:
    """The bracket of ``pieces`` times ``numerator / denominator``, as
    streams ``(tag, arity, map degree, denominator, rows)`` of the integer
    rows of `_signed_rows`; nothing when the bracket vanishes.  `_tables`
    sums them.  ``memo`` keeps the inner compositions of `_operator_terms`
    across the brackets of one sum."""
    n = len(pieces)
    if n < 2 or any(p.map.is_zero() for p in pieces):
        return
    alg_positions = [i for i, p in enumerate(pieces) if p.tag == TAG_ALG]
    if n == 2 and len(alg_positions) == 2:
        # the Gerstenhaber bracket {sf}{sh} - (-1)^(|sf||sh|) {sh}{sf}
        sf, sh = pieces[0].map, pieces[1].map
        space = sf.space_in
        arity, degree = sf.arity + sh.arity - 1, sf.degree + sh.degree
        swap = parity_sign(sf.degree * sh.degree)
        yield TAG_ALG, arity, degree, *_signed_rows(
            sf, _slot_choices(sf, [sh]), space, numerator, denominator
        )
        yield TAG_ALG, arity, degree, *_signed_rows(
            sh, _slot_choices(sh, [sf]), space, -swap * numerator, denominator
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
        denominator,
        memo,
    )


def _cochain(
    space: GradedSpace,
    tables: Mapping[tuple[str, int], tuple[int, _IntegerTable]],
    degree: Optional[int] = None,
) -> CochainElement:
    """The cochain on ``space`` whose ``(tag, arity)`` component is the map
    of its summed table of `_tables`, of the map degree of its first
    stream; ``degree`` is passed on to `CochainElement`."""
    suspended = space.suspend()
    return CochainElement(
        space,
        [
            (tag, MultiMap(suspended, suspended, arity, map_degree, t.rows, t.denominator))
            for (tag, arity), (map_degree, t) in tables.items()
        ],
        degree=degree,
    )


def _tables(streams: Iterable[tuple]) -> dict[tuple[str, int], tuple[int, _IntegerTable]]:
    """``{(tag, arity): (map degree, table)}``: the streams of each
    component summed in one `_IntegerTable`, the tables of `_cochain`."""
    tables: dict[tuple[str, int], tuple[int, _IntegerTable]] = {}
    for tag, arity, degree, denominator, rows in streams:
        entry = tables.get((tag, arity))
        if entry is None:
            entry = tables[tag, arity] = (degree, _IntegerTable())
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


def nonvanishing_inputs(
    pool: Sequence[Piece], lead: Optional[Piece] = None
) -> Iterator[tuple[int, list[Piece]]]:
    """The input lists ``[lead] + multiset`` whose bracket can be nonzero.

    The multisets are drawn from ``pool`` with repetition, once each up to
    order, and fit the vanishing rule of the module docstring: two algebra
    inputs, or one algebra input of arity ``n`` with ``n`` operator inputs.
    Each comes with the divisor ``prod m_i!`` of its multiplicities
    ``m_i``, its weight being ``1/prod m_i!``; ``lead`` is not counted in
    them.
    """
    head = [] if lead is None else [lead]
    algebra = [p for p in pool if p.tag == TAG_ALG]
    operators = [p for p in pool if p.tag != TAG_ALG]
    if lead is None or lead.tag == TAG_ALG:
        yield from _multisets(head, algebra, 2 - len(head))
    if lead is not None and lead.tag == TAG_ALG:
        yield from _multisets(head, operators, lead.arity)
    else:
        for F in algebra:
            yield from _multisets(head + [F], operators, F.arity - len(head))


def _multisets(
    head: list[Piece], items: Sequence[Piece], size: int
) -> Iterator[tuple[int, list[Piece]]]:
    """``head`` followed by each ``size``-multiset of ``items``, with the
    divisor ``prod m_i!``."""
    for divisor, combo in _weighted_multisets(len(items), size):
        yield divisor, head + [items[i] for i in combo]


@lru_cache(maxsize=None)
def _weighted_multisets(n: int, size: int) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """The ``size``-multisets of ``range(n)``, in order, each with the
    divisor ``prod m_i!`` of its weight; made once per process for each
    pair."""
    return tuple(
        (prod(factorial(m) for m in Counter(combo).values()), combo)
        for combo in itertools.combinations_with_replacement(range(n), size)
    )


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
    combination: dict[tuple[str, int], tuple[int, _IntegerTable]] = {}
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
                for key, (map_degree, table) in term.items():
                    if not _nonzero(table):
                        continue
                    if degree is None:
                        degree = map_degree if key[0] == TAG_ALG else map_degree - 1
                    entry = combination.get(key)
                    if entry is None:
                        entry = combination[key] = (map_degree, _IntegerTable())
                    rows = table.rows.items()
                    entry[1].add(table.denominator, ((ins, 1, row) for ins, row in rows))
    return _cochain(space, combination, degree), degree is not None


def generalized_jacobi_defect(
    space: GradedSpace, pieces: Sequence[Piece]
) -> CochainElement:
    """The homotopy Jacobi combination; identically zero for the bracket family.

    ``sum_{i+j=n+1} sum_{(i,n-i)-shuffles} (-1)**(i*(j-1)) * chi(sigma) *
    l_j(l_i(x_{sigma(1..i)}), x_{sigma(i+1..n)})``.
    """
    return _jacobi_sum(space, pieces)[0]


# -- Maurer-Cartan theory -----------------------------------------------------


def mc_residual(alpha: CochainElement) -> CochainElement:
    """``sum_{k>=2} (1/k!) l_k(alpha, ..., alpha)``, expanded over components.

    Raises unless ``alpha`` is homogeneous of intrinsic degree ``-1``.  Every
    piece of such an ``alpha`` is odd, so graded antisymmetry makes ``l_k``
    symmetric in its inputs: the ``k!/prod m_i!`` orderings of a multiset of
    pieces (multiplicities ``m_i``) give one bracket, and the sum runs once
    over each multiset of :func:`nonvanishing_inputs` with weight
    ``1/prod m_i!``.  The weight folds into the integer rows of each
    bracket, which all stream into one integer table per residual
    component, the rows of its map.
    """
    return _expand(alpha, [None])


def is_mc(alpha: CochainElement) -> bool:
    """Whether the Maurer-Cartan residual of ``alpha`` vanishes exactly."""
    return mc_residual(alpha).is_zero()


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
    slots, whatever the parity of ``x``, so the sum runs once over each
    multiset of ``alpha`` pieces of :func:`nonvanishing_inputs` after each
    piece of ``x``, with weight ``1/prod m_i!``.
    """
    if isinstance(x, Piece):
        x = CochainElement(alpha.space, {x.tag: {x.arity: x.map}})
    if x.space != alpha.space:
        raise ValueError("cochains live on different modules")
    return _expand(alpha, x.pieces())


def _expand(alpha: CochainElement, leads: Sequence[Optional[Piece]]) -> CochainElement:
    """The weighted brackets of :func:`nonvanishing_inputs` on the pieces of
    ``alpha``, after each of ``leads``; ``alpha`` must have degree ``-1``.

    Each bracket's rows carry its weight and stream into one integer table
    per residual component (`_tables`), so no bracket is built as a map of
    its own."""
    return _cochain(alpha.space, _tables(_expand_rows(alpha, leads)))


def _expand_rows(
    alpha: CochainElement, leads: Sequence[Optional[Piece]]
) -> Iterator[tuple]:
    """The streams of `_expand`, unsummed."""
    if alpha.degree not in (None, -1):
        raise ValueError(
            f"Maurer-Cartan candidates must have degree -1, got {alpha.degree}"
        )
    pool, memo = alpha.pieces(), {}
    for lead in leads:
        for divisor, pieces in nonvanishing_inputs(pool, lead):
            yield from _bracket_rows(pieces, 1, divisor, memo)


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
    equation every double application must vanish exactly.  The second
    application is only tested for zero, so its sums stay integer tables.
    """
    checked = 0
    failures = []
    for cochain in basis_cochains(alpha.space, max_arity):
        once = twisted_differential(alpha, cochain)
        checked += 1
        if not _vanishes(_expand_rows(alpha, once.pieces())):
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
