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
from fractions import Fraction
from math import factorial, prod
from typing import Iterable, Iterator, Mapping, Optional, Sequence, Union

from .graded import (
    GradedSpace,
    MultiMap,
    _field,
    _json_array,
    _json_int,
    _reject_repeats,
    _signed_rows,
    _slot_choices,
    brace_map,
    compose_tensor,
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
        scalar = Fraction(scalar)
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
        space = GradedSpace.from_json(data["space"])
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


def _suspension_signed(f: MultiMap, space: GradedSpace, degree: int) -> dict:
    """f's table signed as in `suspend_alg_map`, for the unsuspended
    ``degree`` of the map and input degrees read in the unsuspended ``space``."""
    table: dict[tuple[str, ...], dict[str, Fraction]] = {}
    for ins, outs in f.table.items():
        degrees = [space.degree(name) for name in ins]
        sign = parity_sign((f.arity - 1) * degree + _staircase(degrees))
        table[ins] = {out: sign * coeff for out, coeff in outs.items()}
    return table


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
    table = _suspension_signed(f, f.space_in, f.degree)
    return MultiMap(suspended, suspended, f.arity, f.degree + 1 - f.arity, table)


def desuspend_alg_map(m: MultiMap) -> MultiMap:
    """Inverse of :func:`suspend_alg_map`."""
    if m.space_in != m.space_out:
        raise ValueError("only self-maps of one module can be desuspended here")
    space = m.space_in.suspend(-1)
    degree = m.degree + m.arity - 1
    return MultiMap(space, space, m.arity, degree, _suspension_signed(m, space, degree))


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


def _orderings(
    maps: Sequence[MultiMap], degrees: Sequence[int]
) -> list[tuple[list[MultiMap], int]]:
    """Each distinct ordering of ``maps`` once, with the summed Koszul sign
    ``chi`` of the permutations that give it.

    Permutations that only exchange equal maps (the same object) give the
    same ordering.  Their signs are summed, not counted: two equal odd maps
    add, two equal even maps cancel, and an ordering whose signs cancel is
    left out.
    """
    groups: dict[tuple[int, ...], list] = {}
    for sigma in itertools.permutations(range(1, len(maps) + 1)):
        ordered = [maps[s - 1] for s in sigma]
        group = groups.setdefault(tuple(map(id, ordered)), [ordered, 0])
        group[1] += koszul_chi(sigma, degrees)
    return [(ordered, chi) for ordered, chi in groups.values() if chi]


def _operator_terms(
    F: MultiMap, gs: Sequence[MultiMap], hs: Sequence[MultiMap], outer: int
) -> Iterator[tuple[str, MultiMap]]:
    """The bracket of one algebra cochain with operator cochains, per column.

    ``gs`` feed the first operator column, ``hs`` the second; ``F.arity``
    equals ``len(gs) + len(hs)``.  Degrees written ``|f| + 1 = F.degree`` and
    ``|g| = (map degree) - 1`` below are the intrinsic ones.  Each distinct
    ordering of the operators (see `_orderings`) is composed once, and the
    signed rows of every term of a column go into one `MultiMap`.
    """
    n = len(gs) + len(hs)
    j = len(gs)
    f1 = F.degree
    gdeg = [m.degree - 1 for m in gs]
    hdeg = [m.degree - 1 for m in hs]
    sum_g = sum(gdeg)
    space = F.space_in
    rows: dict[str, list] = {TAG_R: [], TAG_S: []}

    # Plain substitution terms exist only when all operators feed one column.
    if j == n or j == 0:
        maps, degrees, tag = (gs, gdeg, TAG_R) if j == n else (hs, hdeg, TAG_S)
        for permuted, chi in _orderings(maps, degrees):
            pdeg = [m.degree - 1 for m in permuted]
            sign = outer * chi * parity_sign(n * f1 + _staircase(pdeg))
            rows[tag].append(_signed_rows(F, [permuted], space, sign))

    # Brace terms: one operator climbs outside, the identity fills the slot
    # between the two columns inside.
    for pg, chi_g in _orderings(gs, gdeg):
        pgd = [m.degree - 1 for m in pg]
        for ph, chi_h in _orderings(hs, hdeg):
            phd = [m.degree - 1 for m in ph]
            chi = chi_g * chi_h
            if j >= 1:
                exponent = (
                    1
                    + n * f1
                    + _staircase(phd)
                    + sum_g * (n - j)
                    + _staircase(pgd)
                    + (pgd[0] + 1) * f1
                )
                inner = compose_tensor(F, pg[1:] + [None] + ph)
                sign = outer * chi * parity_sign(exponent)
                braces = _slot_choices(pg[0], [inner])
                rows[TAG_R].append(_signed_rows(pg[0], braces, space, sign))
            if n - j >= 1:
                exponent = (
                    1
                    + n * f1
                    + _staircase(pgd)
                    + (phd[0] + 1) * (f1 + sum_g + j)
                    + _staircase(phd)
                    + sum_g * (n - j)
                )
                inner = compose_tensor(F, pg + [None] + ph[1:])
                sign = outer * chi * parity_sign(exponent)
                braces = _slot_choices(ph[0], [inner])
                rows[TAG_S].append(_signed_rows(ph[0], braces, space, sign))

    arity = sum(m.arity for m in [*gs, *hs])
    degree = F.degree + sum(m.degree for m in [*gs, *hs])
    for tag, streams in rows.items():
        yield tag, MultiMap(space, space, arity, degree, itertools.chain(*streams))


def l_bracket(space: GradedSpace, pieces: Sequence[Piece]) -> CochainElement:
    """One bracket of the controlling L-infinity algebra.

    Graded antisymmetric: permuting the inputs multiplies by the signature
    times the Koszul sign on intrinsic degrees.  Nonzero only for two
    algebra cochains, or for one algebra cochain of arity ``n`` together
    with exactly ``n`` operator cochains.
    """
    suspended = space.suspend()
    for p in pieces:
        if p.map.space_in != suspended or p.map.space_out != suspended:
            raise ValueError("piece does not act on the suspension of the given module")
    n = len(pieces)
    if n < 2 or any(p.map.is_zero() for p in pieces):
        return CochainElement(space)
    alg_positions = [i for i, p in enumerate(pieces) if p.tag == TAG_ALG]
    if n == 2 and len(alg_positions) == 2:
        sf, sh = pieces[0].map, pieces[1].map
        swap = parity_sign(sf.degree * sh.degree)
        gerstenhaber = brace_map(sf, [sh]) - swap * brace_map(sh, [sf])
        return CochainElement(space, [(TAG_ALG, gerstenhaber)])
    if len(alg_positions) != 1:
        return CochainElement(space)
    a = alg_positions[0]
    first = [i for i, p in enumerate(pieces) if i != a and p.tag == TAG_R]
    second = [i for i, p in enumerate(pieces) if i != a and p.tag == TAG_S]
    order = [a] + first + second
    F = pieces[a].map
    if F.arity != n - 1:
        return CochainElement(space)
    terms = _operator_terms(
        F,
        [pieces[i].map for i in first],
        [pieces[i].map for i in second],
        koszul_chi([i + 1 for i in order], [p.degree for p in pieces]),
    )
    return CochainElement(space, terms)


def nonvanishing_inputs(
    pool: Sequence[Piece], lead: Optional[Piece] = None
) -> Iterator[tuple[Fraction, list[Piece]]]:
    """The input lists ``[lead] + multiset`` whose bracket can be nonzero.

    The multisets are drawn from ``pool`` with repetition, once each up to
    order, and fit the vanishing rule of the module docstring: two algebra
    inputs, or one algebra input of arity ``n`` with ``n`` operator inputs.
    Each comes with the weight ``1/prod m_i!`` of its multiplicities
    ``m_i``; ``lead`` is not counted in them.
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
) -> Iterator[tuple[Fraction, list[Piece]]]:
    """``head`` followed by each ``size``-multiset of ``items``, weighted by
    ``1/prod m_i!``."""
    for combo in itertools.combinations_with_replacement(range(len(items)), size):
        weight = prod(factorial(m) for m in Counter(combo).values())
        yield Fraction(1, weight), head + [items[i] for i in combo]


# -- the homotopy Jacobi identities ------------------------------------------


def _jacobi_terms(
    space: GradedSpace, pieces: Sequence[Piece]
) -> Iterator[tuple[int, CochainElement]]:
    n = len(pieces)
    degrees = [p.degree for p in pieces]
    for i in range(2, n):  # the unary bracket vanishes, killing i = 1 and i = n
        j = n + 1 - i
        for sigma in shuffles((i, n - i)):
            sign = parity_sign(i * (j - 1)) * koszul_chi(sigma, degrees)
            inner = l_bracket(space, [pieces[s - 1] for s in sigma[:i]])
            if inner.is_zero():
                continue
            rest = [pieces[s - 1] for s in sigma[i:]]
            for piece in inner.pieces():
                yield sign, l_bracket(space, [piece] + rest)


def generalized_jacobi_defect(
    space: GradedSpace, pieces: Sequence[Piece]
) -> CochainElement:
    """The homotopy Jacobi combination; identically zero for the bracket family.

    ``sum_{i+j=n+1} sum_{(i,n-i)-shuffles} (-1)**(i*(j-1)) * chi(sigma) *
    l_j(l_i(x_{sigma(1..i)}), x_{sigma(i+1..n)})``.
    """
    return CochainElement.sum(
        space, (sign * term for sign, term in _jacobi_terms(space, pieces))
    )


# -- Maurer-Cartan theory -----------------------------------------------------


def mc_residual(alpha: CochainElement) -> CochainElement:
    """``sum_{k>=2} (1/k!) l_k(alpha, ..., alpha)``, expanded over components.

    Raises unless ``alpha`` is homogeneous of intrinsic degree ``-1``.  Every
    piece of such an ``alpha`` is odd, so graded antisymmetry makes ``l_k``
    symmetric in its inputs: the ``k!/prod m_i!`` orderings of a multiset of
    pieces (multiplicities ``m_i``) give one bracket, and the sum runs once
    over each multiset of :func:`nonvanishing_inputs` with weight
    ``1/prod m_i!``.
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
    ``alpha``, after each of ``leads``; ``alpha`` must have degree ``-1``."""
    if alpha.degree not in (None, -1):
        raise ValueError(
            f"Maurer-Cartan candidates must have degree -1, got {alpha.degree}"
        )
    space, pool = alpha.space, alpha.pieces()
    terms = []
    for lead in leads:
        for weight, pieces in nonvanishing_inputs(pool, lead):
            bracket = l_bracket(space, pieces)
            terms.append(bracket if weight == 1 else weight * bracket)
    return CochainElement.sum(space, terms)


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
                    m = MultiMap(
                        suspended, suspended, arity, degree, {ins: {out: Fraction(1)}}
                    )
                    yield CochainElement(space, {tag: {arity: m}})


def twist_square_defects(alpha: CochainElement, max_arity: int = 2) -> dict:
    """Apply the twisted differential twice to each basis cochain.

    Returns a JSON-ready report; when ``alpha`` satisfies the Maurer-Cartan
    equation every double application must vanish exactly.
    """
    checked = 0
    failures = []
    for cochain in basis_cochains(alpha.space, max_arity):
        twice = twisted_differential(alpha, twisted_differential(alpha, cochain))
        checked += 1
        if not twice.is_zero():
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
    trials in which at least one individual term was nonzero.
    """
    if dim < 1:
        raise ValueError("module dimension must be >= 1")
    if truncation < 1:
        raise ValueError("truncation must be >= 1")
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
        terms = list(_jacobi_terms(space, pieces))
        defect = CochainElement.sum(space, (sign * term for sign, term in terms))
        if any(not term.is_zero() for _, term in terms):
            active += 1
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
                            "nonzero_entries": len(p.map.table),
                        }
                        for p in defect.pieces()
                    ],
                }
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
