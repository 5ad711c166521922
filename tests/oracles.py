"""Test oracles and fixtures that no command of the library runs.

The command line checks every identity through `residuals._residual`; the
pieces here rebuild the same residuals another way, and the tests compare
the two:

* the four pieces of the differential graded R/S residual, each written once
  against the `generator_differential` target protocol (``gen``,
  ``compose_row``, ``sum``, ``inner``) and zero where the target has no m_2;
  `dga_residual_R`/`dga_residual_S` sum them in End(V), and the
  `equivalence_identity_*` pieces evaluate each in End(A), on the images
  under F of an ∞-Yang-Baxter pair, and in the tensor operad on the pair;
* `beta_exponent`, the closed form of the operator-row signs that
  `generator_differential` grows term by term;
* `is_associative` and `is_unital` of a based algebra;
* `insert`, f with one map in one slot and identities elsewhere;
* `random_tensor`, a seeded random tensor;
* the multiset expansion of the Maurer-Cartan residual and the twisted
  differential that `linfty` used before its column sums: one bracket per
  multiset of cochain pieces (`nonvanishing_inputs`), weighted by
  ``1/prod m_i!`` (`multiset_expansion`), each bracket with its operator
  signs written out in `_operator_terms`, apart from those of `linfty`.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter
from fractions import Fraction
from math import factorial, prod
from typing import Iterator, Optional, Sequence

from rbsinfty.graded import (
    BasedAlgebra,
    MultiMap,
    TensorElem,
    _IntegerTable,
    _signed_rows,
    _slot_choices,
    compose_tensor,
    tensor_product_multiply,
)
from rbsinfty.linfty import (
    TAG_ALG,
    TAG_R,
    TAG_S,
    CochainElement,
    Piece,
    _chi,
    _cochain,
    _orderings,
    _staircase,
    _tables,
)
from rbsinfty.minimal_model import slot
from rbsinfty.residuals import HomotopyRBS, _boundary, _check_arity
from rbsinfty.sampling import DEFAULT_COEFFICIENTS
from rbsinfty.signs import parity_sign
from rbsinfty.yang_baxter import InfinityYBPair, _chi_images

# -- the differential graded residual in four pieces ---------------------------
#
# The pieces of the residual of X_n (X = R, S) in a differential graded
# `generator_differential` target, each a sum of arity-n elements there (maps
# of End(V), order-(n+1) tensors): the residual is (1) + (2) - (3) - (4).
# Pieces (2) to (4) run through m_2 and are zero in a target without it.


def differential_piece(target, family: str, n: int):
    """(1) m_1 o X_n - (-1)^(n-1) sum_i X_n o_i m_1."""
    return target.sum(n, n - 2, _boundary(target, family, n, n - 1))


def product_piece(target, family: str, n: int):
    """(2) sum_{i+j=n} (-1)^(1+i) m_2(X_i, X_j)."""
    m2, terms = target.gen("m", 2), []
    for i in range(1, n):
        left, right = target.gen(family, i), target.gen(family, n - i)
        if m2 is not None and left is not None and right is not None:
            terms.append((parity_sign(1 + i), target.compose_row(m2, [left, right])))
    return target.sum(n, n - 2, terms)


def straddle_piece(target, family: str, n: int, inner_family: str):
    """(3) sum (-1)^((s-1) + (j-1)(i-s+1)) X_i o_s m_2(R_j, id) for R, and
    (4) sum (-1)^((s-1) + (j-1)(i-s)) X_i o_s m_2(id, S_j) for S, over
    i + j = n and 1 <= s <= i."""
    m2, first, terms = target.gen("m", 2), inner_family == "R", []
    for i in range(1, n):
        j = n - i
        outer, inner = target.gen(family, i), target.gen(inner_family, j)
        if m2 is None or outer is None or inner is None:
            continue
        row = target.compose_row(m2, [inner, None] if first else [None, inner])
        row = target.inner(j + 1, j - 1, [(1, row)])
        for s in range(1, i + 1):
            sign = parity_sign((s - 1) + (j - 1) * (i - s + first))
            terms.append((sign, target.compose_row(outer, slot(i, s, row))))
    return target.sum(n, n - 2, terms)


def is_dg(structure: HomotopyRBS) -> bool:
    """True when the structure has no product of arity >= 3."""
    return all(n <= 2 for n in structure.m)


def _sum_of_pieces(structure: HomotopyRBS, n: int, family: str) -> MultiMap:
    """The residual of X_n as the sum of its four pieces in End(V)."""
    _check_arity(structure, n)
    if not is_dg(structure):
        raise ValueError("structure has products of arity >= 3")
    pieces = [
        (1, differential_piece(structure, family, n)),
        (1, product_piece(structure, family, n)),
        (-1, straddle_piece(structure, family, n, "R")),
        (-1, straddle_piece(structure, family, n, "S")),
    ]
    return MultiMap.combination(structure.space, structure.space, n, n - 2, pieces)


def dga_residual_R(structure: HomotopyRBS, n: int) -> MultiMap:
    """First-family residual specialized to a differential graded algebra."""
    return _sum_of_pieces(structure, n, "R")


def dga_residual_S(structure: HomotopyRBS, n: int) -> MultiMap:
    """Second-family residual specialized to a differential graded algebra."""
    return _sum_of_pieces(structure, n, "S")


# -- the operator picture of each piece ----------------------------------------


def _in_both_operads(
    pair: InfinityYBPair, piece, family: str, n: int, *args
) -> tuple[MultiMap, TensorElem]:
    """The piece at index n on F of the images, with m_2 at any truncation,
    and in the tensor operad; F_map sends the second to the first."""
    structure = HomotopyRBS(pair.algebra.space, **_chi_images(pair))
    args = (family.upper(), n, *args)
    return piece(structure, *args), piece(pair, *args)


def equivalence_identity_1(
    pair: InfinityYBPair, n: int, family: str = "r"
) -> tuple[MultiMap, TensorElem]:
    """Differential piece: map side and tensor side (they agree under F_map)."""
    return _in_both_operads(pair, differential_piece, family, n)


def equivalence_identity_2(
    pair: InfinityYBPair, n: int, family: str = "r"
) -> tuple[MultiMap, TensorElem]:
    """Pairwise-product piece."""
    return _in_both_operads(pair, product_piece, family, n)


def equivalence_identity_3(
    pair: InfinityYBPair, n: int, family: str = "r"
) -> tuple[MultiMap, TensorElem]:
    """First straddling piece: inner first-family composition."""
    return _in_both_operads(pair, straddle_piece, family, n, "R")


def equivalence_identity_4(
    pair: InfinityYBPair, n: int, family: str = "r"
) -> tuple[MultiMap, TensorElem]:
    """Second straddling piece: inner second-family composition."""
    return _in_both_operads(pair, straddle_piece, family, n, "S")


# -- signs, algebras, maps and tensors -----------------------------------------


def beta_exponent(p: int, j: int, i: int, parts: Sequence[int]) -> int:
    """Exponent on the operator(..m_p row..) terms of the operator differential.

    `generator_differential` takes the same sums once per ``parts`` and
    grows them with j and i; this closed form is their reference.
    """
    r1 = parts[0]
    load = p + sum(r - 1 for r in parts[1:])
    before_j = sum(parts[t - 1] - 1 for t in range(2, j + 1))
    tail = sum((parts[t - 1] - 1) * (p - t) for t in range(2, p + 1))
    return 1 + i + load * (r1 - i) + before_j + tail


def is_associative(algebra: BasedAlgebra) -> bool:
    m = algebra.product_map()
    return compose_tensor(m, [m, None]) == compose_tensor(m, [None, m])


def is_unital(algebra: BasedAlgebra) -> bool:
    for a in algebra.space.names:
        x = TensorElem(algebra, 1, {(a,): 1})
        if tensor_product_multiply(algebra.unit, x) != x:
            return False
        if tensor_product_multiply(x, algebra.unit) != x:
            return False
    return True


def insert(f: MultiMap, position: int, g: MultiMap) -> MultiMap:
    """f with g plugged into one input slot, identities elsewhere."""
    if not 1 <= position <= f.arity:
        raise IndexError(f"position {position} out of range 1..{f.arity}")
    parts: list[Optional[MultiMap]] = [None] * f.arity
    parts[position - 1] = g
    return compose_tensor(f, parts)


def random_tensor(
    rng: random.Random,
    algebra: BasedAlgebra,
    order: int,
    degree: Optional[int] = None,
    density: float = 0.5,
    coefficients: Sequence[Fraction] = DEFAULT_COEFFICIENTS,
) -> TensorElem:
    """A random tensor, homogeneous of the given degree when one is supplied."""
    space = algebra.space
    table: dict[tuple[str, ...], Fraction] = {}
    for factors in itertools.product(space.names, repeat=order):
        if degree is not None:
            if sum(space.degree(name) for name in factors) != degree:
                continue
        if rng.random() >= density:
            continue
        table[factors] = rng.choice(list(coefficients))
    return TensorElem(algebra, order, table)


# -- the multiset expansion of the Maurer-Cartan theory -------------------------


def nonvanishing_inputs(
    pool: Sequence[Piece], lead: Optional[Piece] = None
) -> Iterator[tuple[int, list[Piece]]]:
    """The input lists ``[lead] + multiset`` whose bracket can be nonzero.

    The multisets are drawn from ``pool`` with repetition, once each up to
    order, and fit the vanishing rule of `rbsinfty.linfty`: two algebra
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


def _weighted_multisets(n: int, size: int) -> list[tuple[int, tuple[int, ...]]]:
    """The ``size``-multisets of ``range(n)``, in order, each with the
    divisor ``prod m_i!`` of its weight."""
    return [
        (prod(factorial(m) for m in Counter(combo).values()), combo)
        for combo in itertools.combinations_with_replacement(range(n), size)
    ]


def _operator_terms(
    F: MultiMap, gs: Sequence[MultiMap], hs: Sequence[MultiMap], outer: int,
    denominator: int, memo: dict,
) -> Iterator[tuple]:
    """The bracket of F with the operator maps ``gs`` (first column) and
    ``hs`` (second) times ``outer / denominator``, as streams of
    `linfty._tables`: each distinct ordering pair composed once, with the
    base exponent ``n F.degree + stair(pg) + stair(ph) + (sum |g|)(n - j)``
    and the climb ``1 + base + c.degree (F.degree + M)`` written out here.
    The inner composition of a brace term is made once per F and layout of
    the same maps in ``memo``, keyed by their identity."""
    n, j = len(gs) + len(hs), len(gs)
    space = F.space_in
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
                yield TAG_R if j == n else TAG_S, degree, *_signed_rows(
                    F, [pg + ph], space, sign * parity_sign(base), denominator
                )
            for tag, column, M in ((TAG_R, pg, 0), (TAG_S, ph, g_degree)):
                if not column:
                    continue
                layout = pg[1:] + [None] + ph if tag == TAG_R else pg + [None] + ph[1:]
                c = column[0]
                climb = parity_sign(1 + base + c.degree * (F.degree + M))
                key = (id(F), *map(id, layout))
                part = memo.get(key)
                if part is None:
                    inner = _IntegerTable()
                    inner.add(*_signed_rows(F, [layout], space))
                    part = memo[key] = inner.part(degree - c.degree, space)
                yield tag, degree, *_signed_rows(
                    c, _slot_choices(c, [part]), space, sign * climb, denominator
                )


def _bracket_rows(pieces: Sequence[Piece], denominator: int, memo: dict) -> Iterator[tuple]:
    """The bracket of ``pieces`` over ``denominator``, as streams of
    `linfty._tables`; nothing when it vanishes."""
    n = len(pieces)
    alg_positions = [i for i, p in enumerate(pieces) if p.tag == TAG_ALG]
    if n == 2 and len(alg_positions) == 2:
        sf, sh = pieces[0].map, pieces[1].map
        space, degree = sf.space_in, sf.degree + sh.degree
        swap = parity_sign(sf.degree * sh.degree)
        yield TAG_ALG, degree, *_signed_rows(sf, _slot_choices(sf, [sh]), space, 1, denominator)
        yield TAG_ALG, degree, *_signed_rows(sh, _slot_choices(sh, [sf]), space, -swap, denominator)
        return
    a = alg_positions[0]
    first = [i for i, p in enumerate(pieces) if i != a and p.tag == TAG_R]
    second = [i for i, p in enumerate(pieces) if i != a and p.tag == TAG_S]
    order = [a] + first + second
    chi = _chi(tuple(i + 1 for i in order), tuple(p.degree & 1 for p in pieces))
    yield from _operator_terms(
        pieces[a].map,
        [pieces[i].map for i in first],
        [pieces[i].map for i in second],
        chi,
        denominator,
        memo,
    )


def expand_rows(alpha: CochainElement, leads: Sequence[Optional[Piece]]) -> Iterator[tuple]:
    """The brackets of `nonvanishing_inputs` on the pieces of ``alpha``
    after each of ``leads``, each weighted by its divisor, as streams of
    `linfty._tables`; ``alpha`` must have degree -1."""
    if alpha.degree not in (None, -1):
        raise ValueError(f"Maurer-Cartan candidates must have degree -1, got {alpha.degree}")
    pool, memo = alpha.pieces(), {}
    for lead in leads:
        for divisor, pieces in nonvanishing_inputs(pool, lead):
            yield from _bracket_rows(pieces, divisor, memo)


def multiset_expansion(alpha: CochainElement, leads: Sequence[Optional[Piece]]) -> CochainElement:
    """The Maurer-Cartan residual of ``alpha`` (``leads = [None]``) or its
    twisted differential of the pieces ``leads``, summed over multisets."""
    return _cochain(alpha.space, _tables(expand_rows(alpha, leads)))
