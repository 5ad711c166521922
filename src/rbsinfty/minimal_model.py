"""Differentials of the two free resolutions and the d-squared checker.

Two presentations are implemented, each a free operad with a degree -1
derivation differential defined on generators:

* the (m, R, S) presentation: generators m_n (n >= 2, degree n-2) and
  R_n, S_n (n >= 1, degree n-1), with the differential given by explicit
  signed sums of left-to-right materialized composites;
* the (x, y, z) presentation: generators x_n (n >= 2, degree -1) and
  y_n, z_n (n >= 1, degree 0), with the differential written in terms of
  brace operations (the operad unit occupies the distinguished slot).

Both satisfy d^2 = 0, which `check_d_squared` verifies by exact symbolic
expansion.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Sequence

from .signs import parity_sign
from .trees import (
    _FAMILY_MIN_ARITY,
    Generator,
    OperadElement,
    TreeMonomial,
    as_element,
    brace,
    compose_at,
    gen,
    graft_with_sign,
    identity_element,
)

# ---------------------------------------------------------------------------
# sign exponents
# ---------------------------------------------------------------------------


def alpha_exponent(k: int, parts: Sequence[int]) -> int:
    """Exponent on the m_k(operator row) terms of the operator differential."""
    return 1 + sum((k - j) * (parts[j - 1] - 1) for j in range(1, k + 1))


def beta_exponent(p: int, j: int, i: int, parts: Sequence[int]) -> int:
    """Exponent on the operator(..m_p row..) terms of the operator differential."""
    r1 = parts[0]
    load = p + sum(r - 1 for r in parts[1:])
    before_j = sum(parts[t - 1] - 1 for t in range(2, j + 1))
    tail = sum((parts[t - 1] - 1) * (p - t) for t in range(2, p + 1))
    return 1 + i + load * (r1 - i) + before_j + tail


def delta_exponent(k: int, parts: Sequence[int]) -> int:
    """Exponent on the m_k(R...R) terms of the map-level operator residual."""
    return k * (k - 1) // 2 + sum((k - j) * parts[j - 1] for j in range(1, k + 1))


def eta_exponent(p: int, j: int, i: int, parts: Sequence[int]) -> int:
    """Exponent on the mixed-row terms of the map-level operator residual.

    ``i`` counts identity slots before the inner block; it relates to the
    plug position of `beta_exponent` by i = plug - 1, and the two exponents
    agree mod 2.
    """
    r1 = parts[0]
    k = r1 - 1 - i
    load = p + sum(r - 1 for r in parts[1:])
    before_j = sum(parts[t - 1] - 1 for t in range(2, j + 1))
    tail = sum((parts[t - 1] - 1) * (p - t) for t in range(2, p + 1))
    return i + load * k + before_j + tail


def compositions(n: int, k: int) -> Iterator[tuple[int, ...]]:
    """Ordered k-tuples of positive integers summing to n.

    >>> sorted(compositions(4, 2))
    [(1, 3), (2, 2), (3, 1)]
    """
    for cuts in itertools.combinations(range(1, n), k - 1):
        bounds = (0,) + cuts + (n,)
        yield tuple(b - a for a, b in zip(bounds, bounds[1:]))


# ---------------------------------------------------------------------------
# generator differentials
# ---------------------------------------------------------------------------


def _diff_m(n: int) -> OperadElement:
    total = OperadElement.zero(n)
    for j in range(2, n):
        for i in range(1, n - j + 2):
            sign = parity_sign(i + j * (n - i))
            total = total + sign * compose_at(gen("m", n - j + 1), i, gen("m", j))
    return total


def _operator_row(k: int, parts: Sequence[int], family: str) -> OperadElement:
    """(...((m_k o_1 F_{l_1}) o_{l_1+1} F_{l_2}) ...) with F the operator family."""
    term = as_element(gen("m", k))
    leaf = 1
    for part in parts:
        term = compose_at(term, leaf, gen(family, part))
        leaf += part
    return term


def _mixed_row(p: int, j: int, parts: Sequence[int]) -> OperadElement:
    """m_p with R's in slots 1..j-1, slot j left open, S's in slots j+1..p.

    ``parts`` is the full composition (r_1, ..., r_p); only r_2..r_p are
    consumed here.  Grafts happen left to right at recomputed leaf positions.
    """
    term = as_element(gen("m", p))
    leaf = 1
    for t in range(2, j + 1):
        term = compose_at(term, leaf, gen("R", parts[t - 1]))
        leaf += parts[t - 1]
    leaf += 1  # the open slot j
    for t in range(j + 1, p + 1):
        term = compose_at(term, leaf, gen("S", parts[t - 1]))
        leaf += parts[t - 1]
    return term


def _diff_operator(n: int, family: str) -> OperadElement:
    total = OperadElement.zero(n)
    for k in range(2, n + 1):
        for parts in compositions(n, k):
            sign = parity_sign(alpha_exponent(k, parts))
            total = total + sign * _operator_row(k, parts, family)
    for p in range(2, n + 1):
        for parts in compositions(n, p):
            r1 = parts[0]
            outer = gen(family, r1)
            for j in range(1, p + 1):
                inner = _mixed_row(p, j, parts)
                for i in range(1, r1 + 1):
                    sign = parity_sign(beta_exponent(p, j, i, parts))
                    total = total + sign * compose_at(outer, i, inner)
    return total


def _diff_x(n: int) -> OperadElement:
    total = OperadElement.zero(n)
    for j in range(2, n):
        total = total - brace(gen("x", n - j + 1), [as_element(gen("x", j))])
    return total


def _diff_yz(n: int, family: str) -> OperadElement:
    total = OperadElement.zero(n)
    for k in range(2, n + 1):
        for parts in compositions(n, k):
            args = [as_element(gen(family, r)) for r in parts]
            total = total - brace(gen("x", k), args)
    for p in range(2, n + 1):
        for parts in compositions(n, p):
            outer = gen(family, parts[0])
            for j in range(1, p + 1):
                args = (
                    [as_element(gen("y", parts[t - 1])) for t in range(2, j + 1)]
                    + [identity_element()]
                    + [as_element(gen("z", parts[t - 1])) for t in range(j + 1, p + 1)]
                )
                inner = brace(gen("x", p), args)
                total = total + brace(outer, [inner])
    return total


def diff_generator(g: Generator) -> OperadElement:
    """Differential of a builtin-family generator.

    >>> diff_generator(gen("R", 1)).is_zero()
    True
    >>> diff_generator(gen("m", 2)).is_zero()
    True
    >>> diff_generator(gen("y", 1)).is_zero()
    True
    """
    if g.family == "m":
        return _diff_m(g.arity)
    if g.family in ("R", "S"):
        return _diff_operator(g.arity, g.family)
    if g.family == "x":
        return _diff_x(g.arity)
    if g.family in ("y", "z"):
        return _diff_yz(g.arity, g.family)
    raise ValueError(f"no differential defined for family {g.family!r}")


# ---------------------------------------------------------------------------
# derivation extension
# ---------------------------------------------------------------------------


def replace_vertex(
    t: TreeMonomial, index: int, u: TreeMonomial
) -> tuple[TreeMonomial, int]:
    """Substitute the tree ``u`` for the vertex at planar position ``index``.

    The children of the removed vertex are reattached to the leaves of ``u``
    left to right.  Returns the new monomial and the Koszul sign of
    reordering the vertex list (with the block of ``u``'s vertices standing
    in the removed vertex's position) into the planar order of the result.
    The vertices outside the removed vertex's subtree keep their places, so
    that sign is the sign of grafting the vertex's subtrees onto ``u``.
    """
    if not 0 <= index < t.weight:
        raise ValueError(f"no vertex at planar index {index}")
    planar_index = itertools.count()
    sign = 1

    def rebuild(node):
        nonlocal sign
        if node is None:
            return None
        generator, children = node
        if next(planar_index) != index:
            return (generator, tuple(rebuild(c) for c in children))
        if u.arity != generator.arity:
            raise ValueError(
                f"replacement arity {u.arity} != vertex arity {generator.arity}"
            )
        subtrees = {
            leaf: TreeMonomial(child)
            for leaf, child in enumerate(children, 1)
            if child is not None
        }
        grafted, sign = graft_with_sign(u, subtrees)
        return grafted.root

    return TreeMonomial(rebuild(t.root)), sign


DiffMap = Callable[[Generator], OperadElement]


def extend_derivation(diff_of: DiffMap, e: OperadElement) -> OperadElement:
    """Extend a generator differential to the free operad as a derivation.

    Each vertex of each monomial is replaced (in place) by the differential
    of its label, with the prefactor (-1)^(sum of the degrees of the vertices
    strictly preceding it in planar order).
    """
    accum: dict[TreeMonomial, Fraction] = {}
    for tree, coeff in e.terms.items():
        prefix = 0
        for index, label in enumerate(tree.vertices()):
            image = diff_of(label)
            if not image.is_zero():
                outer_sign = parity_sign(prefix)
                for u_tree, u_coeff in image.terms.items():
                    new_tree, sign = replace_vertex(tree, index, u_tree)
                    value = accum.get(new_tree, Fraction(0))
                    value += outer_sign * sign * coeff * u_coeff
                    if value:
                        accum[new_tree] = value
                    else:
                        accum.pop(new_tree, None)
            prefix += label.degree
    return OperadElement(e.arity, accum)


def differential(e: OperadElement) -> OperadElement:
    """The derivation extension of `diff_generator` (either presentation)."""
    return extend_derivation(diff_generator, e)


# ---------------------------------------------------------------------------
# d-squared verification
# ---------------------------------------------------------------------------

PRESENTATIONS = {
    "mrs": ("m", "R", "S"),
    "xyz": ("x", "y", "z"),
}

def presentation_generators(
    families: Iterable[str], max_arity: int
) -> list[Generator]:
    out = []
    for family in families:
        for n in range(_FAMILY_MIN_ARITY[family], max_arity + 1):
            out.append(gen(family, n))
    return out


def check_d_squared(families: Iterable[str], max_arity: int) -> dict:
    """Verify d(d(g)) = 0 for every listed generator of arity <= max_arity.

    Returns a JSON-ready report; a nonzero residual is reported, not raised.
    """
    if max_arity < 2:
        raise ValueError("max_arity must be >= 2")
    results = []
    for g in presentation_generators(families, max_arity):
        residual = differential(diff_generator(g))
        results.append(
            {
                "generator": g.name,
                "arity": g.arity,
                "residual_terms": len(residual.terms),
                "ok": residual.is_zero(),
            }
        )
    return {
        "families": sorted(set(families)),
        "max_arity": max_arity,
        "results": results,
        "ok": all(r["ok"] for r in results),
    }
