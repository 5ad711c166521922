"""The monomial operad, its simplified differential and the contraction.

This is the one-relation-per-shape skeleton of the theory: the differential
of each generator is `generator_differential` built in `_FirstSlot`, where
f o_i g is zero for i > 1, so it keeps only the "first slot" composites,

    d m_n = sum_j (-1)^(1+j(n-1)) m_{n-j+1} o_1 m_j,
    d R_n = sum_{r1+r2=n} (-1)^(r1(r2-1)) R_{r1} o_1 (m_2 o_1 R_{r2}),
    d S_n = likewise with S_{r1} outside,

and admits an explicit contracting homotopy in positive degrees built from
*effective* tree monomials: trees carrying a distinguished typical divisor
(one of m_a o_1 m_2, (R_a o_1 m_2) o_1 R_1, (S_a o_1 m_2) o_1 R_1) in
"left-upper-most" position.  `check_homotopy` verifies dH + Hd = Id exactly
on an enumerated universe of positive-degree monomials.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Optional

from .minimal_model import FreeOperad, extend_derivation, generator_differential
from .signs import compositions, parity_sign
from .trees import (
    Generator,
    OperadElement,
    TreeMonomial,
    _tree,
    as_element,
    gen,
    leading_monomial,
)

# ---------------------------------------------------------------------------
# the simplified differential
# ---------------------------------------------------------------------------


class _FirstSlot(FreeOperad):
    """The free operad on m, R, S with f o_i g set to zero for i > 1."""

    @staticmethod
    def compose_at(f, i, g):
        if i > 1:
            return OperadElement.zero(f.arity + g.arity - 1)
        return FreeOperad.compose_at(f, i, g)


@lru_cache(maxsize=None)
def diff_bar(g: Generator) -> OperadElement:
    """First-slot differential of an m/R/S generator, built once per process.

    >>> diff_bar(gen("m", 3))
    -m2(m2(1, 2), 3)
    >>> diff_bar(gen("R", 2))
    R1(m2(R1(1), 2))
    >>> diff_bar(gen("R", 1)).is_zero()
    True
    """
    if g.family not in ("m", "R", "S"):
        raise ValueError(f"no monomial differential for family {g.family!r}")
    return generator_differential(g.family, g.arity, _FirstSlot)


def diff_bar_element(e: OperadElement) -> OperadElement:
    """Derivation extension of `diff_bar` to arbitrary elements."""
    return extend_derivation(diff_bar, e)


# ---------------------------------------------------------------------------
# effective tree monomials
# ---------------------------------------------------------------------------

_M2, _R1 = gen("m", 2), gen("R", 1)


def _typical_kind(nodes: tuple, position: int) -> Optional[str]:
    """Family letter if the vertex at ``position`` of a word roots a typical divisor.

    In preorder a vertex's first child comes right after it, so the divisor
    m_a o_1 m_2 is an m_2 at the next position, and (F_a o_1 m_2) o_1 R_1
    an m_2 and then an R_1.
    """
    family = nodes[position].family
    if nodes[position + 1] is not _M2:
        return None
    if family == "m":
        return "m"
    if family in ("R", "S") and nodes[position + 2] is _R1:
        return family
    return None


@dataclass(frozen=True)
class EffectiveDivisorLocation:
    root_index: int  # planar index of the divisor's root vertex
    leaf: int  # the effective leaf of the monomial
    kind: str  # family letter of the divisor shape
    position: int  # position of the divisor's root in the monomial's word


def is_effective(t: TreeMonomial) -> Optional[EffectiveDivisorLocation]:
    """Locate the effective divisor of a monomial, if there is one.

    A typical divisor qualifies when (i) the path from its root down to the
    leftmost leaf above it carries no further typical divisors and no
    positive-degree vertices (other than the divisor root itself), and
    (ii) every leaf strictly to the left sees only degree-0, non-typical
    vertices on its path from the root of the whole tree.

    In the word, the vertices on the paths of the leaves left of a leaf are
    those before the leaf just left of it, and the vertices from the divisor
    root down to its leftmost leaf come one after the other, right before
    that leaf.  Call a vertex blocking if it has positive degree or roots a
    typical divisor.  Only the first leaf with a blocking vertex before it
    can be the effective leaf, and then only if the last blocking vertex
    before it roots the divisor; so the occurrence is unique.
    """
    nodes = t.nodes
    leaf = 0
    blocker, blocker_kind = None, None  # the last blocking vertex so far
    for position, node in enumerate(nodes):
        if node is None:
            leaf += 1
            if blocker is not None:
                break
        else:
            kind = _typical_kind(nodes, position)
            if kind is not None or node.degree > 0:
                blocker, blocker_kind = position, kind
    if blocker_kind is None:
        return None
    # every leaf before the effective one lies before the divisor root
    return EffectiveDivisorLocation(blocker - leaf + 1, leaf, blocker_kind, blocker)


@lru_cache(maxsize=None)
def _leading_coefficient(g: Generator) -> int:
    coeff = leading_monomial(diff_bar(g))[1]
    if coeff not in (1, -1):
        raise RuntimeError(f"leading coefficient of d {g.name} is {coeff}, not a unit")
    return coeff


def homotopy_H(t: TreeMonomial) -> OperadElement:
    """The contraction: zero off effective monomials, divisor contraction on them.

    Contracting the divisor rooted at word position p replaces the root F_a
    by F_{a+1} and deletes the m_2 (and the R_1) that follow it: the
    subtrees keep their order in the word.

    >>> from rbsinfty.trees import parse_tree
    >>> homotopy_H(parse_tree("m2(m2(1, 2), 3)"))
    -m3(1, 2, 3)
    >>> homotopy_H(parse_tree("R1(m2(R1(1), 2))"))
    R2(1, 2)
    """
    location = is_effective(t)
    if location is None:
        return OperadElement.zero(t.arity)
    nodes, position = t.nodes, location.position
    root = nodes[position]
    replacement = gen(location.kind, root.arity + 1)
    omega = sum(node.degree for node in nodes[:position] if node is not None)
    removed = 2 if location.kind == "m" else 3
    contracted = _tree(
        nodes[:position] + (replacement,) + nodes[position + removed :],
        t.arity,
        t.degree - root.degree + replacement.degree,
    )
    # dividing by a unit is multiplying by it
    coeff = parity_sign(omega) * _leading_coefficient(replacement)
    return OperadElement.monomial(contracted, coeff)


def apply_homotopy(e: OperadElement) -> OperadElement:
    return OperadElement(
        e.arity,
        (
            (image, coeff * c)
            for tree, coeff in e.terms.items()
            for image, c in homotopy_H(tree).terms.items()
        ),
    )


# ---------------------------------------------------------------------------
# normal forms of the degree-0 quotient
# ---------------------------------------------------------------------------


def is_normal_form(t: TreeMonomial) -> bool:
    """Whether a degree-0 monomial avoids all three relation divisors.

    The degree-0 relations are exactly the typical shapes on degree-0 labels
    (m2 o_1 m2 and the two operator triangles).
    """
    if t.degree != 0:
        raise ValueError(f"normal forms are defined for degree-0 monomials, got {t}")
    nodes = t.nodes
    return not any(
        node is not None and _typical_kind(nodes, position)
        for position, node in enumerate(nodes)
    )


# ---------------------------------------------------------------------------
# enumeration and the homotopy identity check
# ---------------------------------------------------------------------------


def _weak_compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    if parts == 0:
        if total == 0:
            yield ()
        return
    for cuts in itertools.combinations(range(total + parts - 1), parts - 1):
        bounds = (-1,) + cuts + (total + parts - 1,)
        yield tuple(b - a - 1 for a, b in zip(bounds, bounds[1:]))


def enumerate_monomials(
    max_arity: int, max_weight: int, min_weight: int = 1
) -> Iterator[TreeMonomial]:
    """All m/R/S tree monomials with the given arity and weight bounds.

    Both bounds are required for finiteness: unary operator chains give
    infinitely many monomials of any fixed arity.
    """
    alphabet = [gen("m", k) for k in range(2, max_arity + 1)]
    alphabet += [gen(f, k) for f in ("R", "S") for k in range(1, max_arity + 1)]
    by_arity: dict[int, list[Generator]] = {}
    for g in alphabet:
        by_arity.setdefault(g.arity, []).append(g)

    @lru_cache(maxsize=None)
    def exact(n: int, w: int) -> tuple[tuple[tuple, int], ...]:
        # (word, degree) of every tree of arity n and weight w
        if w == 0:
            return (((None,), 0),) if n == 1 else ()
        out = []
        for k, gens_k in by_arity.items():
            if k > n:
                continue
            for composition in compositions(n, k):
                for weights in _weak_compositions(w - 1, k):
                    child_pools = [
                        exact(composition[t], weights[t]) for t in range(k)
                    ]
                    if any(not pool for pool in child_pools):
                        continue
                    for kids in itertools.product(*child_pools):
                        word = tuple(itertools.chain.from_iterable(k[0] for k in kids))
                        degree = sum(k[1] for k in kids)
                        for g in gens_k:
                            out.append(((g,) + word, g.degree + degree))
        return tuple(out)

    for n in range(1, max_arity + 1):
        for w in range(min_weight, max_weight + 1):
            for word, degree in exact(n, w):
                yield _tree(word, n, degree)


def check_homotopy(max_arity: int, max_weight: int) -> dict:
    """Verify dH + Hd = Id on every positive-degree monomial in the bounds.

    Returns a JSON-ready report {checked, failures, ok}; each failure holds
    the offending monomial and the residual (dH + Hd - Id) applied to it.
    """
    if max_arity < 1 or max_weight < 1:
        raise ValueError("bounds must be >= 1")
    checked = 0
    failures = []
    for t in enumerate_monomials(max_arity, max_weight):
        if t.degree < 1:
            continue
        checked += 1
        e = as_element(t)
        residual = (
            diff_bar_element(homotopy_H(t)) + apply_homotopy(diff_bar_element(e)) - e
        )
        if not residual.is_zero():
            failures.append({"tree": t.to_text(), "residual": repr(residual)})
    return {"checked": checked, "failures": failures, "ok": not failures}


def measure_h_squared(max_arity: int, max_weight: int) -> dict:
    """Count monomials on which H(H(T)) fails to vanish (side observation).

    The contraction identity dH + Hd = Id does not by itself force H^2 = 0;
    this measures how the implemented H behaves on the enumerated universe.
    """
    checked = 0
    nonzero = 0
    for t in enumerate_monomials(max_arity, max_weight):
        if t.degree < 1:
            continue
        checked += 1
        if not apply_homotopy(homotopy_H(t)).is_zero():
            nonzero += 1
    return {"checked": checked, "h_squared_nonzero": nonzero}
