"""The monomial operad, its simplified differential and the contraction.

This is the one-relation-per-shape skeleton of the theory: the differential
of each generator keeps only the "first slot" composites,

    d m_n = sum_j (-1)^(1+j(n-1)) m_{n-j+1} o_1 m_j,
    d R_n = sum_{r1+r2=n} (-1)^(r1(r2-1)) (R_{r1} o_1 m_2) o_1 R_{r2},
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
from fractions import Fraction
from functools import lru_cache
from typing import Iterator, Optional

from .minimal_model import extend_derivation
from .signs import compositions, parity_sign
from .trees import (
    Generator,
    Node,
    OperadElement,
    TreeMonomial,
    as_element,
    compose_at,
    gen,
    leading_monomial,
)

# ---------------------------------------------------------------------------
# the simplified differential
# ---------------------------------------------------------------------------


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
    n = g.arity
    terms = []
    if g.family == "m":
        for j in range(2, n):
            sign = parity_sign(1 + j * (n - 1))
            terms.append(sign * compose_at(gen("m", n - j + 1), 1, gen("m", j)))
        return OperadElement.sum(n, terms)
    if g.family in ("R", "S"):
        for r1 in range(1, n):
            r2 = n - r1
            sign = parity_sign(r1 * (r2 - 1))
            term = compose_at(
                compose_at(gen(g.family, r1), 1, gen("m", 2)), 1, gen("R", r2)
            )
            terms.append(sign * term)
        return OperadElement.sum(n, terms)
    raise ValueError(f"no monomial differential for family {g.family!r}")


def diff_bar_element(e: OperadElement) -> OperadElement:
    """Derivation extension of `diff_bar` to arbitrary elements."""
    return extend_derivation(diff_bar, e)


# ---------------------------------------------------------------------------
# indexed view of a tree monomial
# ---------------------------------------------------------------------------


class _TreeIndex:
    """Planar-indexed access to vertices, leaf paths and leftmost leaves."""

    def __init__(self, t: TreeMonomial):
        self.labels: list[Generator] = []
        self.children: list[list[tuple[str, int]]] = []
        self.leaf_paths: dict[int, tuple[int, ...]] = {}
        self.first_leaf: list[int] = []
        leaf_counter = itertools.count(1)
        self._peek = 1

        def walk(node: Node, path: tuple[int, ...]) -> tuple[str, int]:
            if node is None:
                leaf = next(leaf_counter)
                self.leaf_paths[leaf] = path
                return ("leaf", leaf)
            label, kids = node
            idx = len(self.labels)
            self.labels.append(label)
            self.children.append([])
            self.first_leaf.append(0)
            entries = [walk(kid, path + (idx,)) for kid in kids]
            self.children[idx] = entries
            return ("v", idx)

        walk(t.root, ())
        # the leftmost leaf of a subtree is reached by first-child descent
        for idx in range(len(self.labels) - 1, -1, -1):
            kind, value = self.children[idx][0]
            self.first_leaf[idx] = value if kind == "leaf" else self.first_leaf[value]

    def typical_kind(self, idx: int) -> Optional[str]:
        """Family letter if the vertex roots a typical divisor, else None."""
        label = self.labels[idx]
        kind, c = self.children[idx][0]
        if kind != "v":
            return None
        if self.labels[c].family != "m" or self.labels[c].arity != 2:
            return None
        if label.family == "m":
            return "m"
        if label.family in ("R", "S"):
            kind_d, d = self.children[c][0]
            if kind_d == "v" and self.labels[d] == gen("R", 1):
                return label.family
        return None

    def typical_roots(self) -> dict[int, str]:
        found = {}
        for idx in range(len(self.labels)):
            kind = self.typical_kind(idx)
            if kind is not None:
                found[idx] = kind
        return found

    def descent_chain(self, idx: int) -> list[int]:
        """Vertices strictly below idx on the path to its leftmost leaf."""
        chain = []
        kind, value = self.children[idx][0]
        while kind == "v":
            chain.append(value)
            kind, value = self.children[value][0]
        return chain


# ---------------------------------------------------------------------------
# effective tree monomials
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EffectiveDivisorLocation:
    root_index: int  # planar index of the divisor's root vertex
    leaf: int  # the effective leaf of the monomial
    kind: str  # family letter of the divisor shape


def is_effective(t: TreeMonomial) -> Optional[EffectiveDivisorLocation]:
    """Locate the effective divisor of a monomial, if there is one.

    A typical divisor qualifies when (i) the path from its root down to the
    leftmost leaf above it carries no further typical divisors and no
    positive-degree vertices (other than the divisor root itself), and
    (ii) every leaf strictly to the left sees only degree-0, non-typical
    vertices on its path from the root of the whole tree.
    """
    index = _TreeIndex(t)
    typical = index.typical_roots()
    winners = []
    for v, kind in typical.items():
        leaf = index.first_leaf[v]
        if any(
            index.labels[w].degree > 0 or w in typical
            for w in index.descent_chain(v)
        ):
            continue
        if any(
            index.labels[w].degree > 0 or w in typical
            for left_leaf in range(1, leaf)
            for w in index.leaf_paths[left_leaf]
        ):
            continue
        winners.append(EffectiveDivisorLocation(v, leaf, kind))
    if not winners:
        return None
    if len(winners) > 1:  # conditions (i)+(ii) pin a unique occurrence
        raise RuntimeError(f"multiple effective divisors in {t}: {winners}")
    return winners[0]


def _contract_divisor(t: TreeMonomial, target: int, kind: str) -> TreeMonomial:
    """Replace the typical divisor rooted at planar index `target` by its generator."""
    counter = itertools.count()

    def walk(node: Node) -> Node:
        if node is None:
            return None
        label, kids = node
        idx = next(counter)
        if idx == target:
            c_label, c_kids = kids[0]
            next(counter)  # consume the m2 vertex's planar index
            assert c_label.family == "m" and c_label.arity == 2
            if kind == "m":
                merged = (walk(c_kids[0]), walk(c_kids[1])) + tuple(
                    walk(k) for k in kids[1:]
                )
            else:
                d_label, d_kids = c_kids[0]
                next(counter)  # consume the R1 vertex's planar index
                assert d_label == gen("R", 1)
                merged = (walk(d_kids[0]), walk(c_kids[1])) + tuple(
                    walk(k) for k in kids[1:]
                )
            return (gen(kind, label.arity + 1), merged)
        return (label, tuple(walk(k) for k in kids))

    return TreeMonomial(walk(t.root))


@lru_cache(maxsize=None)
def _leading_coefficient(g: Generator) -> Fraction:
    coeff = leading_monomial(diff_bar(g))[1]
    if coeff not in (1, -1):
        raise RuntimeError(f"leading coefficient of d {g.name} is {coeff}, not a unit")
    return coeff


def homotopy_H(t: TreeMonomial) -> OperadElement:
    """The contraction: zero off effective monomials, divisor contraction on them.

    >>> from rbsinfty.trees import parse_tree
    >>> homotopy_H(parse_tree("m2(m2(1, 2), 3)"))
    -m3(1, 2, 3)
    >>> homotopy_H(parse_tree("R1(m2(R1(1), 2))"))
    R2(1, 2)
    """
    location = is_effective(t)
    if location is None:
        return OperadElement.zero(t.arity)
    labels = t.vertices()
    omega = sum(label.degree for label in labels[: location.root_index])
    replacement = gen(location.kind, labels[location.root_index].arity + 1)
    contracted = _contract_divisor(t, location.root_index, location.kind)
    coeff = Fraction(parity_sign(omega)) / _leading_coefficient(replacement)
    return OperadElement.monomial(contracted, coeff)


def apply_homotopy(e: OperadElement) -> OperadElement:
    return OperadElement.sum(
        e.arity, (coeff * homotopy_H(tree) for tree, coeff in e.terms.items())
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
    return not _TreeIndex(t).typical_roots()


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
    def exact(n: int, w: int) -> tuple[Node, ...]:
        if w == 0:
            return (None,) if n == 1 else ()
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
                        for g in gens_k:
                            out.append((g, kids))
        return tuple(out)

    for n in range(1, max_arity + 1):
        for w in range(min_weight, max_weight + 1):
            for root in exact(n, w):
                yield TreeMonomial(root)


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
