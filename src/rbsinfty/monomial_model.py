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
on an enumerated universe of positive-degree monomials, one monomial at a
time, on preorder words from end to end: `_monomial_words` yields each
monomial as ``(word, arity, degree)``, concatenating each prefix of children
once, and the unmerged terms of dH(t) and Hd(t), words from
`derivation_terms` (over one `Images` table of `diff_bar` per check) and
`_contraction` (None or one pair), and -t are summed in one table keyed by
word.  Trees and an `OperadElement` are built only to print a failure.
`_effective` finds the effective divisor in a word, with the degree before
it; `enumerate_monomials`, `is_effective`, `homotopy_H` and
`apply_homotopy` are the tree and element wrappers.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Optional

from .minimal_model import FreeOperad, Images, derivation_terms, generator_differential
from .signs import compositions, parity_sign
from .trees import (
    Generator,
    OperadElement,
    TreeMonomial,
    _tree,
    gen,
    leading_monomial,
)

# ---------------------------------------------------------------------------
# the simplified differential
# ---------------------------------------------------------------------------


class _FirstSlot(FreeOperad):
    """The free operad on m, R, S with f o_i g set to zero for i > 1."""

    @staticmethod
    def graft_exponent(arity, leaf, g_arity, g_degree):
        return None if leaf > 1 else 0


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
    vertices on its path from the root of the whole tree.  `_effective`
    finds it in the word.
    """
    found = _effective(t.nodes)
    if found is None:
        return None
    position, leaf, kind, _ = found
    # every leaf before the effective one lies before the divisor root
    return EffectiveDivisorLocation(position - leaf + 1, leaf, kind, position)


def _effective(nodes: tuple) -> Optional[tuple[int, int, str, int]]:
    """The word position of the effective divisor's root, the effective
    leaf, the divisor's family letter and the degree of the vertices before
    the divisor's root, or None.

    In the word, the vertices on the paths of the leaves left of a leaf are
    those before the leaf just left of it, and the vertices from the divisor
    root down to its leftmost leaf come one after the other, right before
    that leaf.  Call a vertex blocking if it has positive degree or roots a
    typical divisor.  Only the first leaf with a blocking vertex before it
    can be the effective leaf, and then only if the last blocking vertex
    before it roots the divisor; so the occurrence is unique.
    """
    leaf = degree = 0
    # the last blocking vertex so far, its kind and the degree before it
    blocker, blocker_kind, omega = None, None, 0
    for position, node in enumerate(nodes):
        if node is None:
            leaf += 1
            if blocker is not None:
                break
        else:
            kind = _typical_kind(nodes, position) if nodes[position + 1] is _M2 else None
            if kind is not None or node.degree > 0:
                blocker, blocker_kind, omega = position, kind, degree
            degree += node.degree
    if blocker_kind is None:
        return None
    return blocker, leaf, blocker_kind, omega


@lru_cache(maxsize=None)
def _leading_coefficient(g: Generator) -> int:
    coeff = leading_monomial(diff_bar(g))[1]
    if coeff not in (1, -1):
        raise RuntimeError(f"leading coefficient of d {g.name} is {coeff}, not a unit")
    return coeff


@lru_cache(maxsize=None)
def _raised(g: Generator) -> Generator:
    """The generator of ``g``'s family one arity up."""
    return gen(g.family, g.arity + 1)


def _contraction(nodes: tuple) -> Optional[tuple[tuple, int]]:
    """H on the tree with the word ``nodes``: None off effective monomials,
    else the one ``(word, coeff)`` pair of the divisor contraction.

    Contracting the divisor rooted at word position p replaces the root F_a
    by F_{a+1} and deletes the m_2 (and the R_1) that follow it: the
    subtrees keep their order in the word.
    """
    found = _effective(nodes)
    if found is None:
        return None
    position, _, kind, omega = found
    replacement = _raised(nodes[position])
    removed = 2 if kind == "m" else 3
    contracted = nodes[:position] + (replacement,) + nodes[position + removed :]
    # dividing by a unit is multiplying by it
    return contracted, parity_sign(omega) * _leading_coefficient(replacement)


def homotopy_H(t: TreeMonomial) -> OperadElement:
    """The contraction: zero off effective monomials, divisor contraction on them.

    >>> from rbsinfty.trees import parse_tree
    >>> homotopy_H(parse_tree("m2(m2(1, 2), 3)"))
    -m3(1, 2, 3)
    >>> homotopy_H(parse_tree("R1(m2(R1(1), 2))"))
    R2(1, 2)
    """
    pair = _contraction(t.nodes)
    return OperadElement.from_words(t.arity, [pair] if pair else [])


def apply_homotopy(e: OperadElement) -> OperadElement:
    pairs = ((_contraction(tree.nodes), coeff) for tree, coeff in e.terms.items())
    return OperadElement.from_words(
        e.arity, ((pair[0], coeff * pair[1]) for pair, coeff in pairs if pair)
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


def _monomial_words(max_arity: int, max_weight: int) -> Iterator[tuple[tuple, int, int]]:
    """``(word, arity, degree)`` of every m/R/S tree monomial in the bounds,
    by arity and then weight.

    Both bounds are required for finiteness: unary operator chains give
    infinitely many monomials of any fixed arity.  A child weighs less than
    its parent, so only the cells below the top weight are kept, for one
    call, to graft as children; the top-weight cells are streamed.  Each
    prefix of k - 1 children is concatenated once, then extended by each
    word of the last child's cell, with each generator in front: the
    first child varies slowest, as in `itertools.product`.
    """
    alphabet = [gen("m", k) for k in range(2, max_arity + 1)]
    alphabet += [gen(f, k) for f in ("R", "S") for k in range(1, max_arity + 1)]
    by_arity: dict[int, list[Generator]] = {}
    for g in alphabet:
        by_arity.setdefault(g.arity, []).append(g)

    def cell(n: int, w: int) -> Iterator[tuple[tuple, int]]:
        # (word, degree) of every tree of arity n and weight w
        if w == 0:
            if n == 1:
                yield (None,), 0
            return
        for k, gens_k in by_arity.items():
            if k > n:
                continue
            heads = [((g,), g.degree) for g in gens_k]
            for composition in compositions(n, k):
                # the child weights, each one less than a part of w - 1 + k
                for weights in compositions(w - 1 + k, k):
                    *pools, last = [
                        kept(arity, weight - 1)
                        for arity, weight in zip(composition, weights)
                    ]
                    if not last or not all(pools):
                        continue
                    prefixes = [((), 0)]
                    for pool in pools:
                        prefixes = [(p + c, e + f) for p, e in prefixes for c, f in pool]
                    for prefix, e in prefixes:
                        for child, f in last:
                            word, degree = prefix + child, e + f
                            for head, g_degree in heads:
                                yield head + word, g_degree + degree

    @lru_cache(maxsize=None)
    def kept(n: int, w: int) -> tuple[tuple[tuple, int], ...]:
        return tuple(cell(n, w))

    for n in range(1, max_arity + 1):
        for w in range(1, max_weight + 1):
            for word, degree in cell(n, w) if w == max_weight else kept(n, w):
                yield word, n, degree


def enumerate_monomials(max_arity: int, max_weight: int) -> Iterator[TreeMonomial]:
    """All m/R/S tree monomials with the given arity and weight bounds: the
    trees of `_monomial_words`, in its order."""
    for word, n, degree in _monomial_words(max_arity, max_weight):
        yield _tree(word, n, degree)


def _homotopy_residual(nodes: tuple, images: Images) -> list[tuple[tuple, int]]:
    """The nonzero terms of (dH + Hd - Id) on the tree with the word
    ``nodes``, as ``(word, coefficient)`` pairs summed in one table keyed by
    word; ``images`` lays out `diff_bar`."""
    residual = {nodes: -1}
    get = residual.get
    pair = _contraction(nodes)
    if pair:
        for word, coeff in derivation_terms(images, *pair):
            residual[word] = get(word, 0) + coeff
    for word, coeff in derivation_terms(images, nodes, 1):
        pair = _contraction(word)
        if pair:
            residual[pair[0]] = get(pair[0], 0) + coeff * pair[1]
    return [(word, c) for word, c in residual.items() if c]


def check_homotopy(max_arity: int, max_weight: int) -> dict:
    """Verify dH + Hd = Id on every positive-degree monomial in the bounds.

    Returns a JSON-ready report {checked, failures, ok}; each failure holds
    the offending monomial and the residual (dH + Hd - Id) applied to it.
    Arity 1 holds only the degree-0 chains of R_1 and S_1, so a bound below
    arity 2 would check nothing and is refused.
    """
    if max_arity < 2:
        raise ValueError(
            "max_arity must be >= 2: arity 1 holds only degree-0 monomials, "
            "so there would be nothing to check"
        )
    if max_weight < 1:
        raise ValueError("max_weight must be >= 1")
    # the module binding, read per call, so that a stand-in for it is used
    images = Images(diff_bar)
    checked = 0
    failures = []
    for nodes, arity, degree in _monomial_words(max_arity, max_weight):
        if degree < 1:
            continue
        checked += 1
        residual = _homotopy_residual(nodes, images)
        if residual:
            tree = _tree(nodes, arity, degree)
            element = OperadElement.from_words(arity, residual)
            failures.append({"tree": tree.to_text(), "residual": repr(element)})
    return {"checked": checked, "failures": failures, "ok": not failures}
