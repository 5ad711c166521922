"""Side-by-side check of the tree-substitution primitives against oracles.

`graft_with_sign` splices each grafted tree's word in place of its leaf and
lets it enter the Koszul sign as one letter of its total degree;
`replace_vertex` splices the removed vertex's child subtrees into the
replacement's word with the same helper and builds only the final tree, and
`derivation_terms` does the same on bare words.  The
first oracle is the direct tag-and-strip
computation: tag every vertex of every input, build the result, read the tags
back in planar order and reorder the full concatenated vertex list.  The
second is the earlier `replace_vertex`, which wrapped each child subtree in a
`TreeMonomial` and went through `graft_with_sign`, together with a
derivation extension that rebuilds each generator's differential on every
vertex.  All must give the same trees and signs on the enumerated universe.

The oracles walk nested trees, ``None`` for a leaf and ``(generator,
children)`` for a vertex; `_nested` and `_from_nested` convert between that
form and the preorder word a `TreeMonomial` stores.
"""

from __future__ import annotations

import itertools

import pytest

from rbsinfty.minimal_model import (
    PRESENTATIONS,
    Images,
    derivation_terms,
    diff_generator,
    extend_derivation,
    presentation_generators,
    replace_vertex,
)
from rbsinfty.monomial_model import diff_bar, enumerate_monomials
from rbsinfty.signs import inversion_sign, parity_sign
from rbsinfty.trees import (
    OperadElement,
    TreeMonomial,
    as_element,
    corolla,
    gen,
    graft_with_sign,
)

# ---------------------------------------------------------------------------
# nested trees
# ---------------------------------------------------------------------------


def _nested(t):
    """The nested form of a tree monomial's preorder word."""
    nodes = iter(t.nodes)

    def take():
        node = next(nodes)
        if node is None:
            return None
        return (node, tuple(take() for _ in range(node.arity)))

    return take()


def _from_nested(root):
    """The tree monomial of a nested tree."""
    word = []

    def put(node):
        if node is None:
            word.append(None)
            return
        generator, children = node
        word.append(generator)
        for child in children:
            put(child)

    put(root)
    return TreeMonomial(word)


# ---------------------------------------------------------------------------
# the oracle: tag every vertex, rebuild, strip, reorder the whole list
# ---------------------------------------------------------------------------


def _tag(node, tags, acc):
    if node is None:
        return None
    generator, children = node
    tag = next(tags)
    acc.append((tag, generator.degree))
    return (tag, generator, tuple(_tag(c, tags, acc) for c in children))


def _strip(node, order):
    if node is None or node[0] == "leaf":
        return None
    tag, generator, children = node
    order.append(tag)
    return (generator, tuple(_strip(c, order) for c in children))


def oracle_graft(f, assignment):
    tags = itertools.count()
    tagged = []
    leaf_numbers = itertools.count(1)

    def tag_outer(node):
        if node is None:
            return ("leaf", next(leaf_numbers))
        generator, children = node
        tag = next(tags)
        tagged.append((tag, generator.degree))
        return (tag, generator, tuple(tag_outer(c) for c in children))

    outer = tag_outer(_nested(f))
    grafted = {
        i: _tag(_nested(assignment[i]), tags, tagged) for i in sorted(assignment)
    }

    def substitute(node):
        if node is None:
            return None
        if node[0] == "leaf":
            return grafted.get(node[1], node)
        tag, generator, children = node
        return (tag, generator, tuple(substitute(c) for c in children))

    order = []
    result = _from_nested(_strip(substitute(outer), order))
    return result, inversion_sign(tagged, order)


def oracle_replace(t, index, u):
    tags = itertools.count()
    t_tags, u_tags = [], []
    tagged_t = _tag(_nested(t), tags, t_tags)
    tagged_u = _tag(_nested(u), tags, u_tags)

    def splice_u(node, children):
        if node is None:
            return next(children)
        tag, generator, kids = node
        return (tag, generator, tuple(splice_u(c, children) for c in kids))

    def rebuild(node):
        if node is None:
            return None
        tag, generator, children = node
        if tag == index:
            return splice_u(tagged_u, iter(children))
        return (tag, generator, tuple(rebuild(c) for c in children))

    order = []
    result = _from_nested(_strip(rebuild(tagged_t), order))
    concatenation = t_tags[:index] + u_tags + t_tags[index + 1 :]
    if not concatenation:
        return result, 1
    return result, inversion_sign(concatenation, order)


def oracle_replace_by_trees(t, index, u):
    """The earlier replace_vertex: one `TreeMonomial` per child subtree."""
    planar_index = itertools.count()
    sign = 1

    def rebuild(node):
        nonlocal sign
        if node is None:
            return None
        generator, children = node
        if next(planar_index) != index:
            return (generator, tuple(rebuild(c) for c in children))
        subtrees = {
            leaf: _from_nested(child)
            for leaf, child in enumerate(children, 1)
            if child is not None
        }
        grafted, sign = graft_with_sign(u, subtrees)
        return _nested(grafted)

    return _from_nested(rebuild(_nested(t))), sign


def oracle_extend(diff_of, e):
    """The derivation extension through `oracle_replace_by_trees`."""
    terms = []
    for tree, coeff in e.terms.items():
        prefix = 0
        for index, label in enumerate(tree.vertices()):
            for u_tree, u_coeff in diff_of(label).terms.items():
                new_tree, sign = oracle_replace_by_trees(tree, index, u_tree)
                terms.append((new_tree, parity_sign(prefix) * sign * coeff * u_coeff))
            prefix += label.degree
    return OperadElement(e.arity, terms)


# ---------------------------------------------------------------------------
# side by side
# ---------------------------------------------------------------------------

UNIVERSE = list(enumerate_monomials(3, 3))
COROLLAS = [
    corolla(gen(family, arity))
    for family in ("m", "R", "S", "x", "y", "z")
    for arity in range(1, 4)
    if (family, arity) not in (("m", 1), ("x", 1))
]


def test_replace_vertex_matches_oracle_on_every_differential_term():
    replacements = 0
    for t in UNIVERSE:
        for index, label in enumerate(t.vertices()):
            for u in diff_bar(label).terms:
                assert replace_vertex(t, index, u) == oracle_replace(t, index, u), (
                    t,
                    index,
                    u,
                )
                replacements += 1
    assert (len(UNIVERSE), replacements) == (452, 571)


def test_single_leaf_grafts_match_oracle():
    grafts = 0
    for t in UNIVERSE:
        for leaf in range(1, t.arity + 1):
            for g in COROLLAS:
                assert graft_with_sign(t, {leaf: g}) == oracle_graft(t, {leaf: g}), (
                    t,
                    leaf,
                    g,
                )
                grafts += 1
    assert grafts == 19_760


def test_multi_leaf_grafts_of_odd_trees_match_oracle():
    # two odd blocks (x2 of degree -1, R2 of degree 1) and one even block
    pieces = [corolla(gen("x", 2)), corolla(gen("R", 2)), corolla(gen("m", 2))]
    for t in enumerate_monomials(3, 2):
        for leaves in itertools.combinations(range(1, t.arity + 1), 2):
            for pair in itertools.product(pieces, repeat=2):
                assignment = dict(zip(leaves, pair))
                assert graft_with_sign(t, assignment) == oracle_graft(
                    t, assignment
                ), (t, assignment)


def test_replace_vertex_matches_the_tree_wrapping_build():
    # the full differentials graft odd and multi-vertex subtrees as well
    replacements = 0
    for t in UNIVERSE:
        for index, label in enumerate(t.vertices()):
            images = list(diff_bar(label).terms) + list(diff_generator(label).terms)
            for u in images:
                assert replace_vertex(t, index, u) == oracle_replace_by_trees(
                    t, index, u
                ), (t, index, u)
                replacements += 1
    assert replacements == 2_823


@pytest.mark.parametrize("diff_of", [diff_bar, diff_generator], ids=["bar", "full"])
def test_summed_derivation_words_match_extend_derivation(diff_of):
    # the word stream that check_d_squared and check_homotopy sum by word
    nonzero = 0
    for t in UNIVERSE:
        summed = {}
        for word, c in derivation_terms(Images(diff_of), t.nodes, 3):
            summed[word] = summed.get(word, 0) + c
        element = OperadElement.monomial(t, 3)
        image = extend_derivation(diff_of, element)
        assert {w: c for w, c in summed.items() if c} == {
            tree.nodes: c for tree, c in image.terms.items()
        }, t
        assert image == oracle_extend(diff_of, element), t
        nonzero += not image.is_zero()
    assert nonzero > len(UNIVERSE) // 2


@pytest.mark.parametrize("presentation", sorted(PRESENTATIONS))
def test_extend_derivation_matches_the_uncached_tree_wrapping_path(presentation):
    # d(d g) is zero on both paths, so each term of d g is compared on its own
    build = diff_generator.__wrapped__
    nonzero = 0
    for g in presentation_generators(PRESENTATIONS[presentation], 5):
        whole = diff_generator(g)
        assert extend_derivation(diff_generator, whole) == oracle_extend(build, whole)
        for tree in whole.terms:
            image = extend_derivation(diff_generator, as_element(tree))
            assert image == oracle_extend(build, as_element(tree)), (g, tree)
            nonzero += not image.is_zero()
    assert nonzero > 0
