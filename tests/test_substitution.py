"""Side-by-side check of the tree-substitution primitives against an oracle.

`graft_with_sign` walks the outer tree once and lets each grafted tree enter
the Koszul sign as one letter of its total degree; `replace_vertex` grafts the
removed vertex's subtrees onto the replacement with it.  The oracle below is
the direct tag-and-strip computation: tag every vertex of every input, build
the result, read the tags back in planar order and reorder the full
concatenated vertex list.  Both must give the same tree and sign on every
monomial of the enumerated universe.
"""

from __future__ import annotations

import itertools

from rbsinfty.minimal_model import replace_vertex
from rbsinfty.monomial_model import diff_bar, enumerate_monomials
from rbsinfty.signs import inversion_sign
from rbsinfty.trees import TreeMonomial, corolla, gen, graft_with_sign

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

    outer = tag_outer(f.root)
    grafted = {i: _tag(assignment[i].root, tags, tagged) for i in sorted(assignment)}

    def substitute(node):
        if node is None:
            return None
        if node[0] == "leaf":
            return grafted.get(node[1], node)
        tag, generator, children = node
        return (tag, generator, tuple(substitute(c) for c in children))

    order = []
    result = TreeMonomial(_strip(substitute(outer), order))
    return result, inversion_sign(tagged, order)


def oracle_replace(t, index, u):
    tags = itertools.count()
    t_tags, u_tags = [], []
    tagged_t = _tag(t.root, tags, t_tags)
    tagged_u = _tag(u.root, tags, u_tags)

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
    result = TreeMonomial(_strip(rebuild(tagged_t), order))
    concatenation = t_tags[:index] + u_tags + t_tags[index + 1 :]
    if not concatenation:
        return result, 1
    return result, inversion_sign(concatenation, order)


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
