"""Side-by-side check of the preorder-word tree code against nested trees.

A `TreeMonomial` stores its tree as the preorder word of its nodes, and
grafting signs come from the linear rule of the `trees` docstring.  The
oracle below is the nested-tree code the word encoding replaced: a tree is
``None`` for a leaf or ``(generator, children)`` for a vertex, grafting walks
the outer tree and signs through `inversion_sign`, vertex replacement grafts
the child subtrees onto the replacement, and the effective divisor is found
through an index of labels, children and leaf paths.  Old and new must give
the same text, trees, signs, path sequences and contractions on every
monomial of `enumerate_monomials(3, 4)`.  ``python tests/test_nested_oracle.py
4 5`` runs the same comparison on a larger universe.
"""

from __future__ import annotations

import itertools
import re
import sys
from fractions import Fraction

from rbsinfty.minimal_model import diff_generator, replace_vertex
from rbsinfty.monomial_model import (
    diff_bar,
    enumerate_monomials,
    homotopy_H,
    is_effective,
)
from rbsinfty.signs import inversion_sign, parity_sign
from rbsinfty.trees import (
    TreeMonomial,
    _path_sequence,
    corolla,
    gen,
    graft_with_sign,
    leading_monomial,
    parse_tree,
)

# ---------------------------------------------------------------------------
# nested trees
# ---------------------------------------------------------------------------


def nested(t):
    """The nested form of a tree monomial's preorder word."""
    nodes = iter(t.nodes)

    def take():
        node = next(nodes)
        if node is None:
            return None
        return (node, tuple(take() for _ in range(node.arity)))

    return take()


def from_nested(root):
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


def oracle_degree(node):
    return 0 if node is None else node[0].degree + sum(map(oracle_degree, node[1]))


def oracle_vertices(root):
    out = []

    def walk(node):
        if node is not None:
            out.append(node[0])
            for child in node[1]:
                walk(child)

    walk(root)
    return out


def oracle_to_text(root):
    counter = itertools.count(1)

    def render(node):
        if node is None:
            return str(next(counter))
        generator, children = node
        return f"{generator.name}({', '.join(render(c) for c in children)})"

    return render(root)


_TOKEN = re.compile(r"\s*([A-Za-z_][A-Za-z_0-9]*|\d+|[(),])")


def oracle_parse(text):
    tokens = [m.group(1) for m in _TOKEN.finditer(text)][::-1]

    def parse_node():
        token = tokens.pop()
        if token.isdigit():
            return None
        generator = gen(token[0], int(token[1:]))
        assert tokens.pop() == "("
        children = [parse_node()]
        while tokens[-1] == ",":
            tokens.pop()
            children.append(parse_node())
        assert tokens.pop() == ")"
        return (generator, tuple(children))

    root = parse_node()
    assert not tokens
    return root


# ---------------------------------------------------------------------------
# grafting and replacement through inversion_sign
# ---------------------------------------------------------------------------


def oracle_graft_nodes(root, grafts):
    """``grafts`` maps leaves to (node, total degree); the grafted node and sign."""
    letters, planar = [], []
    leaf_numbers = itertools.count(1)

    def walk(node):
        if node is None:
            i = next(leaf_numbers)
            if i not in grafts:
                return None
            planar.append(-i)
            return grafts[i][0]
        generator, children = node
        planar.append(len(letters))
        letters.append((len(letters), generator.degree))
        return (generator, tuple(walk(c) for c in children))

    grafted = walk(root)
    letters += [(-i, grafts[i][1]) for i in sorted(grafts)]
    return grafted, inversion_sign(letters, planar)


def oracle_replace_vertex(root, index, u_root):
    """The nested tree with ``u_root`` in place of a vertex, and the sign."""
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
            leaf: (child, oracle_degree(child))
            for leaf, child in enumerate(children, 1)
            if child is not None
        }
        grafted, sign = oracle_graft_nodes(u_root, subtrees)
        return grafted

    return rebuild(root), sign


# ---------------------------------------------------------------------------
# effective divisors through a tree index
# ---------------------------------------------------------------------------


class OracleTreeIndex:
    """Planar-indexed access to vertices, leaf paths and leftmost leaves."""

    def __init__(self, root):
        self.labels = []
        self.children = []
        self.leaf_paths = {}
        self.first_leaf = []
        leaf_counter = itertools.count(1)

        def walk(node, path):
            if node is None:
                leaf = next(leaf_counter)
                self.leaf_paths[leaf] = path
                return ("leaf", leaf)
            label, kids = node
            idx = len(self.labels)
            self.labels.append(label)
            self.children.append([])
            self.first_leaf.append(0)
            self.children[idx] = [walk(kid, path + (idx,)) for kid in kids]
            return ("v", idx)

        walk(root, ())
        for idx in range(len(self.labels) - 1, -1, -1):
            kind, value = self.children[idx][0]
            self.first_leaf[idx] = value if kind == "leaf" else self.first_leaf[value]

    def typical_kind(self, idx):
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

    def typical_roots(self):
        found = {}
        for idx in range(len(self.labels)):
            kind = self.typical_kind(idx)
            if kind is not None:
                found[idx] = kind
        return found

    def descent_chain(self, idx):
        chain = []
        kind, value = self.children[idx][0]
        while kind == "v":
            chain.append(value)
            kind, value = self.children[value][0]
        return chain


def oracle_is_effective(root):
    index = OracleTreeIndex(root)
    typical = index.typical_roots()
    winners = []
    for v, kind in typical.items():
        leaf = index.first_leaf[v]
        if any(
            index.labels[w].degree > 0 or w in typical for w in index.descent_chain(v)
        ):
            continue
        if any(
            index.labels[w].degree > 0 or w in typical
            for left_leaf in range(1, leaf)
            for w in index.leaf_paths[left_leaf]
        ):
            continue
        winners.append((v, leaf, kind))
    assert len(winners) <= 1, winners
    return winners[0] if winners else None


def oracle_contract_divisor(root, target, kind):
    counter = itertools.count()

    def walk(node):
        if node is None:
            return None
        label, kids = node
        idx = next(counter)
        if idx == target:
            c_label, c_kids = kids[0]
            next(counter)
            if kind == "m":
                merged = (walk(c_kids[0]), walk(c_kids[1])) + tuple(
                    walk(k) for k in kids[1:]
                )
            else:
                d_label, d_kids = c_kids[0]
                next(counter)
                merged = (walk(d_kids[0]), walk(c_kids[1])) + tuple(
                    walk(k) for k in kids[1:]
                )
            return (gen(kind, label.arity + 1), merged)
        return (label, tuple(walk(k) for k in kids))

    return walk(root)


def oracle_homotopy_H(t):
    """``{tree: coeff}`` of H(t), dividing by the leading coefficient."""
    root = nested(t)
    location = oracle_is_effective(root)
    if location is None:
        return {}
    v, _, kind = location
    labels = oracle_vertices(root)
    omega = sum(label.degree for label in labels[:v])
    replacement = gen(kind, labels[v].arity + 1)
    leading = leading_monomial(diff_bar(replacement))[1]
    contracted = from_nested(oracle_contract_divisor(root, v, kind))
    return {contracted: Fraction(parity_sign(omega)) / leading}


def oracle_path_sequence(root):
    sequence = []

    def walk(node, prefix):
        if node is None:
            sequence.append((len(prefix), prefix))
            return
        generator, children = node
        family, arity = generator.family, generator.arity
        key = (arity, 0) if family == "R" else (arity, 1) if family == "S" else (arity - 1, 2)
        for child in children:
            walk(child, prefix + (key,))

    walk(root, ())
    return sequence


# ---------------------------------------------------------------------------
# side by side
# ---------------------------------------------------------------------------

# each corolla with its nested form
COROLLAS = [
    (corolla(g), (g, (None,) * g.arity))
    for g in (
        gen(family, arity)
        for family in ("m", "R", "S", "x", "y", "z")
        for arity in range(1, 4)
        if (family, arity) not in (("m", 1), ("x", 1))
    )
]


def compare_on(max_arity, max_weight):
    """Compare old and new on every monomial; returns the counts compared."""
    counts = dict.fromkeys(("trees", "grafts", "replacements", "effective"), 0)
    nested_images = {}
    for t in enumerate_monomials(max_arity, max_weight):
        counts["trees"] += 1
        root = nested(t)
        assert from_nested(root) == t
        text = t.to_text()
        assert text == oracle_to_text(root), text
        assert parse_tree(text) == t == from_nested(oracle_parse(text)), text
        assert list(t.vertices()) == oracle_vertices(root), text
        assert t.degree == oracle_degree(root), text
        assert _path_sequence(t) == oracle_path_sequence(root), text
        for leaf in range(1, t.arity + 1):
            for g, g_root in COROLLAS:
                grafted, sign = oracle_graft_nodes(root, {leaf: (g_root, g.degree)})
                assert graft_with_sign(t, {leaf: g}) == (from_nested(grafted), sign), (
                    text,
                    leaf,
                    g,
                )
                counts["grafts"] += 1
        for index, label in enumerate(t.vertices()):
            images = list(diff_bar(label).terms) + list(diff_generator(label).terms)
            for u in images:
                if u not in nested_images:
                    nested_images[u] = nested(u)
                replaced, sign = oracle_replace_vertex(root, index, nested_images[u])
                assert replace_vertex(t, index, u) == (from_nested(replaced), sign), (
                    text,
                    index,
                    u,
                )
                counts["replacements"] += 1
        location = is_effective(t)
        if location is not None:
            location = (location.root_index, location.leaf, location.kind)
        assert location == oracle_is_effective(root), text
        image = homotopy_H(t)
        assert image.terms == oracle_homotopy_H(t), text
        counts["effective"] += not image.is_zero()
    return counts


def test_word_trees_match_nested_trees_on_every_monomial():
    counts = compare_on(3, 4)
    assert counts["trees"] == 2_268
    # each comparison must have run on a universe where it can fail
    assert counts["grafts"] > 0 and counts["replacements"] > 0
    assert 0 < counts["effective"] < counts["trees"]


if __name__ == "__main__":
    print(compare_on(int(sys.argv[1]), int(sys.argv[2])))
