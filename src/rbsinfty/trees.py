"""Planar rooted trees and the free graded operad they span.

A tree monomial is a planar rooted tree whose internal vertices carry graded
generator labels (the label's arity equals the number of children) and whose
leaves are implicitly numbered 1..n from left to right.  Formal linear
combinations of tree monomials of a fixed arity form the components of the
free non-symmetric graded operad.

A tree is stored as a word: the tuple of its nodes in preorder (root before
subtrees, left to right), a `Generator` for each vertex and None for each
leaf, so ``m2(R1(1), m2(2, 3))`` is ``(m2, R1, None, m2, None, None)``
(Dotsenko-Khoroshkin, *Groebner bases for operads*).  Generators are
interned, one object per (family, arity, degree), so words compare and hash
by identity.  A subtree is a slice of the word, and grafting a tree at a
leaf puts its word in place of that leaf's None.  The planar order of the
vertices is their order in the word.  The operad checks work on bare words
from end to end: `monomial_model` enumerates its monomials as words, and
`minimal_model.derivation_terms` and the contraction of `monomial_model`
map words to words, summed in tables keyed by word, with each generator's
image laid out once (its words and the `_leaf_layout` that `_splice`
reads); every composition is a row spliced the same way (`_row_terms`, for
`compose_at`, `brace` and `minimal_model.FreeOperad.compose_row`).
`OperadElement.from_words` builds a `TreeMonomial` only for a surviving word.

The sign convention used everywhere: when trees are grafted, the vertices of
the inputs are concatenated (outer tree first, then the grafted trees ordered
by the leaf they occupy) and the coefficient is multiplied by the Koszul sign
of reordering that list into the planar order of the resulting tree.  The
vertices of one grafted tree keep their relative order, and so do those of
the outer tree, so each grafted tree moves as a single letter whose degree is
its total degree: a tree of total degree d grafted at leaf i contributes
d times the sum of the degrees of the outer vertices after leaf i in planar
order, and the sign is (-1) to the sum of these contributions.
"""

from __future__ import annotations

import itertools
import re
from fractions import Fraction
from functools import cmp_to_key
from typing import Iterable, Iterator, Mapping, Sequence, Union

from .signs import parity_sign

# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

# degree rules for the builtin generator families
_FAMILY_DEGREE = {
    "m": lambda n: n - 2,
    "R": lambda n: n - 1,
    "S": lambda n: n - 1,
    "x": lambda n: -1,
    "y": lambda n: 0,
    "z": lambda n: 0,
}
_FAMILY_MIN_ARITY = {"m": 2, "R": 1, "S": 1, "x": 2, "y": 1, "z": 1}

# the one Generator object of each (family, arity, degree)
_INTERNED: dict[tuple[str, int, int], "Generator"] = {}


class Generator:
    """A graded operad generator: a family tag, an arity and a degree.

    There is one object per (family, arity, degree): the constructor returns
    it, so generators compare and hash by identity.

    >>> Generator("q", 2, 5) is Generator("q", 2, 5)
    True
    """

    __slots__ = ("family", "arity", "degree", "name")

    def __new__(cls, family: str, arity: int, degree: int) -> "Generator":
        key = (family, arity, degree)
        interned = _INTERNED.get(key)
        if interned is not None:
            return interned
        if arity < 1:
            raise ValueError(f"generator arity must be >= 1, got {arity}")
        rule = _FAMILY_DEGREE.get(family)
        if rule is not None:
            if arity < _FAMILY_MIN_ARITY[family]:
                raise ValueError(
                    f"{family}-generators need arity >= "
                    f"{_FAMILY_MIN_ARITY[family]}, got {arity}"
                )
            if degree != rule(arity):
                raise ValueError(
                    f"degree of {family}{arity} must be {rule(arity)}, got {degree}"
                )
        self = object.__new__(cls)
        for slot, value in zip(cls.__slots__, key + (f"{family}{arity}",)):
            object.__setattr__(self, slot, value)
        return _INTERNED.setdefault(key, self)

    def __setattr__(self, name, value):
        raise AttributeError("Generator is immutable")

    def __reduce__(self):
        # copy and pickle rebuild through the constructor, so the interned object
        return (Generator, (self.family, self.arity, self.degree))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return self.name


def gen(family: str, arity: int) -> Generator:
    """Builtin generator with the degree dictated by its family.

    >>> gen("m", 2).degree, gen("m", 5).degree
    (0, 3)
    >>> gen("R", 1).degree, gen("S", 4).degree
    (0, 3)
    >>> gen("x", 3).degree, gen("y", 2).degree, gen("z", 1).degree
    (-1, 0, 0)
    """
    rule = _FAMILY_DEGREE.get(family)
    if rule is None:
        raise ValueError(f"unknown builtin family {family!r}")
    return Generator(family, arity, rule(arity))


# ---------------------------------------------------------------------------
# tree monomials
# ---------------------------------------------------------------------------


class TreeMonomial:
    """Immutable planar rooted tree, stored as its preorder word ``nodes``.

    The constructor checks that ``nodes`` spells one tree.  Trees built by
    grafting are assembled from valid words and skip that check.
    """

    __slots__ = ("nodes", "arity", "degree", "weight", "_hash", "_leaves")

    def __init__(self, nodes: Iterable[Generator | None]):
        nodes = tuple(nodes)
        open_slots, arity, degree = 1, 0, 0
        for node in nodes:
            if not open_slots:
                raise ValueError(f"nodes after the end of the tree: {nodes}")
            if node is None:
                open_slots -= 1
                arity += 1
            elif isinstance(node, Generator):
                open_slots += node.arity - 1
                degree += node.degree
            else:
                raise TypeError(f"vertex label must be a Generator: {node!r}")
        if open_slots:
            raise ValueError(f"the tree {nodes} misses {open_slots} subtrees")
        _fill(self, nodes, arity, degree)

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("TreeMonomial is immutable")

    def __reduce__(self):
        return (TreeMonomial, (self.nodes,))

    def __eq__(self, other) -> bool:
        return isinstance(other, TreeMonomial) and self.nodes == other.nodes

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return self.to_text()

    def vertices(self) -> tuple[Generator, ...]:
        """Vertex labels in planar order (depth-first, root before subtrees).

        >>> t = parse_tree("m2(R1(1), m2(2, 3))")
        >>> [g.name for g in t.vertices()]
        ['m2', 'R1', 'm2']
        """
        return tuple(node for node in self.nodes if node is not None)

    def to_text(self) -> str:
        """Serialize as a nested term with leaves numbered left to right.

        >>> corolla(gen("m", 2)).to_text()
        'm2(1, 2)'
        >>> identity_tree().to_text()
        '1'
        """
        parts: list[str] = []
        leaves = itertools.count(1)
        for node, closed in _closings(self.nodes):
            if node is not None:
                parts.append(f"{node.name}(")
            else:
                # a node after this leaf is always the next child of an open vertex
                parts.append(f"{next(leaves)}{')' * closed}, ")
        return "".join(parts)[:-2]

    def _leaf_layout(self) -> tuple[tuple[int, int], ...]:
        """Per leaf: its position in ``nodes`` and the degree of the vertices after it."""
        if self._leaves is None:
            layout, after = [], self.degree
            for position, node in enumerate(self.nodes):
                if node is None:
                    layout.append((position, after))
                else:
                    after -= node.degree
            object.__setattr__(self, "_leaves", tuple(layout))
        return self._leaves


def _closings(nodes: tuple) -> Iterator[tuple[Generator | None, int]]:
    """Each node of a word with the number of vertices whose subtree it ends."""
    open_children: list[int] = []  # children still to come, per open vertex
    for node in nodes:
        closed = 0
        if node is not None:
            open_children.append(node.arity)
        else:
            while open_children:
                open_children[-1] -= 1
                if open_children[-1]:
                    break
                open_children.pop()
                closed += 1
        yield node, closed


def _fill(tree: TreeMonomial, nodes: tuple, arity: int, degree: int) -> TreeMonomial:
    setter = object.__setattr__
    setter(tree, "nodes", nodes)
    setter(tree, "arity", arity)
    setter(tree, "degree", degree)
    setter(tree, "weight", len(nodes) - arity)
    setter(tree, "_hash", hash(nodes))
    setter(tree, "_leaves", None)
    return tree


def _tree(nodes: tuple, arity: int, degree: int) -> TreeMonomial:
    """A tree from a word known to be valid, with its arity and degree."""
    return _fill(object.__new__(TreeMonomial), nodes, arity, degree)


_IDENTITY_TREE = _tree((None,), 1, 0)


def identity_tree() -> TreeMonomial:
    """The arity-1 tree with no vertices (the operad unit)."""
    return _IDENTITY_TREE


def corolla(generator: Generator) -> TreeMonomial:
    """The single-vertex tree whose children are all leaves."""
    return _tree((generator,) + (None,) * generator.arity, generator.arity, generator.degree)


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

_TOKEN = re.compile(r"\s*([A-Za-z_][A-Za-z_0-9]*|\d+|[(),])")
_NAME = re.compile(r"([A-Za-z_]+?)(\d+)$")


def _default_alphabet(name: str) -> Generator:
    match = _NAME.fullmatch(name)
    if match and match.group(1) in _FAMILY_DEGREE:
        return gen(match.group(1), int(match.group(2)))
    raise ValueError(f"unknown generator name {name!r}")


def parse_tree(
    text: str, alphabet: Mapping[str, Generator] | None = None
) -> TreeMonomial:
    """Parse a nested-term serialization back into a tree monomial.

    Leaves are positive integers and must read 1..n from left to right; the
    bare term ``1`` denotes the identity tree.

    >>> parse_tree("m2(R1(1), m2(2, 3))").to_text()
    'm2(R1(1), m2(2, 3))'
    """
    tokens = []
    pos = 0
    while pos < len(text):
        match = _TOKEN.match(text, pos)
        if not match:
            raise ValueError(f"bad token at {text[pos:]!r}")
        tokens.append(match.group(1))
        pos = match.end()
    tokens.reverse()

    def lookup(name: str) -> Generator:
        if alphabet is not None:
            try:
                return alphabet[name]
            except KeyError:
                raise ValueError(f"unknown generator name {name!r}") from None
        return _default_alphabet(name)

    leaves: list[int] = []
    nodes: list[Generator | None] = []

    def parse_node() -> None:
        if not tokens:
            raise ValueError("unexpected end of input")
        token = tokens.pop()
        if token.isdigit():
            leaves.append(int(token))
            nodes.append(None)
            return
        generator = lookup(token)
        nodes.append(generator)
        if not tokens or tokens.pop() != "(":
            raise ValueError(f"expected '(' after {token}")
        parse_node()
        children = 1
        while tokens and tokens[-1] == ",":
            tokens.pop()
            parse_node()
            children += 1
        if not tokens or tokens.pop() != ")":
            raise ValueError(f"expected ')' closing {token}")
        if children != generator.arity:
            raise ValueError(
                f"{generator.name} takes {generator.arity} children, got {children}"
            )

    parse_node()
    if tokens:
        raise ValueError(f"trailing input: {' '.join(reversed(tokens))}")
    if leaves != list(range(1, len(leaves) + 1)):
        raise ValueError(f"leaves must read 1..n left to right, got {leaves}")
    return TreeMonomial(nodes)


# ---------------------------------------------------------------------------
# signed grafting
# ---------------------------------------------------------------------------


def graft_with_sign(
    f: TreeMonomial, assignment: Mapping[int, TreeMonomial]
) -> tuple[TreeMonomial, int]:
    """Graft trees onto leaves of ``f`` and compute the Koszul sign.

    ``assignment`` maps leaf indices of ``f`` (1-based) to the trees grafted
    there.  The sign is that of reordering the concatenated vertex list
    (vertices of ``f`` in planar order, then the vertices of each grafted
    tree in increasing order of the occupied leaf) into the planar order of
    the result: the linear rule of the module docstring.
    """
    for i in assignment:
        if not 1 <= i <= f.arity:
            raise ValueError(f"leaf index {i} out of range 1..{f.arity}")
    grafts = sorted((i, t.nodes, t.degree) for i, t in assignment.items())
    nodes, exponent = _splice(f.nodes, f._leaf_layout(), grafts)
    arity = f.arity + sum(t.arity - 1 for t in assignment.values())
    degree = f.degree + sum(t.degree for t in assignment.values())
    return _tree(nodes, arity, degree), parity_sign(exponent)


def _splice(
    nodes: tuple, leaves: tuple, grafts: Iterable[tuple[int, tuple, int]]
) -> tuple[tuple, int]:
    """The word ``nodes`` of a tree with words put in place of some of its
    leaves; ``leaves`` is the tree's `TreeMonomial._leaf_layout`.

    ``grafts`` lists ``(leaf, word, degree)`` by increasing leaf.  Returns
    the new word and the exponent of the graft sign: each word's degree
    times the degree of the vertices of the tree after its leaf.
    """
    spliced, start, exponent = (), 0, 0
    for leaf, word, degree in grafts:
        position, after = leaves[leaf - 1]
        spliced += nodes[start:position] + word
        start = position + 1
        exponent += degree * after
    return spliced + nodes[start:], exponent


def _subtrees(nodes: tuple, position: int) -> tuple[int, list]:
    """The vertex at ``position`` of a word: the end of its subtree, and its
    children that are not leaves as (child number, word, degree)."""
    grafts = []
    end = position + 1
    for number in range(1, nodes[position].arity + 1):
        if nodes[end] is None:
            end += 1
            continue
        start, open_slots, degree = end, 1, 0
        while open_slots:
            node = nodes[end]
            end += 1
            if node is None:
                open_slots -= 1
            else:
                open_slots += node.arity - 1
                degree += node.degree
        grafts.append((number, nodes[start:end], degree))
    return end, grafts


# ---------------------------------------------------------------------------
# operad elements
# ---------------------------------------------------------------------------

Scalar = Union[int, Fraction]


class OperadElement:
    """Finite linear combination of tree monomials of one arity.

    The constructor is the one place where coefficients are combined:
    ``terms`` is a mapping or an iterable of ``(tree, coefficient)`` pairs in
    which a tree may repeat; repeated trees are summed, trees whose
    coefficient cancels are dropped, and every tree must have the given
    arity.  Coefficients keep the type they are given: the operad code makes
    only ``int`` ones, and a ``Fraction`` from a caller works as well.
    """

    __slots__ = ("arity", "terms")

    def __init__(
        self,
        arity: int,
        terms: Union[Mapping[TreeMonomial, Scalar], Iterable[tuple]] = (),
    ):
        if hasattr(terms, "items"):
            terms = terms.items()
        merged: dict[TreeMonomial, Scalar] = {}
        get = merged.get
        for tree, coeff in terms:
            merged[tree] = get(tree, 0) + coeff
        for tree in merged:
            if tree.arity != arity:
                raise ValueError(
                    f"monomial {tree} has arity {tree.arity}, expected {arity}"
                )
        object.__setattr__(self, "arity", arity)
        object.__setattr__(
            self, "terms", {tree: c for tree, c in merged.items() if c}
        )

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("OperadElement is immutable")

    def __reduce__(self):
        return (OperadElement, (self.arity, self.terms))

    @classmethod
    def zero(cls, arity: int) -> "OperadElement":
        return cls(arity)

    @classmethod
    def monomial(
        cls, tree: TreeMonomial, coeff: Scalar = 1
    ) -> "OperadElement":
        return cls(tree.arity, {tree: coeff})

    @classmethod
    def from_words(
        cls, arity: int, terms: Iterable[tuple[tuple, Scalar]]
    ) -> "OperadElement":
        """The element of ``(word, coefficient)`` pairs, valid words of the
        given arity that may repeat: the words are summed in one table, and a
        tree is built only for a word whose coefficient does not cancel."""
        merged: dict[tuple, Scalar] = {}
        get = merged.get
        for word, coeff in terms:
            merged[word] = get(word, 0) + coeff
        return cls._summed(
            arity,
            {
                _tree(word, arity, sum(n.degree for n in word if n is not None)): c
                for word, c in merged.items()
                if c
            },
        )

    @classmethod
    def _summed(cls, arity: int, terms: dict) -> "OperadElement":
        """The element of a table already summed, trees of the given arity
        with coefficients that do not cancel: no second merge."""
        self = object.__new__(cls)
        object.__setattr__(self, "arity", arity)
        object.__setattr__(self, "terms", terms)
        return self

    @classmethod
    def sum(
        cls, arity: int, elements: Iterable["OperadElement"]
    ) -> "OperadElement":
        """The sum of elements of the given arity, built in one table."""
        elements = list(elements)
        if any(e.arity != arity for e in elements):
            raise ValueError("cannot add elements of different arity")
        return cls(arity, (term for e in elements for term in e.terms.items()))

    def is_zero(self) -> bool:
        return not self.terms

    def homogeneous_degree(self) -> int | None:
        degrees = {tree.degree for tree in self.terms}
        if len(degrees) == 1:
            return degrees.pop()
        return None

    def items(self) -> Iterator[tuple[TreeMonomial, Scalar]]:
        """Terms in a deterministic (serialization) order."""
        return iter(sorted(self.terms.items(), key=lambda kv: kv[0].to_text()))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, OperadElement)
            and self.arity == other.arity
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        return hash((self.arity, frozenset(self.terms.items())))

    def __add__(self, other: "OperadElement") -> "OperadElement":
        return OperadElement.sum(self.arity, (self, other))

    def __sub__(self, other: "OperadElement") -> "OperadElement":
        return self + (-other)

    def __neg__(self) -> "OperadElement":
        return self * -1

    def __mul__(self, scalar: Scalar) -> "OperadElement":
        """The element times an int or `Fraction`; a float is refused, as it
        would make every coefficient inexact (``(-1) ** -1`` is one)."""
        if isinstance(scalar, float):
            raise TypeError(f"not an exact scalar: {scalar!r}")
        return OperadElement(
            self.arity, ((tree, c * scalar) for tree, c in self.terms.items())
        )

    __rmul__ = __mul__

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for tree, coeff in self.items():
            if coeff == 1:
                text = tree.to_text()
            elif coeff == -1:
                text = f"-{tree.to_text()}"
            else:
                text = f"{coeff}*{tree.to_text()}"
            parts.append(text)
        joined = " + ".join(parts)
        return joined.replace("+ -", "- ")


ElementLike = Union[Generator, TreeMonomial, OperadElement]


def as_element(value: ElementLike) -> OperadElement:
    """Coerce a generator or tree monomial to a one-term element."""
    if isinstance(value, OperadElement):
        return value
    if isinstance(value, TreeMonomial):
        return OperadElement.monomial(value)
    if isinstance(value, Generator):
        return OperadElement.monomial(corolla(value))
    raise TypeError(f"cannot interpret {value!r} as an operad element")


def identity_element() -> OperadElement:
    return OperadElement.monomial(identity_tree())


# ---------------------------------------------------------------------------
# composition and braces
# ---------------------------------------------------------------------------


def _row_terms(f: OperadElement, parts: Sequence[Sequence[tuple]]) -> list[tuple]:
    """The unmerged ``(word, coefficient)`` terms of f with the parts grafted,
    one `_splice` per choice of one term from each part; ``parts`` lists each
    part's terms as ``((leaf, word, degree), coefficient)`` by increasing leaf."""
    terms = []
    for tf, cf in f.terms.items():
        nodes, leaves = tf.nodes, tf._leaf_layout()
        for choice in itertools.product(*parts):
            c = cf
            for _, ct in choice:
                c *= ct
            word, exponent = _splice(nodes, leaves, [graft for graft, _ in choice])
            terms.append((word, parity_sign(exponent) * c))
    return terms


def _grafts(leaf: int, g: OperadElement) -> list[tuple]:
    return [((leaf, t.nodes, t.degree), c) for t, c in g.terms.items()]


def compose_at(f: ElementLike, i: int, g: ElementLike) -> OperadElement:
    """Operadic partial composition f ∘_i g, bilinear with Koszul signs.

    >>> m2 = gen("m", 2)
    >>> compose_at(m2, 1, m2)
    m2(m2(1, 2), 3)
    >>> compose_at(compose_at(m2, 2, gen("R", 2)), 1, gen("S", 2))
    -m2(S2(1, 2), R2(3, 4))
    """
    f = as_element(f)
    g = as_element(g)
    if not 1 <= i <= f.arity:
        raise ValueError(f"leaf index {i} out of range 1..{f.arity}")
    return OperadElement.from_words(f.arity + g.arity - 1, _row_terms(f, [_grafts(i, g)]))


def brace(f: ElementLike, args: Sequence[ElementLike]) -> OperadElement:
    """Brace operation f{g_1, ..., g_k}.

    Sum over all order-preserving ways of grafting the arguments onto
    distinct leaves of f (left to right), with the same Koszul sign
    convention as ``compose_at``, one row per choice of leaves.  An empty
    argument list returns f; more arguments than f has inputs gives zero.

    >>> x3, x2 = gen("x", 3), gen("x", 2)
    >>> len(brace(x3, [x2]).terms)
    3
    >>> brace(gen("m", 2), [x2, x2, x2]).is_zero()
    True
    """
    f = as_element(f)
    args = [as_element(a) for a in args]
    if not args:
        return f
    terms = []
    for leaves in itertools.combinations(range(1, f.arity + 1), len(args)):
        terms += _row_terms(f, [_grafts(i, g) for i, g in zip(leaves, args)])
    return OperadElement.from_words(f.arity + sum(g.arity - 1 for g in args), terms)


# ---------------------------------------------------------------------------
# graded path-lexicographic order
# ---------------------------------------------------------------------------


def _alphabet_key(generator: Generator) -> tuple[int, int]:
    # generator chain R1 < S1 < m2 < R2 < S2 < m3 < R3 < ...
    if generator.family == "R":
        return (generator.arity, 0)
    if generator.family == "S":
        return (generator.arity, 1)
    if generator.family == "m":
        return (generator.arity - 1, 2)
    raise ValueError(
        f"generator {generator.name} is not in the m/R/S alphabet"
    )


def _path_sequence(t: TreeMonomial) -> list[tuple[int, tuple]]:
    """Per-leaf words of vertex labels along the root-to-leaf path.

    Each word is encoded as (length, letter keys) so that tuple comparison
    realizes the length-lexicographic order on words.
    """
    sequence: list[tuple[int, tuple]] = []
    path: list[tuple[int, int]] = []  # keys of the open vertices, root first
    for node, closed in _closings(t.nodes):
        if node is not None:
            path.append(_alphabet_key(node))
        else:
            sequence.append((len(path), tuple(path)))
            del path[len(path) - closed :]
    return sequence


def compare_graded_pathlex(t1: TreeMonomial, t2: TreeMonomial) -> int:
    """Total order on m/R/S tree monomials: arity, degree, then path-lex.

    Returns -1, 0 or 1.

    >>> r1, s1 = corolla(gen("R", 1)), corolla(gen("S", 1))
    >>> compare_graded_pathlex(s1, r1)
    1
    """
    for tree in (t1, t2):
        for label in tree.vertices():
            _alphabet_key(label)
    if t1.arity != t2.arity:
        return 1 if t1.arity > t2.arity else -1
    if t1.degree != t2.degree:
        return 1 if t1.degree > t2.degree else -1
    p1, p2 = _path_sequence(t1), _path_sequence(t2)
    if p1 == p2:
        if t1 != t2:  # same path sequence should pin down the planar tree
            raise ValueError(
                f"distinct trees with equal path sequences: {t1} vs {t2}"
            )
        return 0
    return 1 if p1 > p2 else -1


def leading_monomial(e: OperadElement) -> tuple[TreeMonomial, Scalar]:
    """Maximal monomial of a nonzero element under the graded path-lex order."""
    if e.is_zero():
        raise ValueError("zero element has no leading monomial")
    best = max(e.terms, key=cmp_to_key(compare_graded_pathlex))
    return best, e.terms[best]
