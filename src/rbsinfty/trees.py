"""Planar rooted trees and the free graded operad they span.

A tree monomial is a planar rooted tree whose internal vertices carry graded
generator labels (the label's arity equals the number of children) and whose
leaves are implicitly numbered 1..n from left to right.  Formal rational
combinations of tree monomials of a fixed arity form the components of the
free non-symmetric graded operad.

The sign convention used everywhere: when trees are grafted, the vertices of
the inputs are concatenated (outer tree first, then the grafted trees ordered
by the leaf they occupy) and the coefficient is multiplied by the Koszul sign
of reordering that list into the planar (depth-first, root before subtrees,
left to right) order of the resulting tree.  The vertices of one grafted tree
keep their relative order, and so do those of the outer tree, so each grafted
tree may be taken as a single letter whose degree is its total degree: the
sign is (-1) to the sum, over the grafted trees, of that degree times the
degrees of the outer vertices that follow its leaf in planar order.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key
from typing import Iterator, Mapping, Sequence, Union

from .signs import inversion_sign

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


@dataclass(frozen=True)
class Generator:
    """A graded operad generator: a family tag, an arity and a degree."""

    family: str
    arity: int
    degree: int

    def __post_init__(self) -> None:
        if self.arity < 1:
            raise ValueError(f"generator arity must be >= 1, got {self.arity}")
        rule = _FAMILY_DEGREE.get(self.family)
        if rule is not None:
            if self.arity < _FAMILY_MIN_ARITY[self.family]:
                raise ValueError(
                    f"{self.family}-generators need arity >= "
                    f"{_FAMILY_MIN_ARITY[self.family]}, got {self.arity}"
                )
            if self.degree != rule(self.arity):
                raise ValueError(
                    f"degree of {self.family}{self.arity} must be "
                    f"{rule(self.arity)}, got {self.degree}"
                )

    @property
    def name(self) -> str:
        return f"{self.family}{self.arity}"

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

# Internal node representation: None is a leaf, otherwise a pair
# (Generator, tuple-of-children).  TreeMonomial wraps the root of such a
# structure and caches the derived quantities.
Node = Union[None, tuple]


class TreeMonomial:
    """Immutable planar rooted tree with generator-labeled vertices."""

    __slots__ = ("root", "arity", "degree", "weight", "_hash")

    def __init__(self, root: Node):
        arity = 0
        degree = 0
        weight = 0
        stack = [root]
        while stack:
            node = stack.pop()
            if node is None:
                arity += 1
                continue
            generator, children = node
            if not isinstance(generator, Generator):
                raise TypeError(f"vertex label must be a Generator: {generator!r}")
            if generator.arity != len(children):
                raise ValueError(
                    f"vertex {generator.name} has {len(children)} children, "
                    f"expected {generator.arity}"
                )
            degree += generator.degree
            weight += 1
            stack.extend(children)
        object.__setattr__(self, "root", root)
        object.__setattr__(self, "arity", arity)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "weight", weight)
        object.__setattr__(self, "_hash", hash(root))

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("TreeMonomial is immutable")

    def __eq__(self, other) -> bool:
        return isinstance(other, TreeMonomial) and self.root == other.root

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return self.to_text()

    @property
    def is_identity(self) -> bool:
        return self.root is None

    def vertices(self) -> tuple[Generator, ...]:
        """Vertex labels in planar order (depth-first, root before subtrees).

        >>> t = parse_tree("m2(R1(1), m2(2, 3))")
        >>> [g.name for g in t.vertices()]
        ['m2', 'R1', 'm2']
        """
        out: list[Generator] = []

        def walk(node: Node) -> None:
            if node is None:
                return
            generator, children = node
            out.append(generator)
            for child in children:
                walk(child)

        walk(self.root)
        return tuple(out)

    def to_text(self) -> str:
        """Serialize as a nested term with leaves numbered left to right.

        >>> corolla(gen("m", 2)).to_text()
        'm2(1, 2)'
        >>> identity_tree().to_text()
        '1'
        """
        counter = itertools.count(1)

        def render(node: Node) -> str:
            if node is None:
                return str(next(counter))
            generator, children = node
            return f"{generator.name}({', '.join(render(c) for c in children)})"

        return render(self.root)


_IDENTITY_TREE = TreeMonomial(None)


def identity_tree() -> TreeMonomial:
    """The arity-1 tree with no vertices (the operad unit)."""
    return _IDENTITY_TREE


def corolla(generator: Generator) -> TreeMonomial:
    """The single-vertex tree whose children are all leaves."""
    return TreeMonomial((generator, (None,) * generator.arity))


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

    def parse_node() -> Node:
        if not tokens:
            raise ValueError("unexpected end of input")
        token = tokens.pop()
        if token.isdigit():
            leaves.append(int(token))
            return None
        generator = lookup(token)
        if not tokens or tokens.pop() != "(":
            raise ValueError(f"expected '(' after {token}")
        children = [parse_node()]
        while tokens and tokens[-1] == ",":
            tokens.pop()
            children.append(parse_node())
        if not tokens or tokens.pop() != ")":
            raise ValueError(f"expected ')' closing {token}")
        if len(children) != generator.arity:
            raise ValueError(
                f"{generator.name} takes {generator.arity} children, "
                f"got {len(children)}"
            )
        return (generator, tuple(children))

    root = parse_node()
    if tokens:
        raise ValueError(f"trailing input: {' '.join(reversed(tokens))}")
    if leaves != list(range(1, len(leaves) + 1)):
        raise ValueError(f"leaves must read 1..n left to right, got {leaves}")
    return TreeMonomial(root)


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
    the result.  A grafted tree moves as a block, so it enters the sign as a
    single letter of its total degree.
    """
    for i in assignment:
        if not 1 <= i <= f.arity:
            raise ValueError(f"leaf index {i} out of range 1..{f.arity}")

    # letters: the vertices of f tagged 0, 1, ... in planar order, then the
    # grafted tree at leaf i tagged -i
    letters: list[tuple[int, int]] = []
    planar: list[int] = []
    leaf_numbers = itertools.count(1)

    def walk(node: Node) -> Node:
        if node is None:
            i = next(leaf_numbers)
            if i not in assignment:
                return None
            planar.append(-i)
            return assignment[i].root
        generator, children = node
        planar.append(len(letters))
        letters.append((len(letters), generator.degree))
        return (generator, tuple(walk(c) for c in children))

    result = TreeMonomial(walk(f.root))
    letters += [(-i, assignment[i].degree) for i in sorted(assignment)]
    return result, inversion_sign(letters, planar)


# ---------------------------------------------------------------------------
# operad elements
# ---------------------------------------------------------------------------

Scalar = Union[int, Fraction]


class OperadElement:
    """Finite rational linear combination of tree monomials of one arity."""

    __slots__ = ("arity", "terms")

    def __init__(self, arity: int, terms: Mapping[TreeMonomial, Scalar] = ()):
        cleaned: dict[TreeMonomial, Fraction] = {}
        for tree, coeff in dict(terms).items():
            if tree.arity != arity:
                raise ValueError(
                    f"monomial {tree} has arity {tree.arity}, expected {arity}"
                )
            value = Fraction(coeff)
            if value:
                cleaned[tree] = value
        object.__setattr__(self, "arity", arity)
        object.__setattr__(self, "terms", cleaned)

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("OperadElement is immutable")

    @classmethod
    def zero(cls, arity: int) -> "OperadElement":
        return cls(arity)

    @classmethod
    def monomial(
        cls, tree: TreeMonomial, coeff: Scalar = 1
    ) -> "OperadElement":
        return cls(tree.arity, {tree: coeff})

    def is_zero(self) -> bool:
        return not self.terms

    def homogeneous_degree(self) -> int | None:
        degrees = {tree.degree for tree in self.terms}
        if len(degrees) == 1:
            return degrees.pop()
        return None

    def items(self) -> Iterator[tuple[TreeMonomial, Fraction]]:
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
        if self.arity != other.arity:
            raise ValueError("cannot add elements of different arity")
        merged = dict(self.terms)
        for tree, coeff in other.terms.items():
            merged[tree] = merged.get(tree, Fraction(0)) + coeff
        return OperadElement(self.arity, merged)

    def __sub__(self, other: "OperadElement") -> "OperadElement":
        return self + (-other)

    def __neg__(self) -> "OperadElement":
        return OperadElement(
            self.arity, {tree: -coeff for tree, coeff in self.terms.items()}
        )

    def __mul__(self, scalar: Scalar) -> "OperadElement":
        value = Fraction(scalar)
        return OperadElement(
            self.arity, {tree: coeff * value for tree, coeff in self.terms.items()}
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
    result: dict[TreeMonomial, Fraction] = {}
    for tf, cf in f.terms.items():
        for tg, cg in g.terms.items():
            tree, sign = graft_with_sign(tf, {i: tg})
            coeff = result.get(tree, Fraction(0)) + sign * cf * cg
            if coeff:
                result[tree] = coeff
            else:
                result.pop(tree, None)
    return OperadElement(f.arity + g.arity - 1, result)


def brace(f: ElementLike, args: Sequence[ElementLike]) -> OperadElement:
    """Brace operation f{g_1, ..., g_k}.

    Sum over all order-preserving ways of grafting the arguments onto
    distinct leaves of f (left to right), with the same Koszul sign
    convention as ``compose_at``.  An empty argument list returns f; more
    arguments than f has inputs gives zero.

    >>> x3, x2 = gen("x", 3), gen("x", 2)
    >>> len(brace(x3, [x2]).terms)
    3
    >>> brace(gen("m", 2), [x2, x2, x2]).is_zero()
    True
    """
    f = as_element(f)
    arg_elements = [as_element(a) for a in args]
    if not arg_elements:
        return f
    k = len(arg_elements)
    out_arity = f.arity + sum(a.arity - 1 for a in arg_elements)
    accum: dict[TreeMonomial, Fraction] = {}
    for tf, cf in f.terms.items():
        if k > tf.arity:
            continue
        for combo in itertools.product(
            *(a.terms.items() for a in arg_elements)
        ):
            coeff = cf
            for _, c in combo:
                coeff *= c
            arg_trees = [tree for tree, _ in combo]
            for slots in itertools.combinations(range(1, tf.arity + 1), k):
                assignment = dict(zip(slots, arg_trees))
                tree, sign = graft_with_sign(tf, assignment)
                value = accum.get(tree, Fraction(0)) + sign * coeff
                if value:
                    accum[tree] = value
                else:
                    accum.pop(tree, None)
    return OperadElement(out_arity, accum)


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

    def walk(node: Node, prefix: tuple) -> None:
        if node is None:
            sequence.append((len(prefix), prefix))
            return
        generator, children = node
        extended = prefix + (_alphabet_key(generator),)
        for child in children:
            walk(child, extended)

    walk(t.root, ())
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


def leading_monomial(e: OperadElement) -> tuple[TreeMonomial, Fraction]:
    """Maximal monomial of a nonzero element under the graded path-lex order."""
    if e.is_zero():
        raise ValueError("zero element has no leading monomial")
    best = max(e.terms, key=cmp_to_key(compare_graded_pathlex))
    return best, e.terms[best]
