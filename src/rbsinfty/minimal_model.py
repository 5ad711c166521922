"""Differentials of the two free resolutions and the d-squared checker.

Two presentations are implemented, each a free operad with a degree -1
derivation differential defined on generators:

* the (m, R, S) presentation: generators m_n (n >= 2, degree n-2) and
  R_n, S_n (n >= 1, degree n-1), with the differential given by explicit
  signed sums of left-to-right composites (`generator_differential`);
* the (x, y, z) presentation: generators x_n (n >= 2, degree -1) and
  y_n, z_n (n >= 1, degree 0), its operadic suspension (`Suspension`):
  the same formula with m, R, S renamed x, y, z, each degree lowered by
  n-1, and each composite f o_i g of arities a, b signed by
  (-1)^((i-1)(b-1) + (a-1)|g|), |g| the (m, R, S) degree of g.

Both satisfy d^2 = 0, which `check_d_squared` verifies by exact symbolic
expansion: the `derivation_terms` of every term of d g, preorder words with
their coefficients, are summed in one table keyed by word, and trees are
built only for the witnesses of a failure.  Each generator's differential
is laid out once per check, in one `Images` table.  Every composite of the
differential, a single f o_i g included, is a row grafted in one pass
(`FreeOperad.compose_row`): the row of `trees._row_terms`, each graft signed
by the target's `graft_exponent`, summed in one table, and a tree is built
only for a word that survives.  The inner rows of the operator
differentials depend on neither the family nor the outer arity: they are
summed into one element per tail, composed once per target class for
every n, and each operator is composed with that sum once per slot.

The model carries the symmetry of a Rota-Baxter system (A, R, S) with
(A^op, S, R): the mirror θ (`mirror`) reverses the children at every vertex,
swaps R and S (y and z), and signs a tree by the Koszul sign of reordering
its vertices into the planar order of the mirror tree, times (-1)^C(k, 2)
for each m, R, S vertex of arity k (no such factor on x, y, z).  θ is an
involution, sends f o_i g to θ(f) o_(a-i+1) θ(g) for f of arity a, and
commutes with d: θ(d X_n) = ε_n d θ(X_n), with ε_n = (-1)^C(n, 2) on m, R, S
and 1 on x, y, z.  So d^2(S_n) = ε_n θ(d^2(R_n)) word for word, and
`check_d_squared` expands only m_n and R_n (x_n and y_n) once it has read
dθ = θd off its own images.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Callable, Iterable, Iterator, Sequence

from .signs import compositions, parity_sign
from .trees import (
    _FAMILY_MIN_ARITY,
    Generator,
    OperadElement,
    Scalar,
    TreeMonomial,
    _row_terms,
    _splice,
    _subtrees,
    _tree,
    as_element,
    gen,
)

# ---------------------------------------------------------------------------
# sign exponents
# ---------------------------------------------------------------------------


def alpha_exponent(k: int, parts: Sequence[int]) -> int:
    """Exponent on the m_k(operator row) terms of the operator differential."""
    return 1 + sum((k - j) * (parts[j - 1] - 1) for j in range(1, k + 1))


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


# ---------------------------------------------------------------------------
# generator differentials
# ---------------------------------------------------------------------------


class FreeOperad:
    """The free operad on m, R, S as a `generator_differential` target.

    A subclass changes its composition through one hook, `graft_exponent`,
    the exponent of the extra sign of one graft, or None for a zero graft.
    Each class owns its memo ``rows`` of the inner elements of d R_n and
    d S_n (`generator_terms`), shared by every n, as `diff_generator` keeps
    each differential.
    """

    rows: dict = {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls.rows = {}

    @staticmethod
    @lru_cache(maxsize=None)
    def gen(family, arity):
        return as_element(gen(family, arity))

    @staticmethod
    def graft_exponent(arity, leaf, g_arity, g_degree):
        """The free operad signs a graft by the graft rule of `trees` only."""
        return 0

    @staticmethod
    def support(family):
        """Every arity: each generator is nonzero in the free operad."""
        return None

    @classmethod
    def compose_row(cls, f, parts):
        """f with ``parts`` grafted left to right, a None part leaving its
        leaf open: the words of `trees._row_terms` summed in one table and a
        tree built per surviving word.

        Each term of a part is signed by `graft_exponent` as if the parts were
        composed one at a time: at its leaf and with the arity of the
        composite so far, both counted after the parts to its left.
        """
        arity, leaf, grafts = f.arity, 1, []
        for number, g in enumerate(parts, 1):
            if g is None:
                leaf += 1
                continue
            signed = []
            for t, c in g.terms.items():
                e = cls.graft_exponent(arity, leaf, g.arity, t.degree)
                if e is not None:
                    signed.append(((number, t.nodes, t.degree), parity_sign(e) * c))
            grafts.append(signed)
            arity += g.arity - 1
            leaf += g.arity
        return OperadElement.from_words(arity, _row_terms(f, grafts))

    @staticmethod
    def sum(arity, degree, terms):
        """The signed rows added in one table."""
        table: dict[TreeMonomial, Scalar] = {}
        get = table.get
        for s, e in terms:
            for t, c in e.terms.items():
                table[t] = get(t, 0) + s * c
        return OperadElement._summed(arity, {t: c for t, c in table.items() if c})

    inner = sum


# the (x, y, z) namesake of each (m, R, S) family
_SUSPENDED = {"m": "x", "R": "y", "S": "z"}


class Suspension(FreeOperad):
    """The free operad on x, y, z, the operadic suspension of `FreeOperad`.

    X_n stands for its namesake in ``_SUSPENDED``, and f o_i g, f of arity
    a and g a tree of arity b, gets the sign (-1)^((i-1)(b-1) + (a-1)|g|)
    with |g| the (m, R, S) degree of g: its (x, y, z) degree plus b - 1.
    """

    @staticmethod
    def gen(family, arity):
        return FreeOperad.gen(_SUSPENDED[family], arity)

    @staticmethod
    def graft_exponent(arity, leaf, g_arity, g_degree):
        return (leaf - 1) * (g_arity - 1) + (arity - 1) * (g_degree + g_arity - 1)


def slot(k: int, i: int, g) -> tuple:
    """The row of one part: g at slot i of a host of arity k, the others open."""
    return (None,) * (i - 1) + (g,) + (None,) * (k - i)


def generator_differential(family: str, n: int, target):
    """d m_n, d R_n or d S_n in the operad ``target``: its `generator_terms`
    summed in one table.

    >>> generator_differential("R", 1, FreeOperad).is_zero()
    True
    >>> generator_differential("m", 2, FreeOperad).is_zero()
    True
    >>> len(generator_differential("R", 3, FreeOperad).terms)
    12
    """
    degree = n - 3 if family == "m" else n - 2
    return target.sum(n, degree, generator_terms(family, n, target))


def generator_terms(family: str, n: int, target) -> list:
    """The unsummed ``(sign, element)`` terms of d m_n, d R_n or d S_n,
    written once and built in the operad ``target``.

    ``target`` supplies
    - ``gen(family, arity)``, None for a generator sent to zero;
    - ``support(family)``, the arities at which ``gen`` is not None, or None
      for every arity;
    - ``compose_row(f, parts)``, f with one part per input grafted left to
      right, None for an open slot, so that f o_i g is
      ``compose_row(f, slot(k, i, g))`` for f of arity k: one composition
      per target, whose rows the target may leave unsummed;
    - ``sum(arity, degree, terms)`` of ``(sign, row)`` pairs, the element
      they add up to, and ``inner(arity, degree, terms)``, the same sum as
      a part of ``compose_row``.
    `FreeOperad` builds d in the free operad on m, R, S and `Suspension`
    builds d x_n, d y_n, d z_n in the free operad on x, y, z; both support
    every arity, and their rows are elements.  A `HomotopyRBS` evaluates d
    in End(V), and an `InfinityYBPair` in the tensor operad of its algebra
    A (an order-(n+1) tensor for an arity-n operation), each streaming
    integer rows: each is an operad map from the minimal model, and the
    terms through a generator it sends to zero are left out, their
    compositions drawn only from its support.  With F = R, S, composites
    grafted left to right and l, r running over the compositions of n:

        d m_n = sum_{1 < j < n, i} (-1)^(i + j(n-i)) m_{n-j+1} o_i m_j
        d F_n = sum_{k > 1, l} (-1)^alpha m_k(F_{l_1}, ..., F_{l_k})
              + sum_{p > 1, r, j, i} (-1)^beta
                F_{r_1} o_i m_p(R_{r_2}, ..., R_{r_j}, id, S_{r_{j+1}}, ..., S_{r_p})

    The inner rows depend on neither F nor r_1, and beta_exponent is
    1 + load r_1 + i (1 - load) plus a part that depends only on j and the
    tail r_2 .. r_p, with load = r_2 + ... + r_p + 1 the arity of an inner
    row.  So the rows of one tail, each signed by that part, are summed over
    j into one inner element, and F_{r_1} is composed with it once per slot
    i.  The inner element is built once per call, and once for every n in a
    target that owns a dict ``rows`` (each `FreeOperad` class, each
    `HomotopyRBS` and each `InfinityYBPair` does).
    """
    gen, compose_row, support = target.gen, target.compose_row, target.support
    rows = getattr(target, "rows", {})  # the inner elements, by r_2 .. r_p

    def grafted(head, slots):
        # head with the generators (family, arity) of ``slots`` grafted left
        # to right, a (None, 1) slot left open; None if one of them is zero
        parts = []
        for f, a in slots:
            g = f and gen(f, a)
            if f and g is None:
                return None
            parts.append(g)
        return compose_row(head, parts)

    def inner_sum(head, tail):
        # the signed inner rows of ``tail`` summed over j, None if all are
        p = len(tail) + 1
        exponent, terms = sum((r - 1) * (p - t) for t, r in enumerate(tail, 2)), []
        for j in range(1, p + 1):
            if j > 1:
                exponent += tail[j - 2] - 1
            slots = [("R", r) for r in tail[: j - 1]] + [(None, 1)]
            row = grafted(head, slots + [("S", r) for r in tail[j - 1 :]])
            if row is not None:
                terms.append((parity_sign(exponent), row))
        if not terms:
            return None
        return target.inner(sum(tail) + 1, sum(tail) - 1, terms)

    terms = []
    if family == "m":
        for j in range(2, n):
            k = n - j + 1
            outer, inner = gen("m", k), gen("m", j)
            if outer is not None and inner is not None:
                terms += [
                    (parity_sign(i + j * (n - i)), compose_row(outer, slot(k, i, inner)))
                    for i in range(1, k + 1)
                ]
        return terms
    # no composition is drawn for a row through a zero m_k (m_p), nor one
    # with a part outside the support of F (of R and S, for the tails), so
    # every F_l of an m_k row is nonzero
    outer_parts, r, s = support(family), support("R"), support("S")
    tail_parts = None if r is None or s is None else r | s
    for k in range(2, n + 1):
        head = gen("m", k)
        if head is None:
            continue
        for parts in compositions(n, k, outer_parts):
            row = compose_row(head, [gen(family, l) for l in parts])
            terms.append((parity_sign(alpha_exponent(k, parts)), row))
    for p in range(2, n + 1):
        head = gen("m", p)
        if head is None:
            continue
        for parts in compositions(n, p, tail_parts):
            r1, tail = parts[0], parts[1:]
            outer = gen(family, r1)
            if outer is None:
                continue
            if tail not in rows:
                rows[tail] = inner_sum(head, tail)
            inner = rows[tail]
            if inner is None:
                continue
            load = sum(tail) + 1
            terms += [
                (parity_sign(1 + load * r1 + i * (1 - load)), compose_row(outer, slot(r1, i, inner)))
                for i in range(1, r1 + 1)
            ]
    return terms


@lru_cache(maxsize=None)
def diff_generator(g: Generator) -> OperadElement:
    """Differential of a builtin-family generator, built once per process.

    >>> diff_generator(gen("y", 1)).is_zero()
    True
    """
    if g.family in _SUSPENDED:
        return generator_differential(g.family, g.arity, FreeOperad)
    for family, suspended in _SUSPENDED.items():
        if g.family == suspended:
            return generator_differential(family, g.arity, Suspension)
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
    that sign is the sign of grafting the vertex's subtrees onto ``u``: the
    word of ``u`` with the subtrees spliced in replaces the vertex's subtree
    in the word of ``t``.
    """
    if not 0 <= index < t.weight:
        raise ValueError(f"no vertex at planar index {index}")
    nodes = t.nodes
    position = [p for p, node in enumerate(nodes) if node is not None][index]
    label = nodes[position]
    if u.arity != label.arity:
        raise ValueError(f"replacement arity {u.arity} != vertex arity {label.arity}")
    end, subtrees = _subtrees(nodes, position)
    word, exponent = _splice(u.nodes, u._leaf_layout(), subtrees)
    nodes = nodes[:position] + word + nodes[end:]
    return _tree(nodes, t.arity, t.degree - label.degree + u.degree), parity_sign(exponent)


DiffMap = Callable[[Generator], OperadElement]


class Images(dict):
    """The image of each label under the generator differential ``diff_of``,
    laid out for splicing: a tuple of ``(word, leaf layout, coefficient)``,
    one per term, the layout that of `TreeMonomial._leaf_layout`.

    A label is laid out on its first lookup, so a check that holds one table
    calls ``diff_of`` once per label it meets.
    """

    __slots__ = ("diff_of",)

    def __init__(self, diff_of: DiffMap):
        self.diff_of = diff_of

    def __missing__(self, label: Generator) -> tuple:
        image = self[label] = tuple(
            (u.nodes, u._leaf_layout(), c) for u, c in self.diff_of(label).terms.items()
        )
        return image


def derivation_terms(
    images: Images, nodes: tuple, coeff: Scalar
) -> Iterator[tuple[tuple, Scalar]]:
    """The terms of ``coeff`` times the derivation extension of the
    differential laid out in ``images`` on the tree with the word ``nodes``,
    as ``(word, coefficient)`` pairs.

    Each vertex is replaced (in place) by the differential of its label, with
    the prefactor (-1)^(sum of the degrees of the vertices strictly preceding
    it in planar order); the sign of each term is that of `replace_vertex`.
    A vertex is laid out once, for all the terms of its image, and a label
    whose image is zero is not laid out at all.  Terms are yielded unmerged.
    """
    prefix = 0
    for position, label in enumerate(nodes):
        if label is None:
            continue
        image = images[label]
        if image:
            end, subtrees = _subtrees(nodes, position)
            head, tail = nodes[:position], nodes[end:]
            scale = parity_sign(prefix) * coeff
            for u_nodes, leaves, u_coeff in image:
                word, exponent = _splice(u_nodes, leaves, subtrees)
                yield head + word + tail, parity_sign(exponent) * scale * u_coeff
        prefix += label.degree


def extend_derivation(diff_of: DiffMap, e: OperadElement) -> OperadElement:
    """Extend a generator differential to the free operad as a derivation:
    the `derivation_terms` of each monomial of ``e``, summed by word."""
    images = Images(diff_of)
    return OperadElement.from_words(
        e.arity,
        (
            term
            for tree, coeff in e.terms.items()
            for term in derivation_terms(images, tree.nodes, coeff)
        ),
    )


# ---------------------------------------------------------------------------
# the R <-> S mirror
# ---------------------------------------------------------------------------


def _presentation(family: str) -> tuple[str, str, str]:
    """The (m, R, S) or (x, y, z) families of ``family``'s presentation."""
    return PRESENTATIONS["mrs" if family in _SUSPENDED else "xyz"]


@lru_cache(maxsize=None)
def _mirror_label(label: Generator) -> tuple[Generator, int]:
    """θ on one vertex: its label with R and S (y and z) swapped, m and x
    fixed, and the exponent of its own sign, C(k, 2) on m, R, S and 0 on
    x, y, z for a vertex of arity k."""
    family, k = label.family, label.arity
    _, r, s = _presentation(family)
    twin = gen(s if family == r else r if family == s else family, k)
    return twin, k * (k - 1) // 2 if family in _SUSPENDED else 0


def mirror(nodes: tuple) -> tuple[tuple, int]:
    """θ on the tree with the preorder word ``nodes``: its mirror word and sign.

    θ reverses the children at every vertex and swaps R and S (y and z).
    The reversed preorder word is the postorder word of the mirror tree, so
    one pass over it rebuilds the mirror's preorder word, one subtree per
    stack entry.  The sign is the Koszul sign of reordering the vertices
    from the old planar order to the new one, times (-1)^C(k, 2) for each
    m, R, S vertex of arity k.  Two vertices trade places exactly when
    neither lies above the other, so the Koszul sign counts the pairs of odd
    vertices in different subtrees of a common vertex.

    >>> from .trees import parse_tree
    >>> word, sign = mirror(parse_tree("m2(R1(1), S2(2, 3))").nodes)
    >>> _tree(word, 3, 1).to_text(), sign
    ('m2(R2(1, 2), S1(3))', 1)
    """
    stack: list[tuple[tuple, int]] = []  # (word, odd vertices) per subtree
    exponent = 0
    for node in reversed(nodes):
        if node is None:
            stack.append(((None,), 0))
            continue
        label, own = _mirror_label(node)
        k = node.arity
        word, odd = (label,), 0
        for child, child_odd in stack[-k:]:
            word += child
            exponent += odd * child_odd
            odd += child_odd
        del stack[-k:]
        exponent += own
        stack.append((word, odd + (node.degree & 1)))
    return stack[0][0], parity_sign(exponent)


def _mirror_holds(images: Images, g: Generator, checked: set) -> bool:
    """Whether θ(d X) = ε d θ(X) in ``images`` for every X of arity at most
    that of ``g`` in its family and in the family θ fixes (m, x), ε the sign
    of θ on the corolla of X; ``checked`` holds the X found to hold so far.

    As θ is an involution, the equation of X gives that of θ(X).
    """
    fixed = _presentation(g.family)[0]
    for label in presentation_generators((fixed, g.family), g.arity):
        if label in checked:
            continue
        twin, own = _mirror_label(label)
        image, sign = images[label], parity_sign(own)
        expected = {nodes: sign * c for nodes, _, c in images[twin]}
        if len(expected) != len(image):
            return False
        for nodes, _, c in image:
            word, s = mirror(nodes)
            if expected.get(word) != s * c:
                return False
        checked.add(label)
    return True


# ---------------------------------------------------------------------------
# d-squared verification
# ---------------------------------------------------------------------------

# the most residual terms (or entries) a failing check lists in its report
_WITNESS_CAP = 8

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

    Returns a JSON-ready report; a nonzero residual is reported, not raised,
    with its first `_WITNESS_CAP` terms in serialization order.

    A generator is read off its mirror instead of expanded when the call
    expanded its R <-> S twin θ(g) earlier to a zero residual, and the
    check's own `Images` table satisfies θ(d X_k) = ε_k d θ(X_k) for X_k the
    m_k (x_k) and the generator of g's family of every arity k up to the
    arity n of g.  θ is an involutive anti-automorphism that commutes with the
    derivation extension of those images, so then d^2(g) = ε_n θ(d^2(θ g)) = 0
    word for word.  In every other case (a nonzero residual of the twin, a
    failed mirror equation, a twin listed later or not at all) g is
    expanded, so a failure keeps its witnesses.  In the order of
    `PRESENTATIONS`, S_n (z_n) is the generator read off its mirror.
    """
    if max_arity < 2:
        raise ValueError("max_arity must be >= 2")
    results = []
    # the module binding, read per call, so that a stand-in for it is used
    images = Images(diff_generator)
    vanished: set[Generator] = set()  # expanded in this call, residual zero
    mirrored: set[Generator] = set()  # θ(d X) = ε d θ(X) in ``images``
    for g in presentation_generators(families, max_arity):
        if _mirror_label(g)[0] in vanished and _mirror_holds(images, g, mirrored):
            # d²(g) = ±θ(d²(θ g)) word for word, and d²(θ g) = 0
            nonzero = []
        else:
            residual: dict[tuple, Scalar] = {}
            get = residual.get
            for nodes, _, coeff in images[g]:
                for word, c in derivation_terms(images, nodes, coeff):
                    residual[word] = get(word, 0) + c
            nonzero = [(word, c) for word, c in residual.items() if c]
            if not nonzero:
                vanished.add(g)
        result = {
            "generator": g.name,
            "arity": g.arity,
            "residual_terms": len(nonzero),
            "ok": not nonzero,
        }
        if nonzero:
            witnesses = OperadElement.from_words(g.arity, nonzero).items()
            result["witnesses"] = [
                {"tree": tree.to_text(), "coeff": str(coeff)}
                for tree, coeff in itertools.islice(witnesses, _WITNESS_CAP)
            ]
        results.append(result)
    return {
        "families": sorted(set(families)),
        "max_arity": max_arity,
        "results": results,
        "ok": all(r["ok"] for r in results),
    }
