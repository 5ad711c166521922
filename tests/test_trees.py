"""Tests for tree monomials, signed grafting, braces and the path-lex order."""

from __future__ import annotations

import copy
import itertools
import pickle
import random
from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rbsinfty.signs import koszul_epsilon, parity_sign
from rbsinfty.trees import (
    Generator,
    OperadElement,
    TreeMonomial,
    as_element,
    brace,
    compare_graded_pathlex,
    compose_at,
    corolla,
    gen,
    graft_with_sign,
    identity_element,
    identity_tree,
    leading_monomial,
    parse_tree,
)

M2, M3 = gen("m", 2), gen("m", 3)
R1, R2, R3 = gen("R", 1), gen("R", 2), gen("R", 3)
S1, S2, S3 = gen("S", 1), gen("S", 2), gen("S", 3)
X2, X3 = gen("x", 2), gen("x", 3)


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------


def test_builtin_degree_conventions():
    assert [gen("m", n).degree for n in (2, 3, 4)] == [0, 1, 2]
    assert [gen("R", n).degree for n in (1, 2, 3)] == [0, 1, 2]
    assert [gen("S", n).degree for n in (1, 2, 3)] == [0, 1, 2]
    assert gen("x", 2).degree == gen("x", 5).degree == -1
    assert gen("y", 1).degree == gen("z", 3).degree == 0


def test_builtin_families_reject_bad_shapes():
    with pytest.raises(ValueError):
        gen("m", 1)
    with pytest.raises(ValueError):
        gen("x", 1)
    with pytest.raises(ValueError):
        Generator("m", 3, 0)  # degree must follow the family convention
    with pytest.raises(ValueError):
        Generator("q", 0, 0)


def test_custom_generators_allowed():
    custom = Generator("q", 2, 5)
    assert custom.name == "q2"
    assert corolla(custom).degree == 5


def test_generators_are_interned():
    assert Generator("q", 2, 5) is Generator("q", 2, 5)
    assert gen("m", 2) is Generator("m", 2, 0)
    assert gen("R", 3) is Generator(family="R", arity=3, degree=2)
    assert Generator("q", 2, 5) is not Generator("q", 2, 4)


def test_copy_and_pickle_return_the_interned_generator():
    for g in (gen("m", 3), gen("z", 2), Generator("q", 2, 5)):
        assert copy.copy(g) is g
        assert copy.deepcopy(g) is g
        assert pickle.loads(pickle.dumps(g)) is g
    t = parse_tree("m2(R1(1), m2(2, 3))")
    assert copy.deepcopy(t) == t
    assert pickle.loads(pickle.dumps(t)) == t


def test_copy_and_pickle_rebuild_an_equal_element():
    m2 = as_element(M2)
    e = compose_at(m2, 1, m2) + Fraction(1, 2) * compose_at(m2, 2, m2)
    assert not e.is_zero()
    for twin in (copy.copy(e), copy.deepcopy(e), pickle.loads(pickle.dumps(e))):
        assert twin == e
        assert twin.arity == e.arity and twin.terms == e.terms


def test_scaling_by_a_float_is_refused():
    m2 = as_element(M2)
    for scale in ((-1) ** -1, 0.5):
        with pytest.raises(TypeError):
            m2 * scale
        with pytest.raises(TypeError):
            scale * m2
    assert list((Fraction(1, 2) * m2).terms.values()) == [Fraction(1, 2)]


def test_invalid_generator_is_refused_and_not_interned():
    from rbsinfty.trees import _INTERNED

    for args in (("m", 3, 0), ("q", 0, 0), ("x", 1, -1)):
        with pytest.raises(ValueError):
            Generator(*args)
        assert args not in _INTERNED
        with pytest.raises(ValueError):  # refused again, not served from a table
            Generator(*args)


def test_generator_attributes_cannot_be_set():
    g = gen("m", 2)
    for name, value in (("degree", 1), ("arity", 3), ("family", "R"), ("other", 0)):
        with pytest.raises(AttributeError):
            setattr(g, name, value)
    assert (g.family, g.arity, g.degree, g.name) == ("m", 2, 0, "m2")


def test_tree_constructor_checks_the_word():
    m2, r1 = gen("m", 2), gen("R", 1)
    assert TreeMonomial((m2, r1, None, None)) == parse_tree("m2(R1(1), 2)")
    assert TreeMonomial([None]) == identity_tree()
    for word in ((m2, None), (m2, None, None, None), (), (None, None), (m2, "x", None)):
        with pytest.raises((ValueError, TypeError)):
            TreeMonomial(word)


# ---------------------------------------------------------------------------
# tree structure and serialization
# ---------------------------------------------------------------------------


def test_arity_degree_weight():
    t = parse_tree("m2(R1(1), m2(2, 3))")
    assert (t.arity, t.degree, t.weight) == (3, 0, 3)
    u = parse_tree("m2(S2(1, 2), R2(3, 4))")
    assert (u.arity, u.degree, u.weight) == (4, 2, 3)
    assert identity_tree().arity == 1
    assert identity_tree().degree == 0
    assert identity_tree().weight == 0


def test_round_trip_examples():
    for text in [
        "m2(R1(1), m2(2, 3))",
        "R1(1)",
        "1",
        "m3(1, R2(2, S1(3)), 4)",
    ]:
        assert parse_tree(text).to_text() == text


def test_parse_rejects_bad_input():
    with pytest.raises(ValueError):
        parse_tree("m2(2, 1)")  # leaves out of order
    with pytest.raises(ValueError):
        parse_tree("m2(1, 2, 3)")  # arity mismatch
    with pytest.raises(ValueError):
        parse_tree("w2(1, 2)")  # unknown name
    with pytest.raises(ValueError):
        parse_tree("m2(1, 2) junk")


def test_tree_equality_and_hash():
    a = parse_tree("m2(R1(1), 2)")
    b = compose_at(M2, 1, R1)
    ((tree, coeff),) = b.terms.items()
    assert tree == a
    assert hash(tree) == hash(a)
    assert coeff == 1


# ---------------------------------------------------------------------------
# signed grafting / compose_at
# ---------------------------------------------------------------------------


def test_compose_all_even_is_plus_one():
    e = compose_at(M2, 1, M2)
    assert e == OperadElement.monomial(parse_tree("m2(m2(1, 2), 3)"))


def test_compose_graft_last_in_planar_order_is_plus_one():
    e = compose_at(M2, 2, R2)
    assert e == OperadElement.monomial(parse_tree("m2(1, R2(2, 3))"))


def test_compose_transposing_two_odd_vertices_is_minus_one():
    # T = m2 with R2 at leaf 2; grafting S2 at leaf 1 forces the
    # concatenation order (m2, R2, S2) to be reordered into the planar
    # order (m2, S2, R2), transposing two degree-1 labels.
    t = compose_at(M2, 2, R2)
    e = compose_at(t, 1, S2)
    assert e == OperadElement.monomial(
        parse_tree("m2(S2(1, 2), R2(3, 4))"), -1
    )


def test_compose_sign_matches_transposition_oracle():
    # Independent oracle: per graft, the permutation taking the concatenated
    # vertex list to planar order, fed through the Koszul epsilon.
    t = compose_at(compose_at(M3, 3, R2), 2, S2)
    # vertices of t in planar order: m3, S2, R2
    assert [g.name for g in next(iter(t.terms)).vertices()] == ["m3", "S2", "R2"]
    # graft R3 at leaf 1: concatenation (m3, S2, R2, R3) -> planar
    # (m3, R3, S2, R2) is the cycle sigma = (1, 4, 2, 3) on positions.
    e = compose_at(t, 1, R3)
    ((tree, coeff),) = e.terms.items()
    degs = (1, 1, 1, 2)  # degrees of (m3, S2, R2, R3)
    oracle = koszul_epsilon((1, 4, 2, 3), degs)
    assert coeff == t.terms[next(iter(t.terms))] * oracle
    assert tree == parse_tree("m3(R3(1, 2, 3), S2(4, 5), R2(6, 7))")


def test_compose_at_identity_is_neutral():
    t = as_element(compose_at(M2, 2, R2))
    for i in (1, 2, 3):
        assert compose_at(t, i, identity_element()) == t
    assert compose_at(identity_element(), 1, t) == t


def test_compose_at_index_errors():
    with pytest.raises(ValueError):
        compose_at(M2, 0, M2)
    with pytest.raises(ValueError):
        compose_at(M2, 3, M2)


def test_compose_bilinear():
    f = as_element(M2) * 2 - compose_at(M2, 1, R1)
    g = as_element(R1) * Fraction(1, 2)
    left = compose_at(f, 2, g)
    expected = compose_at(M2, 2, R1) - compose_at(
        compose_at(M2, 1, R1), 2, R1
    ) * Fraction(1, 2)
    assert left == expected


GENERATORS_UP_TO_3 = [M2, M3, R1, R2, R3, S1, S2, S3]


def test_sequential_composition_axioms_exhaustive():
    """Standard non-symmetric operad axioms on all generator triples of arity <= 3."""
    for gf, gg, gh in itertools.product(GENERATORS_UP_TO_3, repeat=3):
        f, g, h = as_element(gf), as_element(gg), as_element(gh)
        b, c = gg.arity, gh.arity
        swap = (-1) ** (gg.degree * gh.degree)
        for i in range(1, gf.arity + 1):
            fg = compose_at(f, i, g)
            for j in range(1, gf.arity + b):
                lhs = compose_at(fg, j, h)
                if i <= j <= i + b - 1:
                    rhs = compose_at(f, i, compose_at(g, j - i + 1, h))
                elif j < i:
                    rhs = swap * compose_at(compose_at(f, j, h), i + c - 1, g)
                else:
                    rhs = swap * compose_at(compose_at(f, j - b + 1, h), i, g)
                assert lhs == rhs, (gf, gg, gh, i, j)


def test_degree_and_arity_additivity():
    for gf, gg in itertools.product(GENERATORS_UP_TO_3, repeat=2):
        for i in range(1, gf.arity + 1):
            e = compose_at(gf, i, gg)
            ((tree, _),) = e.terms.items()
            assert tree.degree == gf.degree + gg.degree
            assert tree.arity == gf.arity + gg.arity - 1


# ---------------------------------------------------------------------------
# braces
# ---------------------------------------------------------------------------


def test_brace_empty_args_returns_f():
    f = compose_at(M2, 1, R1)
    assert brace(f, []) == f


def test_brace_overlong_args_is_zero():
    assert brace(M2, [X2, X2, X2]).is_zero()


def test_brace_single_arg_is_sum_of_insertions():
    total = OperadElement.zero(4)
    for i in (1, 2, 3):
        total = total + compose_at(X3, i, X2)
    assert brace(X3, [X2]) == total
    assert len(brace(X3, [X2]).terms) == 3


def test_brace_with_identity_argument():
    # the identity occupies a slot but adds no vertices and no signs
    e = brace(M2, [identity_element(), as_element(R1)])
    assert e == compose_at(M2, 2, R1)


def test_brace_multiple_args_order_preserving():
    e = brace(M2, [as_element(R1), as_element(S1)])
    assert e == compose_at(compose_at(M2, 1, R1), 2, S1)
    # R1 and S1 have degree 0, so no signs; both land in order
    assert e == OperadElement.monomial(parse_tree("m2(R1(1), S1(2))"))


def _tree_strategy():
    generators = [M2, M3, R1, R2, S1, S2, X2, X3, gen("y", 1), gen("z", 2)]

    @st.composite
    def trees(draw):
        t = corolla(draw(st.sampled_from(generators)))
        for _ in range(draw(st.integers(min_value=0, max_value=2))):
            g = draw(st.sampled_from(generators))
            leaf = draw(st.integers(min_value=1, max_value=t.arity))
            ((t, _),) = compose_at(t, leaf, g).terms.items()
        return t

    return trees()


@settings(max_examples=60, deadline=None)
@given(_tree_strategy(), _tree_strategy(), _tree_strategy())
def test_pre_jacobi_identity(tf, tg, th):
    f, g, h = map(as_element, (tf, tg, th))
    sign = parity_sign(tg.degree * th.degree)
    lhs = brace(brace(f, [g]), [h])
    rhs = brace(f, [brace(g, [h])]) + brace(f, [g, h]) + sign * brace(f, [h, g])
    assert lhs == rhs


@settings(max_examples=40, deadline=None)
@given(_tree_strategy(), _tree_strategy(), _tree_strategy(), _tree_strategy())
def test_pre_jacobi_two_then_one(tf, tg1, tg2, th):
    # (f{g1, g2}){h} expands into h landing inside g1, inside g2, or in one
    # of the three slots of f relative to the two arguments.
    f, g1, g2, h = map(as_element, (tf, tg1, tg2, th))
    s1 = parity_sign(th.degree * (tg1.degree + tg2.degree))
    s2 = parity_sign(th.degree * tg2.degree)
    lhs = brace(brace(f, [g1, g2]), [h])
    # each term's sign moves the vertices of h left past the argument
    # blocks that follow its landing spot in the concatenation order
    rhs = (
        s2 * brace(f, [brace(g1, [h]), g2])
        + s2 * brace(f, [g1, h, g2])  # h between the two arguments
        + brace(f, [g1, brace(g2, [h])])
        + s1 * brace(f, [h, g1, g2])
        + brace(f, [g1, g2, h])
    )
    assert lhs == rhs


# ---------------------------------------------------------------------------
# element arithmetic
# ---------------------------------------------------------------------------


def test_element_cancellation_and_zero():
    e = compose_at(M2, 1, M2)
    assert (e - e).is_zero()
    assert (e + e) == 2 * e
    assert (Fraction(1, 3) * e) * 3 == e
    assert not (e * 0).terms


def test_element_arity_mismatch_rejected():
    with pytest.raises(ValueError):
        as_element(M2) + as_element(M3)
    with pytest.raises(ValueError):
        OperadElement(2, {identity_tree(): 1})
    with pytest.raises(ValueError):
        OperadElement(2, [(identity_tree(), 1), (identity_tree(), 1)])


def test_element_repeated_terms_sum_and_cancel():
    left, right = parse_tree("m2(m2(1, 2), 3)"), parse_tree("m2(1, m2(2, 3))")
    e = OperadElement(3, [(left, 1), (right, 2), (left, Fraction(1, 2)), (right, -2)])
    assert e.terms == {left: Fraction(3, 2)}


def _add_oracle(a: OperadElement, b: OperadElement) -> OperadElement:
    """Binary addition as it was before sums were built in one table."""
    if a.arity != b.arity:
        raise ValueError("cannot add elements of different arity")
    merged = dict(a.terms)
    for tree, coeff in b.terms.items():
        merged[tree] = merged.get(tree, Fraction(0)) + coeff
    return OperadElement(a.arity, merged)


@pytest.mark.parametrize("seed", range(5))
def test_element_sum_matches_a_fold_of_binary_addition(seed):
    rng = random.Random(seed)
    pool = [
        compose_at(M2, 1, M2),
        compose_at(M2, 2, M2),
        compose_at(M2, 1, S2),
        compose_at(R2, 2, M2),
        as_element(M3),
        brace(X2, [X2]),
    ]
    elements = [rng.choice((-2, -1, 1, 2)) * rng.choice(pool) for _ in range(12)]
    total = OperadElement.sum(3, elements)
    assert total == reduce(_add_oracle, elements, OperadElement.zero(3))
    assert total == reduce(lambda a, b: a + b, elements)


def test_element_repr_is_deterministic():
    e = compose_at(M2, 1, R1) - 2 * compose_at(M2, 2, R1)
    assert repr(e) == "-2*m2(1, R1(2)) + m2(R1(1), 2)"


# ---------------------------------------------------------------------------
# graded path-lexicographic order
# ---------------------------------------------------------------------------


def _m(t1: str, t2: str) -> int:
    return compare_graded_pathlex(parse_tree(t1), parse_tree(t2))


def test_order_arity_dominates():
    assert _m("m3(1, 2, 3)", "m2(1, 2)") == 1
    assert _m("R1(1)", "m2(1, 2)") == -1


def test_order_degree_second():
    assert _m("R2(1, 2)", "m2(1, 2)") == 1  # degree 1 vs 0 at arity 2
    assert _m("m2(R1(1), 2)", "R2(1, 2)") == -1


def test_order_generator_chain():
    assert _m("S1(1)", "R1(1)") == 1
    # equal arity and degree, decided by the letter R1 < S1 in position two
    assert _m("m2(S1(1), 2)", "m2(R1(1), 2)") == 1


def test_order_longer_word_wins_at_equal_prefix():
    # first-leaf words (m2, m2) vs (m2): length-lex prefers the longer word
    assert _m("m2(m2(1, 2), 3)", "m2(1, m2(2, 3))") == 1


def test_order_rejects_foreign_labels():
    with pytest.raises(ValueError):
        compare_graded_pathlex(corolla(X2), corolla(M2))


def test_leading_monomial_examples():
    e = compose_at(M2, 1, M2) - compose_at(M2, 2, M2)
    tree, coeff = leading_monomial(e)
    assert tree == parse_tree("m2(m2(1, 2), 3)")
    assert coeff == 1
    single = compose_at(M2, 2, R1) * Fraction(-3, 7)
    tree, coeff = leading_monomial(single)
    assert tree == parse_tree("m2(1, R1(2))")
    assert coeff == Fraction(-3, 7)
    with pytest.raises(ValueError):
        leading_monomial(OperadElement.zero(2))


def _mrs_tree_strategy():
    generators = [M2, M3, R1, R2, S1, S2]

    @st.composite
    def trees(draw):
        t = corolla(draw(st.sampled_from(generators)))
        for _ in range(draw(st.integers(min_value=0, max_value=2))):
            g = draw(st.sampled_from(generators))
            leaf = draw(st.integers(min_value=1, max_value=t.arity))
            ((t, _),) = compose_at(t, leaf, g).terms.items()
        return t

    return trees()


@settings(max_examples=60, deadline=None)
@given(_mrs_tree_strategy(), _mrs_tree_strategy(), _mrs_tree_strategy())
def test_order_is_total(a, b, c):
    ab, ba = compare_graded_pathlex(a, b), compare_graded_pathlex(b, a)
    assert ab == -ba  # antisymmetry
    assert (ab == 0) == (a == b)  # trichotomy: 0 exactly on equality
    # transitivity
    if ab >= 0 and compare_graded_pathlex(b, c) >= 0:
        assert compare_graded_pathlex(a, c) >= 0


# ---------------------------------------------------------------------------
# graft_with_sign directly
# ---------------------------------------------------------------------------


def test_graft_multiple_leaves_at_once():
    tree, sign = graft_with_sign(
        corolla(M3), {1: corolla(R1), 3: corolla(S2)}
    )
    assert tree == parse_tree("m3(R1(1), 2, S2(3, 4))")
    assert sign == 1


def test_graft_sign_from_reordering():
    # base m2 with R2 already at leaf 2; grafting S2 at leaf 1 crosses it
    ((base, _),) = compose_at(M2, 2, R2).terms.items()
    tree, sign = graft_with_sign(base, {1: corolla(S2)})
    assert sign == -1
    assert tree == parse_tree("m2(S2(1, 2), R2(3, 4))")


def test_graft_out_of_range():
    with pytest.raises(ValueError):
        graft_with_sign(corolla(M2), {3: corolla(R1)})


# ---------------------------------------------------------------------------
# compose_at and brace beside one graft per choice of terms
# ---------------------------------------------------------------------------


def _graft_compose_at(f, i, g):
    """f o_i g as `compose_at` built it before it spliced rows: one
    `graft_with_sign` per pair of terms, merged by the validating
    `OperadElement`."""
    f = as_element(f)
    g = as_element(g)
    if not 1 <= i <= f.arity:
        raise ValueError(f"leaf index {i} out of range 1..{f.arity}")
    terms = []
    for tf, cf in f.terms.items():
        for tg, cg in g.terms.items():
            tree, sign = graft_with_sign(tf, {i: tg})
            terms.append((tree, sign * cf * cg))
    return OperadElement(f.arity + g.arity - 1, terms)


def _graft_brace(f, args):
    """f{g_1, ..., g_k} as `brace` built it before it spliced rows: one
    `graft_with_sign` per choice of terms and of slots, merged by the
    validating `OperadElement`."""
    f = as_element(f)
    arg_elements = [as_element(a) for a in args]
    if not arg_elements:
        return f
    k = len(arg_elements)
    out_arity = f.arity + sum(a.arity - 1 for a in arg_elements)
    terms = []
    for tf, cf in f.terms.items():
        if k > tf.arity:
            continue
        for combo in itertools.product(*(a.terms.items() for a in arg_elements)):
            coeff = cf
            for _, c in combo:
                coeff *= c
            arg_trees = [tree for tree, _ in combo]
            for slots in itertools.combinations(range(1, tf.arity + 1), k):
                tree, sign = graft_with_sign(tf, dict(zip(slots, arg_trees)))
                terms.append((tree, sign * coeff))
    return OperadElement(out_arity, terms)


SCALARS = (1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3))
ALPHABETS = {
    "mrs": [M2, M3, R1, R2, S1, S2],
    "xyz": [X2, X3, gen("y", 1), gen("y", 2), gen("z", 1), gen("z", 2)],
}


def _random_elements(rng, generators, count):
    """``count`` random elements of mixed arities: sums of one to three
    random trees of one arity (a corolla with up to two generators grafted)
    with int and `Fraction` coefficients, and a zero element now and then."""
    by_arity = {}
    for _ in range(120):
        t = corolla(rng.choice(generators))
        for _ in range(rng.randrange(3)):
            t, _ = graft_with_sign(t, {rng.randint(1, t.arity): corolla(rng.choice(generators))})
        by_arity.setdefault(t.arity, []).append(t)
    arities = sorted(by_arity)
    elements = []
    for _ in range(count):
        arity = rng.choice(arities)
        if rng.random() < 0.1:
            elements.append(OperadElement.zero(arity))
            continue
        trees = rng.sample(by_arity[arity], min(len(by_arity[arity]), rng.randint(1, 3)))
        elements.append(OperadElement(arity, [(t, rng.choice(SCALARS)) for t in trees]))
    return elements


@pytest.mark.parametrize("alphabet", sorted(ALPHABETS))
def test_compose_at_and_brace_match_one_graft_per_choice(alphabet):
    rng = random.Random(alphabet)
    elements = _random_elements(rng, ALPHABETS[alphabet], 40)
    compared = 0
    for f in elements[:12]:
        for g in elements[12:24]:
            for i in range(1, f.arity + 1):
                assert compose_at(f, i, g) == _graft_compose_at(f, i, g), (f, i, g)
                compared += 1
    assert compared > 200
    nonzero = 0
    for f in elements[:20]:
        for k in range(5):  # k up to 4 passes the arity of some f
            args = rng.sample(elements[20:], k)
            e = brace(f, args)
            assert e == _graft_brace(f, args), (f, args)
            nonzero += not e.is_zero()
    assert nonzero > 30


def test_compose_at_and_brace_drop_what_cancels():
    # R1 o_1 m2 is both R1 grafted with m2 and the identity grafted with R1(m2)
    r1_m2 = parse_tree("R1(m2(1, 2))")
    f = as_element(R1) - identity_element()
    g = as_element(M2) + OperadElement.monomial(r1_m2)
    e = compose_at(f, 1, g)
    assert e == _graft_compose_at(f, 1, g)
    assert e == OperadElement(2, [(parse_tree("R1(R1(m2(1, 2)))"), 1), (corolla(M2), -1)])
    # m2(1, m2(2, 3)) o_1 m2 = m2(m2(1, 2), 3) o_3 m2, so their difference
    # braced with m2 loses that tree
    both = parse_tree("m2(m2(1, 2), m2(3, 4))")
    left = OperadElement.monomial(parse_tree("m2(1, m2(2, 3))"), Fraction(1, 2))
    right = OperadElement.monomial(parse_tree("m2(m2(1, 2), 3)"), Fraction(1, 2))
    assert both in brace(left, [M2]).terms and both in brace(right, [M2]).terms
    e = brace(left - right, [M2])
    assert e == _graft_brace(left - right, [M2])
    assert both not in e.terms and len(e.terms) == 4


def test_compose_at_and_brace_on_zero_and_edge_arguments():
    zero2, zero3 = OperadElement.zero(2), OperadElement.zero(3)
    f = compose_at(M2, 2, R2) * Fraction(2, 3)
    assert compose_at(f, 1, zero2) == _graft_compose_at(f, 1, zero2) == OperadElement.zero(4)
    assert compose_at(zero3, 2, M2) == _graft_compose_at(zero3, 2, M2) == OperadElement.zero(4)
    assert brace(f, [zero2]) == _graft_brace(f, [zero2]) == OperadElement.zero(4)
    assert brace(f, []) == _graft_brace(f, []) == f
    assert brace(f, [M2] * 4) == _graft_brace(f, [M2] * 4) == OperadElement.zero(7)
    for i in (0, 4):
        for compose in (compose_at, _graft_compose_at):
            with pytest.raises(ValueError, match="out of range"):
                compose(f, i, M2)
