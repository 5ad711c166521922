"""Tests for the generator differentials and the derivation extension."""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rbsinfty.minimal_model import (
    _WITNESS_CAP,
    PRESENTATIONS,
    FreeOperad,
    Images,
    Suspension,
    alpha_exponent,
    beta_exponent,
    check_d_squared,
    derivation_terms,
    diff_generator,
    extend_derivation,
    generator_differential,
    mirror,
    presentation_generators,
    replace_vertex,
    slot,
)
from rbsinfty import minimal_model, trees
from rbsinfty.monomial_model import _FirstSlot, enumerate_monomials
from rbsinfty.signs import compositions, parity_sign
from rbsinfty.trees import (
    _FAMILY_MIN_ARITY,
    OperadElement,
    TreeMonomial,
    as_element,
    brace,
    compose_at,
    corolla,
    gen,
    graft_with_sign,
    identity_element,
    identity_tree,
    parse_tree,
)
from test_trees import _graft_brace, _graft_compose_at

M2, R1, S1 = gen("m", 2), gen("R", 1), gen("S", 1)


def differential(e):
    """The derivation extension of `diff_generator` (either presentation)."""
    return extend_derivation(diff_generator, e)


# ---------------------------------------------------------------------------
# sign exponents
# ---------------------------------------------------------------------------


def test_alpha_two_printed_forms_agree_mod_two():
    # 1 + k(k-1)/2 + sum (k-j) l_j and 1 + sum (k-j)(l_j - 1) differ by
    # the even quantity k(k-1), so only their parity coincides
    for k in range(2, 6):
        for parts in compositions(7, k):
            direct = 1 + k * (k - 1) // 2 + sum(
                (k - j) * parts[j - 1] for j in range(1, k + 1)
            )
            assert (alpha_exponent(k, parts) - direct) % 2 == 0


def test_alpha_beta_frozen_values():
    assert alpha_exponent(2, (1, 1)) == 1
    assert alpha_exponent(2, (2, 1)) == 2
    assert beta_exponent(2, 1, 1, (1, 1)) == 2
    assert beta_exponent(2, 2, 1, (1, 1)) == 2


def test_compositions():
    assert list(compositions(3, 1)) == [(3,)]
    assert sorted(compositions(4, 3)) == [(1, 1, 2), (1, 2, 1), (2, 1, 1)]
    assert list(compositions(2, 3)) == []


# ---------------------------------------------------------------------------
# generator differentials: vanishing cases and hand-expanded fixtures
# ---------------------------------------------------------------------------


def test_diffs_vanishing_by_empty_ranges():
    for g in [gen("m", 2), R1, S1, gen("x", 2), gen("y", 1), gen("z", 1)]:
        assert diff_generator(g).is_zero()


def test_diff_m3_relative_sign():
    # two terms with opposite coefficients and a common global unit
    e = diff_generator(gen("m", 3))
    left = parse_tree("m2(m2(1, 2), 3)")
    right = parse_tree("m2(1, m2(2, 3))")
    assert set(e.terms) == {left, right}
    assert e.terms[left] == -e.terms[right]
    assert e.terms[left] in (1, -1)


def test_diff_R2_matches_printed_expansion():
    e = diff_generator(gen("R", 2))
    expected = (
        compose_at(R1, 1, compose_at(M2, 1, R1))
        + compose_at(R1, 1, compose_at(M2, 2, S1))
        - compose_at(compose_at(M2, 1, R1), 2, R1)
    )
    assert e == expected


def test_diff_S2_matches_printed_expansion():
    e = diff_generator(gen("S", 2))
    expected = (
        compose_at(S1, 1, compose_at(M2, 1, R1))
        + compose_at(S1, 1, compose_at(M2, 2, S1))
        - compose_at(compose_at(M2, 1, S1), 2, S1)
    )
    assert e == expected


def test_diff_x3_is_minus_self_brace():
    x2 = gen("x", 2)
    e = diff_generator(gen("x", 3))
    assert e == -brace(x2, [as_element(x2)])
    assert e == -(compose_at(x2, 1, x2) + compose_at(x2, 2, x2))


def test_diff_y2_structure():
    e = diff_generator(gen("y", 2))
    y1, z1, x2 = gen("y", 1), gen("z", 1), gen("x", 2)
    expected = (
        -compose_at(compose_at(corolla(x2), 1, y1), 2, y1)
        + compose_at(y1, 1, compose_at(x2, 2, z1))
        + compose_at(y1, 1, compose_at(x2, 1, y1))
    )
    assert e == expected


# The builders below are the chained-composition forms of d m_n and d R_n,
# d S_n that `generator_differential` replaced, kept as its oracle.


def _oracle_diff_m(n):
    terms = []
    for j in range(2, n):
        for i in range(1, n - j + 2):
            sign = (-1) ** (i + j * (n - i))
            terms.append(sign * compose_at(gen("m", n - j + 1), i, gen("m", j)))
    return OperadElement.sum(n, terms)


def _oracle_operator_row(k, parts, family):
    term = as_element(gen("m", k))
    leaf = 1
    for part in parts:
        term = compose_at(term, leaf, gen(family, part))
        leaf += part
    return term


def _oracle_mixed_row(p, j, parts):
    term = as_element(gen("m", p))
    leaf = 1
    for t in range(2, j + 1):
        term = compose_at(term, leaf, gen("R", parts[t - 1]))
        leaf += parts[t - 1]
    leaf += 1  # the open slot j
    for t in range(j + 1, p + 1):
        term = compose_at(term, leaf, gen("S", parts[t - 1]))
        leaf += parts[t - 1]
    return term


def _oracle_diff_operator(n, family):
    rows = []
    for k in range(2, n + 1):
        for parts in compositions(n, k):
            sign = (-1) ** alpha_exponent(k, parts)
            rows.append(sign * _oracle_operator_row(k, parts, family))
    mixed = []
    for p in range(2, n + 1):
        for parts in compositions(n, p):
            outer = gen(family, parts[0])
            for j in range(1, p + 1):
                inner = _oracle_mixed_row(p, j, parts)
                for i in range(1, parts[0] + 1):
                    sign = (-1) ** beta_exponent(p, j, i, parts)
                    mixed.append(sign * compose_at(outer, i, inner))
    return OperadElement.sum(n, rows) + OperadElement.sum(n, mixed)


@pytest.mark.parametrize("family", ["m", "R", "S"])
def test_generator_differential_matches_chained_builders(family):
    for n in range(2 if family == "m" else 1, 7):
        if family == "m":
            oracle = _oracle_diff_m(n)
        else:
            oracle = _oracle_diff_operator(n, family)
        built = generator_differential(family, n, FreeOperad)
        assert built == oracle
        assert diff_generator(gen(family, n)) == oracle
        assert n < 3 or not built.is_zero()


# The brace forms of d x_n, d y_n, d z_n that the suspension of
# `generator_differential` replaced, kept as its oracle.


def _oracle_diff_x(n):
    return -OperadElement.sum(
        n, (brace(gen("x", n - j + 1), [as_element(gen("x", j))]) for j in range(2, n))
    )


def _oracle_diff_yz(n, family):
    rows = []
    for k in range(2, n + 1):
        for parts in compositions(n, k):
            args = [as_element(gen(family, r)) for r in parts]
            rows.append(brace(gen("x", k), args))
    mixed = []
    for p in range(2, n + 1):
        for parts in compositions(n, p):
            outer = gen(family, parts[0])
            for j in range(1, p + 1):
                args = (
                    [as_element(gen("y", parts[t - 1])) for t in range(2, j + 1)]
                    + [identity_element()]
                    + [as_element(gen("z", parts[t - 1])) for t in range(j + 1, p + 1)]
                )
                inner = brace(gen("x", p), args)
                mixed.append(brace(outer, [inner]))
    return OperadElement.sum(n, mixed) - OperadElement.sum(n, rows)


@pytest.mark.parametrize("family, suspended", [("m", "x"), ("R", "y"), ("S", "z")])
def test_suspension_matches_brace_builders(family, suspended):
    for n in range(_FAMILY_MIN_ARITY[family], 7):
        if suspended == "x":
            oracle = _oracle_diff_x(n)
        else:
            oracle = _oracle_diff_yz(n, suspended)
        assert generator_differential(family, n, Suspension) == oracle
        assert diff_generator(gen(suspended, n)) == oracle
        assert n < 3 or not oracle.is_zero()


def test_every_coefficient_of_d_x_is_minus_one():
    for n in range(3, 9):
        e = diff_generator(gen("x", n))
        # one term per x_{n-j+1} o_i x_j, none cancelled
        assert len(e.terms) == sum(n - j + 1 for j in range(2, n))
        assert set(e.terms.values()) == {-1}


# ---------------------------------------------------------------------------
# one graft per row, side by side with the left-to-right fold
# ---------------------------------------------------------------------------


def _oracle_compose_at(target, f, i, g):
    """f o_i g in ``target`` by one `trees.graft_with_sign` per pair of terms
    (`_graft_compose_at`), one term of g at a time."""
    arity = f.arity + g.arity - 1
    if target is _FirstSlot and i > 1:
        return OperadElement.zero(arity)
    b = g.arity
    pieces = []
    for tree, coeff in g.terms.items():
        exponent = 0
        if target is Suspension:
            exponent = (i - 1) * (b - 1) + (f.arity - 1) * (tree.degree + b - 1)
        piece = _graft_compose_at(f, i, OperadElement.monomial(tree, coeff))
        pieces.append(piece * parity_sign(exponent))
    return OperadElement.sum(arity, pieces)


def _fold_row(target, f, parts):
    """The row as the left-to-right fold of compositions that `compose_row`
    replaced: each part composed at its leaf of the composite so far."""
    leaf = 1
    for g in parts:
        if g is not None:
            f = _oracle_compose_at(target, f, leaf, g)
        leaf += 1 if g is None else g.arity
    return f


def _graft_compose_row(target, f, parts):
    """The row as `FreeOperad.compose_row` built it before it spliced words:
    one `trees.graft_with_sign` per choice of one term from each part, each
    tree and coefficient merged by the validating `OperadElement`."""
    arity, leaf, grafts = f.arity, 1, []
    for number, g in enumerate(parts, 1):
        if g is None:
            leaf += 1
            continue
        signed = []
        for t, c in g.terms.items():
            e = target.graft_exponent(arity, leaf, g.arity, t.degree)
            if e is not None:
                signed.append((number, t, parity_sign(e) * c))
        grafts.append(signed)
        arity += g.arity - 1
        leaf += g.arity
    terms = []
    for tf, cf in f.terms.items():
        for choice in itertools.product(*grafts):
            grafted, c = {}, cf
            for number, t, ct in choice:
                grafted[number] = t
                c *= ct
            tree, sign = graft_with_sign(tf, grafted)
            terms.append((tree, sign * c))
    return OperadElement(arity, terms)


def _rows_of_the_differentials(target, max_arity):
    rows = []

    class Recording(target):
        @classmethod
        def compose_row(cls, f, parts):
            rows.append((f, tuple(parts)))
            return super().compose_row(f, parts)

    for family in ("m", "R", "S"):
        for n in range(_FAMILY_MIN_ARITY[family], max_arity + 1):
            generator_differential(family, n, Recording)
    return rows


@pytest.mark.parametrize("target", [FreeOperad, Suspension, _FirstSlot])
def test_compose_row_matches_the_fold_on_every_row_of_a_differential(target):
    rows = _rows_of_the_differentials(target, 6)
    for f, parts in rows:
        assert target.compose_row(f, parts) == _fold_row(target, f, parts), (f, parts)
    assert len(rows) > 100
    # every f o_i g of a differential is the row slot(k, i, g): one part, whose
    # fold is the single composition _oracle_compose_at(target, f, i, g)
    single = [parts for _, parts in rows if sum(g is not None for g in parts) == 1]
    assert len(single) > 100


@pytest.mark.parametrize("target", [FreeOperad, Suspension, _FirstSlot])
def test_spliced_rows_match_one_graft_per_choice_to_arity_eight(target):
    rows = _rows_of_the_differentials(target, 8)
    for f, parts in rows:
        assert target.compose_row(f, parts) == _graft_compose_row(target, f, parts), (f, parts)
    assert len(rows) > 1000


def _compose_row_calls(max_arity):
    """The rows that d m_n, d R_n and d S_n compose for n <= max_arity when
    the inner rows m_p(R_{r_2}, .., id, .., S_{r_p}) of each tail r_2 .. r_p
    are composed once for every n and both families, summed over j, and
    F_{r_1} is composed with that sum once per slot i."""
    calls, tails = 0, set()
    for n in range(3, max_arity + 1):
        calls += sum(n - j + 1 for j in range(2, n))  # m_{n-j+1} o_i m_j
    for n in range(2, max_arity + 1):
        for p in range(2, n + 1):
            for parts in compositions(n, p):
                # m_p(F, .., F) and F_{r_1} o_i (inner sum), for F = R and S
                calls += 2 * (1 + parts[0])
                tails.add(parts[1:])
    # one inner row per j = 1 .. p of each tail
    return calls + sum(len(tail) + 1 for tail in tails)


@pytest.mark.parametrize("target", [FreeOperad, Suspension, _FirstSlot])
def test_each_inner_row_is_composed_once_for_every_n(target):
    for max_arity in (5, 6):
        # a fresh Recording class owns a fresh memo of inner rows
        rows = _rows_of_the_differentials(target, max_arity)
        assert len(rows) == _compose_row_calls(max_arity)
    assert _compose_row_calls(5) == 199


@pytest.mark.parametrize("target", [FreeOperad, Suspension, _FirstSlot])
def test_compose_row_matches_the_fold_on_mixed_parts(target):
    x2, y2, z2, m2, r2, s1 = (
        as_element(gen(f, a))
        for f, a in [("x", 2), ("y", 2), ("z", 2), ("m", 2), ("R", 2), ("S", 1)]
    )
    heads = [x2 - z2, as_element(gen("m", 3)) * 2 - as_element(gen("R", 3))]
    # parts of two terms of different degrees, coefficients other than +-1
    pool = [x2 - y2 * 3, m2 * 5 + r2, z2 * 2 + x2, s1 * -7, None]
    compared = 0
    for f in heads:
        for parts in itertools.product(pool, repeat=f.arity):
            row = target.compose_row(f, parts)
            assert row == _fold_row(target, f, parts), (f, parts)
            assert row == _graft_compose_row(target, f, parts), (f, parts)
            compared += not row.is_zero()
    assert compared >= 10


def test_no_composition_grafts_one_pair_of_trees_at_a_time(monkeypatch):
    # compose_at, brace and every row of a differential splice words through
    # one row function; graft_with_sign is left to callers and test oracles
    def refuse(*args):
        raise AssertionError("graft_with_sign was called")

    monkeypatch.setattr(trees, "graft_with_sign", refuse)
    fresh = functools.lru_cache(maxsize=None)(diff_generator.__wrapped__)
    monkeypatch.setattr(minimal_model, "diff_generator", fresh)
    for families in PRESENTATIONS.values():
        assert check_d_squared(families, 5)["ok"] is True
        m2, m3 = (as_element(gen(families[0], n)) for n in (2, 3))
        f = compose_at(m3, 2, m2) * Fraction(1, 2) - compose_at(m3, 3, m2)
        assert compose_at(f, 1, m3) == _graft_compose_at(f, 1, m3)
        assert brace(f, [m2, m3]) == _graft_brace(f, [m2, m3])
    assert fresh.cache_info().currsize == len(presentation_generators("mRSxyz", 5))


def test_slot_is_one_part_with_open_slots_elsewhere():
    g = as_element(gen("m", 2))
    assert slot(3, 2, g) == (None, g, None)
    assert slot(1, 1, g) == (g,)


def test_suspension_composition_is_bilinear():
    x2, y2 = Suspension.gen("m", 2), Suspension.gen("R", 2)

    def compose(f, i, g):
        return Suspension.compose_row(f, slot(2, i, g))

    # x2 has (m, R, S) degree 0 and y2 degree 1: each term keeps its own sign
    for i in (1, 2):
        separate = compose(x2, i, x2) + compose(x2, i, y2)
        for g in (OperadElement.sum(2, [x2, y2]), OperadElement.sum(2, [y2, x2])):
            assert compose(x2, i, g) == separate
        assert compose(x2, i, y2) == compose_at(x2, i, y2) * parity_sign(i)
    # a zero part composes to zero, as in the free operad
    zero = OperadElement.zero(2)
    assert compose(x2, 1, zero) == compose_at(x2, 1, zero)
    assert compose(x2, 1, zero) == OperadElement.zero(3)


def test_diff_unsupported_family():
    from rbsinfty.trees import Generator

    # the cache keeps no failure: every call raises again
    for _ in range(3):
        with pytest.raises(ValueError):
            diff_generator(Generator("q", 2, 0))


@pytest.mark.parametrize("family", ["m", "R", "S", "x", "y", "z"])
def test_cached_diff_generator_matches_a_fresh_build(family):
    for n in range(_FAMILY_MIN_ARITY[family], 7):
        g = gen(family, n)
        cached = diff_generator(g)
        assert cached == diff_generator.__wrapped__(g)
        assert diff_generator(g) is cached


def test_diff_lowers_degree_by_one_and_keeps_arity():
    for family, start in [("m", 2), ("R", 1), ("S", 1), ("x", 2), ("y", 1), ("z", 1)]:
        for n in range(start, 6):
            g = gen(family, n)
            e = diff_generator(g)
            if e.is_zero():
                continue
            assert e.arity == n
            assert e.homogeneous_degree() == g.degree - 1


# ---------------------------------------------------------------------------
# replace_vertex / extend_derivation
# ---------------------------------------------------------------------------


def test_replace_vertex_by_identity():
    t = parse_tree("R1(m2(1, 2))")
    new, sign = replace_vertex(t, 0, identity_tree())
    assert new == parse_tree("m2(1, 2)")
    assert sign == 1


def test_replace_vertex_blowup():
    t = parse_tree("R2(1, 2)")
    u = parse_tree("m2(R1(1), S1(2))")
    new, sign = replace_vertex(t, 0, u)
    assert new == u
    assert sign == 1


def test_replace_vertex_keeps_subtrees():
    t = parse_tree("m2(R2(1, 2), 3)")
    new, sign = replace_vertex(t, 1, parse_tree("m2(S1(1), 2)"))
    assert new == parse_tree("m2(m2(S1(1), 2), 3)")
    assert sign == 1


def test_replace_vertex_sign_from_crossing():
    # replacing the root x3 by x2(1, x2(2, 3)) makes the odd x2-subtree at
    # leaf 1 cross the second (odd) vertex of the replacement
    t = parse_tree("x3(x2(1, 2), 3, 4)")
    u = parse_tree("x2(1, x2(2, 3))")
    new, sign = replace_vertex(t, 0, u)
    assert new == parse_tree("x2(x2(1, 2), x2(3, 4))")
    assert sign == -1


def test_replace_vertex_errors():
    t = parse_tree("m2(R2(1, 2), 3)")
    with pytest.raises(ValueError):
        replace_vertex(t, 1, parse_tree("R1(S1(1))"))
    with pytest.raises(ValueError):
        replace_vertex(t, 5, identity_tree())


def test_extend_trivial_examples():
    assert differential(compose_at(M2, 1, M2)).is_zero()
    assert differential(compose_at(R1, 1, S1)).is_zero()


def test_extend_matches_leibniz_oracle_on_R2_R2():
    # independent of replace_vertex: expand by the graded Leibniz rule
    # through compose_at on the two factors.
    R2 = gen("R", 2)
    e = compose_at(R2, 1, R2)
    oracle = compose_at(diff_generator(R2), 1, R2) - compose_at(
        R2, 1, diff_generator(R2)
    )  # (-1)^{|R2|} = -1
    assert differential(e) == oracle


def _monomial_strategy(generators):
    @st.composite
    def monomials(draw):
        t = corolla(draw(st.sampled_from(generators)))
        for _ in range(draw(st.integers(min_value=0, max_value=2))):
            g = draw(st.sampled_from(generators))
            leaf = draw(st.integers(min_value=1, max_value=t.arity))
            ((t, _),) = compose_at(t, leaf, g).terms.items()
        return t

    return monomials()


MRS_GENERATORS = [gen("m", 2), gen("m", 3), gen("R", 1), gen("R", 2), gen("S", 1), gen("S", 2)]
XYZ_GENERATORS = [gen("x", 2), gen("x", 3), gen("y", 1), gen("y", 2), gen("z", 1), gen("z", 2)]


@settings(max_examples=40, deadline=None)
@given(_monomial_strategy(MRS_GENERATORS), _monomial_strategy(MRS_GENERATORS))
def test_leibniz_rule_mrs(tf, tg):
    _check_leibniz(tf, tg)


@settings(max_examples=40, deadline=None)
@given(_monomial_strategy(XYZ_GENERATORS), _monomial_strategy(XYZ_GENERATORS))
def test_leibniz_rule_xyz(tf, tg):
    _check_leibniz(tf, tg)


def _check_leibniz(tf, tg):
    f, g = as_element(tf), as_element(tg)
    for i in range(1, tf.arity + 1):
        lhs = differential(compose_at(f, i, g))
        rhs = compose_at(differential(f), i, g) + parity_sign(tf.degree) * compose_at(
            f, i, differential(g)
        )
        assert lhs == rhs


@settings(max_examples=30, deadline=None)
@given(_monomial_strategy(MRS_GENERATORS))
def test_d_squared_vanishes_on_random_monomials(t):
    e = as_element(t)
    assert differential(differential(e)).is_zero()


def test_extend_is_linear():
    R2, S2 = gen("R", 2), gen("S", 2)
    a = compose_at(R2, 1, S2)
    b = compose_at(S2, 2, R2)
    assert differential(a + 3 * b) == differential(a) + 3 * differential(b)


# ---------------------------------------------------------------------------
# d-squared reports
# ---------------------------------------------------------------------------


def test_check_d_squared_mrs_small():
    report = check_d_squared(("m", "R", "S"), 4)
    assert report["ok"] is True
    names = [r["generator"] for r in report["results"]]
    assert names == ["m2", "m3", "m4", "R1", "R2", "R3", "R4", "S1", "S2", "S3", "S4"]
    for r in report["results"]:
        assert r["ok"] is True
        assert r["residual_terms"] == 0


def test_check_d_squared_xyz_small():
    report = check_d_squared(("x", "y", "z"), 4)
    assert report["ok"] is True
    assert all(r["residual_terms"] == 0 for r in report["results"])


def test_check_d_squared_rejects_small_bound():
    with pytest.raises(ValueError):
        check_d_squared(("m",), 1)


def test_extend_derivation_detects_broken_diff():
    # a fake "differential" that is not square-zero must leave a residual
    def bad_diff(g):
        if g.arity == 2:
            return compose_at(g, 1, gen("R", 1))
        return OperadElement.zero(g.arity)

    residual = extend_derivation(bad_diff, bad_diff(gen("R", 2)))
    assert not residual.is_zero()


def test_every_coefficient_of_a_generator_differential_is_an_int():
    for families in PRESENTATIONS.values():
        for g in presentation_generators(families, 5):
            image = diff_generator(g)
            assert all(type(c) is int for c in image.terms.values()), g


# ---------------------------------------------------------------------------
# the R <-> S mirror
# ---------------------------------------------------------------------------


def _xyz_relabel(word):
    """The (x, y, z) namesake of an (m, R, S) word."""
    names = dict(zip(PRESENTATIONS["mrs"], PRESENTATIONS["xyz"]))
    return tuple(None if node is None else gen(names[node.family], node.arity) for node in word)


def _mirror_test_words():
    words = [t.nodes for t in enumerate_monomials(3, 3)]
    return words + [_xyz_relabel(word) for word in words]


def _theta(e):
    """θ on an element, term by term."""
    terms = []
    for t, c in e.terms.items():
        word, sign = mirror(t.nodes)
        terms.append((word, sign * c))
    return OperadElement.from_words(e.arity, terms)


def test_mirror_is_an_involution():
    words = _mirror_test_words()
    assert len(words) == 904
    moved = negated = 0
    for word in words:
        image, sign = mirror(word)
        assert mirror(image) == (word, sign)
        assert TreeMonomial(image).arity == TreeMonomial(word).arity
        moved += image != word
        negated += sign < 0
    # θ is no identity: most words move, and signs of both kinds occur
    assert 2 * moved > len(words) and negated > 100


def test_mirror_sends_a_graft_to_the_mirrored_slot():
    # θ(f o_i g) = θ(f) o_(a-i+1) θ(g), with no further sign
    trees_ = list(enumerate_monomials(2, 2))
    trees_ += [TreeMonomial(_xyz_relabel(t.nodes)) for t in trees_]
    for f, g in itertools.product(trees_, repeat=2):
        for i in range(1, f.arity + 1):
            mirrored = compose_at(_theta(as_element(f)), f.arity - i + 1, _theta(as_element(g)))
            assert _theta(compose_at(f, i, g)) == mirrored


@pytest.mark.parametrize("families", PRESENTATIONS.values(), ids=PRESENTATIONS)
def test_mirror_commutes_with_the_differential_to_arity_eight(families):
    # dθ = θd on every generator: θ(d X_n) = ε_n d θ(X_n), with ε_n the sign
    # of θ on the corolla, (-1)^C(n, 2) on m, R, S and 1 on x, y, z
    m, r, s = families
    for g in presentation_generators(families, 8):
        (twin, *_), sign = mirror(corolla(g).nodes)
        assert twin == gen({r: s, s: r}.get(g.family, m), g.arity)
        assert sign == (parity_sign(g.arity * (g.arity - 1) // 2) if m == "m" else 1)
        assert _theta(diff_generator(g)) == sign * diff_generator(twin), g.name


def test_mirror_commutes_with_the_derivation_extension():
    # the θ-image of the derivation terms of t is the derivation terms of θ t,
    # summed by word, with the real images of both presentations
    images, nonzero = Images(diff_generator), 0
    for word in _mirror_test_words():
        arity = TreeMonomial(word).arity
        image, sign = mirror(word)
        lhs = _theta(OperadElement.from_words(arity, derivation_terms(images, word, 1)))
        assert lhs == OperadElement.from_words(arity, derivation_terms(images, image, sign))
        nonzero += not lhs.is_zero()
    assert nonzero > 700


def _oracle_check_d_squared(families, max_arity):
    """`check_d_squared` as it was before the mirror: every generator expanded."""
    if max_arity < 2:
        raise ValueError("max_arity must be >= 2")
    results = []
    images = Images(minimal_model.diff_generator)
    for g in presentation_generators(families, max_arity):
        residual = {}
        for nodes, _, coeff in images[g]:
            for word, c in derivation_terms(images, nodes, coeff):
                residual[word] = residual.get(word, 0) + c
        nonzero = [(word, c) for word, c in residual.items() if c]
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


@pytest.mark.parametrize("families", PRESENTATIONS.values(), ids=PRESENTATIONS)
def test_check_d_squared_matches_the_oracle_to_arity_seven(families):
    assert check_d_squared(families, 7) == _oracle_check_d_squared(families, 7)


@pytest.mark.parametrize("families", [("S", "R", "m"), ("S",), ("R", "S"), ("z", "x", "y")])
def test_check_d_squared_matches_the_oracle_in_any_family_order(families):
    assert check_d_squared(families, 5) == _oracle_check_d_squared(families, 5)


@pytest.mark.parametrize("families", PRESENTATIONS.values(), ids=PRESENTATIONS)
def test_check_d_squared_expands_only_m_and_r(families, monkeypatch):
    # each S_n (z_n) is read off the mirror of R_n (y_n): the derivation
    # extension runs on the terms of d m_n and d R_n only
    calls = []

    def counted(images, nodes, coeff):
        calls.append(nodes)
        return derivation_terms(images, nodes, coeff)

    monkeypatch.setattr(minimal_model, "derivation_terms", counted)
    assert check_d_squared(families, 6)["ok"] is True
    expanded = presentation_generators(families[:2], 6)
    assert len(calls) == sum(len(diff_generator(g).terms) for g in expanded)


def _flip_terms(monkeypatch, flips):
    """Stand in for `diff_generator` with the sign of one term of d g flipped,
    for each generator g and tree of ``flips``."""
    real = minimal_model.diff_generator

    def stand_in(g):
        image = real(g)
        if g not in flips:
            return image
        return OperadElement(
            image.arity, ((t, -c if t == flips[g] else c) for t, c in image.terms.items())
        )

    monkeypatch.setattr(minimal_model, "diff_generator", stand_in)


@pytest.mark.parametrize("flipped", ["R4", "S4", "y4", "z4"])
def test_a_broken_mirror_falls_back_to_expanding_s(flipped, monkeypatch):
    # a flipped term of d R_4 leaves residuals on R_n and so on S_n; one of
    # d S_4 breaks θ(d R_4) = ε d S_4: S_n is then expanded, and its
    # witnesses are those of the oracle
    g = gen(flipped[0], 4)
    families = PRESENTATIONS["mrs" if g.family in "RS" else "xyz"]
    _flip_terms(monkeypatch, {g: next(iter(diff_generator(g).terms))})
    report = check_d_squared(families, 5)
    assert report == _oracle_check_d_squared(families, 5)
    failed = [r for r in report["results"] if not r["ok"] and r["generator"][0] == families[2]]
    assert failed and all(r["witnesses"] for r in failed)


@pytest.mark.parametrize("families", PRESENTATIONS.values(), ids=PRESENTATIONS)
def test_a_nonzero_twin_is_never_mirrored(families, monkeypatch):
    # flipping a term of d R_4 and its mirror in d S_4 keeps every mirror
    # equation, but d²(R_4) is no longer zero: S_4 is expanded all the same
    _, r, s = families
    t = next(iter(diff_generator(gen(r, 4)).terms))
    _flip_terms(monkeypatch, {gen(r, 4): t, gen(s, 4): TreeMonomial(mirror(t.nodes)[0])})
    report = check_d_squared(families, 5)
    assert report == _oracle_check_d_squared(families, 5)
    by_name = {result["generator"]: result for result in report["results"]}
    assert by_name[f"{r}4"]["residual_terms"] == by_name[f"{s}4"]["residual_terms"] > 0
    assert by_name[f"{s}4"]["witnesses"]
