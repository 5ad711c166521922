"""Tests for the simplified differential, effectiveness, and the contraction."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rbsinfty.monomial_model import (
    apply_homotopy,
    check_homotopy,
    diff_bar,
    diff_bar_element,
    enumerate_monomials,
    homotopy_H,
    is_effective,
    is_normal_form,
    measure_h_squared,
)
from rbsinfty.trees import (
    OperadElement,
    as_element,
    compose_at,
    gen,
    parse_tree,
)

M2, M3 = gen("m", 2), gen("m", 3)
R1, R2 = gen("R", 1), gen("R", 2)
S1, S2 = gen("S", 1), gen("S", 2)


# ---------------------------------------------------------------------------
# the simplified differential
# ---------------------------------------------------------------------------


def test_diff_bar_vanishes_on_lowest_generators():
    for g in (M2, R1, S1):
        assert diff_bar(g).is_zero()


def test_diff_bar_m3():
    assert diff_bar(M3) == -compose_at(M2, 1, M2)


def test_diff_bar_m4():
    expected = compose_at(M2, 1, M3) - compose_at(M3, 1, M2)
    assert diff_bar(gen("m", 4)) == expected


def test_diff_bar_r2():
    assert diff_bar(R2) == compose_at(compose_at(R1, 1, M2), 1, R1)


def test_diff_bar_s2():
    # note the inner operator stays R even in the S series
    assert diff_bar(S2) == compose_at(compose_at(S1, 1, M2), 1, R1)


def test_diff_bar_r3():
    expected = compose_at(compose_at(R2, 1, M2), 1, R1) - compose_at(
        compose_at(R1, 1, M2), 1, R2
    )
    assert diff_bar(gen("R", 3)) == expected


def test_diff_bar_drops_degree_by_one():
    for fam, lo in (("m", 3), ("R", 2), ("S", 2)):
        for n in range(lo, 6):
            g = gen(fam, n)
            image = diff_bar(g)
            assert image.arity == n
            assert image.homogeneous_degree() == g.degree - 1


def test_diff_bar_rejects_other_families():
    # the cache keeps no failure: every call raises again
    for family in ("x", "y", "z") * 2:
        message = f"no monomial differential for family '{family}'"
        with pytest.raises(ValueError, match=message):
            diff_bar(gen(family, 3))


def hand_diff_bar(g):
    """The first-slot differential as it was signed by hand before `diff_bar`
    built `generator_differential` in the first-slot operad."""
    n = g.arity
    terms = []
    if g.family == "m":
        for j in range(2, n):
            sign = (-1) ** (1 + j * (n - 1))
            terms.append(sign * compose_at(gen("m", n - j + 1), 1, gen("m", j)))
        return OperadElement.sum(n, terms)
    if g.family in ("R", "S"):
        for r1 in range(1, n):
            r2 = n - r1
            sign = (-1) ** (r1 * (r2 - 1))
            term = compose_at(
                compose_at(gen(g.family, r1), 1, gen("m", 2)), 1, gen("R", r2)
            )
            terms.append(sign * term)
        return OperadElement.sum(n, terms)
    raise ValueError(f"no monomial differential for family {g.family!r}")


@pytest.mark.parametrize("family,lowest", [("m", 2), ("R", 1), ("S", 1)])
def test_diff_bar_matches_the_hand_signed_formula(family, lowest):
    for n in range(lowest, 9):
        g = gen(family, n)
        assert diff_bar(g) == hand_diff_bar(g)


@pytest.mark.parametrize("family,lowest", [("m", 2), ("R", 1), ("S", 1)])
def test_cached_diff_bar_matches_a_fresh_build(family, lowest):
    for n in range(lowest, 7):
        g = gen(family, n)
        cached = diff_bar(g)
        assert cached == diff_bar.__wrapped__(g)
        assert diff_bar(g) is cached


@pytest.mark.parametrize("family,lowest", [("m", 2), ("R", 1), ("S", 1)])
def test_diff_bar_squares_to_zero_on_generators(family, lowest):
    for n in range(lowest, 7):
        residual = diff_bar_element(diff_bar(gen(family, n)))
        assert residual.is_zero(), f"d^2 {family}{n} = {residual}"


def test_leading_coefficients_are_units():
    # the coefficient of the path-lex leading monomial of each differential
    for fam, lo in (("m", 3), ("R", 2), ("S", 2)):
        for n in range(lo, 9):
            from rbsinfty.trees import leading_monomial

            _, coeff = leading_monomial(diff_bar(gen(fam, n)))
            assert coeff in (Fraction(1), Fraction(-1))


# ---------------------------------------------------------------------------
# effectiveness
# ---------------------------------------------------------------------------


def test_corollas_are_not_effective():
    for g in (M2, M3, R2, S2):
        assert is_effective(parse_tree(f"{g.name}({', '.join(str(i + 1) for i in range(g.arity))})")) is None


def test_bare_divisors_are_effective():
    loc = is_effective(parse_tree("m2(m2(1, 2), 3)"))
    assert loc is not None and (loc.root_index, loc.leaf, loc.kind) == (0, 1, "m")
    loc = is_effective(parse_tree("R1(m2(R1(1), 2))"))
    assert loc is not None and (loc.root_index, loc.leaf, loc.kind) == (0, 1, "R")
    loc = is_effective(parse_tree("S1(m2(R1(1), 2))"))
    assert loc is not None and (loc.root_index, loc.leaf, loc.kind) == (0, 1, "S")


def test_positive_degree_vertex_left_of_divisor_blocks():
    # the first leaf of the tree passes through the degree-1 root
    assert is_effective(parse_tree("R2(1, m2(m2(2, 3), 4))")) is None


def test_positive_degree_vertex_below_divisor_blocks():
    # a degree-1 vertex sits on the path from the divisor root to its leaf
    assert is_effective(parse_tree("m2(m2(R2(1, 2), 3), 4)")) is None


def test_divisor_under_positive_degree_ancestor_is_effective():
    # ancestors of the divisor root may carry degree; they only feed the sign
    loc = is_effective(parse_tree("R2(m2(m2(1, 2), 3), 4)"))
    assert loc is not None and (loc.root_index, loc.leaf, loc.kind) == (1, 1, "m")


def test_operator_triangle_with_wrong_inner_operator_is_not_typical():
    # R triangles close with an R1; an S1 at the bottom is not a divisor
    assert is_effective(parse_tree("R1(m2(S1(1), 2))")) is None
    assert is_effective(parse_tree("S1(m2(S1(1), 2))")) is None


# ---------------------------------------------------------------------------
# the contraction
# ---------------------------------------------------------------------------


def test_homotopy_on_bare_divisors():
    assert homotopy_H(parse_tree("m2(m2(1, 2), 3)")) == -as_element(M3)
    assert homotopy_H(parse_tree("R1(m2(R1(1), 2))")) == as_element(R2)
    assert homotopy_H(parse_tree("S1(m2(R1(1), 2))")) == as_element(S2)


def test_homotopy_vanishes_off_effective_monomials():
    for text in (
        "R2(1, 2)",
        "m3(1, 2, 3)",
        "R2(1, m2(m2(2, 3), 4))",
        "m2(m2(R2(1, 2), 3), 4)",
        "m2(1, m2(2, 3))",
    ):
        assert homotopy_H(parse_tree(text)).is_zero()


def test_homotopy_sign_counts_degrees_before_divisor():
    # degree-1 ancestor of the divisor root flips the sign of the m-contraction
    got = homotopy_H(parse_tree("R2(m2(m2(1, 2), 3), 4)"))
    assert got == OperadElement.monomial(parse_tree("R2(m3(1, 2, 3), 4)"), 1)


def test_homotopy_contracts_divisor_in_context():
    got = homotopy_H(parse_tree("m2(R1(1), m2(m2(2, 3), 4))"))
    assert got == OperadElement.monomial(parse_tree("m2(R1(1), m3(2, 3, 4))"), -1)
    got = homotopy_H(parse_tree("S1(R1(m2(R1(1), 2)))"))
    assert got == OperadElement.monomial(parse_tree("S1(R2(1, 2))"), 1)


def test_homotopy_raises_degree_by_one():
    t = parse_tree("R1(m2(R1(1), 2))")
    assert homotopy_H(t).homogeneous_degree() == t.degree + 1


def test_contraction_identity_on_fixture_library():
    for text in (
        "R2(1, m2(m2(2, 3), 4))",
        "m2(m2(R2(1, 2), 3), 4)",
        "R2(m2(m2(1, 2), 3), 4)",
        "R2(m2(R1(1), 2), 3)",
        "S1(R2(1, 2))",
        "m3(R2(1, 2), 3, 4)",
    ):
        t = parse_tree(text)
        assert t.degree >= 1
        e = as_element(t)
        lhs = diff_bar_element(homotopy_H(t)) + apply_homotopy(diff_bar_element(e))
        assert lhs == e, f"contraction identity fails on {text}"


# ---------------------------------------------------------------------------
# normal forms
# ---------------------------------------------------------------------------


def test_normal_form_examples():
    assert is_normal_form(parse_tree("m2(R1(1), 2)"))
    assert is_normal_form(parse_tree("m2(1, m2(2, 3))"))
    assert is_normal_form(parse_tree("R1(m2(1, R1(2)))"))
    assert not is_normal_form(parse_tree("m2(m2(1, 2), 3)"))
    assert not is_normal_form(parse_tree("R1(m2(R1(1), 2))"))
    assert not is_normal_form(parse_tree("S1(m2(R1(1), 2))"))
    assert not is_normal_form(parse_tree("m2(1, R1(m2(R1(2), 3)))"))


def test_normal_form_rejects_positive_degree():
    with pytest.raises(ValueError):
        is_normal_form(parse_tree("R2(1, 2)"))


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------


def test_enumerate_tiny_unary_universe():
    trees = list(enumerate_monomials(1, 2))
    texts = sorted(t.to_text() for t in trees)
    assert texts == ["R1(1)", "R1(R1(1))", "R1(S1(1))", "S1(1)", "S1(R1(1))", "S1(S1(1))"]


def test_enumerate_weight_one():
    trees = list(enumerate_monomials(2, 1))
    texts = sorted(t.to_text() for t in trees)
    assert texts == ["R1(1)", "R2(1, 2)", "S1(1)", "S2(1, 2)", "m2(1, 2)"]


def test_enumeration_respects_bounds_and_is_duplicate_free():
    trees = list(enumerate_monomials(3, 3))
    assert len(trees) == len(set(trees))
    for t in trees:
        assert 1 <= t.arity <= 3
        assert 1 <= t.weight <= 3
        for label in t.vertices():
            assert label.family in ("m", "R", "S") and label.arity <= 3


# ---------------------------------------------------------------------------
# the homotopy check report
# ---------------------------------------------------------------------------


def test_check_homotopy_small_universe():
    report = check_homotopy(3, 4)
    assert report["ok"] is True
    assert report["failures"] == []
    assert report["checked"] == 1985


def test_check_homotopy_rejects_bad_bounds():
    with pytest.raises(ValueError):
        check_homotopy(0, 4)
    with pytest.raises(ValueError):
        check_homotopy(3, 0)


def test_h_squared_vanishes_on_sampled_universe():
    # not asserted by the theory; recorded as an observation of this H
    report = measure_h_squared(3, 3)
    assert report == {"checked": 385, "h_squared_nonzero": 0}


# ---------------------------------------------------------------------------
# randomized contraction identity beyond the enumerated bounds
# ---------------------------------------------------------------------------

_MRS = [gen("m", 2), gen("m", 3), gen("R", 1), gen("R", 2), gen("S", 1), gen("S", 2)]


@st.composite
def _mrs_tree(draw):
    e = as_element(draw(st.sampled_from(_MRS)))
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        g = draw(st.sampled_from(_MRS))
        slot = draw(st.integers(min_value=1, max_value=e.arity))
        e = compose_at(e, slot, g)
    (tree, _coeff), = e.items()
    return tree


@settings(max_examples=60, deadline=None)
@given(_mrs_tree())
def test_contraction_identity_random(tree):
    if tree.degree < 1:
        return
    e = as_element(tree)
    lhs = diff_bar_element(homotopy_H(tree)) + apply_homotopy(diff_bar_element(e))
    assert lhs == e


@settings(max_examples=40, deadline=None)
@given(_mrs_tree())
def test_diff_bar_squares_to_zero_random(tree):
    residual = diff_bar_element(diff_bar_element(as_element(tree)))
    assert residual.is_zero()


def test_every_coefficient_of_the_contraction_is_an_int():
    images = [homotopy_H(t) for t in enumerate_monomials(3, 3)]
    assert any(not image.is_zero() for image in images)
    for image in images:
        assert all(type(c) is int for c in image.terms.values()), image
