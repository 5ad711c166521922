"""Tests for the simplified differential, effectiveness, and the contraction.

`diff_bar_element` and `measure_h_squared` are tree-level oracles: the
derivation extension of `diff_bar` to elements, and a count of the
monomials on which H^2 does not vanish.  `product_words` and
`tuple_contraction` are the word-level oracles: the cell enumerator that
builds every word from all its children through `itertools.product`, and
the contraction as a 0- or 1-tuple of pairs.
"""

import itertools
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rbsinfty import monomial_model
from rbsinfty.minimal_model import Images, derivation_terms, extend_derivation
from rbsinfty.monomial_model import (
    apply_homotopy,
    check_homotopy,
    diff_bar,
    enumerate_monomials,
    homotopy_H,
    is_effective,
    is_normal_form,
)
from rbsinfty.signs import compositions, parity_sign
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


def diff_bar_element(e):
    """Derivation extension of `diff_bar` to arbitrary elements."""
    return extend_derivation(diff_bar, e)


def measure_h_squared(max_arity, max_weight):
    """Count monomials on which H(H(T)) fails to vanish (side observation).

    The contraction identity dH + Hd = Id does not by itself force H^2 = 0;
    this measures how the implemented H behaves on the enumerated universe.
    """
    checked = 0
    nonzero = 0
    for t in enumerate_monomials(max_arity, max_weight):
        if t.degree < 1:
            continue
        checked += 1
        if not apply_homotopy(homotopy_H(t)).is_zero():
            nonzero += 1
    return {"checked": checked, "h_squared_nonzero": nonzero}


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


def product_words(max_arity, max_weight):
    """Oracle for `_monomial_words`: each word of a cell is built from all
    its children, through `itertools.product`, in the same order."""
    alphabet = [gen("m", k) for k in range(2, max_arity + 1)]
    alphabet += [gen(f, k) for f in ("R", "S") for k in range(1, max_arity + 1)]
    by_arity = {}
    for g in alphabet:
        by_arity.setdefault(g.arity, []).append(g)
    kept = {}

    def cell(n, w):
        if w == 0:
            if n == 1:
                yield (None,), 0
            return
        for k, gens_k in by_arity.items():
            if k > n:
                continue
            for composition in compositions(n, k):
                for weights in compositions(w - 1 + k, k):
                    child_pools = [
                        kept[arity, weight - 1]
                        for arity, weight in zip(composition, weights)
                    ]
                    if any(not pool for pool in child_pools):
                        continue
                    for kids in itertools.product(*child_pools):
                        word = tuple(itertools.chain.from_iterable(k[0] for k in kids))
                        degree = sum(k[1] for k in kids)
                        for g in gens_k:
                            yield (g,) + word, g.degree + degree

    for n in range(1, max_arity + 1):
        for w in range(max_weight):
            kept[n, w] = tuple(cell(n, w))
    for n in range(1, max_arity + 1):
        for w in range(1, max_weight + 1):
            for word, degree in cell(n, w) if w == max_weight else kept[n, w]:
                yield word, n, degree


def tuple_contraction(nodes):
    """Oracle for `_contraction`: () off effective monomials, else the 1-tuple
    of the divisor contraction's ``(word, coeff)`` pair."""
    found = monomial_model._effective(nodes)
    if found is None:
        return ()
    position, _, kind, omega = found
    replacement = monomial_model._raised(nodes[position])
    removed = 2 if kind == "m" else 3
    contracted = nodes[:position] + (replacement,) + nodes[position + removed :]
    coeff = parity_sign(omega) * monomial_model._leading_coefficient(replacement)
    return ((contracted, coeff),)


@pytest.mark.parametrize(
    "bounds", [(1, 4), (2, 7), (3, 5), (4, 5), (3, 3), (2, 5), (4, 3)], ids=str
)
def test_word_enumerator_matches_the_product_oracle(bounds):
    assert list(monomial_model._monomial_words(*bounds)) == list(product_words(*bounds))


def test_contraction_matches_the_tuple_oracle():
    images = Images(diff_bar)
    words = [t.nodes for t in enumerate_monomials(3, 4)]
    words += [
        word for nodes in list(words) for word, _ in derivation_terms(images, nodes, 1)
    ]
    contracted = 0
    for nodes in words:
        expected = tuple_contraction(nodes)
        assert monomial_model._contraction(nodes) == (expected[0] if expected else None)
        contracted += bool(expected)
    assert (len(words), contracted) == (2268 + 2971, 2082)


def _load(word):
    """The load of a word: the total arity of its R and S vertices."""
    return sum(node.arity for node in word if node is not None and node.family != "m")


def _series_cells(max_arity, max_weight):
    """The coefficients of y = x + w sum_{n>=2} u^(n-2) y^n
    + 2 w sum_{n>=1} t^n u^(n-1) y^n, x marking arity, w weight, t load (the
    total arity of the R and S vertices) and u degree, as a Counter keyed by
    (arity, weight, load, degree), truncated to the bounds."""

    def times(p, q):
        out = Counter()
        for (a1, w1, l1, d1), c1 in p.items():
            for (a2, w2, l2, d2), c2 in q.items():
                if a1 + a2 <= max_arity and w1 + w2 <= max_weight:
                    out[a1 + a2, w1 + w2, l1 + l2, d1 + d2] += c1 * c2
        return out

    x = Counter({(1, 0, 0, 0): 1})
    y = x
    # each pass fixes the coefficients of one more weight
    for _ in range(max_weight + 1):
        nxt = Counter(x)
        power = y
        for n in range(1, max_arity + 1):
            for (a, w, load, d), c in power.items():
                if w < max_weight:
                    if n >= 2:
                        nxt[a, w + 1, load, d + n - 2] += c
                    nxt[a, w + 1, load + n, d + n - 1] += 2 * c
            power = times(power, y)
        y = nxt
    return Counter({cell: c for cell, c in y.items() if cell[1] >= 1 and c})


@pytest.fixture(scope="module")
def words_4_5():
    return list(monomial_model._monomial_words(4, 5))


@pytest.fixture(scope="module")
def series_4_5():
    return _series_cells(4, 5)


def test_word_enumerator_cells_match_the_generating_series(words_4_5, series_4_5):
    counted = Counter(
        (arity, sum(node is not None for node in word), degree)
        for word, arity, degree in words_4_5
    )
    by_weight = Counter()
    for (arity, weight, _, degree), c in series_4_5.items():
        by_weight[arity, weight, degree] += c
    assert counted == by_weight
    assert len(counted) == 46
    assert sum(counted.values()) == 55_823


# (arity, highest load): a tree of arity a and load L has at most a - 1 m
# vertices and at most L operator vertices, so weight 5 reaches all of them
LOAD_BOUNDS = {1: 3, 2: 3, 3: 3, 4: 2}


def _by_load(series):
    """The series cells within `LOAD_BOUNDS`, keyed by (arity, load, degree)."""
    cells = Counter()
    for (arity, _, load, degree), c in series.items():
        if load <= LOAD_BOUNDS[arity]:
            cells[arity, load, degree] += c
    return cells


def test_word_enumerator_cells_by_load_match_the_generating_series(words_4_5, series_4_5):
    counted = Counter(
        (arity, _load(word), degree)
        for word, arity, degree in words_4_5
        if _load(word) <= LOAD_BOUNDS[arity]
    )
    assert counted == _by_load(series_4_5)


def test_normal_forms_count_the_euler_characteristic(series_4_5):
    # the series at u = -1, by (arity, load), to arity 3 with load 3 and to
    # arity 2 with load 4: weight a - 1 + L <= 5 reaches every such tree
    chi = Counter()
    for (arity, _, load, degree), c in series_4_5.items():
        chi[arity, load] += (-1) ** degree * c
    normal = Counter(
        (t.arity, _load(t.nodes))
        for t in enumerate_monomials(3, 5)
        if t.degree == 0 and is_normal_form(t)
    )
    table = {
        2: [1, 6, 22, 68, 192],
        3: [1, 12, 72, 322],
    }
    for arity, row in table.items():
        cells = [(arity, load) for load in range(len(row))]
        assert [normal[cell] for cell in cells] == row
        assert [chi[cell] for cell in cells] == row


def test_enumerate_monomials_wraps_the_word_enumerator():
    trees = list(enumerate_monomials(3, 3))
    words = list(monomial_model._monomial_words(3, 3))
    assert [(t.nodes, t.arity, t.degree) for t in trees] == words


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
    # arity 1 holds only the degree-0 chains of R1 and S1
    assert all(t.degree == 0 for t in enumerate_monomials(1, 4))
    with pytest.raises(ValueError, match="nothing to check"):
        check_homotopy(1, 4)


def _composed_residual(t):
    # oracle: (dH + Hd - Id)(t) composed from the public element functions
    e = as_element(t)
    return diff_bar_element(homotopy_H(t)) + apply_homotopy(diff_bar_element(e)) - e


def _check_matches_the_composed_oracle(monkeypatch, mutated, bounds):
    if mutated:
        real = monomial_model._leading_coefficient
        monkeypatch.setattr(monomial_model, "_leading_coefficient", lambda g: -real(g))
    images = Images(diff_bar)
    expected = []
    for t in enumerate_monomials(*bounds):
        oracle = _composed_residual(t)
        residual = monomial_model._homotopy_residual(t.nodes, images)
        assert OperadElement.from_words(t.arity, residual) == oracle
        if t.degree > 0 and not oracle.is_zero():
            expected.append({"tree": t.to_text(), "residual": repr(oracle)})
    report = check_homotopy(*bounds)
    assert report["failures"] == expected
    assert report["ok"] is not mutated
    assert bool(expected) is mutated


@pytest.mark.parametrize("mutated", [False, True])
def test_check_homotopy_matches_the_composed_oracle(monkeypatch, mutated):
    _check_matches_the_composed_oracle(monkeypatch, mutated, (3, 4))


@pytest.mark.parametrize("bounds", [(2, 5), (4, 3)], ids=["2-5", "4-3"])
@pytest.mark.parametrize("mutated", [False, True])
def test_check_homotopy_matches_the_composed_oracle_at_the_benchmark_bounds(
    monkeypatch, mutated, bounds
):
    _check_matches_the_composed_oracle(monkeypatch, mutated, bounds)


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
