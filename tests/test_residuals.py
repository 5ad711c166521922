"""Tests for homotopy Rota-Baxter structure residuals."""

import itertools
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from rbsinfty.graded import (
    GradedSpace,
    MatrixAlgebra,
    MultiMap,
    compose_tensor,
    insert,
)
from rbsinfty.minimal_model import beta_exponent
from rbsinfty.residuals import (
    HomotopyRBS,
    check_classical_rbs,
    dga_residual_R,
    dga_residual_S,
    hrbs_residual_R,
    hrbs_residual_S,
    stasheff_residual,
)
from rbsinfty.sampling import random_multimap
from rbsinfty.signs import compositions, parity_sign

ONE = Fraction(1)


def _chain_space():
    return GradedSpace([("v1", 0), ("v2", 1), ("v3", 2)])


def _differential(space):
    """Degree -1 map v3 -> v2 -> v1 with a nonzero square v3 -> v1... no:
    composing the table below gives m1(m1(v3)) = m1(v2) = v1, so the square
    is visibly nonzero — handy for the arity-1 residual fixture."""
    return MultiMap(space, space, 1, -1, {("v2",): {"v1": 1}, ("v3",): {"v2": 1}})


# ---------------------------------------------------------------------------
# structure validation
# ---------------------------------------------------------------------------


def test_structure_rejects_wrong_arity():
    space = _chain_space()
    with pytest.raises(ValueError):
        HomotopyRBS(space, m={2: _differential(space)})


def test_structure_rejects_wrong_degree():
    space = _chain_space()
    r1_degree_1 = MultiMap(space, space, 1, 1, {("v1",): {"v2": 1}})
    with pytest.raises(ValueError):
        HomotopyRBS(space, r={1: r1_degree_1})
    # as an m_3 (degree 1 expected) the same map is fine arity-wise? no: arity 1
    with pytest.raises(ValueError):
        HomotopyRBS(space, m={3: r1_degree_1})


def test_structure_rejects_foreign_space():
    space = _chain_space()
    other = GradedSpace([("w", 0)])
    with pytest.raises(ValueError):
        HomotopyRBS(space, m={1: MultiMap.zero(other, other, 1, -1)})


def test_structure_accepts_zero_maps_and_sets_truncation():
    space = _chain_space()
    s = HomotopyRBS(
        space,
        m={1: _differential(space)},
        r={3: MultiMap.zero(space, space, 3, 0)},
    )
    # zero maps are dropped; truncation covers the largest arity present
    assert s.r.get(3) is None
    assert s.truncation == 1
    assert s.is_dg()
    explicit = HomotopyRBS(space, truncation=5)
    assert explicit.truncation == 5
    with pytest.raises(ValueError):
        HomotopyRBS(space, truncation=0)


def test_structure_json_round_trip():
    space = _chain_space()
    s = HomotopyRBS(
        space,
        m={1: _differential(space)},
        r={1: MultiMap(space, space, 1, 0, {("v1",): {"v1": Fraction(1, 2)}})},
        truncation=4,
    )
    back = HomotopyRBS.from_json(s.to_json())
    assert back.space == s.space
    assert back.truncation == 4
    assert back.m.get(1) == s.m.get(1)
    assert back.r.get(1) == s.r.get(1)
    assert back.s.get(1) is None


def test_structure_families_are_read_only():
    space = _chain_space()
    given = {1: MultiMap(space, space, 1, 0, {("v1",): {"v1": Fraction(1, 2)}})}
    s = HomotopyRBS(space, m={1: _differential(space)}, r=given, truncation=3)
    for family in (s.m, s.r, s.s):
        with pytest.raises(TypeError):
            family[2] = MultiMap.zero(space, space, 2, 0)
    given.clear()  # the structure keeps its own copy of what it was given
    assert s.r.get(1) is not None
    assert HomotopyRBS.from_json(s.to_json()).to_json() == s.to_json()


# ---------------------------------------------------------------------------
# associativity-up-to-homotopy residuals
# ---------------------------------------------------------------------------


def test_stasheff_arity_one_is_the_squared_differential():
    space = _chain_space()
    m1 = _differential(space)
    s = HomotopyRBS(space, m={1: m1}, truncation=3)
    residual = stasheff_residual(s, 1)
    assert residual == compose_tensor(m1, [m1])
    assert residual.evaluate(("v3",)) == {"v1": ONE}


def test_stasheff_matrix_multiplication_is_associative():
    M = MatrixAlgebra(GradedSpace([("v1", 0), ("v2", 0)]))
    s = HomotopyRBS(M.space, m={2: M.product_map()}, truncation=3)
    assert stasheff_residual(s, 3).is_zero()
    assert stasheff_residual(s, 1).is_zero()
    assert stasheff_residual(s, 2).is_zero()


def test_stasheff_detects_non_associative_product():
    space = GradedSpace([("a", 0), ("b", 0)])
    m2 = MultiMap(space, space, 2, 0, {("a", "a"): {"b": 1}, ("a", "b"): {"a": 1}})
    s = HomotopyRBS(space, m={2: m2}, truncation=3)
    residual = stasheff_residual(s, 3)
    assert not residual.is_zero()
    assert residual.degree == 0  # n - 3 at n = 3
    # associator orientation: m2(m2 (x) id) - m2(id (x) m2)
    assert residual == insert(m2, 1, m2) - insert(m2, 2, m2)


def test_stasheff_arity_two_derivation_defect():
    space = _chain_space()
    m1 = _differential(space)
    m2 = MultiMap(space, space, 2, 0, {("v1", "v2"): {"v2": 1}})
    s = HomotopyRBS(space, m={1: m1, 2: m2}, truncation=2)
    expected = (
        compose_tensor(m1, [m2]) - insert(m2, 1, m1) - insert(m2, 2, m1)
    )
    assert stasheff_residual(s, 2) == expected


def test_residuals_respect_truncation():
    space = _chain_space()
    s = HomotopyRBS(space, m={1: _differential(space)})
    assert s.truncation == 1
    with pytest.raises(ValueError):
        stasheff_residual(s, 2)
    with pytest.raises(ValueError):
        hrbs_residual_R(s, 2)
    with pytest.raises(ValueError):
        stasheff_residual(s, 0)


# ---------------------------------------------------------------------------
# operator-family residuals
# ---------------------------------------------------------------------------


def test_operator_residual_arity_one_is_the_chain_map_defect():
    space = _chain_space()
    m1 = _differential(space)
    r1 = MultiMap(
        space, space, 1, 0, {("v1",): {"v1": 2}, ("v2",): {"v2": 1}, ("v3",): {"v3": 3}}
    )
    s1 = MultiMap(space, space, 1, 0, {("v2",): {"v2": -1}})
    s = HomotopyRBS(space, m={1: m1}, r={1: r1}, s={1: s1}, truncation=2)
    assert hrbs_residual_R(s, 1) == compose_tensor(m1, [r1]) - compose_tensor(r1, [m1])
    assert hrbs_residual_S(s, 1) == compose_tensor(m1, [s1]) - compose_tensor(s1, [m1])
    # r1 doubles v1 but fixes v2, so it is not a chain map
    assert not hrbs_residual_R(s, 1).is_zero()


def test_operator_residual_degree_is_one_below_the_operators():
    space = _chain_space()
    rng = random.Random(7)
    s = HomotopyRBS(
        space,
        m={2: random_multimap(rng, space, space, 2, 0, density=0.8)},
        r={1: random_multimap(rng, space, space, 1, 0, density=0.8)},
        s={1: random_multimap(rng, space, space, 1, 0, density=0.8)},
        truncation=3,
    )
    residual = hrbs_residual_R(s, 2)
    assert not residual.is_zero()
    assert residual.degree == 0  # n - 2 at n = 2


def _classical_structure(R_table, S_table):
    M = MatrixAlgebra(GradedSpace([("v1", 0), ("v2", 0)]))
    R = MultiMap(M.space, M.space, 1, 0, R_table)
    S = MultiMap(M.space, M.space, 1, 0, S_table)
    s = HomotopyRBS(M.space, m={2: M.product_map()}, r={1: R}, s={1: S}, truncation=4)
    return M, R, S, s


def test_classical_specialization_matches_direct_check():
    R_table = {("e1^2",): {"e1^1": 1}, ("e2^2",): {"e1^2": 2}}
    S_table = {("e1^1",): {"e2^1": Fraction(1, 2)}, ("e2^1",): {"e2^2": -1}}
    M, R, S, s = _classical_structure(R_table, S_table)
    res_r, res_s = check_classical_rbs(M, R, S)
    assert hrbs_residual_R(s, 2) == res_r
    assert hrbs_residual_S(s, 2) == res_s
    assert not res_r.is_zero()


def hand_classical_rbs(algebra, R, S):
    """The two classical Rota-Baxter-system residuals written out by hand,
    R(a)R(b) - R( R(a)b + aS(b) ) and S(a)S(b) - S( R(a)b + aS(b) ): the
    oracle of `check_classical_rbs`, which evaluates the arity-2 residual."""
    mult = algebra.product_map()
    inner = compose_tensor(mult, [R, None]) + compose_tensor(mult, [None, S])
    res_r = compose_tensor(mult, [R, R]) - compose_tensor(R, [inner])
    res_s = compose_tensor(mult, [S, S]) - compose_tensor(S, [inner])
    return res_r, res_s


def _random_module(rng):
    """A module of dimension 1 to 3 with basis degrees among -1, 0 and 1."""
    degrees = [rng.choice((-1, 0, 1)) for _ in range(rng.randint(1, 3))]
    return GradedSpace([(f"v{i}", d) for i, d in enumerate(degrees, 1)])


def test_classical_rbs_matches_the_hand_written_residuals():
    rng = random.Random(26)
    nonzero = checked = graded = 0
    for _ in range(60):
        algebra = MatrixAlgebra(_random_module(rng))
        end = algebra.space
        R, S = (random_multimap(rng, end, end, 1, 0, density=0.6) for _ in "RS")
        derived, oracle = check_classical_rbs(algebra, R, S), hand_classical_rbs(algebra, R, S)
        assert derived == oracle, (R, S)
        nonzero += sum(not r.is_zero() for r in oracle)
        checked += 2
        graded += any(end.degree(name) for name in end.names)
    # most residuals are nonzero, and many inputs are graded
    assert nonzero > checked // 2
    assert graded > 20


class _RecordingRBS(HomotopyRBS):
    """A structure that records the parts of each row it composes."""

    def compose_row(self, f, parts):
        self.calls.append((f, tuple(parts)))
        return super().compose_row(f, parts)


def test_each_inner_row_is_composed_once_across_a_check_hrbs_sweep():
    data = json.loads((Path(__file__).parent / "data" / "hrbs_graded_input.json").read_text())
    s = _RecordingRBS.from_json(data)
    s.calls = []
    for n in range(1, s.truncation + 1):
        for residual in (stasheff_residual, hrbs_residual_R, hrbs_residual_S):
            residual(s, n)
    operators = list(s.r.values()) + list(s.s.values())
    # an inner row is m_p with one open slot and an operator in each other one
    inner = [
        (id(f), tuple(map(id, parts)))
        for f, parts in s.calls
        if any(f is m for p, m in s.m.items() if p > 1)
        and parts.count(None) == 1
        and all(g is None or any(g is o for o in operators) for g in parts)
    ]
    assert len(inner) == len(set(inner)) == 6
    assert len(s.rows) == 3  # the tails (1,), (2,) and (1, 1)


def test_classical_identity_zero_pair_is_a_rota_baxter_system():
    # R = id, S = 0: R(a)R(b) = ab = R(R(a)b + a S(b)), and both sides of the
    # second equation vanish, so all residuals at every arity are zero.
    M = MatrixAlgebra(GradedSpace([("v1", 0), ("v2", 0)]))
    identity_table = {(n,): {n: 1} for n in M.space.names}
    M, R, S, s = _classical_structure(identity_table, {})
    res_r, res_s = check_classical_rbs(M, R, S)
    assert res_r.is_zero() and res_s.is_zero()
    for n in range(1, 5):
        assert hrbs_residual_R(s, n).is_zero()
        assert hrbs_residual_S(s, n).is_zero()


def test_classical_scaled_identity_pair_fails():
    M = MatrixAlgebra(GradedSpace([("v1", 0), ("v2", 0)]))
    identity_table = {(n,): {n: 1} for n in M.space.names}
    doubled = {(n,): {n: 2} for n in M.space.names}
    M, R, S, s = _classical_structure(identity_table, doubled)
    res_r, res_s = check_classical_rbs(M, R, S)
    # R(a)R(b) = ab but R(R(a)b + 2ab) = 3ab
    assert res_r.evaluate(("e1^1", "e1^1")) == {"e1^1": Fraction(-2)}
    assert not res_s.is_zero()
    assert hrbs_residual_R(s, 2) == res_r


def test_zero_operators_give_zero_residuals():
    M, R, S, s = _classical_structure({}, {})
    res_r, res_s = check_classical_rbs(M, R, S)
    assert res_r.is_zero() and res_s.is_zero()
    for n in range(1, 4):
        assert hrbs_residual_R(s, n).is_zero()
        assert hrbs_residual_S(s, n).is_zero()


def test_classical_embedding_has_no_higher_residuals():
    R_table = {("e1^2",): {"e1^1": 1}}
    S_table = {("e2^1",): {"e2^2": 1}}
    _, _, _, s = _classical_structure(R_table, S_table)
    # with only m2, R1, S1 present nothing contributes beyond arity 2
    assert hrbs_residual_R(s, 3).is_zero()
    assert hrbs_residual_S(s, 3).is_zero()
    assert hrbs_residual_R(s, 4).is_zero()


def test_arity_two_residual_with_homotopy_term():
    space = _chain_space()
    rng = random.Random(11)
    m1 = _differential(space)
    m2 = random_multimap(rng, space, space, 2, 0, density=0.7)
    r1 = random_multimap(rng, space, space, 1, 0, density=0.7)
    s1 = random_multimap(rng, space, space, 1, 0, density=0.7)
    r2 = random_multimap(rng, space, space, 2, 1, density=0.7)
    base = HomotopyRBS(space, m={1: m1, 2: m2}, r={1: r1}, s={1: s1}, truncation=2)
    with_homotopy = HomotopyRBS(
        space, m={1: m1, 2: m2}, r={1: r1, 2: r2}, s={1: s1}, truncation=2
    )
    correction = hrbs_residual_R(with_homotopy, 2) - hrbs_residual_R(base, 2)
    # the difference is the mapping-complex differential of the degree-1 r2
    expected = (
        compose_tensor(m1, [r2]) + insert(r2, 1, m1) + insert(r2, 2, m1)
    )
    assert correction == expected
    assert not r2.is_zero()


# ---------------------------------------------------------------------------
# differential graded specialization
# ---------------------------------------------------------------------------


def _random_dg_structure(seed):
    space = _chain_space()
    rng = random.Random(seed)
    return HomotopyRBS(
        space,
        m={
            1: random_multimap(rng, space, space, 1, -1, density=0.8),
            2: random_multimap(rng, space, space, 2, 0, density=0.6),
        },
        r={
            1: random_multimap(rng, space, space, 1, 0, density=0.6),
            2: random_multimap(rng, space, space, 2, 1, density=0.6),
            3: random_multimap(rng, space, space, 3, 2, density=0.6),
        },
        s={
            1: random_multimap(rng, space, space, 1, 0, density=0.6),
            2: random_multimap(rng, space, space, 2, 1, density=0.6),
            3: random_multimap(rng, space, space, 3, 2, density=0.6),
        },
        truncation=3,
    )


@pytest.mark.parametrize("seed", range(8))
def test_dg_residuals_agree_with_general_residuals(seed):
    s = _random_dg_structure(seed)
    for n in range(1, 4):
        assert dga_residual_R(s, n) == hrbs_residual_R(s, n)
        assert dga_residual_S(s, n) == hrbs_residual_S(s, n)


def test_dg_residual_rejects_higher_products():
    space = _chain_space()
    m3 = MultiMap(space, space, 3, 1, {("v1", "v1", "v1"): {"v2": 1}})
    s = HomotopyRBS(space, m={3: m3}, truncation=3)
    with pytest.raises(ValueError):
        dga_residual_R(s, 2)
    assert not s.is_dg()


def test_dg_residual_zero_structure():
    space = _chain_space()
    s = HomotopyRBS(space, truncation=3)
    for n in range(1, 4):
        assert dga_residual_R(s, n).is_zero()
        assert dga_residual_S(s, n).is_zero()


# The differential graded residual as it was written out by hand before
# `dga_residual_R/S` summed the four pieces of `rbsinfty.residuals` in End(V);
# ``family`` is the getter ``structure.r.get`` or ``structure.s.get``.


def hand_dga_residual(structure, n, family):
    space = structure.space
    m1 = structure.m.get(1)
    m2 = structure.m.get(2)
    lhs = []
    if m1 is not None and family(n) is not None:
        lhs.append(compose_tensor(m1, [family(n)]))
    if m2 is not None:
        for i in range(1, n):
            j = n - i
            left, right = family(i), family(j)
            if left is None or right is None:
                continue
            lhs.append((-1) ** (i + 1) * compose_tensor(m2, [left, right]))
    rhs = []
    if m2 is not None:
        for p in range(1, n):
            q = n - p
            outer = family(p)
            if outer is None:
                continue
            r_q, s_q = structure.r.get(q), structure.s.get(q)
            if r_q is not None:
                inner = compose_tensor(m2, [r_q, None])
                for i in range(p):
                    sign = (-1) ** (i + (q - 1) * (p - i))
                    rhs.append(sign * insert(outer, i + 1, inner))
            if s_q is not None:
                inner = compose_tensor(m2, [None, s_q])
                for i in range(p):
                    sign = (-1) ** (i + (q - 1) * (p - i - 1))
                    rhs.append(sign * insert(outer, i + 1, inner))
    if m1 is not None and family(n) is not None:
        sign = (-1) ** (n - 1)
        for i in range(n):
            rhs.append(sign * insert(family(n), i + 1, m1))
    return MultiMap.sum(space, space, n, n - 2, lhs) - MultiMap.sum(
        space, space, n, n - 2, rhs
    )


def _seeded_dg_structure(degrees, seed, products):
    """m_k for k in ``products`` (a subset of {1, 2}) and R_n, S_n for n <= 4."""
    space = GradedSpace([(f"v{i}", d) for i, d in enumerate(degrees, 1)])
    rng = random.Random(seed)

    def operators():
        return {
            n: random_multimap(rng, space, space, n, n - 1, density=0.7)
            for n in range(1, 5)
        }

    m = {k: random_multimap(rng, space, space, k, k - 2, density=0.8) for k in products}
    return HomotopyRBS(space, m=m, r=operators(), s=operators(), truncation=4)


DG_SPACES = [(0, 0), (0, 1), (1, 0), (-1, 0, 0), (0, 1, 2)]


def _compare_with_the_hand_formula(products):
    """(compared, nonzero) over the seeded structures of ``DG_SPACES``."""
    compared = nonzero = 0
    for degrees in DG_SPACES:
        for seed in range(3):
            structure = _seeded_dg_structure(degrees, seed, products)
            for n in range(1, 5):
                for derived, family in (
                    (dga_residual_R, structure.r.get),
                    (dga_residual_S, structure.s.get),
                ):
                    expected = hand_dga_residual(structure, n, family)
                    assert derived(structure, n) == expected
                    compared += 1
                    nonzero += not expected.is_zero()
    return compared, nonzero


def test_dga_residual_matches_the_hand_written_formula():
    counts = [_compare_with_the_hand_formula(products) for products in [(1, 2), (2,)]]
    compared, nonzero = map(sum, zip(*counts))
    assert compared == 240
    # the comparison is not vacuous: more than a third of the residuals are nonzero
    assert 3 * nonzero > compared


def test_dga_residual_without_a_product_matches_the_hand_written_formula():
    # pieces (2) to (4) run through m_2 and vanish without it
    compared, nonzero = _compare_with_the_hand_formula((1,))
    assert compared == 120 and nonzero > 0
    assert _compare_with_the_hand_formula(()) == (120, 0)


# ---------------------------------------------------------------------------
# hand-written residuals: the oracle for the evaluated differential
# ---------------------------------------------------------------------------
#
# The identities as they were written out before the residuals were obtained
# by evaluating `generator_differential` in End(V), with their own sign
# exponents delta and eta next to alpha and beta of the free operad.


def delta_exponent(k, parts):
    """Exponent on the m_k(R...R) terms of the map-level operator residual."""
    return k * (k - 1) // 2 + sum((k - j) * parts[j - 1] for j in range(1, k + 1))


def eta_exponent(p, j, i, parts):
    """Exponent on the mixed-row terms of the map-level operator residual.

    ``i`` counts identity slots before the inner block; it relates to the
    plug position of `beta_exponent` by i = plug - 1.
    """
    r1 = parts[0]
    k = r1 - 1 - i
    load = p + sum(r - 1 for r in parts[1:])
    before_j = sum(parts[t - 1] - 1 for t in range(2, j + 1))
    tail = sum((parts[t - 1] - 1) * (p - t) for t in range(2, p + 1))
    return i + load * k + before_j + tail


def _plug(outer, i, inner, k):
    return compose_tensor(outer, [None] * i + [inner] + [None] * k)


def oracle_stasheff(structure, n):
    """Sum over i + j + k = n of (-1)^{i+jk} m_{i+1+k} o (id^i (x) m_j (x) id^k)."""
    space = structure.space
    terms = []
    for j in range(1, n + 1):
        inner = structure.m.get(j)
        outer = structure.m.get(n - j + 1)
        if inner is None or outer is None:
            continue
        for i in range(n - j + 1):
            k = n - j - i
            terms.append((-1) ** (i + j * k) * _plug(outer, i, inner, k))
    return MultiMap.sum(space, space, n, n - 3, terms)


def _oracle_operator_lhs(structure, n, family):
    space = structure.space
    terms = []
    for k in range(1, n + 1):
        m_k = structure.m.get(k)
        if m_k is None:
            continue
        for arities in compositions(n, k):
            parts = [family(a) for a in arities]
            if any(p is None for p in parts):
                continue
            sign = (-1) ** delta_exponent(k, arities)
            terms.append(sign * compose_tensor(m_k, parts))
    return MultiMap.sum(space, space, n, n - 2, terms)


def _oracle_operator_rhs(structure, n, family):
    space = structure.space
    terms = []
    for p in range(1, n + 1):
        m_p = structure.m.get(p)
        if m_p is None:
            continue
        for r in compositions(n, p):
            outer = family(r[0])
            if outer is None:
                continue
            for j in range(1, p + 1):
                inner_parts = (
                    [structure.r.get(rt) for rt in r[1:j]]
                    + [None]
                    + [structure.s.get(rt) for rt in r[j:]]
                )
                if any(g is None for t, g in enumerate(inner_parts) if t != j - 1):
                    continue
                inner = compose_tensor(m_p, inner_parts)
                for i in range(r[0]):
                    sign = (-1) ** eta_exponent(p, j, i, r)
                    terms.append(sign * _plug(outer, i, inner, r[0] - 1 - i))
    return MultiMap.sum(space, space, n, n - 2, terms)


def oracle_operator(structure, n, family):
    return _oracle_operator_lhs(structure, n, family) - _oracle_operator_rhs(
        structure, n, family
    )


def test_beta_and_eta_agree_mod_two():
    # eta is phrased with i = number of identity slots before the plug,
    # beta with the plug position itself; they differ by exactly 2.
    for p in range(2, 5):
        for parts in compositions(6, p):
            for j in range(1, p + 1):
                for plug in range(1, parts[0] + 1):
                    b = beta_exponent(p, j, plug, parts)
                    e = eta_exponent(p, j, plug - 1, parts)
                    assert b - e == 2


def test_delta_frozen_values():
    assert delta_exponent(1, (1,)) == 0
    assert delta_exponent(2, (1, 1)) == 2
    assert delta_exponent(2, (2, 1)) == 3


def _random_structure(seed, degrees, truncation=5):
    space = GradedSpace([(f"v{i}", d) for i, d in enumerate(degrees, 1)])
    rng = random.Random(seed)

    def family(degree_of_arity):
        return {
            n: random_multimap(rng, space, space, n, degree_of_arity(n), density=0.9)
            for n in range(1, truncation + 1)
        }

    return HomotopyRBS(
        space,
        m=family(lambda n: n - 2),
        r=family(lambda n: n - 1),
        s=family(lambda n: n - 1),
        truncation=truncation,
    )


@pytest.mark.parametrize("degrees", [(0, 1, 2), (0, 1, -1)])
@pytest.mark.parametrize("seed", range(4))
def test_residuals_match_the_hand_written_identities(seed, degrees):
    s = _random_structure(seed, degrees)
    nonzero = checked = 0
    for n in range(1, 6):
        for residual, oracle in (
            (stasheff_residual(s, n), oracle_stasheff(s, n)),
            (hrbs_residual_R(s, n), oracle_operator(s, n, s.r.get)),
            (hrbs_residual_S(s, n), oracle_operator(s, n, s.s.get)),
        ):
            assert residual == oracle
            nonzero += not oracle.is_zero()
            checked += 1
    # most residuals of a random structure are nonzero, so the check has teeth
    assert nonzero > checked // 2


# ---------------------------------------------------------------------------
# the opposite structure: the R <-> S mirror of the minimal model in End(V)
# ---------------------------------------------------------------------------


def _op(f):
    """op(f)(a_1 .. a_n) = (-1)^C(n, 2) κ(a) f(a_n .. a_1), with κ(a) the
    Koszul sign of reversing the graded inputs."""
    n, degree = f.arity, f.space_in.degree
    table = {}
    for ins, outs in f.items():
        d = [degree(a) for a in ins]
        exponent = n * (n - 1) // 2 + sum(x * y for x, y in itertools.combinations(d, 2))
        table[ins[::-1]] = {out: parity_sign(exponent) * c for out, c in outs.items()}
    return MultiMap(f.space_in, f.space_out, n, f.degree, table)


def _opposite(s):
    """s^op = (op m, R := op S, S := op R) on the same space."""
    def family(maps):
        return {n: _op(f) for n, f in maps.items()}

    return HomotopyRBS(s.space, m=family(s.m), r=family(s.s), s=family(s.r), truncation=s.truncation)


def _compare_with_the_opposite(s):
    """(compared, nonzero): each residual of s against op of its mirror on s^op."""
    opposite, compared, nonzero = _opposite(s), 0, 0
    for n in range(1, s.truncation + 1):
        for residual, mirrored in (
            (hrbs_residual_S(s, n), hrbs_residual_R(opposite, n)),
            (hrbs_residual_R(s, n), hrbs_residual_S(opposite, n)),
            (stasheff_residual(s, n), stasheff_residual(opposite, n)),
        ):
            assert residual == _op(mirrored), n
            compared += 1
            nonzero += not residual.is_zero()
    return compared, nonzero


def test_residuals_match_op_of_the_opposite_structure():
    compared = nonzero = 0
    for degrees in [(0, 1, 2), (0, 1, -1), (0, 0), (-1, 0, 0)]:
        for seed in range(4):
            counts = _compare_with_the_opposite(_random_structure(seed, degrees, truncation=4))
            compared, nonzero = compared + counts[0], nonzero + counts[1]
    assert compared == 192
    # the comparison has teeth: most residuals of a random structure are nonzero
    assert 2 * nonzero > compared


def test_check_hrbs_golden_input_matches_op_of_its_opposite():
    data = json.loads((Path(__file__).parent / "data" / "hrbs_graded_input.json").read_text())
    compared, nonzero = _compare_with_the_opposite(HomotopyRBS.from_json(data))
    assert compared == 9 and 2 * nonzero > compared
