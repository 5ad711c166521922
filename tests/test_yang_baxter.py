"""Tests for tensor pairs, the operator dictionary, and their residuals."""

import itertools
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from rbsinfty.graded import (
    BasedAlgebra,
    GradedSpace,
    MatrixAlgebra,
    MultiMap,
    TensorElem,
    compose_tensor,
    raise_indices,
    tensor_product_multiply,
)
from rbsinfty.minimal_model import slot
from rbsinfty.residuals import (
    HomotopyRBS,
    check_classical_rbs,
)
from rbsinfty.sampling import random_multimap
from rbsinfty.signs import parity_sign
from rbsinfty import yang_baxter
from rbsinfty.yang_baxter import (
    F_inverse,
    F_map,
    InfinityYBPair,
    YBPair,
    check_classical_ybp,
    check_infinity_ybp,
    chi_inverse,
    chi_map,
    rbs_to_ybp,
    ybp_to_rbs,
)
from oracles import (
    dga_residual_R,
    dga_residual_S,
    equivalence_identity_1,
    equivalence_identity_2,
    equivalence_identity_3,
    equivalence_identity_4,
    insert,
    random_tensor,
)

ONE = Fraction(1)


def _ungraded_m2():
    return MatrixAlgebra(GradedSpace([("v1", 0), ("v2", 0)]))


def _graded_m2():
    return MatrixAlgebra(GradedSpace([("v1", 0), ("v2", 1)]))


def _unit_tensor(algebra, order):
    table = {}
    for combo in itertools.product(algebra.unit.items(), repeat=order):
        names = tuple(n for (n,), _ in combo)
        coeff = ONE
        for _, c in combo:
            coeff *= c
        table[names] = coeff
    return TensorElem(algebra, order, table)


# ---------------------------------------------------------------------------
# the tensor-to-operator dictionary
# ---------------------------------------------------------------------------


def test_f_map_of_unit_tensor_is_identity():
    M = _ungraded_m2()
    assert F_map(_unit_tensor(M, 2)) == MultiMap.identity(M.space)


def test_f_map_matrix_unit_sandwich():
    M = _ungraded_m2()
    t = TensorElem(M, 2, {("e1^1", "e1^1"): 1})
    f = F_map(t)
    assert f.evaluate(("e1^1",)) == {"e1^1": ONE}
    assert f.evaluate(("e1^2",)) == {}
    assert f.evaluate(("e2^1",)) == {}


def test_f_map_rejects_order_one():
    M = _ungraded_m2()
    with pytest.raises(ValueError):
        F_map(TensorElem(M, 1, {("e1^1",): 1}))


def test_f_map_koszul_sign():
    # with t = a (x) b, the sign on input x is (-1)^{|x||b|}
    M = _graded_m2()
    t = TensorElem(M, 2, {("e2^1", "e2^1"): 1})
    f = F_map(t)
    assert f.degree == 2
    # e2^1 e1^2 e2^1 = e2^1 with |x| = -1 crossing |b| = 1
    assert f.evaluate(("e1^2",)) == {"e2^1": -ONE}
    assert f.evaluate(("e1^1",)) == {}


def test_f_map_order_three_sign():
    # t = a (x) b (x) c: sign exponent is |x1|(|b|+|c|) + |x2||c|
    M = _graded_m2()
    t = TensorElem(M, 3, {("e2^1", "e2^1", "e2^1"): 1})
    f = F_map(t)
    # inputs (e1^2, e1^2): e2^1 e1^2 e2^1 e1^2 e2^1 = e2^1; exponent
    # (-1)(1 + 1) + (-1)(1) = -3, odd
    assert f.evaluate(("e1^2", "e1^2")) == {"e2^1": -ONE}
    assert f.degree == 3


def test_f_inverse_round_trips_random_maps():
    M = _graded_m2()
    rng = random.Random(3)
    for arity in (1, 2, 3):
        for _ in range(4):
            f = random_multimap(
                rng, M.space, M.space, arity, rng.choice([-1, 0, 1]), density=0.6
            )
            assert F_map(F_inverse(f, M)) == f


def test_f_inverse_round_trips_random_tensors():
    M = _graded_m2()
    rng = random.Random(4)
    for order in (2, 3, 4):
        for _ in range(4):
            t = random_tensor(rng, M, order, degree=order - 2, density=0.5)
            assert F_inverse(F_map(t), M) == t


def test_f_inverse_of_identity_round_trips():
    M = _ungraded_m2()
    identity = MultiMap.identity(M.space)
    assert F_map(F_inverse(identity, M)) == identity


def test_f_inverse_of_zero_map_is_zero():
    M = _ungraded_m2()
    assert F_inverse(MultiMap.zero(M.space, M.space, 2, 0), M).is_zero()


def test_f_inverse_requires_matrix_algebra():
    from rbsinfty.graded import BasedAlgebra

    space = GradedSpace([("a", 0)])
    algebra = BasedAlgebra(space, {("a", "a"): {"a": 1}}, {"a": 1})
    f = MultiMap(space, space, 1, 0, {("a",): {"a": 1}})
    with pytest.raises(ValueError):
        F_inverse(f, algebra)


# ---------------------------------------------------------------------------
# classical pairs
# ---------------------------------------------------------------------------


def test_classical_pair_validation():
    M = _ungraded_m2()
    other = _graded_m2()
    r = TensorElem(M, 2, {("e1^2", "e1^2"): 1})
    with pytest.raises(ValueError):
        YBPair(r, TensorElem(other, 2, {}))
    with pytest.raises(ValueError):
        YBPair(r, TensorElem(M, 3, {}))


def test_classical_ybp_zero_pair():
    M = _ungraded_m2()
    pair = YBPair(TensorElem.zero(M, 2), TensorElem.zero(M, 2))
    res_r, res_s = check_classical_ybp(pair)
    assert res_r.is_zero() and res_s.is_zero()


def test_classical_ybp_nilpotent_pair():
    # r = s = a (x) a with a^2 = 0: every term carries an a^2 in some slot
    M = _ungraded_m2()
    a_tensor_a = TensorElem(M, 2, {("e1^2", "e1^2"): 1})
    res_r, res_s = check_classical_ybp(YBPair(a_tensor_a, a_tensor_a))
    assert res_r.is_zero() and res_s.is_zero()


def test_classical_ybp_generic_pair_fails():
    M = _ungraded_m2()
    rng = random.Random(9)
    pair = YBPair(
        random_tensor(rng, M, 2, density=0.7), random_tensor(rng, M, 2, density=0.7)
    )
    res_r, res_s = check_classical_ybp(pair)
    assert not (res_r.is_zero() and res_s.is_zero())


def hand_classical_ybp(pair):
    """The left sides of the two coupled Yang-Baxter equations written out by
    hand, r13 r12 - r12 r23 + s23 r13 and s13 r12 - s12 s23 + s23 s13: the
    oracle of `check_classical_ybp`, which evaluates the index-2 identities."""
    r, s = pair.r, pair.s
    r12 = raise_indices(r, (1, 2), 3)
    r13 = raise_indices(r, (1, 3), 3)
    r23 = raise_indices(r, (2, 3), 3)
    s12 = raise_indices(s, (1, 2), 3)
    s13 = raise_indices(s, (1, 3), 3)
    s23 = raise_indices(s, (2, 3), 3)
    mul = tensor_product_multiply
    res_r = mul(r13, r12) - mul(r12, r23) + mul(s23, r13)
    res_s = mul(s13, r12) - mul(s12, s23) + mul(s23, s13)
    return res_r, res_s


def test_classical_ybp_matches_the_hand_written_equations():
    rng = random.Random(26)
    nonzero = checked = graded = 0
    for _ in range(60):
        degrees = [rng.choice((-1, 0, 1)) for _ in range(rng.randint(1, 3))]
        algebra = MatrixAlgebra(GradedSpace([(f"v{i}", d) for i, d in enumerate(degrees, 1)]))
        pair = YBPair(*(random_tensor(rng, algebra, 2, degree=0, density=0.2) for _ in "rs"))
        oracle = hand_classical_ybp(pair)
        assert check_classical_ybp(pair) == oracle, pair.to_json()
        nonzero += sum(not t.is_zero() for t in oracle)
        checked += 2
        graded += any(degrees)
    # most residuals are nonzero, and many inputs are graded
    assert nonzero > checked // 2
    assert graded > 20


class _RecordingPair(InfinityYBPair):
    """A pair that records the parts of each row it composes."""

    def compose_row(self, f, parts):
        self.calls.append((f, tuple(parts)))
        return super().compose_row(f, parts)


def test_each_inner_row_is_composed_once_across_a_check_aybe_infinity_sweep():
    data = json.loads((Path(__file__).parent / "data" / "aybe_random_input.json").read_text())
    algebra = MatrixAlgebra(GradedSpace.from_json(data["space"]))
    pair = _RecordingPair.from_json(algebra, data)
    pair.calls = []
    for n in range(pair.truncation):
        check_infinity_ybp(pair, n)
    m2 = pair.gen("m", 2)
    operators = list(pair._images["R"].values()) + list(pair._images["S"].values())
    # an inner row is m_2 with one open slot and an operator in the other
    inner = [
        (id(f), tuple(map(id, parts)))
        for f, parts in pair.calls
        if f is m2
        and parts.count(None) == 1
        and all(g is None or any(g is o for o in operators) for g in parts)
    ]
    # m_2(id, S_1), m_2(R_2, id) and m_2(id, S_2): R_1 = 0, and no tail
    # longer than one, as m_p = 0 for p > 2 in the tensor operad
    assert len(inner) == len(set(inner)) == 3
    assert set(pair.rows) == {(1,), (2,)}


def test_ybp_residual_first_equation_oracle():
    # recompute r13 r12 - r12 r23 + s23 r13 by hand for a one-term pair
    M = _ungraded_m2()
    r = TensorElem(M, 2, {("e1^2", "e2^1"): 1})
    s = TensorElem(M, 2, {("e2^2", "e1^1"): 1})
    mul = tensor_product_multiply
    expected = (
        mul(raise_indices(r, (1, 3), 3), raise_indices(r, (1, 2), 3))
        - mul(raise_indices(r, (1, 2), 3), raise_indices(r, (2, 3), 3))
        + mul(raise_indices(s, (2, 3), 3), raise_indices(r, (1, 3), 3))
    )
    res_r, _ = check_classical_ybp(YBPair(r, s))
    assert res_r == expected
    assert not res_r.is_zero()


def test_conversion_zero_pair():
    M = _ungraded_m2()
    R, S = ybp_to_rbs(YBPair(TensorElem.zero(M, 2), TensorElem.zero(M, 2)))
    assert R.is_zero() and S.is_zero()


def test_nilpotent_pair_gives_rota_baxter_system():
    M = _ungraded_m2()
    a_tensor_a = TensorElem(M, 2, {("e1^2", "e1^2"): 1})
    R, S = ybp_to_rbs(YBPair(a_tensor_a, a_tensor_a))
    res_r, res_s = check_classical_rbs(M, R, S)
    assert res_r.is_zero() and res_s.is_zero()
    # all 16 basis pairs explicitly
    for a in M.space.names:
        for b in M.space.names:
            assert res_r.evaluate((a, b)) == {}
            assert res_s.evaluate((a, b)) == {}


def test_operator_round_trip_on_random_pairs():
    M = _ungraded_m2()
    rng = random.Random(21)
    for _ in range(10):
        R = random_multimap(rng, M.space, M.space, 1, 0, density=0.7)
        S = random_multimap(rng, M.space, M.space, 1, 0, density=0.7)
        pair = rbs_to_ybp(R, S, M)
        R2, S2 = ybp_to_rbs(pair)
        assert R2 == R and S2 == S


def test_tensor_round_trip_on_random_pairs():
    M = _ungraded_m2()
    rng = random.Random(22)
    for _ in range(10):
        pair = YBPair(
            random_tensor(rng, M, 2, density=0.6), random_tensor(rng, M, 2, density=0.6)
        )
        R, S = ybp_to_rbs(pair)
        back = rbs_to_ybp(R, S, M)
        assert back.r == pair.r and back.s == pair.s


@pytest.mark.parametrize("seed", range(12))
def test_classical_bijection_preserves_residual_vanishing(seed):
    M = _ungraded_m2()
    rng = random.Random(seed)
    if seed % 3 == 0:
        # salt the sample with pairs that do satisfy the equations
        a_tensor_a = TensorElem(M, 2, {("e1^2", "e1^2"): Fraction(seed + 1)})
        pair = YBPair(a_tensor_a, a_tensor_a if seed % 2 else TensorElem.zero(M, 2))
    else:
        pair = YBPair(
            random_tensor(rng, M, 2, density=0.5),
            random_tensor(rng, M, 2, density=0.5),
        )
    ybp_res = check_classical_ybp(pair)
    rbs_res = check_classical_rbs(M, *ybp_to_rbs(pair))
    ybp_ok = ybp_res[0].is_zero() and ybp_res[1].is_zero()
    rbs_ok = rbs_res[0].is_zero() and rbs_res[1].is_zero()
    assert ybp_ok == rbs_ok


def test_ybpair_json_round_trip():
    M = _ungraded_m2()
    pair = YBPair(
        TensorElem(M, 2, {("e1^2", "e2^1"): Fraction(1, 3)}),
        TensorElem(M, 2, {("e2^2", "e1^1"): -2}),
    )
    back = YBPair.from_json(M, pair.to_json())
    assert back.r == pair.r and back.s == pair.s


# ---------------------------------------------------------------------------
# homotopy pairs
# ---------------------------------------------------------------------------


def _graded_m3():
    return MatrixAlgebra(GradedSpace([("v1", 0), ("v2", 1), ("v3", 2)]))


def _random_pair(seed, truncation=3, algebra=None):
    M = algebra or _graded_m2()
    rng = random.Random(seed)
    d = random_tensor(rng, M, 1, degree=-1, density=0.9)
    families = {}
    for name in ("r", "s"):
        families[name] = {1: d}
        for order in range(2, truncation + 1):
            families[name][order] = random_tensor(
                rng, M, order, degree=order - 2, density=0.5
            )
    return InfinityYBPair(M, r=families["r"], s=families["s"], truncation=truncation)


def test_infinity_pair_validation():
    M = _graded_m2()
    d = TensorElem(M, 1, {("e1^2",): 1})
    other = TensorElem(M, 1, {("e1^2",): 2})
    with pytest.raises(ValueError):
        InfinityYBPair(M, r={1: d}, s={1: other})
    with pytest.raises(ValueError):
        InfinityYBPair(M, r={2: d})  # order mismatch
    wrong_degree = TensorElem(M, 2, {("e2^1", "e2^1"): 1})
    with pytest.raises(ValueError):
        InfinityYBPair(M, r={2: wrong_degree})
    pair = InfinityYBPair(M, r={1: d}, s={1: d})
    assert pair.truncation == 1
    assert pair.d() == d


def test_infinity_residual_index_zero_is_d_squared():
    M = _graded_m3()
    d = TensorElem(M, 1, {("e1^2",): 1, ("e2^3",): 1})
    pair = InfinityYBPair(M, r={1: d}, s={1: d})
    res_r, res_s = check_infinity_ybp(pair, 0)
    expected = tensor_product_multiply(d, d)
    assert res_r == expected and res_s == expected
    assert dict(res_r.items()) == {("e1^3",): ONE}


def test_infinity_residual_index_zero_nilpotent():
    M = _graded_m2()
    d = TensorElem(M, 1, {("e1^2",): 1})
    pair = InfinityYBPair(M, r={1: d}, s={1: d})
    res_r, res_s = check_infinity_ybp(pair, 0)
    assert res_r.is_zero() and res_s.is_zero()


def test_infinity_residual_index_one_is_commutator_with_d():
    pair = _random_pair(31, truncation=2)
    d, r2, s2 = pair.d(), pair.r.get(2), pair.s.get(2)
    mul = tensor_product_multiply
    for tensor, residual in zip((r2, s2), check_infinity_ybp(pair, 1)):
        expected = TensorElem.zero(pair.algebra, 2)
        for k in (1, 2):
            dk = raise_indices(d, (k,), 2)
            expected = expected + mul(dk, tensor) - mul(tensor, dk)
        assert residual == expected


def test_infinity_residual_index_two_degenerates_to_classical():
    # r3 = s3 = 0 and d = 0: the residuals are the classical left sides
    M = _ungraded_m2()
    rng = random.Random(17)
    r2 = random_tensor(rng, M, 2, density=0.7)
    s2 = random_tensor(rng, M, 2, density=0.7)
    pair = InfinityYBPair(M, r={2: r2}, s={2: s2}, truncation=3)
    classical = check_classical_ybp(YBPair(r2, s2))
    homotopy = check_infinity_ybp(pair, 2)
    assert homotopy[0] == classical[0]
    assert homotopy[1] == classical[1]


def test_infinity_residual_truncation_guard():
    M = _graded_m2()
    d = TensorElem(M, 1, {("e1^2",): 1})
    pair = InfinityYBPair(M, r={1: d}, s={1: d})
    with pytest.raises(ValueError):
        check_infinity_ybp(pair, 1)
    with pytest.raises(ValueError):
        check_infinity_ybp(pair, -1)


def test_infinity_pair_json_round_trip():
    pair = _random_pair(5)
    M = pair.algebra
    back = InfinityYBPair.from_json(M, pair.to_json())
    assert back.truncation == pair.truncation
    assert back.r == pair.r and back.s == pair.s


def test_infinity_pair_families_are_read_only():
    # the tensor-operad images and chi are built from r and s, so neither
    # family can change under them
    pair = _random_pair(5)
    given = dict(pair.r)
    for family in (pair.r, pair.s):
        with pytest.raises(TypeError):
            family[2] = TensorElem.zero(pair.algebra, 2)
        with pytest.raises(TypeError):
            del family[1]
    rebuilt = InfinityYBPair(pair.algebra, given, dict(pair.s), pair.truncation)
    given.clear()  # the pair keeps its own copy of what it was given
    assert rebuilt.r == pair.r and rebuilt.to_json() == pair.to_json()


# ---------------------------------------------------------------------------
# the four term-family identities
# ---------------------------------------------------------------------------


def _multiply(algebra, x, y):
    """The product of two elements given as ``{name: coefficient}``, read off
    the product map entry by entry."""
    product = {}
    for a, ca in x.items():
        for b, cb in y.items():
            for c, v in algebra.product_map().evaluate((a, b)).items():
                product[c] = product.get(c, 0) + ca * cb * v
    return {c: v for c, v in product.items() if v}


def _inner_derivation(d, algebra):
    """The map x -> -d x + (-1)^{|x|} x d for an algebra element d, written by
    hand: the oracle of F of the image -d (x) 1 + 1 (x) d of m_1."""
    assert d.order == 1
    space = algebra.space
    degree = d.homogeneous_degree()
    if degree is None:
        return MultiMap.zero(space, space, 1, -1)
    d_coeffs = {factors[0]: c for factors, c in d.items()}
    rows = []
    for x in space.names:
        x_basis = {x: ONE}
        sign = parity_sign(space.degree(x))
        left = _multiply(algebra, d_coeffs, x_basis)
        right = _multiply(algebra, x_basis, d_coeffs)
        rows.append(((x,), {name: -c for name, c in left.items()}))
        rows.append(((x,), {name: sign * c for name, c in right.items()}))
    return MultiMap(space, space, 1, degree, rows)


def _chi_m1(d, algebra):
    """m_1 of chi_map: F of the image of m_1 in the tensor operad."""
    return chi_map(InfinityYBPair(algebra, r={1: d}, s={1: d})).m.get(1)


def test_inner_derivation_on_basis():
    M = _graded_m2()
    d = TensorElem(M, 1, {("e1^2",): 1})
    m1 = _chi_m1(d, M)
    assert m1 == _inner_derivation(d, M)
    assert m1.degree == -1
    # m1(e2^1) = -d e2^1 + (-1)^{1} e2^1 d = -e1^1 - e2^2
    assert m1.evaluate(("e2^1",)) == {"e1^1": -ONE, "e2^2": -ONE}
    # m1(e1^1) = -d e1^1 + e1^1 d = -0 + e1^2
    assert m1.evaluate(("e1^1",)) == {"e1^2": ONE}
    # m1(e2^2) = -d e2^2 + e2^2 d = -e1^2
    assert m1.evaluate(("e2^2",)) == {"e1^2": -ONE}
    assert m1.evaluate(("e1^2",)) == {}


def test_inner_derivation_squares_to_commutator_with_d_squared():
    M = _graded_m3()
    d = TensorElem(M, 1, {("e1^2",): 1, ("e2^3",): 1})
    m1 = _chi_m1(d, M)
    square = compose_tensor(m1, [m1])
    # [d^2, -] since d has odd degree: m1(m1(x)) = d^2 x - x d^2
    d2 = tensor_product_multiply(d, d)
    d2_coeffs = {f[0]: c for f, c in d2.items()}
    for x in M.space.names:
        left = _multiply(M, d2_coeffs, {x: ONE})
        right = _multiply(M, {x: ONE}, d2_coeffs)
        expected = {
            k: left.get(k, Fraction(0)) - right.get(k, Fraction(0))
            for k in set(left) | set(right)
        }
        expected = {k: v for k, v in expected.items() if v}
        assert square.evaluate((x,)) == expected


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("family", ["r", "s"])
def test_equivalence_identities_hold(seed, family):
    pair = _random_pair(seed)
    for n in (1, 2, 3):
        for identity in (
            equivalence_identity_1,
            equivalence_identity_2,
            equivalence_identity_3,
            equivalence_identity_4,
        ):
            map_side, tensor_side = identity(pair, n, family)
            assert F_map(tensor_side) == map_side, (seed, family, n, identity.__name__)


def test_identity_pieces_assemble_the_residual():
    pair = _random_pair(40)
    for n in (1, 2):
        for family, residual in zip(("r", "s"), check_infinity_ybp(pair, n)):
            combined = (
                -equivalence_identity_1(pair, n, family)[1]
                - equivalence_identity_2(pair, n, family)[1]
                + equivalence_identity_3(pair, n, family)[1]
                + equivalence_identity_4(pair, n, family)[1]
            )
            assert residual == combined


# ---------------------------------------------------------------------------
# the hand-written pieces and map sides, kept as oracles of the pieces and
# the residual evaluated in the tensor operad
# ---------------------------------------------------------------------------


def _oracle_family(pair, name):
    return pair.r.get if name == "r" else pair.s.get


def _oracle_piece_1(pair, n, family):
    """-sum_k ( d^k * t_{n+1} - (-1)^{n-1} t_{n+1} * d^k )."""
    t = _oracle_family(pair, family)(n + 1)
    d = pair.d()
    terms = []
    if t is not None and not d.is_zero():
        sign = parity_sign(n - 1)
        for k in range(1, n + 2):
            dk = raise_indices(d, (k,), n + 1)
            terms.append(tensor_product_multiply(dk, t))
            terms.append(-sign * tensor_product_multiply(t, dk))
    return -TensorElem.sum(pair.algebra, n + 1, terms)


def _oracle_piece_2(pair, n, family):
    """sum_{i+j=n} (-1)^{1+i} t_{i+1}^{1..i+1} * t_{j+1}^{i+1..n+1}."""
    at = _oracle_family(pair, family)
    terms = []
    for i in range(1, n):
        left, right = at(i + 1), at(n - i + 1)
        if left is None or right is None:
            continue
        left_raised = raise_indices(left, tuple(range(1, i + 2)), n + 1)
        right_raised = raise_indices(right, tuple(range(i + 1, n + 2)), n + 1)
        terms.append(
            parity_sign(1 + i) * tensor_product_multiply(left_raised, right_raised)
        )
    return TensorElem.sum(pair.algebra, n + 1, terms)


def _oracle_straddle_slots(s, j, n):
    return tuple(range(1, s + 1)) + tuple(range(s + j + 1, n + 2))


def _oracle_piece_3(pair, n, family):
    """sum (-1)^{(s-1)+(j-1)(i-s+1)} t_{i+1}^{straddle} * r_{j+1}^{s..s+j}."""
    at = _oracle_family(pair, family)
    terms = []
    for i in range(1, n):
        j = n - i
        outer, inner = at(i + 1), pair.r.get(j + 1)
        if outer is None or inner is None:
            continue
        for s in range(1, i + 1):
            outer_raised = raise_indices(outer, _oracle_straddle_slots(s, j, n), n + 1)
            inner_raised = raise_indices(inner, tuple(range(s, s + j + 1)), n + 1)
            sign = parity_sign((s - 1) + (j - 1) * (i - s + 1))
            terms.append(sign * tensor_product_multiply(outer_raised, inner_raised))
    return TensorElem.sum(pair.algebra, n + 1, terms)


def _oracle_piece_4(pair, n, family):
    """sum (-1)^{(s-1)+(j-1)(i-s)} s_{j+1}^{s+1..s+j+1} * t_{i+1}^{straddle}."""
    at = _oracle_family(pair, family)
    terms = []
    for i in range(1, n):
        j = n - i
        outer, inner = at(i + 1), pair.s.get(j + 1)
        if outer is None or inner is None:
            continue
        for s in range(1, i + 1):
            outer_raised = raise_indices(outer, _oracle_straddle_slots(s, j, n), n + 1)
            inner_raised = raise_indices(inner, tuple(range(s + 1, s + j + 2)), n + 1)
            sign = parity_sign((s - 1) + (j - 1) * (i - s))
            terms.append(sign * tensor_product_multiply(inner_raised, outer_raised))
    return TensorElem.sum(pair.algebra, n + 1, terms)


def _oracle_operator(pair, family, arity):
    t = _oracle_family(pair, family)(arity + 1)
    if t is None:
        return MultiMap.zero(pair.algebra.space, pair.algebra.space, arity, arity - 1)
    return F_map(t)


def _oracle_map_1(pair, n, family):
    space = pair.algebra.space
    m1 = _inner_derivation(pair.d(), pair.algebra)
    T = _oracle_operator(pair, family, n)
    sign = parity_sign(n - 1)
    terms = [compose_tensor(m1, [T])]
    terms += [-sign * insert(T, i + 1, m1) for i in range(n)]
    return MultiMap.sum(space, space, n, n - 2, terms)


def _oracle_map_2(pair, n, family):
    space = pair.algebra.space
    m2 = pair.algebra.product_map()
    terms = []
    for i in range(1, n):
        parts = [_oracle_operator(pair, family, i), _oracle_operator(pair, family, n - i)]
        terms.append(parity_sign(1 + i) * compose_tensor(m2, parts))
    return MultiMap.sum(space, space, n, n - 2, terms)


def _oracle_map_3(pair, n, family):
    space = pair.algebra.space
    m2 = pair.algebra.product_map()
    terms = []
    for i in range(1, n):
        j = n - i
        outer = _oracle_operator(pair, family, i)
        inner = compose_tensor(m2, [_oracle_operator(pair, "r", j), None])
        for s in range(1, i + 1):
            sign = parity_sign((s - 1) + (j - 1) * (i - s + 1))
            terms.append(sign * insert(outer, s, inner))
    return MultiMap.sum(space, space, n, n - 2, terms)


def _oracle_map_4(pair, n, family):
    space = pair.algebra.space
    m2 = pair.algebra.product_map()
    terms = []
    for i in range(1, n):
        j = n - i
        outer = _oracle_operator(pair, family, i)
        inner = compose_tensor(m2, [None, _oracle_operator(pair, "s", j)])
        for s in range(1, i + 1):
            sign = parity_sign((s - 1) + (j - 1) * (i - s))
            terms.append(sign * insert(outer, s, inner))
    return MultiMap.sum(space, space, n, n - 2, terms)


_ORACLES = [
    (equivalence_identity_1, _oracle_map_1, _oracle_piece_1),
    (equivalence_identity_2, _oracle_map_2, _oracle_piece_2),
    (equivalence_identity_3, _oracle_map_3, _oracle_piece_3),
    (equivalence_identity_4, _oracle_map_4, _oracle_piece_4),
]


def _diagonal_algebra(dim):
    space = GradedSpace([(f"v{k}", 0) for k in range(1, dim + 1)])
    products = {(f"v{k}", f"v{k}"): {f"v{k}": 1} for k in range(1, dim + 1)}
    return BasedAlgebra(space, products, {f"v{k}": 1 for k in range(1, dim + 1)})


def _end(*degrees):
    return MatrixAlgebra(GradedSpace([(f"v{k}", d) for k, d in enumerate(degrees, 1)]))


def _oracle_pairs():
    """Seeded truncation-4 pairs over End(V) for V = (0, 1), (1, 0) and
    (-1, 0, 0), and over the diagonal algebra of dimension 3, which is not a
    matrix algebra; the densities of the orders 2, 3, 4 keep the members of
    the 9-dimensional End(V) small."""
    cases = [
        (_end(0, 1), (0.5, 0.5, 0.5)),
        (_end(1, 0), (0.5, 0.5, 0.5)),
        (_end(-1, 0, 0), (0.3, 0.06, 0.015)),
        (_diagonal_algebra(3), (0.5, 0.5, 0.5)),
    ]
    for index, (algebra, densities) in enumerate(cases):
        for seed in (2 * index, 2 * index + 1):
            rng = random.Random(seed)
            d = random_tensor(rng, algebra, 1, degree=-1, density=0.9)
            families = {}
            for name in ("r", "s"):
                families[name] = {1: d}
                for order, density in enumerate(densities, 2):
                    families[name][order] = random_tensor(
                        rng, algebra, order, degree=order - 2, density=density
                    )
            yield InfinityYBPair(algebra, r=families["r"], s=families["s"], truncation=4)


def test_pieces_and_residual_match_the_hand_written_oracles():
    compared = nonzero = 0
    for pair in _oracle_pairs():
        for n in (1, 2, 3):
            for family in ("r", "s"):
                for identity, oracle_map, oracle_piece in _ORACLES:
                    map_side, tensor_side = identity(pair, n, family)
                    assert map_side == oracle_map(pair, n, family)
                    assert tensor_side == oracle_piece(pair, n, family)
                    compared += 1
                    nonzero += not tensor_side.is_zero()
            oracle = [
                -_oracle_piece_1(pair, n, family)
                - _oracle_piece_2(pair, n, family)
                + _oracle_piece_3(pair, n, family)
                + _oracle_piece_4(pair, n, family)
                for family in ("r", "s")
            ]
            assert list(check_infinity_ybp(pair, n)) == oracle
            compared += 2
            nonzero += sum(not residual.is_zero() for residual in oracle)
    assert compared == 8 * 3 * (2 * 4 + 2)
    assert nonzero > compared / 2, (nonzero, compared)


def test_f_map_is_an_operad_map_from_the_tensor_operad():
    # F(t o_i u) = F(t) o_i F(u) on homogeneous tensors of every degree, and
    # F sends the images of m_1 and m_2 to -[d, -] and to the product
    checked = nonzero = 0
    for seed, (algebra, density) in enumerate(
        [(_end(0, 1), 0.5), (_end(1, 0), 0.5), (_end(0, 0), 0.3), (_end(-1, 0, 0), 0.05)]
    ):
        rng = random.Random(seed)
        d = random_tensor(rng, algebra, 1, degree=-1, density=0.9)
        pair = InfinityYBPair(algebra, r={1: d}, s={1: d})
        if d.is_zero():
            assert pair.gen("m", 1) is None
        else:
            assert F_map(pair.gen("m", 1)) == _inner_derivation(d, algebra)
        assert F_map(pair.gen("m", 2)) == algebra.product_map()
        for t_order, u_order in itertools.product((2, 3), repeat=2):
            for t_degree, u_degree in itertools.product((-1, 0, 1), repeat=2):
                t = random_tensor(rng, algebra, t_order, degree=t_degree, density=density)
                u = random_tensor(rng, algebra, u_order, degree=u_degree, density=density)
                for i in range(1, t_order):
                    row = pair.compose_row(t, slot(t_order - 1, i, u))
                    composite = pair.sum(t_order + u_order - 3, None, [(1, row)])
                    assert F_map(composite) == insert(F_map(t), i, F_map(u))
                    checked += 1
                    nonzero += not composite.is_zero()
    assert nonzero > checked / 2, (nonzero, checked)


# ---------------------------------------------------------------------------
# the correspondence with differential graded structures
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(6))
def test_residuals_correspond_under_the_dictionary(seed):
    pair = _random_pair(seed, truncation=3)
    structure = chi_map(pair)
    for n in (1, 2):
        res_r, res_s = check_infinity_ybp(pair, n)
        assert F_map(res_r) == -1 * dga_residual_R(structure, n)
        assert F_map(res_s) == -1 * dga_residual_S(structure, n)


def test_chi_map_structure_shape():
    pair = _random_pair(2, truncation=3)
    structure = chi_map(pair)
    assert structure.truncation == 2
    assert structure.m.get(2) == pair.algebra.product_map()

    def stored_or_zero(f, arity, degree):
        space = pair.algebra.space
        return MultiMap.zero(space, space, arity, degree) if f is None else f

    assert stored_or_zero(structure.m.get(1), 1, -1) == _inner_derivation(
        pair.d(), pair.algebra
    )
    for n in (1, 2):
        r_tensor = pair.r.get(n + 1)
        if r_tensor is not None:
            assert stored_or_zero(structure.r.get(n), n, n - 1) == F_map(r_tensor)
        s_tensor = pair.s.get(n + 1)
        if s_tensor is not None:
            assert stored_or_zero(structure.s.get(n), n, n - 1) == F_map(s_tensor)


def test_chi_round_trip():
    pair = _random_pair(13, truncation=3)
    structure = chi_map(pair)
    back = chi_inverse(structure, pair.d(), pair.algebra)
    assert back.truncation == pair.truncation
    assert back.r == pair.r
    assert back.s == pair.s


def test_chi_inverse_validates_d():
    pair = _random_pair(14, truncation=2)
    structure = chi_map(pair)
    wrong = pair.d() + TensorElem(pair.algebra, 1, {("e1^2",): 17})
    if _inner_derivation(wrong, pair.algebra) == structure.m.get(1):
        pytest.skip("perturbation happened to be central")
    with pytest.raises(ValueError, match="not an image of chi: m_1 differs"):
        chi_inverse(structure, wrong, pair.algebra)


def _doubled_m2(structure, rng):
    m = {**structure.m, 2: 2 * structure.m[2]}
    return HomotopyRBS(structure.space, m, structure.r, structure.s, structure.truncation)


def _without_m2(structure, rng):
    m = {n: f for n, f in structure.m.items() if n != 2}
    return HomotopyRBS(structure.space, m, structure.r, structure.s, structure.truncation)


def _with_an_m3(structure, rng):
    space = structure.space
    m3 = random_multimap(rng, space, space, 3, 1, density=0.3)
    assert not m3.is_zero()
    m = {**structure.m, 3: m3}
    return HomotopyRBS(space, m, structure.r, structure.s, structure.truncation)


@pytest.mark.parametrize(
    "change, truncation, member",
    [(_doubled_m2, 3, "m_2"), (_without_m2, 3, "m_2"), (_with_an_m3, 4, "m_3")],
)
def test_chi_inverse_refuses_a_structure_that_is_not_an_image(change, truncation, member):
    # chi of the pair recovered from each differs from it at ``member``
    pair = _random_pair(15, truncation=truncation)
    structure = change(chi_map(pair), random.Random(15))
    assert structure.truncation == truncation - 1
    with pytest.raises(ValueError, match=f"not an image of chi: {member} differs"):
        chi_inverse(structure, pair.d(), pair.algebra)


def test_chi_images_are_built_once_per_pair_on_first_use(monkeypatch):
    calls = []
    monkeypatch.setattr(yang_baxter, "F_map", lambda t: calls.append(t) or F_map(t))
    pair = _random_pair(16, truncation=4)
    check_infinity_ybp(pair, 3)
    assert calls == []
    for n in (1, 2, 3):
        for identity, _, _ in _ORACLES:
            identity(pair, n, "s")
    chi_map(pair)
    # once each for m_1 (d = r_1 = s_1 is nonzero) and the members r_n, s_n
    # with n >= 2; m_2 is the algebra's product
    assert 1 in pair.r and len(calls) == len(pair.r) + len(pair.s) - 1


def test_chi_inverse_inverts_chi_on_the_matrix_algebra_pairs():
    pairs = [p for p in _oracle_pairs() if isinstance(p.algebra, MatrixAlgebra)]
    assert len(pairs) == 6
    for pair in pairs:
        structure = chi_map(pair)
        back = chi_inverse(structure, pair.d(), pair.algebra)
        assert (back.r, back.s, back.truncation) == (pair.r, pair.s, pair.truncation)
        again = chi_map(back)
        for family in ("m", "r", "s"):
            assert getattr(again, family) == getattr(structure, family)
        assert again.truncation == structure.truncation


def test_chi_zero_pair_gives_zero_operators():
    M = _graded_m2()
    pair = InfinityYBPair(M, truncation=3)
    structure = chi_map(pair)
    assert structure.m.get(1) is None  # -[0,-] = 0 is dropped
    assert structure.m.get(2) == M.product_map()
    assert structure.r.get(1) is None and structure.s.get(1) is None
    for n in (1, 2):
        assert dga_residual_R(structure, n).is_zero()
        res_r, res_s = check_infinity_ybp(pair, n)
        assert res_r.is_zero() and res_s.is_zero()


def test_identity_pieces_above_the_truncation_keep_the_product():
    # at truncation 2 the structure chi_map gives stops at arity 1, without
    # m_2; the pieces at index 2 still multiply with it on both sides
    pair = _random_pair(41, truncation=2)
    assert chi_map(pair).m.get(2) is None
    for family in ("r", "s"):
        for identity, _, oracle_piece in _ORACLES:
            map_side, tensor_side = identity(pair, 2, family)
            assert tensor_side == oracle_piece(pair, 2, family)
            assert F_map(tensor_side) == map_side
    assert not equivalence_identity_2(pair, 2)[1].is_zero()
