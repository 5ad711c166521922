"""Tests for the controlling L-infinity algebra of a product with two operators."""

import itertools
import json
import random
from fractions import Fraction
from functools import reduce
from math import factorial
from pathlib import Path

import pytest

from rbsinfty import linfty
from rbsinfty.graded import (
    BasedAlgebra,
    GradedSpace,
    MatrixAlgebra,
    MultiMap,
    brace_map,
    compose_tensor,
)
from rbsinfty.linfty import (
    TAG_ALG,
    TAG_R,
    TAG_S,
    TAGS,
    CochainElement,
    Piece,
    basis_cochains,
    classical_cochain,
    l_bracket,
    mc_residual,
    random_piece,
    suspend_alg_map,
    twisted_differential,
    verify_generalized_jacobi,
)
from rbsinfty.residuals import check_classical_rbs
from rbsinfty.sampling import random_multimap
from rbsinfty.signs import koszul_chi
from oracles import is_associative, multiset_expansion, nonvanishing_inputs

# -- shared fixtures ----------------------------------------------------------

PLANE = GradedSpace([("v1", 0), ("v2", 0)])
SPLANE = PLANE.suspend()
GRADED = GradedSpace([("w1", 0), ("w2", 1), ("w3", 2)])

DIAGONAL = BasedAlgebra(
    PLANE,
    {("v1", "v1"): {"v1": 1}, ("v2", "v2"): {"v2": 1}},
    {"v1": 1, "v2": 1},
)
PRODUCT = DIAGONAL.product_map()


def operator(a, b, c, d):
    """The map v1 -> a*v1 + c*v2, v2 -> b*v1 + d*v2."""
    return MultiMap(
        PLANE, PLANE, 1, 0, {("v1",): {"v1": a, "v2": c}, ("v2",): {"v1": b, "v2": d}}
    )


def alg_piece(arity, table):
    return Piece(TAG_ALG, MultiMap(SPLANE, SPLANE, arity, 1 - arity, table))


def rbs_alpha(r_map, s_map, truncation=3):
    return classical_cochain(PRODUCT, r_map, s_map, truncation=truncation)


# -- suspension dictionary -----------------------------------------------------


def test_suspend_plain_relabel_in_degree_zero():
    avatar = suspend_alg_map(PRODUCT)
    assert avatar.arity == 2 and avatar.degree == -1
    assert avatar.evaluate(("v1", "v1")) == {"v1": 1}
    assert avatar.evaluate(("v1", "v2")) == {}


def test_suspend_sign_counts_left_inputs():
    f = MultiMap(GRADED, GRADED, 2, 0, {("w2", "w2"): {"w3": 1}})
    avatar = suspend_alg_map(f)
    # exponent (n-1)*|f| + |first input| = 0 + 1 is odd
    assert avatar.degree == -1
    assert avatar.evaluate(("w2", "w2")) == {"w3": -1}


def test_suspend_sign_uses_map_degree():
    f = MultiMap(GRADED, GRADED, 2, 1, {("w1", "w2"): {"w3": 1}})
    avatar = suspend_alg_map(f)
    # exponent (n-1)*|f| + |w1| = 1 + 0 is odd
    assert avatar.evaluate(("w1", "w2")) == {"w3": -1}


def _desuspend(m):
    """The inverse of `suspend_alg_map`: the same sign, read on the
    unsuspended degrees of the inputs and of the map."""
    space = m.space_in.suspend(-1)
    degree = m.degree + m.arity - 1
    rows = {}
    for ins, outs in m.rows.items():
        degrees = [space.degree(name) for name in ins]
        sign = (-1) ** ((m.arity - 1) * degree + linfty._staircase(degrees))
        rows[ins] = {out: sign * n for out, n in outs.items()}
    return MultiMap(space, space, m.arity, degree, rows, m.denominator)


@pytest.mark.parametrize("seed", range(6))
def test_suspend_round_trip(seed):
    rng = random.Random(seed)
    arity = rng.randint(1, 3)
    degree = rng.choice((-1, 0, 1))
    f = random_multimap(rng, GRADED, GRADED, arity, degree, density=0.8)
    assert _desuspend(suspend_alg_map(f)) == f


def test_suspended_matrix_product_self_brace_vanishes():
    # Associativity at the unsuspended level becomes a vanishing self-brace.
    algebra = MatrixAlgebra(GradedSpace([("u1", 0), ("u2", 1)]))
    avatar = suspend_alg_map(algebra.product_map())
    assert brace_map(avatar, [avatar]).is_zero()
    piece = Piece(TAG_ALG, avatar)
    assert l_bracket(algebra.space, [piece, piece]).is_zero()


def test_nonassociative_product_self_bracket_detects():
    space = GradedSpace([("a", 0), ("b", 0)])
    algebra = BasedAlgebra(
        space, {("a", "a"): {"b": 1}, ("a", "b"): {"a": 1}}, {"a": 1}
    )
    assert not is_associative(algebra)
    piece = Piece(TAG_ALG, suspend_alg_map(algebra.product_map()))
    assert not l_bracket(space, [piece, piece]).is_zero()


# -- cochain containers ---------------------------------------------------------


def test_cochain_infers_degree_and_drops_zeros():
    avatar = suspend_alg_map(PRODUCT)
    zero = MultiMap.zero(SPLANE, SPLANE, 1, 0)
    cochain = CochainElement(PLANE, {TAG_ALG: {2: avatar}, TAG_R: {1: zero}})
    assert cochain.degree == -1
    assert TAG_R not in cochain.parts
    assert cochain.parts == {TAG_ALG: {2: avatar}}


def test_cochain_rejects_mixed_degrees():
    avatar = suspend_alg_map(PRODUCT)  # intrinsic degree -1
    op = MultiMap.identity(SPLANE)  # operator column: intrinsic degree -1...
    # identity has map degree 0 -> intrinsic -1; use a degree-1 avatar instead
    sV3 = GRADED.suspend()
    unary = MultiMap(sV3, sV3, 1, 1, {("w1",): {"w2": 1}})
    with pytest.raises(ValueError):
        CochainElement(
            GRADED,
            {TAG_ALG: {1: unary}, TAG_R: {1: unary}},  # degrees 1 and 0
        )
    # degree-compatible combination is accepted
    CochainElement(PLANE, {TAG_ALG: {2: avatar}, TAG_R: {1: op}})


def test_cochain_rejects_wrong_space_and_small_truncation():
    avatar = suspend_alg_map(PRODUCT)
    with pytest.raises(ValueError):
        CochainElement(GRADED, {TAG_ALG: {2: avatar}})
    with pytest.raises(ValueError):
        CochainElement(PLANE, {TAG_ALG: {2: avatar}}, truncation=1)
    with pytest.raises(ValueError):
        CochainElement(PLANE, {"wrong": {2: avatar}})


def test_cochain_accumulates_repeated_components():
    avatar = suspend_alg_map(PRODUCT)
    op = MultiMap.identity(SPLANE)
    pairs = [(TAG_ALG, avatar), (TAG_R, op), (TAG_ALG, avatar), (TAG_R, -1 * op)]
    summed = CochainElement(PLANE, pairs)
    assert summed == CochainElement(PLANE, {TAG_ALG: {2: 2 * avatar}})
    assert summed.degree == -1
    # a component of the wrong degree that cancels is dropped; one that survives raises
    sV3 = GRADED.suspend()
    unary = MultiMap(sV3, sV3, 1, 1, {("w1",): {"w2": 1}})
    cancelled = [(TAG_ALG, unary), (TAG_R, unary), (TAG_R, -1 * unary)]
    assert set(CochainElement(GRADED, cancelled).parts) == {TAG_ALG}
    with pytest.raises(ValueError):
        CochainElement(GRADED, [(TAG_ALG, unary), (TAG_R, unary), (TAG_R, unary)])


def _cochain_add_oracle(a: CochainElement, b: CochainElement) -> CochainElement:
    """Binary addition as it was before sums were built in one table."""
    merged = {}
    for source in (a.parts, b.parts):
        for tag, family in source.items():
            slot = merged.setdefault(tag, {})
            for arity, m in family.items():
                slot[arity] = slot[arity] + m if arity in slot else m
    degree = a.degree if a.degree is not None else b.degree
    return CochainElement(a.space, merged, degree=degree)


@pytest.mark.parametrize("seed", range(5))
def test_cochain_sum_matches_a_fold_of_binary_addition(seed):
    rng = random.Random(seed)

    def random_operator():
        return operator(*(rng.choice((-1, 0, 1)) for _ in range(4)))

    cochains = [
        rng.choice((-1, 1, 2)) * rbs_alpha(random_operator(), random_operator())
        for _ in range(6)
    ]
    total = CochainElement.sum(PLANE, cochains)
    assert total == reduce(_cochain_add_oracle, cochains, CochainElement(PLANE))
    assert total == reduce(lambda a, b: a + b, cochains)
    assert total.degree == -1


def test_cochain_json_round_trip():
    alpha = rbs_alpha(operator(2, 0, 0, 0), operator(0, 0, 0, 3))
    data = alpha.to_json()
    back = CochainElement.from_json(data)
    assert back == alpha
    assert back.degree == -1 and back.truncation == 3


def test_cochain_linear_structure():
    alpha = rbs_alpha(operator(1, 0, 0, 0), operator(0, 0, 0, 1))
    twice = alpha + alpha
    assert twice == 2 * alpha
    assert (twice - alpha) == alpha
    assert (alpha - alpha).is_zero()


@pytest.mark.parametrize("scalar", [0.1, 2.0, True, False])
def test_cochain_scalars_refuse_floats_and_booleans(scalar):
    # the same exact-rational rule as MultiMap: no float, no boolean
    alpha = rbs_alpha(operator(1, 0, 0, 0), operator(0, 0, 0, 1))
    with pytest.raises(TypeError):
        scalar * alpha
    with pytest.raises(TypeError):
        alpha * scalar
    assert Fraction(1, 2) * alpha == "1/2" * alpha == alpha * Fraction(1, 2)


# -- bracket dispatch and vanishing ---------------------------------------------


def test_bracket_arity_mismatch_vanishes():
    # a unary algebra cochain bracketed with two operator cochains is zero
    unary = alg_piece(1, {("v1",): {"v1": 1}})
    op1 = Piece(TAG_R, MultiMap.identity(SPLANE))
    op2 = Piece(TAG_S, MultiMap.identity(SPLANE))
    assert l_bracket(PLANE, [unary, op1, op2]).is_zero()
    # and a ternary one with a single operator argument is zero too
    rng = random.Random(1)
    tern = random_piece(rng, PLANE, 3, tag=TAG_ALG, degree=-2)
    assert l_bracket(PLANE, [tern, op1]).is_zero()


def test_bracket_needs_exactly_one_algebra_cochain():
    rng = random.Random(2)
    op1 = Piece(TAG_R, MultiMap.identity(SPLANE))
    op2 = Piece(TAG_S, MultiMap.identity(SPLANE))
    op3 = Piece(TAG_R, MultiMap.identity(SPLANE))
    assert l_bracket(PLANE, [op1, op2]).is_zero()
    assert l_bracket(PLANE, [op1, op2, op3]).is_zero()
    a2 = random_piece(rng, PLANE, 2, tag=TAG_ALG, degree=-1)
    b2 = random_piece(rng, PLANE, 2, tag=TAG_ALG, degree=-1)
    assert l_bracket(PLANE, [a2, b2, op1]).is_zero()


def test_bracket_single_input_vanishes():
    unary = alg_piece(1, {("v1",): {"v1": 1}})
    assert l_bracket(PLANE, [unary]).is_zero()


def test_unary_algebra_operator_bracket_is_commutator():
    phi = MultiMap(SPLANE, SPLANE, 1, 0, {("v1",): {"v2": 1}})
    rop = MultiMap(SPLANE, SPLANE, 1, 0, {("v1",): {"v1": 2}, ("v2",): {"v2": 5}})
    result = l_bracket(PLANE, [Piece(TAG_ALG, phi), Piece(TAG_R, rop)])
    want = compose_tensor(phi, [rop]) - compose_tensor(rop, [phi])
    assert result.parts == {TAG_R: {1: want}}
    # second-column operators commute the same way
    result_s = l_bracket(PLANE, [Piece(TAG_ALG, phi), Piece(TAG_S, rop)])
    assert result_s.parts == {TAG_S: {1: want}}


def test_bracket_antisymmetry_on_algebra_pair():
    rng = random.Random(5)
    for _ in range(4):
        x = random_piece(rng, GRADED, rng.randint(1, 2), tag=TAG_ALG)
        y = random_piece(rng, GRADED, rng.randint(1, 2), tag=TAG_ALG)
        lhs = l_bracket(GRADED, [y, x])
        sign = -1 if (1 + x.degree * y.degree) % 2 else 1
        rhs = sign * l_bracket(GRADED, [x, y])
        assert lhs == rhs


@pytest.mark.parametrize("seed", range(8))
def test_bracket_permutation_equivariance(seed):
    """Permuting inputs multiplies by the signature times the Koszul sign."""
    rng = random.Random(seed)
    pieces = [
        random_piece(rng, GRADED, rng.randint(1, 2), tag=TAG_ALG),
        random_piece(rng, GRADED, 1, tag=rng.choice((TAG_R, TAG_S))),
        random_piece(rng, GRADED, rng.randint(1, 2), tag=rng.choice((TAG_R, TAG_S))),
    ]
    degrees = [p.degree for p in pieces]
    base = l_bracket(GRADED, pieces)
    for sigma in itertools.permutations(range(1, 4)):
        permuted = [pieces[s - 1] for s in sigma]
        expected = koszul_chi(sigma, degrees) * base
        assert l_bracket(GRADED, permuted) == expected


# -- Maurer-Cartan theory ---------------------------------------------------------


def test_diagonal_fixture_family_is_mc():
    # On the diagonal plane algebra, scaling one idempotent per operator
    # column satisfies both coupled operator identities.
    for a, d in ((2, 3), (1, 1), (-5, 7)):
        alpha = rbs_alpha(operator(a, 0, 0, 0), operator(0, 0, 0, d))
        assert mc_residual(alpha).is_zero()


def test_identity_zero_pair_is_mc():
    assert mc_residual(rbs_alpha(MultiMap.identity(PLANE), MultiMap.zero(PLANE, PLANE, 1, 0))).is_zero()


def test_matrix_algebra_pairs():
    algebra = MatrixAlgebra(GradedSpace([("u1", 0), ("u2", 0)]))
    mu = algebra.product_map()
    ident = MultiMap.identity(algebra.space)
    zero = MultiMap.zero(algebra.space, algebra.space, 1, 0)
    assert mc_residual(classical_cochain(mu, ident, zero)).is_zero()
    assert not mc_residual(classical_cochain(mu, ident, 2 * ident)).is_zero()


def test_scaled_identity_pair_fails():
    alpha = rbs_alpha(MultiMap.identity(PLANE), 2 * MultiMap.identity(PLANE))
    residual = mc_residual(alpha)
    assert not residual.is_zero()
    assert residual.degree == -2


@pytest.mark.parametrize("seed", range(20))
def test_mc_residual_matches_classical_residuals(seed):
    """The residual columns reproduce the classical operator residuals.

    The algebra column carries the (vanishing) associativity defect; each
    operator column carries minus the suspension of the corresponding
    classical residual, computed here through an independent code path.
    """
    rng = random.Random(seed)
    r_map = random_multimap(rng, PLANE, PLANE, 1, 0, density=0.8)
    s_map = random_multimap(rng, PLANE, PLANE, 1, 0, density=0.8)
    residual = mc_residual(rbs_alpha(r_map, s_map))
    res_r, res_s = check_classical_rbs(DIAGONAL, r_map, s_map)
    assert TAG_ALG not in residual.parts
    zero = MultiMap.zero(SPLANE, SPLANE, 2, 0)  # equal to every zero map of arity 2
    for tag, res in ((TAG_R, res_r), (TAG_S, res_s)):
        assert residual.parts.get(tag, {}).get(2, zero) == -1 * suspend_alg_map(res)


@pytest.mark.parametrize("seed", range(20))
def test_is_mc_iff_classical_pair_checks(seed):
    rng = random.Random(100 + seed)
    if seed % 3 == 0:
        a, d = rng.randint(-3, 3), rng.randint(-3, 3)
        r_map, s_map = operator(a, 0, 0, 0), operator(0, 0, 0, d)
    else:
        r_map = random_multimap(rng, PLANE, PLANE, 1, 0, density=0.8)
        s_map = random_multimap(rng, PLANE, PLANE, 1, 0, density=0.8)
    res_r, res_s = check_classical_rbs(DIAGONAL, r_map, s_map)
    assert mc_residual(rbs_alpha(r_map, s_map)).is_zero() == (res_r.is_zero() and res_s.is_zero())


def test_mc_degree_guard():
    bad = CochainElement(
        PLANE, {TAG_R: {1: MultiMap(SPLANE, SPLANE, 1, 1, {})}}, degree=0
    )
    with pytest.raises(ValueError):
        mc_residual(bad)


def _oracle_mc_residual(alpha: CochainElement) -> CochainElement:
    """The residual summed over every ordered tuple of pieces, level k
    scaled by 1/k!: the reference for the column-sum expansion."""
    space = alpha.space
    pieces = alpha.pieces()
    total = CochainElement(space)
    max_alg = max((p.arity for p in pieces if p.tag == TAG_ALG), default=1)
    for k in range(2, max(2, max_alg + 1) + 1):
        tuples = itertools.product(pieces, repeat=k)
        level = CochainElement.sum(space, (l_bracket(space, list(t)) for t in tuples))
        total = total + Fraction(1, factorial(k)) * level
    return total


def _oracle_twisted_differential(alpha: CochainElement, x: CochainElement):
    """The twisted differential summed over every ordered tuple of pieces."""
    space = alpha.space
    alpha_pieces = alpha.pieces()
    total = CochainElement(space)
    arities = [p.arity for p in alpha_pieces + x.pieces() if p.tag == TAG_ALG]
    for k in range(1, max(arities, default=1) + 1):
        tuples = itertools.product(x.pieces(), *[alpha_pieces] * k)
        level = CochainElement.sum(space, (l_bracket(space, list(t)) for t in tuples))
        total = total + Fraction(1, factorial(k)) * level
    return total


# a module concentrated in degree zero and two graded ones, the last with a
# vector of degree 1
MC_SPACES = (
    PLANE,
    GradedSpace([("u1", -1), ("u2", 0)]),
    GradedSpace([("u1", 0), ("u2", 1)]),
)


def random_mc_candidate(rng, space, density=0.5):
    """A random degree -1 cochain: each component of arity <= 3 present at random."""
    suspended = space.suspend()
    parts = []
    for tag in TAGS:
        for arity in range(1, 4):
            if rng.random() < 0.6:
                degree = -1 if tag == TAG_ALG else 0
                m = random_multimap(rng, suspended, suspended, arity, degree, density)
                parts.append((tag, m))
    return CochainElement(space, parts, degree=-1)


def test_mc_residual_matches_ordered_expansion():
    # the column sums against the multiset expansion they replaced and the
    # sum over every ordered tuple of pieces: 210 candidates, 70 per module
    compared = nonzero = 0
    for space in MC_SPACES:
        for seed in range(70):
            alpha = random_mc_candidate(random.Random(seed), space, (0.5, 1.0)[seed % 2])
            residual = mc_residual(alpha)
            assert residual == multiset_expansion(alpha, [None])
            assert residual == _oracle_mc_residual(alpha)
            compared += 1
            nonzero += not residual.is_zero()
    assert compared >= 200 and nonzero > compared / 2


@pytest.mark.parametrize("space", MC_SPACES)
def test_twisted_differential_matches_ordered_expansion(space):
    # every basis cochain to arity 2 (a lead of every parity, tag and
    # position), and a second application to each piece of its image
    alpha = random_mc_candidate(random.Random(7), space)
    compared = nonzero = 0
    for x in basis_cochains(space, 2):
        once = twisted_differential(alpha, x)
        assert once == multiset_expansion(alpha, x.pieces())
        assert once == _oracle_twisted_differential(alpha, x)
        compared += 1
        nonzero += not once.is_zero()
        for piece in once.pieces():
            twice = twisted_differential(alpha, piece)
            assert twice == multiset_expansion(alpha, [piece])
            compared += 1
            nonzero += not twice.is_zero()
    assert nonzero > compared / 2


def test_nonvanishing_inputs_weigh_each_multiset_by_its_orderings():
    # a multiset of k pieces stands for its k!/prod(m_i!) orderings, each weighted 1/k!
    pieces = random_mc_candidate(random.Random(3), MC_SPACES[1], density=1.0).pieces()
    seen = set()
    for divisor, inputs in nonvanishing_inputs(pieces):
        key = tuple(sorted(map(pieces.index, inputs)))
        assert key not in seen
        seen.add(key)
        orderings = len(set(itertools.permutations(key)))
        assert Fraction(1, divisor) == Fraction(orderings, factorial(len(key)))
    assert len(seen) > len(pieces)


def _oracle_operator_terms(F, gs, hs, outer):
    """`linfty._operator_terms` as it was before distinct orderings were
    grouped: every ordering of each column composed, repeated pieces or not,
    each term a signed map of its own."""

    def staircase(degrees):
        return sum(sum(degrees[:k]) for k in range(1, len(degrees)))

    def parity(e):
        return -1 if e % 2 else 1

    n = len(gs) + len(hs)
    j = len(gs)
    f1 = F.degree
    gdeg = [m.degree - 1 for m in gs]
    hdeg = [m.degree - 1 for m in hs]
    sum_g = sum(gdeg)
    if j == n or j == 0:
        maps, degrees, tag = (gs, gdeg, TAG_R) if j == n else (hs, hdeg, TAG_S)
        for sigma in itertools.permutations(range(1, n + 1)):
            permuted = [maps[s - 1] for s in sigma]
            pdeg = [degrees[s - 1] for s in sigma]
            sign = koszul_chi(sigma, degrees) * parity(n * f1 + staircase(pdeg))
            yield tag, (outer * sign) * compose_tensor(F, permuted)
    for sp in itertools.permutations(range(1, j + 1)):
        pg = [gs[s - 1] for s in sp]
        pgd = [gdeg[s - 1] for s in sp]
        chi_g = koszul_chi(sp, gdeg)
        for ss in itertools.permutations(range(1, n - j + 1)):
            ph = [hs[s - 1] for s in ss]
            phd = [hdeg[s - 1] for s in ss]
            chi = chi_g * koszul_chi(ss, hdeg)
            if j >= 1:
                exponent = (
                    1 + n * f1 + staircase(phd) + sum_g * (n - j) + staircase(pgd)
                    + (pgd[0] + 1) * f1
                )
                inner = compose_tensor(F, list(pg[1:]) + [None] + list(ph))
                yield TAG_R, (outer * chi * parity(exponent)) * brace_map(pg[0], [inner])
            if n - j >= 1:
                exponent = (
                    1 + n * f1 + staircase(pgd) + (phd[0] + 1) * (f1 + sum_g + j)
                    + staircase(phd) + sum_g * (n - j)
                )
                inner = compose_tensor(F, list(pg) + [None] + list(ph[1:]))
                yield TAG_S, (outer * chi * parity(exponent)) * brace_map(ph[0], [inner])


@pytest.mark.parametrize("op_degree", [0, -1], ids=["odd-pieces", "even-pieces"])
def test_operator_terms_compose_each_distinct_ordering_once(op_degree):
    # operator map degree 0 is intrinsic degree -1 (odd), map degree -1 is -2 (even)
    space = GradedSpace([("u1", -1), ("u2", 0), ("u3", 1)])
    suspended = space.suspend()
    rng = random.Random(1810 + op_degree)
    compared = repeated = 0
    nonzero = {True: 0, False: 0}
    for _ in range(40):
        n = rng.randint(2, 4)
        F = random_multimap(rng, suspended, suspended, n, rng.choice((-1, 0, 1)), 0.8)
        pool = [
            random_multimap(rng, suspended, suspended, rng.randint(1, 2), op_degree, 0.8)
            for _ in range(3)
        ]
        ops = [rng.choice(pool) for _ in range(n)]
        j = rng.randint(0, n)
        gs, hs = ops[:j], ops[j:]
        repeats = any(len(set(map(id, column))) < len(column) for column in (gs, hs))
        outer = rng.choice((1, -1))
        grouped = linfty._cochain(space, linfty._tables(linfty._operator_terms(F, gs, hs, outer)))
        walked = CochainElement(space, _oracle_operator_terms(F, gs, hs, outer))
        assert grouped == walked
        compared += 1
        repeated += repeats
        nonzero[repeats] += not grouped.is_zero()
    assert compared / 2 <= repeated < compared
    assert nonzero[False] > (compared - repeated) / 2
    if op_degree == 0:  # equal odd pieces add up
        assert nonzero[True] > repeated / 2
    else:  # equal even pieces in one column cancel, and so does the bracket
        assert nonzero[True] == 0


def test_classical_cochain_validation():
    graded_product = MatrixAlgebra(GradedSpace([("u1", 0), ("u2", 1)])).product_map()
    ident = MultiMap.identity(PLANE)
    with pytest.raises(ValueError):
        classical_cochain(graded_product, ident, ident)  # not degree zero
    with pytest.raises(ValueError):
        classical_cochain(PRODUCT, PRODUCT, ident)  # operator arity
    with pytest.raises(ValueError):
        classical_cochain(PRODUCT, ident, ident, truncation=1)


# -- twisting ------------------------------------------------------------------


def _basis_pieces(max_arity=2):
    names = list(SPLANE)
    for tag in TAGS:
        for arity in range(1, max_arity + 1):
            for ins in itertools.product(names, repeat=arity):
                for out in names:
                    yield Piece(
                        tag, MultiMap(SPLANE, SPLANE, arity, 1 - arity, {ins: {out: 1}})
                    )


def test_twisted_differential_squares_to_zero():
    alpha = rbs_alpha(operator(2, 0, 0, 0), operator(0, 0, 0, 3))
    assert mc_residual(alpha).is_zero()
    checked = 0
    # arity 3 reaches l_5: d_alpha takes an arity-3 algebra piece to arity 4
    # through l_2, and the second d_alpha brackets that with four operator
    # pieces of alpha; no other identity test sees the sign of l_5
    for piece in _basis_pieces(max_arity=3):
        once = twisted_differential(alpha, piece)
        assert twisted_differential(alpha, once).is_zero()
        checked += 1
    assert checked == 84


def test_twisted_differential_lowers_degree():
    alpha = rbs_alpha(operator(2, 0, 0, 0), operator(0, 0, 0, 3))
    seen_nonzero = 0
    for piece in _basis_pieces():
        once = twisted_differential(alpha, piece)
        if not once.is_zero():
            seen_nonzero += 1
            assert once.degree == piece.degree - 1
    assert seen_nonzero > 0


def test_twist_accepts_cochains_and_matches_piecewise_sum():
    alpha = rbs_alpha(operator(2, 0, 0, 0), operator(0, 0, 0, 3))
    pieces = list(_basis_pieces(max_arity=1))[:4]
    total = CochainElement(PLANE)
    for p in pieces:
        total = total + CochainElement(PLANE, {p.tag: {p.arity: p.map}})
    direct = twisted_differential(alpha, total)
    summed = CochainElement(PLANE)
    for p in pieces:
        summed = summed + twisted_differential(alpha, p)
    assert direct == summed


def _lagrange_basis(points):
    """The coefficient lists, lowest power first, of the Lagrange basis
    polynomials on ``points``."""
    basis = []
    for j in points:
        poly = [Fraction(1)]
        for m in points:
            if m != j:
                shifted = [Fraction(0)] + poly
                poly = [(a - m * b) / (j - m) for a, b in zip(shifted, poly + [0])]
        basis.append(poly)
    return basis


DENSE = Path(__file__).parent / "data" / "mc_dense_input.json"


@pytest.mark.parametrize("tag", TAGS)
@pytest.mark.parametrize("arity", [1, 2])
@pytest.mark.parametrize("seed", [1, 3, 4, 5])
def test_twisted_differential_is_the_derivative_of_the_residual(seed, arity, tag):
    # d_alpha x is the t-linear coefficient of mc_residual(alpha + t x), read
    # off exactly by Lagrange interpolation at t = 0..7; the value at t = 8
    # checks that the interpolating polynomial of degree 7 is the residual
    alpha = CochainElement.from_json(json.loads(DENSE.read_text(encoding="utf-8")))
    degree = -1 if tag == TAG_ALG else 0
    x = random_piece(random.Random(seed), alpha.space, arity, tag=tag, degree=degree)
    x = CochainElement(alpha.space, {x.tag: {x.arity: x.map}})
    assert x.degree == -1
    values = [mc_residual(alpha + t * x) for t in range(9)]
    basis = _lagrange_basis(range(8))

    def combine(weights):
        return CochainElement.sum(alpha.space, [w * v for w, v in zip(weights, values)])

    at_8 = [sum(c * 8**i for i, c in enumerate(poly)) for poly in basis]
    assert combine(at_8) == values[8]
    derivative = twisted_differential(alpha, x)
    assert not derivative.is_zero()
    assert combine([poly[1] for poly in basis]) == derivative


def test_twisted_differential_degree_guard():
    sV3 = GRADED.suspend()
    unary = MultiMap(sV3, sV3, 1, 1, {("w1",): {"w2": 1}})
    even = CochainElement(GRADED, {TAG_R: {1: unary}})
    assert even.degree == 0
    with pytest.raises(ValueError):
        twisted_differential(even, even)


# -- generalized Jacobi identities ------------------------------------------------


@pytest.mark.parametrize("seed", range(10))
def test_jacobi_engineered_patterns(seed):
    rng = random.Random(seed)
    patterns = (
        (TAG_ALG, TAG_ALG, TAG_ALG),
        (TAG_ALG, TAG_R, TAG_S),
        (TAG_ALG, TAG_ALG, TAG_R),
        (TAG_ALG, TAG_ALG, TAG_R, TAG_S),
        (TAG_ALG, TAG_ALG, TAG_ALG, TAG_ALG),
    )
    pattern = patterns[seed % len(patterns)]
    pieces = []
    for tag in pattern:
        arity = rng.randint(1, 2)
        pieces.append(random_piece(rng, GRADED, arity, tag=tag))
    assert linfty._jacobi_sum(GRADED, pieces)[0].is_zero()


def test_jacobi_five_inputs_supporting_twist():
    # the five-input identities behind the square-zero twist
    alpha = rbs_alpha(operator(2, 0, 0, 0), operator(0, 0, 0, 3))
    M, G, H = alpha.parts[TAG_ALG][2], alpha.parts[TAG_R][1], alpha.parts[TAG_S][1]
    x = alg_piece(2, {("v1", "v2"): {"v1": 1}})
    for ops in itertools.combinations_with_replacement((TAG_R, TAG_S), 3):
        pieces = [Piece(TAG_ALG, M), x] + [
            Piece(tag, G if tag == TAG_R else H) for tag in ops
        ]
        assert linfty._jacobi_sum(PLANE, pieces)[0].is_zero()


def test_verify_report_shape():
    report = verify_generalized_jacobi(dim=2, truncation=2, trials=25, seed=11)
    assert report["ok"] is True
    assert report["failures"] == []
    assert report["trials"] == 25
    assert report["active"] >= 1
    assert report["max_inputs"] == 4


def test_verify_validation():
    with pytest.raises(ValueError):
        verify_generalized_jacobi(dim=0)
    with pytest.raises(ValueError):
        verify_generalized_jacobi(truncation=0)
    # on a line, arity-1 cochains are scalars and every bracket vanishes
    with pytest.raises(ValueError, match="nothing to check"):
        verify_generalized_jacobi(dim=1, truncation=1)
    # a plane at truncation 1 still has noncommuting arity-1 cochains
    report = verify_generalized_jacobi(dim=2, truncation=1, trials=30, seed=0)
    assert report["ok"] is True and report["active"] > 0
