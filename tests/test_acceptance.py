"""Acceptance suite: nine criteria, one test and one printed verdict each.

The criteria cover the two free resolutions and their differentials, the
homotopy contraction, the classical and homotopy Yang-Baxter / Rota-Baxter
correspondences, the small-index expansions, the bracket laws of the
deformation complex, the Maurer-Cartan characterization with its twisted
differential, and the degenerate-case consistency of the residual
formulas.  Every comparison is exact over the rationals; run with ``-s``
to see the per-criterion verdict lines.
"""

import itertools
import random
from contextlib import contextmanager
from fractions import Fraction

from rbsinfty.graded import (
    BasedAlgebra,
    GradedSpace,
    MatrixAlgebra,
    MultiMap,
    TensorElem,
    raise_indices,
    tensor_product_multiply,
)
from rbsinfty.linfty import (
    TAG_ALG,
    TAG_R,
    TAG_S,
    classical_cochain,
    l_bracket,
    mc_residual,
    random_piece,
    twist_square_defects,
    verify_generalized_jacobi,
)
from rbsinfty.minimal_model import check_d_squared
from rbsinfty.monomial_model import check_homotopy, diff_bar
from rbsinfty.residuals import (
    HomotopyRBS,
    check_classical_rbs,
    hrbs_residual_R,
    hrbs_residual_S,
)
from rbsinfty.sampling import random_multimap
from rbsinfty.signs import koszul_chi
from rbsinfty.trees import brace, gen, leading_monomial
from rbsinfty.yang_baxter import (
    F_map,
    InfinityYBPair,
    YBPair,
    check_classical_ybp,
    check_infinity_ybp,
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
    is_dg,
    random_tensor,
)

PLANE = GradedSpace([("v1", 0), ("v2", 0)])
UNGRADED_M2 = MatrixAlgebra(PLANE)
UNGRADED_M3 = MatrixAlgebra(GradedSpace([("v1", 0), ("v2", 0), ("v3", 0)]))
GRADED_M2 = MatrixAlgebra(GradedSpace([("v1", 0), ("v2", 1)]))

ONE = Fraction(1)


@contextmanager
def _criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"criterion {number}: FAIL - {description}")
        raise
    print(f"criterion {number}: PASS - {description}")


# -- criterion 1 ------------------------------------------------------------------


def test_criterion_1_first_presentation_differential_squares_to_zero():
    with _criterion(1, "d^2 = 0 on m_2..m_6, R_1..R_6, S_1..S_6"):
        report = check_d_squared(("m", "R", "S"), 6)
        outcomes = {r["generator"]: r["ok"] for r in report["results"]}
        expected = (
            {f"m{n}" for n in range(2, 7)}
            | {f"R{n}" for n in range(1, 7)}
            | {f"S{n}" for n in range(1, 7)}
        )
        assert set(outcomes) == expected
        assert all(outcomes.values())
        assert report["ok"]


# -- criterion 2 ------------------------------------------------------------------


def test_criterion_2_second_presentation_and_pre_jacobi():
    with _criterion(
        2, "d^2 = 0 on x_2..x_6, y_1..y_6, z_1..z_6; pre-Jacobi on small triples"
    ):
        report = check_d_squared(("x", "y", "z"), 6)
        outcomes = {r["generator"]: r["ok"] for r in report["results"]}
        expected = (
            {f"x{n}" for n in range(2, 7)}
            | {f"y{n}" for n in range(1, 7)}
            | {f"z{n}" for n in range(1, 7)}
        )
        assert set(outcomes) == expected
        assert all(outcomes.values())

        # standalone sub-suite: the brace form of the pre-Jacobi identity on
        # every triple of generators of arity <= 3
        small = [gen("x", n) for n in (2, 3)]
        small += [gen(f, n) for f in ("y", "z") for n in (1, 2, 3)]
        triples = 0
        for a, b, c in itertools.product(small, repeat=3):
            sign = (-1) ** (b.degree * c.degree)
            lhs = brace(brace(a, [b]), [c])
            rhs = brace(a, [brace(b, [c])]) + brace(a, [b, c]) + sign * brace(
                a, [c, b]
            )
            assert lhs == rhs, (a, b, c)
            triples += 1
        assert triples == len(small) ** 3 == 512


# -- criterion 3 ------------------------------------------------------------------


def test_criterion_3_contraction_identity_and_unit_leading_terms():
    with _criterion(
        3, "dH + Hd = Id on arity <= 4, weight <= 5; unit leading terms to arity 6"
    ):
        report = check_homotopy(4, 5)
        assert report["ok"]
        assert report["failures"] == []
        assert report["checked"] > 10_000

        trivial = {("m", 2), ("R", 1), ("S", 1)}
        for fam, lo in (("m", 2), ("R", 1), ("S", 1)):
            for n in range(lo, 7):
                image = diff_bar(gen(fam, n))
                if image.is_zero():
                    # only the arity-minimal generators are cycles
                    assert (fam, n) in trivial
                    continue
                _, coeff = leading_monomial(image)
                assert coeff in (ONE, -ONE), (fam, n, coeff)


# -- criterion 4 ------------------------------------------------------------------


def test_criterion_4_classical_correspondence():
    with _criterion(
        4, "tensor/operator correspondence: fixture, round trips, vanishing"
    ):
        # (a) the square-zero fixture passes the tensor equations, and its
        # operator image satisfies both system identities on every basis pair
        nil = TensorElem(UNGRADED_M2, 2, {("e1^2", "e1^2"): ONE})
        pair = YBPair(nil, nil)
        res_r, res_s = check_classical_ybp(pair)
        assert res_r.is_zero() and res_s.is_zero()
        R, S = ybp_to_rbs(pair)
        op_r, op_s = check_classical_rbs(UNGRADED_M2, R, S)
        basis_pairs = 0
        for a, b in itertools.product(UNGRADED_M2.space, repeat=2):
            assert not op_r.evaluate((a, b))
            assert not op_s.evaluate((a, b))
            basis_pairs += 1
        assert basis_pairs == 16

        # (b) both round trips are exact for 20 random assignments on each of
        # the two matrix algebras
        for algebra, seed in ((UNGRADED_M2, 41), (UNGRADED_M3, 42)):
            rng = random.Random(seed)
            space = algebra.space
            for _ in range(20):
                R1 = random_multimap(rng, space, space, 1, 0, density=0.7)
                S1 = random_multimap(rng, space, space, 1, 0, density=0.7)
                tensors = rbs_to_ybp(R1, S1, algebra)
                R2, S2 = ybp_to_rbs(tensors)
                assert R2 == R1 and S2 == S1

                t = YBPair(
                    random_tensor(rng, algebra, 2, density=0.5),
                    random_tensor(rng, algebra, 2, density=0.5),
                )
                Ra, Sa = ybp_to_rbs(t)
                back = rbs_to_ybp(Ra, Sa, algebra)
                assert back.r == t.r and back.s == t.s

        # (c) residual vanishing transports across the correspondence
        rng = random.Random(43)
        vanishing = failing = 0
        for trial in range(50):
            if trial % 5 == 0:
                scale = Fraction(rng.randrange(1, 9), rng.randrange(1, 5))
                seed_tensor = TensorElem(UNGRADED_M2, 2, {("e1^2", "e1^2"): scale})
                t = YBPair(seed_tensor, seed_tensor)
            elif trial % 5 == 1:
                t = YBPair(
                    TensorElem.zero(UNGRADED_M2, 2), TensorElem.zero(UNGRADED_M2, 2)
                )
            else:
                t = YBPair(
                    random_tensor(rng, UNGRADED_M2, 2, density=0.5),
                    random_tensor(rng, UNGRADED_M2, 2, density=0.5),
                )
            tr, ts = check_classical_ybp(t)
            tensor_ok = tr.is_zero() and ts.is_zero()
            Rc, Sc = ybp_to_rbs(t)
            orr, ors = check_classical_rbs(UNGRADED_M2, Rc, Sc)
            operator_ok = orr.is_zero() and ors.is_zero()
            assert tensor_ok == operator_ok, trial
            vanishing += tensor_ok
            failing += not tensor_ok
        assert vanishing >= 10 and failing >= 10


# -- criterion 5 ------------------------------------------------------------------


def _random_infinity_pair(rng, algebra, truncation=3):
    d = random_tensor(rng, algebra, 1, degree=-1, density=0.9)
    families = {"r": {1: d}, "s": {1: d}}
    for name in ("r", "s"):
        for order in range(2, truncation + 1):
            families[name][order] = random_tensor(
                rng, algebra, order, degree=order - 2, density=0.5
            )
    return InfinityYBPair(
        algebra, r=families["r"], s=families["s"], truncation=truncation
    )


def test_criterion_5_homotopy_correspondence():
    with _criterion(
        5, "higher residual vanishing transports; the four decomposition identities"
    ):
        algebra = GRADED_M2
        d_unit = TensorElem(algebra, 1, {("e1^2",): ONE})
        rng = random.Random(51)
        samples = []
        for trial in range(24):
            if trial % 4 == 0:
                # differential-only pairs are genuine homotopy pairs
                d = Fraction(rng.randrange(0, 5)) * d_unit
                samples.append(
                    InfinityYBPair(algebra, r={1: d}, s={1: d}, truncation=3)
                )
            else:
                samples.append(_random_infinity_pair(rng, algebra))
        assert len(samples) >= 20

        vanishing = failing = 0
        for pair in samples:
            tensor_ok = True
            for n in range(pair.truncation):
                rr, rs = check_infinity_ybp(pair, n)
                tensor_ok = tensor_ok and rr.is_zero() and rs.is_zero()
            image = chi_map(pair)
            operator_ok = all(
                dga_residual_R(image, n).is_zero()
                and dga_residual_S(image, n).is_zero()
                for n in range(1, image.truncation + 1)
            )
            assert tensor_ok == operator_ok
            vanishing += tensor_ok
            failing += not tensor_ok

            for n in (1, 2, 3):
                for family in ("r", "s"):
                    for identity in (
                        equivalence_identity_1,
                        equivalence_identity_2,
                        equivalence_identity_3,
                        equivalence_identity_4,
                    ):
                        map_side, tensor_side = identity(pair, n, family)
                        assert F_map(tensor_side) == map_side, (
                            identity.__name__,
                            n,
                            family,
                        )
        assert vanishing >= 4 and failing >= 10


# -- criterion 6 ------------------------------------------------------------------


def _independent_square(d):
    """The product d*d computed entrywise through the algebra, bypassing the
    tensor-product machinery used by the residual implementation."""
    algebra = d.algebra
    table = {}
    for (x,), cx in d.items():
        for (y,), cy in d.items():
            for name, c in algebra.product_map().evaluate((x, y)).items():
                table[(name,)] = table.get((name,), Fraction(0)) + cx * cy * c
    return TensorElem(algebra, 1, {k: v for k, v in table.items() if v})


def _closed_cycle_form(d, t2):
    """-( (d^1 + d^2) t2 - t2 (d^1 + d^2) ), the displayed boundary of t2."""
    D = raise_indices(d, (1,), 2) + raise_indices(d, (2,), 2)
    return -(tensor_product_multiply(D, t2) - tensor_product_multiply(t2, D))


def _degree_zero_order2_basis(algebra):
    space = algebra.space
    out = []
    for combo in itertools.product(space, repeat=2):
        if sum(space.degree(x) for x in combo) == 0:
            out.append(TensorElem(algebra, 2, {combo: ONE}))
    return out


def test_criterion_6_small_index_expansions():
    with _criterion(
        6, "index 0 is d*d; index 1 the closed-cycle condition; index 2 the classical equations"
    ):
        algebra = GRADED_M2
        d = TensorElem(algebra, 1, {("e1^2",): ONE})

        # index 0: the residual is the square of the differential, for the
        # basis element and for scaled variants
        for scale in (ONE, Fraction(3), Fraction(-5, 2)):
            dd = scale * d
            pair = InfinityYBPair(algebra, r={1: dd}, s={1: dd}, truncation=1)
            out_r, out_s = check_infinity_ybp(pair, 0)
            square = _independent_square(dd)
            assert out_r == square and out_s == square

        # index 1: the residual is exactly the negated closed-cycle form,
        # verified on every degree-0 basis tensor in each slot (the relation
        # is multilinear, so basis exhaustion proves it as an identity of
        # expressions over this algebra)
        basis = _degree_zero_order2_basis(algebra)
        assert len(basis) == 6
        for r2 in basis:
            for s2 in basis:
                pair = InfinityYBPair(
                    algebra, r={1: d, 2: r2}, s={1: d, 2: s2}, truncation=2
                )
                out_r, out_s = check_infinity_ybp(pair, 1)
                assert out_r == -1 * _closed_cycle_form(d, r2)
                assert out_s == -1 * _closed_cycle_form(d, s2)
        rng = random.Random(61)
        for _ in range(5):
            dd = random_tensor(rng, algebra, 1, degree=-1, density=1.0)
            r2 = random_tensor(rng, algebra, 2, degree=0, density=0.7)
            s2 = random_tensor(rng, algebra, 2, degree=0, density=0.7)
            pair = InfinityYBPair(
                algebra, r={1: dd, 2: r2}, s={1: dd, 2: s2}, truncation=2
            )
            out_r, out_s = check_infinity_ybp(pair, 1)
            assert out_r == -1 * _closed_cycle_form(dd, r2)
            assert out_s == -1 * _closed_cycle_form(dd, s2)

        # index 2 with vanishing order-3 members: the residual equals the
        # classical coupled-equation residual.  Both sides are quadratic in
        # the pair, so agreement on every basis vector and every sum of two
        # basis vectors (polarization) is agreement of the expressions.
        joint = [("r", b) for b in basis] + [("s", b) for b in basis]
        assignments = [[v] for v in joint]
        assignments += [
            [joint[i], joint[j]]
            for i in range(len(joint))
            for j in range(i + 1, len(joint))
        ]
        for dd in (TensorElem.zero(algebra, 1), d):
            for chosen in assignments:
                r2 = TensorElem.zero(algebra, 2)
                s2 = TensorElem.zero(algebra, 2)
                for family, b in chosen:
                    if family == "r":
                        r2 = r2 + b
                    else:
                        s2 = s2 + b
                fam_r, fam_s = {2: r2}, {2: s2}
                if not dd.is_zero():
                    fam_r[1] = dd
                    fam_s[1] = dd
                pair = InfinityYBPair(algebra, r=fam_r, s=fam_s, truncation=3)
                out_r, out_s = check_infinity_ybp(pair, 2)
                cls_r, cls_s = check_classical_ybp(YBPair(r2, s2))
                assert out_r == cls_r and out_s == cls_s


# -- criterion 7 ------------------------------------------------------------------


def _permutations_with_signs(pieces):
    degs = tuple(p.degree for p in pieces)
    for sigma in itertools.permutations(range(1, len(pieces) + 1)):
        yield sigma, koszul_chi(sigma, degs)


def test_criterion_7_bracket_laws():
    with _criterion(
        7, "generalized Jacobi on 120 random tuples; symmetry signs; forced vanishing"
    ):
        report = verify_generalized_jacobi(dim=2, truncation=3, trials=120, seed=7)
        assert report["ok"]
        assert report["trials"] >= 100
        assert report["failures"] == []
        assert report["active"] >= 10

        space = GradedSpace([("w1", 0), ("w2", 1)])
        rng = random.Random(71)

        # symmetry: permuting the inputs multiplies the bracket by the sign
        # the degree sequence dictates
        shapes = [
            ((TAG_ALG, 2), (TAG_ALG, 2)),
            ((TAG_ALG, 1), (TAG_R, 1)),
            ((TAG_ALG, 2), (TAG_R, 1), (TAG_S, 1)),
            ((TAG_ALG, 2), (TAG_R, 1), (TAG_R, 1)),
        ]
        active = 0
        for trial in range(40):
            tag_arities = shapes[trial % len(shapes)]
            pieces = [
                random_piece(rng, space, arity, tag=tag) for tag, arity in tag_arities
            ]
            base = l_bracket(space, pieces)
            if not base.is_zero():
                active += 1
            for sigma, chi in _permutations_with_signs(pieces):
                permuted = [pieces[k - 1] for k in sigma]
                assert l_bracket(space, permuted) == chi * base, (trial, sigma)
        assert active >= 15

        # forced vanishing: no algebra component, several algebra components
        # on three or more inputs, or an arity mismatch
        vanish_shapes = [
            ((TAG_R, 1), (TAG_S, 1)),
            ((TAG_R, 2), (TAG_R, 1), (TAG_S, 1)),
            ((TAG_ALG, 2), (TAG_ALG, 2), (TAG_R, 1)),
            ((TAG_ALG, 2), (TAG_ALG, 1), (TAG_ALG, 2)),
            ((TAG_ALG, 3), (TAG_R, 1), (TAG_S, 1)),  # needs arity 2, has 3
            ((TAG_ALG, 1), (TAG_R, 1), (TAG_S, 2)),
        ]
        for trial in range(30):
            tag_arities = vanish_shapes[trial % len(vanish_shapes)]
            pieces = [
                random_piece(rng, space, arity, tag=tag) for tag, arity in tag_arities
            ]
            assert l_bracket(space, pieces).is_zero(), trial


# -- criterion 8 ------------------------------------------------------------------


def _identity_operator(space):
    return MultiMap(space, space, 1, 0, {(n,): {n: ONE} for n in space})


def test_criterion_8_maurer_cartan_characterizes_systems():
    with _criterion(
        8, "systems give vanishing MC residual and square-zero twists; perturbations do not"
    ):
        diagonal = BasedAlgebra(
            PLANE,
            {("v1", "v1"): {"v1": 1}, ("v2", "v2"): {"v2": 1}},
            {"v1": 1, "v2": 1},
        )

        def diag_op(a, b):
            table = {}
            if a:
                table[("v1",)] = {"v1": Fraction(a)}
            if b:
                table[("v2",)] = {"v2": Fraction(b)}
            return MultiMap(PLANE, PLANE, 1, 0, table)

        nil = TensorElem(UNGRADED_M2, 2, {("e1^2", "e1^2"): ONE})
        nil_R, nil_S = ybp_to_rbs(YBPair(nil, nil))
        end = UNGRADED_M2.space

        fixtures = [
            (diagonal, diag_op(2, 0), diag_op(0, 3)),
            (diagonal, diag_op(1, 0), diag_op(0, 1)),
            (diagonal, diag_op(-5, 0), diag_op(0, 7)),
            (diagonal, _identity_operator(PLANE), diag_op(0, 0)),
            (diagonal, diag_op(0, 0), _identity_operator(PLANE)),
            (diagonal, diag_op(0, 0), diag_op(0, 0)),
            (UNGRADED_M2, nil_R, nil_S),
            (UNGRADED_M2, _identity_operator(end), MultiMap.zero(end, end, 1, 0)),
            (UNGRADED_M2, MultiMap.zero(end, end, 1, 0), MultiMap.zero(end, end, 1, 0)),
        ]
        for algebra, R, S in fixtures:
            res_r, res_s = check_classical_rbs(algebra, R, S)
            assert res_r.is_zero() and res_s.is_zero()
            alpha = classical_cochain(algebra.product_map(), R, S, truncation=3)
            assert mc_residual(alpha).is_zero()
            twist = twist_square_defects(alpha, max_arity=2)
            assert twist["ok"] and twist["checked"] >= 36

        rng = random.Random(81)
        confirmed = attempts = 0
        while confirmed < 20:
            attempts += 1
            assert attempts < 200
            if confirmed % 2 == 0:
                algebra, base_R, base_S = diagonal, fixtures[0][1], fixtures[0][2]
            else:
                algebra, base_R, base_S = UNGRADED_M2, nil_R, nil_S
            space = algebra.space
            R = base_R + random_multimap(rng, space, space, 1, 0, density=0.4)
            S = base_S + random_multimap(rng, space, space, 1, 0, density=0.4)
            res_r, res_s = check_classical_rbs(algebra, R, S)
            if res_r.is_zero() and res_s.is_zero():
                continue  # the perturbation happened to preserve the system
            alpha = classical_cochain(algebra.product_map(), R, S, truncation=3)
            assert not mc_residual(alpha).is_zero()
            confirmed += 1


# -- criterion 9 ------------------------------------------------------------------


def test_criterion_9_degenerate_residuals_agree():
    with _criterion(
        9, "specialized residuals equal general residuals without higher products"
    ):
        space = GradedSpace([("w1", 0), ("w2", 1), ("w3", 2)])
        rng = random.Random(91)
        structures = 0
        for _ in range(22):
            m = {}
            m1 = random_multimap(rng, space, space, 1, -1, density=0.8)
            m2 = random_multimap(rng, space, space, 2, 0, density=0.8)
            if not m1.is_zero():
                m[1] = m1
            if not m2.is_zero():
                m[2] = m2
            r, s = {}, {}
            for n in (1, 2, 3):
                rn = random_multimap(rng, space, space, n, n - 1, density=0.6)
                sn = random_multimap(rng, space, space, n, n - 1, density=0.6)
                if not rn.is_zero():
                    r[n] = rn
                if not sn.is_zero():
                    s[n] = sn
            structure = HomotopyRBS(space, m=m, r=r, s=s, truncation=3)
            assert is_dg(structure)
            for n in (1, 2, 3):
                assert dga_residual_R(structure, n) == hrbs_residual_R(structure, n)
                assert dga_residual_S(structure, n) == hrbs_residual_S(structure, n)
            structures += 1
        assert structures >= 20
