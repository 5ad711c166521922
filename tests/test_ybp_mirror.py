"""The R <-> S mirror of a homotopy Yang-Baxter pair.

The mirror θ reverses an order-k tensor, with the Koszul sign of the
reversal and the sign (-1)^(k(k-1)/2) of the reversal of k places:

    θ(a_1 (x) ... (x) a_k) = (-1)^(k(k-1)/2 + sum_{i<j} |a_i||a_j|) a_k (x) ... (x) a_1.

The mirror of a pair (r_n, s_n) over A is the pair (θ s_n, θ r_n) over the
opposite algebra A^op, a ·op b = (-1)^(|a||b|) b·a, with the same unit; its
r_1 = s_1 is d again.  At every index n the defects of the mirrored pair are
those of the pair, mirrored, swapped and negated:

    check_infinity_ybp(mirror, n) = (-θ S_n, -θ R_n),  (R_n, S_n) = check_infinity_ybp(pair, n).

At n = 0 this is d ·op d = -d·d for d of degree -1.  The pairs are seeded
and random, over End(V) for V of degrees (0, 1) and (-1, 0, 1), and over a
matrix algebra on a rescaled basis whose structure constants and unit have
denominators, at truncation 4.  This is an oracle for `compose_row` that
shares nothing with it but the residual's terms: every composition is made
in another algebra, on reversed tensors.
"""

import itertools
import random
from fractions import Fraction

import pytest

from rbsinfty.graded import BasedAlgebra, GradedSpace, MatrixAlgebra, TensorElem
from rbsinfty.signs import parity_sign
from rbsinfty.yang_baxter import InfinityYBPair, check_infinity_ybp
from oracles import is_associative, is_unital, random_tensor

COEFFICIENTS = tuple(Fraction(x) for x in ("1/2", "-1", "2/3", "3"))
TRUNCATION = 4


def _opposite(algebra):
    degree = algebra.space.degree
    products = {
        (b, a): {c: parity_sign(degree(a) * degree(b)) * v for c, v in outs.items()}
        for (a, b), outs in algebra.product_map().items()
    }
    unit = {name: c for (name,), c in algebra.unit.items()}
    return BasedAlgebra(algebra.space, products, unit)


def _mirror(t, algebra):
    """θ(t), a tensor over ``algebra``."""
    degree = algebra.space.degree
    k = t.order
    rows = {}
    for factors, c in t.items():
        koszul = sum(degree(x) * degree(y) for x, y in itertools.combinations(factors, 2))
        rows[factors[::-1]] = parity_sign(k * (k - 1) // 2 + koszul) * c
    return TensorElem(algebra, k, rows)


def _rescaled(V, rng):
    """End(V) on the basis f_a = s_a e_a, s_a random rationals."""
    M = MatrixAlgebra(V)
    scale = {name: rng.choice(COEFFICIENTS) for name in M.space.names}
    products = {
        (a, b): {c: scale[a] * scale[b] / scale[c] * v for c, v in outs.items()}
        for (a, b), outs in M.product_map().items()
    }
    unit = {name: 1 / scale[name] for (name,), _ in M.unit.items()}
    return BasedAlgebra(M.space, products, unit)


def _space(*degrees):
    return GradedSpace([(f"v{k}", d) for k, d in enumerate(degrees, 1)])


ALGEBRAS = {
    "End(0,1)": lambda rng: MatrixAlgebra(_space(0, 1)),
    "End(-1,0,1)": lambda rng: MatrixAlgebra(_space(-1, 0, 1)),
    "rescaled End(0,1)": lambda rng: _rescaled(_space(0, 1), rng),
}


def _pair(algebra, rng):
    dense = algebra.space.dim <= 4
    d = random_tensor(rng, algebra, 1, -1, 0.9, COEFFICIENTS)
    families = {}
    for key in "rs":
        families[key] = {1: d}
        for n in range(2, TRUNCATION + 1):
            density = {2: 0.5, 3: 0.3, 4: 0.15}[n] if dense else {2: 0.3, 3: 0.05, 4: 0.004}[n]
            families[key][n] = random_tensor(rng, algebra, n, n - 2, density, COEFFICIENTS)
    return InfinityYBPair(algebra, r=families["r"], s=families["s"], truncation=TRUNCATION)


@pytest.mark.parametrize("name", sorted(ALGEBRAS))
def test_the_mirrored_pair_has_the_mirrored_defects_negated(name):
    compared, nonzero = 0, [0] * TRUNCATION
    for seed in range(3):
        rng = random.Random(f"mirror:{name}:{seed}")
        algebra = ALGEBRAS[name](rng)
        opposite = _opposite(algebra)
        assert is_associative(opposite) and is_unital(opposite)
        pair = _pair(algebra, rng)
        mirrored = InfinityYBPair(
            opposite,
            r={n: _mirror(t, opposite) for n, t in pair.s.items()},
            s={n: _mirror(t, opposite) for n, t in pair.r.items()},
            truncation=TRUNCATION,
        )
        for n in range(TRUNCATION):
            R, S = check_infinity_ybp(pair, n)
            R_mirror, S_mirror = check_infinity_ybp(mirrored, n)
            for got, defect in ((S_mirror, R), (R_mirror, S)):
                assert got == -_mirror(defect, opposite), (seed, n)
                compared += 1
                nonzero[n] += not defect.is_zero()
    # d² may vanish (it does on End(0, 1)); every higher index is compared
    # on nonzero defects
    assert sum(nonzero) > 0.7 * compared and all(nonzero[1:]), (nonzero, compared)


def test_the_mirror_is_an_involution_and_the_opposite_of_the_opposite_is_the_algebra():
    rng = random.Random("involution")
    algebra = _rescaled(_space(-1, 0, 1), rng)
    opposite = _opposite(algebra)
    assert _opposite(opposite) == algebra
    for order in (1, 2, 3):
        t = random_tensor(rng, algebra, order, None, 0.2, COEFFICIENTS)
        assert _mirror(_mirror(t, opposite), algebra) == t
