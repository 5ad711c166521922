"""The path-walking Yang-Baxter dictionary side by side with the dense loop
it replaced, and the paper's equivalence one order higher.

The oracle below is `F_map` and `F_inverse` as they were: `_dense_F_map`
visits every input tuple of every factor tuple and multiplies along it in
`Fraction`s, and `_dense_F_inverse` splits every basis name of every entry.
The inputs are End(V) for V = (0, 0), (0, 0, 0), (0, 1) and (-1, 0, 2),
and a graded algebra that is not a matrix algebra, whose structure
constants have denominators and products with more than one term; the
coefficients have denominators 2 and 3.
"""

import itertools
import random
from fractions import Fraction

import pytest

from rbsinfty.graded import BasedAlgebra, GradedSpace, MatrixAlgebra, MultiMap, TensorElem
from rbsinfty.sampling import random_multimap
from rbsinfty.signs import parity_sign
from rbsinfty.yang_baxter import (
    F_inverse,
    F_map,
    InfinityYBPair,
)
from oracles import (
    equivalence_identity_1,
    equivalence_identity_2,
    equivalence_identity_3,
    equivalence_identity_4,
    is_associative,
    is_unital,
    random_tensor,
)

COEFFICIENTS = tuple(Fraction(x) for x in ("1/2", "-2/3", "1", "-3", "5/6"))


# -- the dense dictionary ----------------------------------------------------------


def _dense_sign(space, factors, xs):
    return parity_sign(
        sum(
            space.degree(x) * sum(space.degree(a) for a in factors[k + 1 :])
            for k, x in enumerate(xs)
        )
    )


def _dense_F_map(t):
    """One term per input tuple and path, multiplied from scratch."""
    algebra = t.algebra
    space = algebra.space
    n = t.order - 1
    degree = t.homogeneous_degree()
    if degree is None:
        return MultiMap.zero(space, space, n, 0)
    rows = []
    for factors, coeff in t.items():
        for xs in itertools.product(space.names, repeat=n):
            terms = [(factors[0], _dense_sign(space, factors, xs) * coeff)]
            for b in itertools.chain.from_iterable(zip(xs, factors[1:])):
                terms = [
                    (c, v * w)
                    for a, v in terms
                    for c, w in algebra.product_map().evaluate((a, b)).items()
                ]
            rows += [(xs, {c: v}) for c, v in terms]
    return MultiMap(space, space, n, degree, rows)


def _dense_F_inverse(f, algebra):
    """The tensor read off f entry by entry, splitting every basis name."""
    space = algebra.space
    terms = []
    for ins, outs in f.items():
        us = [MatrixAlgebra.unit_indices(x)[0] for x in ins]
        vs = [MatrixAlgebra.unit_indices(x)[1] for x in ins]
        for out, coeff in outs.items():
            q0, p_last = MatrixAlgebra.unit_indices(out)
            factors = tuple(
                MatrixAlgebra.unit_name(q, p) for q, p in zip([q0] + vs, us + [p_last])
            )
            terms.append((factors, _dense_sign(space, factors, ins) * coeff))
    return TensorElem(algebra, f.arity + 1, terms)


# -- the algebras --------------------------------------------------------------------


def _end(*degrees):
    return MatrixAlgebra(GradedSpace([(f"v{k}", d) for k, d in enumerate(degrees, 1)]))


def _twisted_group_algebra():
    """Q[Z/2] (x) Λ(ξ), |ξ| = 1, on the basis b1, b2 (degree 0) and b3, b4
    (degree 1) given in g^i ξ^j by rational 2x2 blocks, so that products
    have several terms and denominators."""
    old = [(0, 0), (1, 0), (0, 1), (1, 1)]  # g^i ξ^j
    blocks = [
        [[Fraction(1, 2), Fraction(1)], [Fraction(1, 3), Fraction(-1)]],
        [[Fraction(2), Fraction(1, 3)], [Fraction(1), Fraction(-1, 2)]],
    ]
    basis = {}  # new name -> {old monomial: coefficient}
    inverse = {}  # old monomial -> {new name: coefficient}
    for block, (a, b) in zip(blocks, ((0, 1), (2, 3))):
        (p, q), (r, s) = block
        det = p * s - q * r
        names = (f"b{a + 1}", f"b{b + 1}")
        basis[names[0]] = {old[a]: p, old[b]: q}
        basis[names[1]] = {old[a]: r, old[b]: s}
        inverse[old[a]] = {names[0]: s / det, names[1]: -q / det}
        inverse[old[b]] = {names[0]: -r / det, names[1]: p / det}

    def in_new_basis(element):
        out = {}
        for monomial, c in element.items():
            for name, w in inverse[monomial].items():
                out[name] = out.get(name, 0) + c * w
        return {name: c for name, c in out.items() if c}

    products = {}
    for x, y in itertools.product(basis, repeat=2):
        product = {}
        for (i, j), c in basis[x].items():
            for (k, l), d in basis[y].items():
                if j + l < 2:
                    monomial = ((i + k) % 2, j + l)
                    product[monomial] = product.get(monomial, 0) + c * d
        products[x, y] = in_new_basis(product)
    space = GradedSpace([("b1", 0), ("b2", 0), ("b3", 1), ("b4", 1)])
    return BasedAlgebra(space, products, in_new_basis({(0, 0): Fraction(1)}))


def test_the_non_matrix_algebra_needs_its_own_denominator():
    algebra = _twisted_group_algebra()
    assert is_associative(algebra) and is_unital(algebra)
    q, products, right = algebra._integer_index()
    assert q > 1
    assert max(len(row) for row in products.values()) > 1
    assert algebra._integer_index() is algebra._integer_index()  # kept
    assert sum(map(len, right.values())) == len(algebra.product_map().rows)


# -- side by side ----------------------------------------------------------------------


ALGEBRAS = {
    "M2": _end(0, 0),
    "M3": _end(0, 0, 0),
    "End(0,1)": _end(0, 1),
    "End(-1,0,2)": _end(-1, 0, 2),
    "twisted": _twisted_group_algebra(),
}
# densities that keep the dense loop on the 9-dimensional algebras short
DENSITY = {2: 0.6, 3: 0.2, 4: 0.005}


def _graded(space):
    return any(map(space.degree, space.names))


def _tensors(name, order):
    algebra = ALGEBRAS[name]
    rng = random.Random(f"{name}-{order}")
    density = DENSITY[order] if algebra.space.dim > 4 else 0.5
    yield TensorElem.zero(algebra, order)
    for degree in (order - 2, 1, 0) if _graded(algebra.space) else (0, 0, 0):
        yield random_tensor(rng, algebra, order, degree, density, COEFFICIENTS)


@pytest.mark.parametrize("order", (2, 3, 4))
@pytest.mark.parametrize("name", sorted(ALGEBRAS))
def test_f_map_walks_the_same_paths_as_the_dense_loop(name, order):
    nonzero = 0
    for t in _tensors(name, order):
        f = F_map(t)
        assert f == _dense_F_map(t)
        assert f.arity == order - 1
        nonzero += not f.is_zero()
    assert nonzero >= 2


@pytest.mark.parametrize("arity", (1, 2, 3))
@pytest.mark.parametrize("name", ["M2", "M3", "End(0,1)", "End(-1,0,2)"])
def test_f_inverse_reads_the_same_tensor_as_the_dense_loop(name, arity):
    algebra = ALGEBRAS[name]
    space = algebra.space
    rng = random.Random(f"{name}-{arity}")
    density = 0.05 if space.dim ** arity > 100 else 0.5
    maps = [MultiMap.zero(space, space, arity, 0)]
    maps += [
        random_multimap(rng, space, space, arity, degree, density, COEFFICIENTS)
        for degree in ((-1, 0, arity - 1) if _graded(space) else (0, 0, 0))
    ]
    assert sum(not f.is_zero() for f in maps) >= 2
    for f in maps:
        t = F_inverse(f, algebra)
        assert t == _dense_F_inverse(f, algebra)
        assert F_map(t) == f


def _dense(algebra, order, degree, seed):
    rng = random.Random(seed)
    space = algebra.space
    table = {
        factors: rng.choice(COEFFICIENTS)
        for factors in itertools.product(space.names, repeat=order)
        if sum(map(space.degree, factors)) == degree
    }
    return TensorElem(algebra, order, table)


@pytest.mark.parametrize(
    "algebra, order, degree",
    [
        (_end(0, 0), 5, 0),
        (_end(0, 1), 5, 3),
        (_end(0, 0, 0), 3, 0),
        (_end(0, 1, 2), 3, 1),
    ],
    ids=["M2-order-5", "End(0,1)-order-5", "M3-order-3", "End(0,1,2)-order-3"],
)
def test_dense_tensors_round_trip(algebra, order, degree):
    t = _dense(algebra, order, degree, seed=order)
    assert len(t.rows) >= 20
    assert F_inverse(F_map(t), algebra) == t


# -- the equivalence one order higher ----------------------------------------------


def _pair(seed, truncation=5):
    algebra = _end(0, 1)
    rng = random.Random(seed)
    d = random_tensor(rng, algebra, 1, degree=-1, density=0.9)
    families = {}
    for name in ("r", "s"):
        families[name] = {1: d}
        for order in range(2, truncation + 1):
            families[name][order] = random_tensor(
                rng, algebra, order, degree=order - 2, density=0.5
            )
    return InfinityYBPair(algebra, r=families["r"], s=families["s"], truncation=truncation)


@pytest.mark.parametrize("seed", (0, 1))
@pytest.mark.parametrize("family", ["r", "s"])
def test_equivalence_identities_hold_at_index_4(seed, family):
    pair = _pair(seed)
    for identity in (
        equivalence_identity_1,
        equivalence_identity_2,
        equivalence_identity_3,
        equivalence_identity_4,
    ):
        map_side, tensor_side = identity(pair, 4, family)
        assert tensor_side.order == 5 and not tensor_side.is_zero()
        assert F_map(tensor_side) == map_side, (seed, family, identity.__name__)


# -- the one composition of the tensor operad ------------------------------------------


def _slot_step(algebra, t, i, u):
    """t o_i u as the slot step `InfinityYBPair.compose_at` made it before
    `compose_row` took it in: u's outer factors multiplied onto a_i and
    a_{i+1}, signed by u passing the factors right of the slot."""
    product, degrees = algebra.product_map().evaluate, algebra.space._degrees
    rows = []
    for a, ca in t.items():
        tail = sum(degrees[x] for x in a[i:])
        head, ai, aj, rest = a[: i - 1], a[i - 1], a[i], a[i + 1 :]
        for b, cb in u.items():
            odd = tail % 2 and sum(degrees[y] for y in b) % 2
            coeff = -ca * cb if odd else ca * cb
            middle = b[1:-1]
            for left, v in product((ai, b[0])).items():
                for right, w in product((b[-1], aj)).items():
                    rows.append((head + (left,) + middle + (right,) + rest, coeff * v * w))
    return TensorElem(algebra, t.order + u.order - 2, rows)


def _slot_fold(algebra, f, parts):
    """The row as the left-to-right fold of `_slot_step`, None an open slot."""
    i = 1
    for u in parts:
        if u is not None:
            f = _slot_step(algebra, f, i, u)
        i += 1 if u is None else u.order - 1
    return f


@pytest.mark.parametrize("name", ["End(0,1)", "End(-1,0,2)", "twisted"])
def test_tensor_compose_row_is_the_fold_of_the_slot_step(name):
    algebra = ALGEBRAS[name]
    pair = InfinityYBPair(algebra)
    rng = random.Random(f"row-{name}")
    small = algebra.space.dim <= 4

    def tensor(order, degree):
        density = ({2: 0.5, 3: 0.25, 4: 0.1} if small else {2: 0.4, 3: 0.1, 4: 0.03})[order]
        return random_tensor(rng, algebra, order, degree, density, COEFFICIENTS)

    # parts of both parities, one not homogeneous, a zero part and open slots
    pool = [None, TensorElem.zero(algebra, 2), tensor(2, 0), tensor(2, 1), tensor(3, 1)]
    pool.append(tensor(2, None))
    heads = [tensor(3, 0), tensor(3, 1), tensor(4, 1)]
    compared = nonzero = 0
    for f in heads:
        for parts in itertools.product(pool, repeat=f.order - 1):
            arity = f.order - 1 + sum(u.order - 2 for u in parts if u is not None)
            row = pair.sum(arity, None, [(1, pair.compose_row(f, parts))])
            assert row == _slot_fold(algebra, f, parts), (f, parts)
            compared += 1
            nonzero += not row.is_zero()
    assert compared == 2 * 6**2 + 6**3
    assert nonzero >= compared // 4, nonzero
