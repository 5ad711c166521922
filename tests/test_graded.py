"""Tests for graded spaces, sparse multilinear maps, and tensor algebra."""

import itertools
import random
from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import given, settings, strategies as st

from rbsinfty.graded import (
    BasedAlgebra,
    GradedSpace,
    MatrixAlgebra,
    MultiMap,
    TensorElem,
    _IntegerTable,
    _frac,
    _signed_rows,
    _slot_choices,
    brace_map,
    compose_tensor,
    raise_indices,
    tensor_product_multiply,
)
from rbsinfty.sampling import random_multimap
from oracles import insert, is_associative, is_unital, random_tensor

ONE = Fraction(1)


# ---------------------------------------------------------------------------
# graded spaces
# ---------------------------------------------------------------------------


def test_frac_refuses_an_exponent_before_reading_the_number():
    # Fraction would compute 10**999999999 here
    for value in ("1e999999999", "2E-999999999", "1.5e3"):
        with pytest.raises(ValueError, match="exponent"):
            _frac(value)
    assert _frac("-3/2") == Fraction(-3, 2)
    assert _frac("0.25") == Fraction(1, 4)
    # a word with an "e" in it is no exponent: Fraction's own error stands
    for value in ("three", "one", "none"):
        with pytest.raises(ValueError, match="Invalid literal"):
            _frac(value)


def test_frac_reads_digit_strings_as_fraction_does():
    for value in ("3", "-3", "0", "-0", "007", "1/2", "-1/2", "10/4", "007/010",
                  "+3", " 3", "3 ", "1_000", "1_0/3", "٣", "3/٣", "1.5"):
        got = _frac(value)
        assert got == Fraction(value) and type(got) is Fraction
    for value in ("3/0", "-3/00"):
        with pytest.raises(ValueError, match="zero denominator"):
            _frac(value)
    for value in ("3/-4", "1/2/3", "-", "", "/", "3/", "-/2", "²", "--3"):
        with pytest.raises(ValueError):
            _frac(value)


def test_random_multimap_draws_as_the_per_tuple_filter():
    # the draws of the sampler that filtered the outputs for every input
    # tuple: the same maps from the same seed, and the same generator state
    def per_tuple(rng, space_in, space_out, arity, degree, density):
        table = {}
        for ins in itertools.product(space_in.names, repeat=arity):
            target = sum(space_in.degree(n) for n in ins) + degree
            candidates = [n for n in space_out.names if space_out.degree(n) == target]
            if not candidates or rng.random() >= density:
                continue
            table[ins] = {rng.choice(candidates): rng.choice(
                [Fraction(-2), Fraction(-1), Fraction(1, 2), Fraction(1), Fraction(2)]
            )}
        return MultiMap(space_in, space_out, arity, degree, table)

    spaces = (
        GradedSpace([("a", 0), ("b", 1), ("c", 1), ("d", 2)]),
        GradedSpace([("x", -1), ("y", 0)]),
    )
    for seed, (space_in, space_out, arity, degree, density) in enumerate(
        (s, t, arity, degree, density)
        for s in spaces
        for t in spaces
        for arity in (1, 2, 3)
        for degree in (-1, 0, 1)
        for density in (0.5, 1.0)
    ):
        ours, theirs = random.Random(seed), random.Random(seed)
        got = random_multimap(ours, space_in, space_out, arity, degree, density)
        assert got == per_tuple(theirs, space_in, space_out, arity, degree, density)
        assert ours.getstate() == theirs.getstate()


def test_space_basics():
    space = GradedSpace([("v1", 0), ("v2", 1)])
    assert space.names == ("v1", "v2")
    assert space.degree("v2") == 1
    assert space.dim == 2
    assert list(space) == ["v1", "v2"]


def test_space_rejects_duplicate_names():
    with pytest.raises(ValueError):
        GradedSpace([("v", 0), ("v", 1)])


def test_space_suspend_shifts_degrees():
    space = GradedSpace([("v1", 0), ("v2", 3)])
    up = space.suspend()
    assert up.degree("v1") == 1 and up.degree("v2") == 4
    assert space.suspend(-2).degree("v1") == -2


def test_space_json_round_trip():
    space = GradedSpace([("a", -1), ("b", 2)])
    assert GradedSpace.from_json(space.to_json()) == space


# ---------------------------------------------------------------------------
# multilinear maps
# ---------------------------------------------------------------------------


def _mult_space():
    return GradedSpace([("u0", 0), ("u1", 1), ("u2", 2)])


def _mult_map(space):
    """A degree-0 'multiplication-like' arity-2 map adding degrees."""
    return MultiMap(
        space,
        space,
        2,
        0,
        {
            ("u0", "u0"): {"u0": 1},
            ("u0", "u1"): {"u1": 1},
            ("u1", "u0"): {"u1": 1},
            ("u1", "u1"): {"u2": 1},
        },
    )


def test_multimap_enforces_homogeneity():
    space = _mult_space()
    with pytest.raises(ValueError):
        MultiMap(space, space, 1, 0, {("u0",): {"u1": 1}})
    # fine once the declared degree matches
    MultiMap(space, space, 1, 1, {("u0",): {"u1": 1}})


def test_multimap_drops_zero_coefficients():
    space = _mult_space()
    f = MultiMap(space, space, 1, 0, {("u0",): {"u0": 0}})
    assert f.is_zero()


def test_multimap_arity_validation():
    space = _mult_space()
    with pytest.raises(ValueError):
        MultiMap(space, space, 0, 0, {})
    with pytest.raises(ValueError):
        MultiMap(space, space, 2, 0, {("u0",): {"u0": 1}})


def test_multimap_linear_algebra():
    space = _mult_space()
    f = MultiMap(space, space, 1, 1, {("u0",): {"u1": 2}})
    g = MultiMap(space, space, 1, 1, {("u0",): {"u1": -2}, ("u1",): {"u2": 3}})
    total = f + g
    assert total.evaluate(("u0",)) == {}
    assert total.evaluate(("u1",)) == {"u2": Fraction(3)}
    assert (f - f).is_zero()
    assert (Fraction(1, 2) * f).evaluate(("u0",)) == {"u1": ONE}


def test_multimap_accumulates_repeated_inputs():
    space = _mult_space()
    rows = [
        (("u0",), {"u1": 2}),
        (("u1",), {"u2": 1}),
        (("u0",), {"u1": -2}),
        (("u1",), {"u2": 2}),
    ]
    summed = MultiMap(space, space, 1, 1, rows)
    assert (summed.denominator, summed.rows) == (1, {("u1",): {"u2": 3}})
    # a non-homogeneous entry that cancels is dropped; one that survives raises
    cancelled = [(("u0",), {"u2": 1}), (("u0",), {"u2": -1})]
    assert MultiMap(space, space, 1, 1, cancelled).is_zero()
    with pytest.raises(ValueError):
        MultiMap(space, space, 1, 1, [(("u0",), {"u2": 1}), (("u0",), {"u2": 1})])
    with pytest.raises(ValueError):
        MultiMap(space, space, 1, 1, [(("u0", "u0"), {"u1": 1})] * 2)


def _map_add_oracle(f: MultiMap, g: MultiMap) -> MultiMap:
    """Binary addition as it was before sums were built in one table."""
    table = {}
    for source in (dict(f.items()), dict(g.items())):
        for ins, outs in source.items():
            row = table.setdefault(ins, {})
            for out, coeff in outs.items():
                row[out] = row.get(out, Fraction(0)) + coeff
    degree = g.degree if f.is_zero() else f.degree
    return MultiMap(f.space_in, f.space_out, f.arity, degree, table)


@pytest.mark.parametrize("seed", range(5))
def test_multimap_sum_matches_a_fold_of_binary_addition(seed):
    rng = random.Random(seed)
    space = _mult_space()
    maps = [
        random_multimap(rng, space, space, 2, 0, density=0.4, coefficients=(-1, 1))
        for _ in range(8)
    ]
    zero = MultiMap.zero(space, space, 2, 0)
    total = MultiMap.sum(space, space, 2, 0, maps)
    assert total == reduce(_map_add_oracle, maps, zero)
    assert total == reduce(lambda f, g: f + g, maps)


def test_multimap_zero_equality_ignores_degree():
    space = _mult_space()
    assert MultiMap.zero(space, space, 2, 5) == MultiMap.zero(space, space, 2, -1)
    assert MultiMap.zero(space, space, 2, 0) != MultiMap.zero(space, space, 1, 0)


def test_multimap_degree_mismatch_rejected():
    space = _mult_space()
    f = MultiMap(space, space, 1, 0, {("u0",): {"u0": 1}})
    g = MultiMap(space, space, 1, 1, {("u0",): {"u1": 1}})
    with pytest.raises(ValueError):
        f + g
    # adding an (empty) map of the wrong nominal degree is fine
    assert f + MultiMap.zero(space, space, 1, 7) == f


def test_multimap_json_round_trip():
    space = _mult_space()
    f = MultiMap(space, space, 2, 0, {("u1", "u1"): {"u2": Fraction(1, 2)}})
    data = f.to_json()
    assert data["entries"][0]["out"] == {"u2": "1/2"}
    assert MultiMap.from_json(space, space, data) == f


def test_identity_map():
    space = _mult_space()
    i = MultiMap.identity(space)
    assert i.evaluate(("u2",)) == {"u2": ONE}
    assert i.arity == 1 and i.degree == 0


# ---------------------------------------------------------------------------
# composition and Koszul signs
# ---------------------------------------------------------------------------


def test_compose_all_identity_slots_is_noop():
    space = _mult_space()
    f = _mult_map(space)
    assert compose_tensor(f, [None, None]) == f


def test_compose_degree_zero_is_naive_substitution():
    space = _mult_space()
    f = _mult_map(space)
    g = MultiMap(space, space, 2, 0, {("u0", "u1"): {"u1": 1}})
    composite = compose_tensor(f, [g, None])
    # f(g(u0,u1), u1) = f(u1, u1) = u2, no signs anywhere in degree 0 parts
    assert composite.evaluate(("u0", "u1", "u1")) == {"u2": ONE}
    assert composite.arity == 3 and composite.degree == 0


def test_compose_odd_map_past_odd_input_flips_sign():
    space = _mult_space()
    f = _mult_map(space)
    g = MultiMap(space, space, 1, 1, {("u0",): {"u1": 1}, ("u1",): {"u2": 1}})
    right = compose_tensor(f, [None, g])
    # (f o (id (x) g))(x, y) = (-1)^{|g||x|} f(x, g(y))
    assert right.evaluate(("u1", "u0")) == {"u2": -ONE}
    assert right.evaluate(("u0", "u0")) == {"u1": ONE}
    left = compose_tensor(f, [g, None])
    # g sits in the first slot: nothing to cross, no sign
    assert left.evaluate(("u0", "u1")) == {"u2": ONE}
    assert left.evaluate(("u1", "u0")) == {}


def test_compose_sign_counts_all_inputs_to_the_left():
    space = _mult_space()
    host = MultiMap(
        space, space, 3, 0, {("u0", "u0", "u1"): {"u1": 1}, ("u1", "u0", "u1"): {"u2": 1}}
    )
    g = MultiMap(space, space, 1, 1, {("u0",): {"u1": 1}})
    composite = compose_tensor(host, [None, None, g])
    # inputs (u1, u0, u0): g crosses degree 1 + 0 = odd, host(u1,u0,u1) = u2
    assert composite.evaluate(("u1", "u0", "u0")) == {"u2": -ONE}
    # inputs (u0, u0, u0): crossing degree 0, host(u0,u0,u1) = u1
    assert composite.evaluate(("u0", "u0", "u0")) == {"u1": ONE}


def test_compose_part_count_must_match_arity():
    space = _mult_space()
    f = _mult_map(space)
    with pytest.raises(ValueError):
        compose_tensor(f, [None])


def test_insert_positions_and_errors():
    # the oracle `insert` that the sign-rule tests below compose with
    space = _mult_space()
    f = _mult_map(space)
    g = MultiMap(space, space, 1, 1, {("u0",): {"u1": 1}})
    assert insert(f, 2, g) == compose_tensor(f, [None, g])
    assert insert(f, 1, g) == compose_tensor(f, [g, None])
    with pytest.raises(IndexError):
        insert(f, 0, g)
    with pytest.raises(IndexError):
        insert(f, 3, g)


@pytest.mark.parametrize("deg_a,deg_b", [(1, 1), (1, 2), (2, 1), (2, 2)])
def test_disjoint_insertions_commute_up_to_koszul_sign(deg_a, deg_b):
    # insert(insert(f,q,b),p,a) == (-1)^{|a||b|} insert(insert(f,p,a), q+arity(a)-1, b)
    space = GradedSpace([(f"u{k}", k) for k in range(8)])
    f = MultiMap(
        space,
        space,
        3,
        0,
        {
            ("u0", "u1", "u0"): {"u1": 1},
            ("u1", "u1", "u1"): {"u3": 2},
            ("u2", "u0", "u1"): {"u3": 1},
        },
    )
    a = MultiMap(
        space,
        space,
        2,
        deg_a,
        {("u0", "u1"): {f"u{1 + deg_a}": 1}, ("u1", "u0"): {f"u{1 + deg_a}": 3}},
    )
    b = MultiMap(
        space,
        space,
        1,
        deg_b,
        {("u0",): {f"u{deg_b}": 1}, ("u1",): {f"u{1 + deg_b}": -1}},
    )
    p, q = 1, 3
    lhs = insert(insert(f, q, b), p, a)
    rhs = insert(insert(f, p, a), q + a.arity - 1, b)
    sign = -1 if (deg_a * deg_b) % 2 else 1
    assert lhs == sign * rhs


def test_brace_map_sums_over_slot_choices():
    space = _mult_space()
    f = _mult_map(space)
    g = MultiMap(space, space, 1, 1, {("u0",): {"u1": 1}})
    braced = brace_map(f, [g])
    assert braced == insert(f, 1, g) + insert(f, 2, g)
    assert brace_map(f, []) == f


def test_brace_map_with_too_many_args_is_zero():
    space = _mult_space()
    g = MultiMap(space, space, 1, 1, {("u0",): {"u1": 1}})
    h = MultiMap(space, space, 1, 1, {("u1",): {"u2": 1}})
    assert brace_map(g, [g, h]).is_zero()


def test_brace_map_two_args_in_order():
    space = _mult_space()
    host = MultiMap(space, space, 3, 0, {("u1", "u0", "u1"): {"u2": 1}})
    g = MultiMap(space, space, 1, 1, {("u0",): {"u1": 1}})
    h = MultiMap(space, space, 1, -2, {("u2",): {"u0": 1}})
    braced = brace_map(host, [g, h])
    expected = (
        compose_tensor(host, [g, h, None])
        + compose_tensor(host, [g, None, h])
        + compose_tensor(host, [None, g, h])
    )
    assert braced == expected
    # g at slot 1, h at slot 2: host(g(u0), h(u2), u1) = host(u1, u0, u1) = u2
    assert braced.evaluate(("u0", "u2", "u1")) == {"u2": ONE}


def _oracle_compose_tensor(f, parts):
    """`compose_tensor` as it was before the indexed kernel: every part's
    whole table scanned for every host entry and slot, input degrees summed
    per product choice, one `Fraction` product per factor."""
    if len(parts) != f.arity:
        raise ValueError(f"need {f.arity} parts, got {len(parts)}")
    given = [part for part in parts if part is not None]
    space_in = given[0].space_in if given else f.space_in
    arity = sum(1 if part is None else part.arity for part in parts)
    degree = f.degree + sum(0 if part is None else part.degree for part in parts)
    rows = []
    for fins, fouts in f.items():
        options = []
        for slot, part in enumerate(parts):
            target = fins[slot]
            if part is None:
                options.append([((target,), Fraction(1))])
                continue
            options.append(
                [(gins, gcoeffs[target]) for gins, gcoeffs in part.items() if target in gcoeffs]
            )
        for choice in itertools.product(*options):
            sign_exp = 0
            left_degree = 0
            coeff = Fraction(1)
            blocks = []
            for part, (gins, gc) in zip(parts, choice):
                part_degree = 0 if part is None else part.degree
                sign_exp += part_degree * left_degree
                left_degree += sum(space_in.degree(name) for name in gins)
                coeff *= gc
                blocks.append(gins)
            if sign_exp % 2:
                coeff = -coeff
            ins = tuple(itertools.chain.from_iterable(blocks))
            rows.append((ins, {fout: coeff * fc for fout, fc in fouts.items()}))
    return MultiMap(space_in, f.space_out, arity, degree, rows)


def _oracle_brace_map(f, args):
    """`brace_map` as it was: one oracle composition per slot choice, summed."""
    arity = f.arity - len(args) + sum(a.arity for a in args)
    degree = f.degree + sum(a.degree for a in args)
    terms = []
    for slots in itertools.combinations(range(f.arity), len(args)):
        parts = [None] * f.arity
        for slot, arg in zip(slots, args):
            parts[slot] = arg
        terms.append(_oracle_compose_tensor(f, parts))
    return MultiMap.sum(args[0].space_in, f.space_out, max(arity, 1), degree, terms)


# odd and even degrees, so that the Koszul signs matter
KERNEL_SPACE = GradedSpace([("a", -1), ("b", 0), ("c", 1), ("d", 1), ("e", 2)])
KERNEL_COEFFICIENTS = tuple(Fraction(x) for x in ("-3/2", "2/3", "5", "-1/4", "1", "-1"))


def _kernel_map(rng, arity, zero_chance=0.0):
    if rng.random() < zero_chance:
        return MultiMap.zero(KERNEL_SPACE, KERNEL_SPACE, arity, rng.choice((-1, 0, 1)))
    return random_multimap(
        rng,
        KERNEL_SPACE,
        KERNEL_SPACE,
        arity,
        rng.choice((-1, 0, 1)),
        density=0.6,
        coefficients=KERNEL_COEFFICIENTS,
    )


def test_compose_tensor_matches_the_scanning_oracle():
    rng = random.Random(20261018)
    nonzero = unreached = identity_slots = zero_parts = 0
    trials = 150
    for _ in range(trials):
        f = _kernel_map(rng, rng.randint(1, 3))
        parts = [
            None if rng.random() < 0.35 else _kernel_map(rng, rng.randint(1, 2), 0.1)
            for _ in range(f.arity)
        ]
        identity_slots += parts.count(None)
        zero_parts += sum(1 for p in parts if p is not None and p.is_zero())
        reached = [
            None if p is None else {out for outs in p.rows.values() for out in outs}
            for p in parts
        ]
        unreached += any(
            r is not None and target not in r
            for fins in f.rows
            for target, r in zip(fins, reached)
        )
        composite = compose_tensor(f, parts)
        assert composite == _oracle_compose_tensor(f, parts)
        nonzero += not composite.is_zero()
    assert nonzero > trials // 2
    assert unreached and identity_slots and zero_parts


def test_brace_map_matches_the_scanning_oracle():
    rng = random.Random(1810)
    nonzero = 0
    trials = 100
    for _ in range(trials):
        f = _kernel_map(rng, rng.randint(1, 3))
        args = [_kernel_map(rng, rng.randint(1, 2), 0.05) for _ in range(rng.randint(1, 2))]
        braced = brace_map(f, args)
        assert braced == _oracle_brace_map(f, args)
        nonzero += not braced.is_zero()
    assert nonzero > trials // 2


def _summed(degree, denominator, rows):
    """One stream of integer rows over ``denominator``, summed in its own
    table, as an arity-3 map of ``degree``."""
    table = _IntegerTable([(1, (denominator, rows))])
    return MultiMap(KERNEL_SPACE, KERNEL_SPACE, 3, degree, table.rows, table.denominator)


def test_signed_rows_fold_their_scale_into_each_coefficient():
    rng = random.Random(7)
    for scale in (-1, Fraction(-3, 2), Fraction(2, 5)):
        f = _kernel_map(rng, 2)
        parts = [_kernel_map(rng, 2), None]
        fraction = scale.numerator, scale.denominator
        composite = _oracle_compose_tensor(f, parts)
        rows = _signed_rows(f, [parts], KERNEL_SPACE, *fraction)
        scaled = _summed(composite.degree, *rows)
        assert not composite.is_zero() and scaled == scale * composite
        braces = _slot_choices(f, parts[:1])
        braced = _summed(composite.degree, *_signed_rows(f, braces, KERNEL_SPACE, *fraction))
        assert braced == scale * _oracle_brace_map(f, parts[:1])


# ---------------------------------------------------------------------------
# based algebras and matrix algebras
# ---------------------------------------------------------------------------


def test_matrix_algebra_basis_and_degrees():
    V = GradedSpace([("v1", 0), ("v2", 1)])
    M = MatrixAlgebra(V)
    assert M.space.names == ("e1^1", "e1^2", "e2^1", "e2^2")
    assert M.space.degree("e1^2") == -1
    assert M.space.degree("e2^1") == 1
    assert M.space.degree("e1^1") == 0
    assert dict(M.unit.items()) == {("e1^1",): ONE, ("e2^2",): ONE}
    assert (M.unit.order, M.unit.denominator) == (1, 1)
    assert MatrixAlgebra.unit_indices("e12^3") == (12, 3)


def test_matrix_algebra_delta_product():
    V = GradedSpace([("v1", 0), ("v2", 0)])
    M = MatrixAlgebra(V)
    assert M.product_map().evaluate(("e1^2", "e2^1")) == {"e1^1": ONE}
    assert M.product_map().evaluate(("e1^2", "e1^2")) == {}
    assert is_associative(M)
    assert is_unital(M)


def test_matrix_algebra_product_map_is_degree_zero():
    V = GradedSpace([("v1", 0), ("v2", 1)])
    M = MatrixAlgebra(V)
    mult = M.product_map()
    assert mult.arity == 2 and mult.degree == 0
    assert mult.evaluate(("e2^1", "e1^2")) == {"e2^2": ONE}


def test_an_algebra_builds_its_product_map_once():
    V = GradedSpace([("v1", 0), ("v2", 1), ("v3", -1)])
    M = MatrixAlgebra(V)
    mult = M.product_map()
    assert M.product_map() is mult
    # e_ij e_kl = delta_jk e_il, as filled from every (i, j, k, l) before
    names = MatrixAlgebra.unit_name
    expected = MultiMap(M.space, M.space, 2, 0, {
        (names(i, j), names(k, l)): {names(i, l): ONE}
        for i, j, k, l in itertools.product((1, 2, 3), repeat=4)
        if j == k
    })
    assert mult == expected and len(mult.rows) == 3**3
    q, rows, right = M._integer_index()
    assert (q, rows) == (1, mult.rows)


def test_based_algebra_detects_non_associativity():
    # (a*a)*a = b*a = 0 but a*(a*a) = a*b = a
    space = GradedSpace([("a", 0), ("b", 0)])
    bad = BasedAlgebra(
        space,
        {("a", "a"): {"b": 1}, ("a", "b"): {"a": 1}},
        {"a": 1},
    )
    assert not is_associative(bad)


def test_based_algebra_grading_enforced():
    space = GradedSpace([("a", 0), ("b", 1)])
    with pytest.raises(ValueError):
        BasedAlgebra(space, {("a", "a"): {"b": 1}}, {"a": 1})


def test_based_algebra_refuses_a_unit_entry_outside_the_basis():
    space = GradedSpace([("a", 0)])
    with pytest.raises(ValueError, match="unit entry 'bogus' is not a basis name"):
        BasedAlgebra(space, {("a", "a"): {"a": 1}}, {"bogus": 1})


def test_based_algebra_refuses_a_unit_entry_of_nonzero_degree():
    space = GradedSpace([("a", 0), ("b", 1)])
    with pytest.raises(ValueError, match="unit entry 'b' has degree 1, expected 0"):
        BasedAlgebra(space, {("a", "a"): {"a": 1}}, {"a": 1, "b": 1})


# ---------------------------------------------------------------------------
# tensors over an algebra
# ---------------------------------------------------------------------------


def _ungraded_m2():
    return MatrixAlgebra(GradedSpace([("v1", 0), ("v2", 0)]))


def _graded_m2():
    return MatrixAlgebra(GradedSpace([("v1", 0), ("v2", 1)]))


def test_tensor_elem_validation_and_arith():
    M = _ungraded_m2()
    t = TensorElem(M, 2, {("e1^2", "e2^1"): 1, ("e1^1", "e1^1"): Fraction(1, 3)})
    assert dict(t.items())[("e1^1", "e1^1")] == Fraction(1, 3)
    assert (t.denominator, t.rows[("e1^1", "e1^1")]) == (3, 1)
    with pytest.raises(ValueError):
        TensorElem(M, 2, {("e1^2",): 1})
    with pytest.raises(ValueError):
        TensorElem(M, 1, {("nope",): 1})
    assert (t - t).is_zero()
    assert dict((3 * t).items())[("e1^1", "e1^1")] == ONE
    assert (3 * t).denominator == 1


def test_tensor_elem_accumulates_repeated_factors():
    M = _ungraded_m2()
    terms = [(("e1^2", "e2^1"), 1), (("e1^1", "e1^1"), 2), (("e1^2", "e2^1"), -1)]
    summed = TensorElem(M, 2, terms)
    assert (summed.denominator, summed.rows) == (1, {("e1^1", "e1^1"): 2})
    with pytest.raises(ValueError):
        TensorElem(M, 2, [(("e1^2",), 1), (("e1^2",), 1)])


def _tensor_add_oracle(a: TensorElem, b: TensorElem) -> TensorElem:
    """Binary addition as it was before sums were built in one table."""
    table = dict(a.items())
    for factors, coeff in b.items():
        table[factors] = table.get(factors, Fraction(0)) + coeff
    return TensorElem(a.algebra, a.order, table)


@pytest.mark.parametrize("seed", range(5))
def test_tensor_sum_matches_a_fold_of_binary_addition(seed):
    rng = random.Random(seed)
    M = _graded_m2()
    tensors = [
        random_tensor(rng, M, 2, degree=1, density=0.3, coefficients=(-1, 1))
        for _ in range(8)
    ]
    total = TensorElem.sum(M, 2, tensors)
    assert total == reduce(_tensor_add_oracle, tensors, TensorElem.zero(M, 2))
    assert total == reduce(lambda a, b: a + b, tensors)


def test_tensor_elem_homogeneous_degree():
    M = _graded_m2()
    t = TensorElem(M, 2, {("e2^1", "e1^1"): 1})
    assert t.homogeneous_degree() == 1
    assert TensorElem.zero(M, 2).homogeneous_degree() is None
    mixed = TensorElem(M, 2, {("e2^1", "e1^1"): 1, ("e1^1", "e1^1"): 1})
    with pytest.raises(ValueError):
        mixed.homogeneous_degree()


def test_tensor_elem_json_round_trip():
    M = _ungraded_m2()
    t = TensorElem(M, 3, {("e1^2", "e1^1", "e2^1"): Fraction(-2, 5)})
    data = t.to_json()
    assert data["entries"][0]["coeff"] == "-2/5"
    assert TensorElem.from_json(M, data) == t


def _unit_tensor(algebra, order):
    table = {}
    for combo in __import__("itertools").product(algebra.unit.items(), repeat=order):
        names = tuple(n for (n,), _ in combo)
        coeff = ONE
        for _, c in combo:
            coeff *= c
        table[names] = coeff
    return TensorElem(algebra, order, table)


def test_tensor_multiply_unit_acts_trivially():
    M = _graded_m2()
    one = _unit_tensor(M, 2)
    t = TensorElem(M, 2, {("e1^2", "e2^1"): 2, ("e2^2", "e1^1"): Fraction(1, 2)})
    assert tensor_product_multiply(one, t) == t
    assert tensor_product_multiply(t, one) == t


def test_tensor_multiply_nilpotent_matrix_unit():
    M = _ungraded_m2()
    r = TensorElem(M, 2, {("e1^2", "e1^2"): 1})
    assert tensor_product_multiply(r, r).is_zero()


def test_tensor_multiply_interchange_sign():
    # (a (x) b)(c (x) d) = (-1)^{|b||c|} ac (x) bd
    M = _graded_m2()
    x = TensorElem(M, 2, {("e2^1", "e2^1"): 1})  # degrees (1, 1)
    y = TensorElem(M, 2, {("e1^2", "e1^2"): 1})  # degrees (-1, -1)
    assert tensor_product_multiply(x, y) == TensorElem(
        M, 2, {("e2^2", "e2^2"): -1}
    )
    assert tensor_product_multiply(y, x) == TensorElem(
        M, 2, {("e1^1", "e1^1"): -1}
    )


def test_tensor_multiply_requires_matching_order():
    M = _ungraded_m2()
    with pytest.raises(ValueError):
        tensor_product_multiply(TensorElem.zero(M, 2), TensorElem.zero(M, 3))


@st.composite
def _m2_tensors(draw, order=2):
    M = _graded_m2()
    names = M.space.names
    entries = draw(
        st.lists(
            st.tuples(
                st.tuples(*[st.sampled_from(names) for _ in range(order)]),
                st.sampled_from([-2, -1, 1, 2, Fraction(1, 2)]),
            ),
            min_size=0,
            max_size=3,
        )
    )
    return TensorElem(M, order, dict(entries))


@settings(deadline=None, max_examples=60)
@given(_m2_tensors(), _m2_tensors(), _m2_tensors())
def test_tensor_multiply_is_associative(t1, t2, t3):
    left = tensor_product_multiply(tensor_product_multiply(t1, t2), t3)
    right = tensor_product_multiply(t1, tensor_product_multiply(t2, t3))
    assert left == right


# ---------------------------------------------------------------------------
# unit insertion into tensor slots
# ---------------------------------------------------------------------------


def test_raise_indices_appends_unit():
    M = _ungraded_m2()
    r = TensorElem(M, 2, {("e1^2", "e2^1"): 1})
    r12 = raise_indices(r, (1, 2), 3)
    assert r12 == TensorElem(
        M,
        3,
        {("e1^2", "e2^1", "e1^1"): 1, ("e1^2", "e2^1", "e2^2"): 1},
    )


def test_raise_indices_skips_middle_slot():
    M = _ungraded_m2()
    r = TensorElem(M, 2, {("e1^2", "e2^1"): Fraction(1, 2)})
    r13 = raise_indices(r, (1, 3), 3)
    assert r13 == TensorElem(
        M,
        3,
        {
            ("e1^2", "e1^1", "e2^1"): Fraction(1, 2),
            ("e1^2", "e2^2", "e2^1"): Fraction(1, 2),
        },
    )


def test_raise_indices_full_slots_is_identity():
    M = _ungraded_m2()
    r = TensorElem(M, 2, {("e1^2", "e2^1"): 1, ("e1^1", "e2^2"): -1})
    assert raise_indices(r, (1, 2), 2) == r


def test_raise_indices_validation():
    M = _ungraded_m2()
    r = TensorElem(M, 2, {("e1^2", "e2^1"): 1})
    with pytest.raises(ValueError):
        raise_indices(r, (1,), 3)
    with pytest.raises(ValueError):
        raise_indices(r, (2, 2), 3)
    with pytest.raises(ValueError):
        raise_indices(r, (2, 1), 3)
    with pytest.raises(ValueError):
        raise_indices(r, (1, 4), 3)


def test_raise_indices_classical_composition_fixture():
    # r12 * r23 in M2: (e1^2 (x) e2^1 (x) 1)(1 (x) e1^2 (x) e2^1)
    M = _ungraded_m2()
    r = TensorElem(M, 2, {("e1^2", "e2^1"): 1})
    prod = tensor_product_multiply(
        raise_indices(r, (1, 2), 3), raise_indices(r, (2, 3), 3)
    )
    assert prod == TensorElem(M, 3, {("e1^2", "e2^2", "e2^1"): 1})
