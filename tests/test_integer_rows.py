"""The integer-row End(V) kernel side by side with the Fraction kernel it replaced.

The oracle below is that kernel as it was: `_fraction_signed_rows` makes one
`Fraction` per row output and the `MultiMap` constructor merges repeated
rows with `Fraction` adds; a bracket is a cochain of its own
(`_fraction_l_bracket`), and `_fraction_expand` weights each bracket with
``weight * bracket`` and sums them with `CochainElement.sum`.  The inputs
have coefficients with denominators 2, 3 and 5, on modules of degrees
(-1, 0, 0), (0, 1) and (-1, 0).
"""

import itertools
import random
from fractions import Fraction
from math import lcm

import pytest

from rbsinfty import linfty
from rbsinfty.graded import (
    BasedAlgebra,
    GradedSpace,
    MatrixAlgebra,
    MultiMap,
    TensorElem,
    _input_space,
    _IntegerTable,
    _signed_rows,
    _slot_choices,
    brace_map,
    compose_tensor,
    insert,
    raise_indices,
    tensor_product_multiply,
)
from rbsinfty.linfty import (
    TAG_ALG,
    TAG_R,
    TAG_S,
    TAGS,
    CochainElement,
    Piece,
    basis_cochains,
    is_mc,
    l_bracket,
    mc_residual,
    nonvanishing_inputs,
    twisted_differential,
)
from rbsinfty.sampling import random_multimap, random_tensor
from rbsinfty.signs import koszul_chi, parity_sign
from rbsinfty.yang_baxter import F_inverse, F_map, InfinityYBPair

SPACES = (
    GradedSpace([("v1", -1), ("v2", 0), ("v3", 0)]),
    GradedSpace([("v1", 0), ("v2", 1)]),
    GradedSpace([("v1", -1), ("v2", 0)]),
)
# denominators 2, 3 and 5, so streams over different denominators meet
COEFFICIENTS = tuple(Fraction(x) for x in ("1/2", "-1/3", "2/5", "3", "-1", "5/6"))


# -- the Fraction kernel -----------------------------------------------------------


def _fraction_signed_rows(f, layouts, space_in, scale=1):
    """The ``(inputs, outputs)`` rows of f composed with each layout of
    parts, each coefficient a `Fraction` times ``scale``."""
    degrees = space_in._degrees
    indexes = {}
    for parts in layouts:
        slots = []
        for part in parts:
            if part is not None and id(part) not in indexes:
                index = indexes[id(part)] = {}
                for ins, outs in part.items():
                    d = sum(map(degrees.__getitem__, ins))
                    for out, c in outs.items():
                        option = (ins, c.numerator, c.denominator, d)
                        index.setdefault(out, []).append(option)
            slots.append(None if part is None else (part.degree & 1, indexes[id(part)]))
        for fins, fouts in f.items():
            partial = [((), scale.numerator, scale.denominator, 0)]
            for target, slot in zip(fins, slots):
                if slot is None:
                    d = degrees[target]
                    partial = [(ins + (target,), n, q, left + d) for ins, n, q, left in partial]
                    continue
                odd, index = slot
                options = index.get(target)
                if options is None:
                    break
                partial = [
                    (ins + gins, -n * gn if odd & left else n * gn, q * gq, left + gd)
                    for ins, n, q, left in partial
                    for gins, gn, gq, gd in options
                ]
            else:
                for ins, n, q, _ in partial:
                    yield ins, {
                        out: Fraction(n * c.numerator, q * c.denominator)
                        for out, c in fouts.items()
                    }


def _fraction_compose_tensor(f, parts):
    space_in = _input_space(f, parts)
    arity = sum(1 if part is None else part.arity for part in parts)
    degree = f.degree + sum(0 if part is None else part.degree for part in parts)
    rows = _fraction_signed_rows(f, [parts], space_in)
    return MultiMap(space_in, f.space_out, arity, degree, rows)


def _fraction_brace_map(f, args):
    space_in = _input_space(f, list(args) + [None] * (f.arity - len(args)))
    arity = f.arity - len(args) + sum(a.arity for a in args)
    degree = f.degree + sum(a.degree for a in args)
    rows = _fraction_signed_rows(f, _slot_choices(f, args), space_in)
    return MultiMap(space_in, f.space_out, max(arity, 1), degree, rows)


def _fraction_orderings(maps, degrees):
    groups = {}
    for sigma in itertools.permutations(range(1, len(maps) + 1)):
        ordered = [maps[s - 1] for s in sigma]
        group = groups.setdefault(tuple(map(id, ordered)), [ordered, 0])
        group[1] += koszul_chi(sigma, degrees)
    return [(ordered, chi) for ordered, chi in groups.values() if chi]


def _fraction_operator_terms(F, gs, hs, outer):
    staircase = linfty._staircase
    n, j, f1 = len(gs) + len(hs), len(gs), F.degree
    gdeg = [m.degree - 1 for m in gs]
    hdeg = [m.degree - 1 for m in hs]
    sum_g = sum(gdeg)
    space = F.space_in
    rows = {TAG_R: [], TAG_S: []}
    if j == n or j == 0:
        maps, degrees, tag = (gs, gdeg, TAG_R) if j == n else (hs, hdeg, TAG_S)
        for permuted, chi in _fraction_orderings(maps, degrees):
            pdeg = [m.degree - 1 for m in permuted]
            sign = outer * chi * parity_sign(n * f1 + staircase(pdeg))
            rows[tag].append(_fraction_signed_rows(F, [permuted], space, sign))
    for pg, chi_g in _fraction_orderings(gs, gdeg):
        pgd = [m.degree - 1 for m in pg]
        for ph, chi_h in _fraction_orderings(hs, hdeg):
            phd = [m.degree - 1 for m in ph]
            chi = chi_g * chi_h
            if j >= 1:
                exponent = (
                    1 + n * f1 + staircase(phd) + sum_g * (n - j) + staircase(pgd)
                    + (pgd[0] + 1) * f1
                )
                inner = _fraction_compose_tensor(F, pg[1:] + [None] + ph)
                sign = outer * chi * parity_sign(exponent)
                braces = _slot_choices(pg[0], [inner])
                rows[TAG_R].append(_fraction_signed_rows(pg[0], braces, space, sign))
            if n - j >= 1:
                exponent = (
                    1 + n * f1 + staircase(pgd) + (phd[0] + 1) * (f1 + sum_g + j)
                    + staircase(phd) + sum_g * (n - j)
                )
                inner = _fraction_compose_tensor(F, pg + [None] + ph[1:])
                sign = outer * chi * parity_sign(exponent)
                braces = _slot_choices(ph[0], [inner])
                rows[TAG_S].append(_fraction_signed_rows(ph[0], braces, space, sign))
    arity = sum(m.arity for m in [*gs, *hs])
    degree = F.degree + sum(m.degree for m in [*gs, *hs])
    for tag, streams in rows.items():
        yield tag, MultiMap(space, space, arity, degree, itertools.chain(*streams))


def _fraction_l_bracket(space, pieces):
    n = len(pieces)
    if n < 2 or any(p.map.is_zero() for p in pieces):
        return CochainElement(space)
    alg_positions = [i for i, p in enumerate(pieces) if p.tag == TAG_ALG]
    if n == 2 and len(alg_positions) == 2:
        sf, sh = pieces[0].map, pieces[1].map
        swap = parity_sign(sf.degree * sh.degree)
        gerstenhaber = MultiMap(
            sf.space_in,
            sf.space_out,
            sf.arity + sh.arity - 1,
            sf.degree + sh.degree,
            itertools.chain(
                _fraction_brace_map(sf, [sh]).items(),
                (
                    (ins, {out: -swap * c for out, c in outs.items()})
                    for ins, outs in _fraction_brace_map(sh, [sf]).items()
                ),
            ),
        )
        return CochainElement(space, [(TAG_ALG, gerstenhaber)])
    if len(alg_positions) != 1:
        return CochainElement(space)
    a = alg_positions[0]
    first = [i for i, p in enumerate(pieces) if i != a and p.tag == TAG_R]
    second = [i for i, p in enumerate(pieces) if i != a and p.tag == TAG_S]
    order = [a] + first + second
    F = pieces[a].map
    if F.arity != n - 1:
        return CochainElement(space)
    terms = _fraction_operator_terms(
        F,
        [pieces[i].map for i in first],
        [pieces[i].map for i in second],
        koszul_chi([i + 1 for i in order], [p.degree for p in pieces]),
    )
    return CochainElement(space, terms)


def _fraction_expand(alpha, leads):
    space, pool = alpha.space, alpha.pieces()
    terms = []
    for lead in leads:
        for divisor, pieces in nonvanishing_inputs(pool, lead):
            bracket = _fraction_l_bracket(space, pieces)
            terms.append(bracket if divisor == 1 else Fraction(1, divisor) * bracket)
    return CochainElement.sum(space, terms)


# -- inputs ----------------------------------------------------------------------


def _map(rng, space, arity, degree, density=0.8):
    return random_multimap(rng, space, space, arity, degree, density, COEFFICIENTS)


def _entry_degree(space, entry):
    """The degree of a map with a nonzero entry ``entry = [out] + ins``."""
    return space.degree(entry[0]) - sum(map(space.degree, entry[1:]))


def _candidate(rng, space, density=0.6):
    """A degree -1 cochain with each component of arity <= 3 present at random."""
    suspended = space.suspend()
    parts = [
        (tag, _map(rng, suspended, arity, -1 if tag == TAG_ALG else 0, density))
        for tag in TAGS
        for arity in range(1, 4)
        if rng.random() < 0.7
    ]
    return CochainElement(space, parts, degree=-1)


# -- the End(V) kernel -------------------------------------------------------------


@pytest.mark.parametrize("space", SPACES, ids=["V-100", "V01", "V-10"])
def test_compose_tensor_and_brace_map_match_the_fraction_kernel(space):
    rng = random.Random(f"kernel:{space!r}")
    nonzero = fractional = 0
    trials = 60
    for _ in range(trials):
        f = _map(rng, space, rng.randint(1, 3), rng.choice((-1, 0, 1)))
        parts = [
            _map(rng, space, rng.randint(1, 2), rng.choice((-1, 0, 1)))
            if rng.random() < 0.7
            else None
            for _ in range(f.arity)
        ]
        composite = compose_tensor(f, parts)
        assert composite == _fraction_compose_tensor(f, parts)
        args = [p for p in parts if p is not None][:2]
        if args and len(args) <= f.arity:
            assert brace_map(f, args) == _fraction_brace_map(f, args)
        nonzero += not composite.is_zero()
        fractional += composite.denominator > 1
    assert nonzero > trials // 2 and fractional > trials // 4


def test_layouts_over_different_denominators_share_one_stream():
    # brace_map's layouts all hold the same parts; these do not
    space = SPACES[0]
    rng = random.Random(11)
    f = _map(rng, space, 2, 0, 1.0)
    thirds = random_multimap(rng, space, space, 1, 0, 1.0, (Fraction(1, 3), Fraction(-2, 3)))
    fifths = random_multimap(rng, space, space, 1, 0, 1.0, (Fraction(2, 5), Fraction(-1, 5)))
    layouts = [[thirds, None], [None, fifths]]
    table = _IntegerTable()
    table.add(*_signed_rows(f, layouts, space, -7, 4))
    rows = _fraction_signed_rows(f, layouts, space, Fraction(-7, 4))
    streamed = MultiMap(space, space, 2, f.degree, table.rows, table.denominator)
    assert streamed == MultiMap(space, space, 2, f.degree, rows)
    assert not streamed.is_zero()


def test_streams_over_different_denominators_share_one_table():
    rng = random.Random(5)
    space = SPACES[0]
    table, expected = _IntegerTable(), {}
    for denominator in (2, 3, 1, 5, 4, 6, 3):
        rows = [
            ((rng.choice(("v2", "v3")),), rng.choice((-2, -1, 3)), {"v2": rng.choice((-3, 1, 2))})
            for _ in range(3)
        ]
        table.add(denominator, rows)
        for ins, factor, outs in rows:
            row = expected.setdefault(ins, {})
            for out, n in outs.items():
                row[out] = row.get(out, 0) + Fraction(factor * n, denominator)
    assert table.denominator == 60
    built = MultiMap(space, space, 1, 0, table.rows, table.denominator)
    assert built == MultiMap(space, space, 1, 0, expected)
    assert built.denominator > 1
    q, rows = built.denominator, built.rows
    assert all(
        Fraction(n, q) == expected[ins][out]
        for ins, row in rows.items()
        for out, n in row.items()
    )


@pytest.mark.parametrize("seed", range(4))
def test_combination_matches_fraction_arithmetic(seed):
    rng = random.Random(seed)
    space = SPACES[1]
    maps = [_map(rng, space, 2, rng.choice((0, 1)), 0.5) for _ in range(6)]
    maps = [m for m in maps if m.degree == maps[0].degree]
    scalars = [rng.choice(COEFFICIENTS + (2, -1)) for _ in maps]
    expected = {}
    for scalar, m in zip(scalars, maps):
        for ins, outs in m.items():
            row = expected.setdefault(ins, {})
            for out, c in outs.items():
                row[out] = row.get(out, 0) + scalar * c
    terms = list(zip(scalars, maps))
    combined = MultiMap.combination(space, space, 2, maps[0].degree, terms)
    assert combined == MultiMap(space, space, 2, maps[0].degree, expected)
    assert (combined - combined).is_zero()


# -- the brackets ------------------------------------------------------------------


@pytest.mark.parametrize("space", SPACES, ids=["V-100", "V01", "V-10"])
def test_mc_residual_matches_the_fraction_kernel(space):
    compared = nonzero = weighted = 0
    for seed in range(8):
        alpha = _candidate(random.Random(f"mc:{seed}:{space!r}"), space)
        residual = mc_residual(alpha)
        assert residual == _fraction_expand(alpha, [None])
        compared += 1
        nonzero += not residual.is_zero()
        weighted += any(w != 1 for w, _ in nonvanishing_inputs(alpha.pieces()))
    assert nonzero > compared / 2 and weighted > compared / 2


@pytest.mark.parametrize("space", SPACES, ids=["V-100", "V01", "V-10"])
def test_twisted_differential_matches_the_fraction_kernel(space):
    alpha = _candidate(random.Random(f"twist:{space!r}"), space)
    compared = nonzero = 0
    for x in basis_cochains(space, 2):
        once = twisted_differential(alpha, x)
        assert once == _fraction_expand(alpha, x.pieces())
        compared += 1
        nonzero += not once.is_zero()
    assert nonzero > compared / 2


@pytest.mark.parametrize("space", SPACES, ids=["V-100", "V01", "V-10"])
def test_twice_twisted_vanishes_on_tables_as_the_cochain_does(space):
    # a candidate that is not Maurer-Cartan, so the squares are nonzero
    alpha = _candidate(random.Random(f"square:{space!r}"), space, density=0.3)
    checked = failed = 0
    for x in basis_cochains(space, 2):
        once = twisted_differential(alpha, x)
        square = _fraction_expand(alpha, once.pieces())
        assert linfty._vanishes(linfty._expand_rows(alpha, once.pieces())) == square.is_zero()
        checked += 1
        failed += not square.is_zero()
    report = linfty.twist_square_defects(alpha, 2)
    assert (report["checked"], len(report["failures"])) == (checked, failed)
    assert failed >= 5


def test_twice_twisted_vanishes_for_a_system():
    # the Rota-Baxter system of `test_brackets_that_cancel_leave_no_entry`
    algebra = MatrixAlgebra(GradedSpace([("u1", 0), ("u2", 0)]))
    end = algebra.space
    r_op = MultiMap(end, end, 1, 0, {(e,): {e: 1} for e in end if e != "e1^2"})
    s_op = MultiMap(end, end, 1, 0, {("e1^2",): {"e1^2": -1}})
    alpha = linfty.classical_cochain(algebra.product_map(), r_op, s_op)
    applied = 0
    for x in basis_cochains(end, 1):
        once = twisted_differential(alpha, x)
        assert linfty._vanishes(linfty._expand_rows(alpha, once.pieces()))
        applied += not once.is_zero()
    assert applied > 0
    assert linfty.twist_square_defects(alpha, 1) == {"checked": 48, "failures": [], "ok": True}


def test_orderings_match_the_permutations_they_group():
    space = SPACES[0].suspend()
    rng = random.Random("orderings")
    maps = [_map(rng, space, 1, d) for d in (0, 1, 1, 2)]
    for size in range(5):
        for chosen in itertools.product(range(len(maps)), repeat=size):
            group = [maps[k] for k in chosen]
            degrees = [m.degree - 1 for m in group]
            want = [(list(map(id, o)), chi) for o, chi in _fraction_orderings(group, degrees)]
            got = [(list(map(id, o)), chi) for o, chi in linfty._orderings(group)]
            assert got == want


def _jacobi_oracle(space, pieces):
    """`_jacobi_sum` with every term a cochain, scaled and summed as cochains."""
    n = len(pieces)
    terms = []
    for i in range(2, n):
        j = n + 1 - i
        for sigma in linfty.shuffles((i, n - i)):
            sign = parity_sign(i * (j - 1)) * koszul_chi(sigma, [p.degree for p in pieces])
            inner = l_bracket(space, [pieces[s - 1] for s in sigma[:i]])
            if inner.is_zero():
                continue
            rest = [pieces[s - 1] for s in sigma[i:]]
            terms += [(sign, l_bracket(space, [piece] + rest)) for piece in inner.pieces()]
    defect = CochainElement.sum(space, (sign * term for sign, term in terms))
    return defect, any(not term.is_zero() for _, term in terms)


@pytest.mark.parametrize("space", SPACES, ids=["V-100", "V01", "V-10"])
def test_jacobi_sum_matches_the_sum_of_its_terms(space):
    # the input shapes of `verify_generalized_jacobi`
    rng = random.Random(f"jacobi:{space!r}")
    active = 0
    for _ in range(60):
        pieces = []
        for token in rng.choice(linfty._JACOBI_PATTERNS):
            if token == "op":
                tag, arity = rng.choice((TAG_R, TAG_S)), rng.randint(1, 3)
            else:
                tag, arity = TAG_ALG, {"alg1": 1, "alg2": 2}.get(token, rng.randint(1, 3))
            pieces.append(linfty.random_piece(rng, space, arity, tag=tag))
        defect, nonzero = linfty._jacobi_sum(space, pieces)
        want, want_nonzero = _jacobi_oracle(space, pieces)
        assert defect == want and defect.degree == want.degree
        assert nonzero == want_nonzero
        active += nonzero
    assert active >= 8


@pytest.mark.parametrize("space", SPACES, ids=["V-100", "V01", "V-10"])
def test_l_bracket_matches_the_fraction_kernel(space):
    rng = random.Random(f"bracket:{space!r}")
    suspended = space.suspend()
    nonzero = four = four_nonzero = 0
    for _ in range(40):
        n = rng.randint(1, 3)
        if n < 3:
            pieces = [Piece(TAG_ALG, _map(rng, suspended, n, rng.choice((-1, 0))))]
            pieces += [
                Piece(
                    rng.choice((TAG_R, TAG_S)),
                    _map(rng, suspended, rng.randint(1, 2), rng.choice((0, 1))),
                )
                for _ in range(n)
            ]
        else:
            # l_4: the algebra piece takes the degree of one random entry, and
            # each operator the degree of an entry whose output is an input of
            # that entry, so the plain substitution has an admissible entry
            ins = rng.choices(suspended.names, k=4)
            pieces = [Piece(TAG_ALG, _map(rng, suspended, 3, _entry_degree(suspended, ins)))]
            for out in ins[1:]:
                arity = rng.randint(1, 2)
                entry = [out] + rng.choices(suspended.names, k=arity)
                degree = _entry_degree(suspended, entry)
                pieces.append(
                    Piece(rng.choice((TAG_R, TAG_S)), _map(rng, suspended, arity, degree))
                )
        if rng.random() < 0.3:
            pieces = [pieces[0], Piece(TAG_ALG, _map(rng, suspended, 2, -1))]
        rng.shuffle(pieces)
        bracket = l_bracket(space, pieces)
        assert bracket == _fraction_l_bracket(space, pieces)
        nonzero += not bracket.is_zero()
        if len(pieces) == 4:
            four += 1
            four_nonzero += not bracket.is_zero()
    assert nonzero >= 10
    assert four_nonzero > four / 2
    # l_5: an algebra piece of arity 4 and four dense operators, of even and
    # odd degree, shuffled, so the reordering sign meets every operator-term
    # sign; the algebra piece takes the degree of one random entry
    trials = wide = 8
    for _ in range(trials):
        ins = rng.choices(suspended.names, k=5)
        pieces = [Piece(TAG_ALG, _map(rng, suspended, 4, _entry_degree(suspended, ins)))]
        pieces += [
            Piece(rng.choice((TAG_R, TAG_S)), _map(rng, suspended, 1, d, 1.0))
            for d in (0, 0, rng.choice((-1, 1)), rng.choice((-1, 0, 1)))
        ]
        rng.shuffle(pieces)
        bracket = l_bracket(space, pieces)
        assert bracket == _fraction_l_bracket(space, pieces)
        wide -= bracket.is_zero()
    assert wide > trials / 2


def test_brackets_that_cancel_leave_no_entry():
    # On M_2, the projection R onto the lower triangular matrices along the
    # strictly upper ones is a Rota-Baxter operator of weight -1, so
    # (R, S = R - id) is a Rota-Baxter system: the R column of arity 2 gets
    # l_3(m_2, R, R) / 2 and l_3(m_2, R, S), two nonzero brackets that
    # cancel entry by entry.
    algebra = MatrixAlgebra(GradedSpace([("u1", 0), ("u2", 0)]))
    end = algebra.space
    r_op = MultiMap(end, end, 1, 0, {(e,): {e: 1} for e in end if e != "e1^2"})
    s_op = MultiMap(end, end, 1, 0, {("e1^2",): {"e1^2": -1}})
    alpha = linfty.classical_cochain(algebra.product_map(), r_op, s_op)
    m2, r1, s1 = alpha.pieces()
    for pair in ([r1, r1], [r1, s1]):
        assert not l_bracket(end, [m2] + pair).component(TAG_R, 2).is_zero()
    assert is_mc(alpha)
    assert mc_residual(alpha).is_zero() and _fraction_expand(alpha, [None]).is_zero()
    halved = linfty.classical_cochain(algebra.product_map(), r_op, Fraction(1, 2) * s_op)
    assert mc_residual(halved) == _fraction_expand(halved, [None])
    assert not mc_residual(halved).component(TAG_R, 2).is_zero()


# -- the one form, entry point by entry point ----------------------------------------
#
# Every arithmetic entry point of maps and tensors side by side with a Fraction
# table: the oracle reads its inputs as values (`items`), computes on Fractions
# and drops what cancels; the result must hold exactly those values in lowest
# terms, with no cancelled entry left.  The coefficients have denominators 1, 2,
# 3, 5 and 6, and the algebras include one whose structure constants and unit
# have denominators.

THIRDS = (Fraction(1, 3), Fraction(-2, 3), Fraction(4, 3))
FIFTHS = (Fraction(2, 5), Fraction(-1, 5), Fraction(3, 5))
INTEGERS = (-2, 1, 3)


def _values(x):
    """``{key: Fraction}`` of a map (key ``(inputs, output)``) or a tensor
    (key ``factors``), read off its one form."""
    q = x.denominator
    if isinstance(x, MultiMap):
        return {(ins, out): Fraction(n, q) for ins, row in x.rows.items() for out, n in row.items()}
    return {factors: Fraction(n, q) for factors, n in x.rows.items()}


def _fraction_values(x):
    """The same values read through `items`, the value reader."""
    if isinstance(x, MultiMap):
        return {(ins, out): c for ins, outs in x.items() for out, c in outs.items()}
    return dict(x.items())


def _assert_holds(x, expected):
    """``x`` holds the nonzero values of ``expected`` in its one form: the
    least denominator, every numerator nonzero, no empty row."""
    expected = {key: c for key, c in expected.items() if c}
    assert _values(x) == _fraction_values(x) == expected
    assert x.denominator == lcm(*(c.denominator for c in expected.values()))
    if isinstance(x, MultiMap):
        assert all(x.rows.values()) and all(n for row in x.rows.values() for n in row.values())
    else:
        assert all(x.rows.values())


def _add_into(total, values, scalar=1):
    for key, c in values.items():
        total[key] = total.get(key, 0) + scalar * c
    return total


def _fraction_rows(rows):
    """The ``(inputs, {output: Fraction})`` rows of `_fraction_signed_rows`
    summed on Fractions, keyed ``(inputs, output)``."""
    total = {}
    for ins, outs in rows:
        _add_into(total, {(ins, out): c for out, c in outs.items()})
    return total


def _maps_over(rng, space, arity, degree, coefficients, density=0.6):
    return random_multimap(rng, space, space, arity, degree, density, coefficients)


@pytest.mark.parametrize("space", SPACES, ids=["V-100", "V01", "V-10"])
def test_map_arithmetic_matches_fraction_tables(space):
    rng = random.Random(f"arithmetic:{space!r}")
    grown = cancelled = 0
    for _ in range(20):
        degree, arity = rng.choice((-1, 0, 1)), rng.randint(1, 2)
        # over 1, then 3, then 5: the table's denominator grows partway
        maps = [_maps_over(rng, space, arity, degree, c) for c in (INTEGERS, THIRDS, FIFTHS)]
        maps.append(_maps_over(rng, space, arity, degree, COEFFICIENTS))
        scalars = [rng.choice(INTEGERS + COEFFICIENTS) for _ in maps]
        # the first map again with the opposite scalar: its entries cancel
        terms = list(zip(scalars, maps)) + [(-scalars[0], maps[0])]
        combined = MultiMap.combination(space, space, arity, degree, terms)
        expected = {}
        for scalar, m in terms:
            _add_into(expected, _fraction_values(m), scalar)
        _assert_holds(combined, expected)
        denominators = [m.denominator for m in maps[:3] if not m.is_zero()]
        grown += len(set(itertools.accumulate(denominators, lcm))) > 1
        cancelled += not maps[0].is_zero() and not combined.is_zero()
        total = MultiMap.sum(space, space, arity, degree, maps)
        expected = {}
        for m in maps:
            _add_into(expected, _fraction_values(m))
        _assert_holds(total, expected)
        # (f + g) - g cancels g's entries and leaves f
        f, g = maps[1], maps[2]
        _assert_holds((f + g) - g, _fraction_values(f))
        _assert_holds(f - f, {})
        for scalar in (0, -1, 3, Fraction(-3, 4), Fraction(5, 6)):
            scaled = scalar * maps[3]
            _assert_holds(scaled, _add_into({}, _fraction_values(maps[3]), scalar))
            assert scaled == maps[3] * scalar
        _assert_holds(-maps[3], _add_into({}, _fraction_values(maps[3]), -1))
    assert grown >= 15 and cancelled >= 15


@pytest.mark.parametrize("space", SPACES, ids=["V-100", "V01", "V-10"])
def test_compositions_match_fraction_tables(space):
    rng = random.Random(f"compose:{space!r}")
    nonzero = 0
    for _ in range(30):
        f = _map(rng, space, rng.randint(1, 3), rng.choice((-1, 0, 1)))
        parts = [
            _map(rng, space, rng.randint(1, 2), rng.choice((-1, 0, 1)))
            if rng.random() < 0.7
            else None
            for _ in range(f.arity)
        ]
        composite = compose_tensor(f, parts)
        _assert_holds(composite, _fraction_rows(_fraction_signed_rows(f, [parts], space)))
        nonzero += not composite.is_zero()
        g = _map(rng, space, rng.randint(1, 2), rng.choice((-1, 0, 1)))
        for position in range(1, f.arity + 1):
            layout = [None] * f.arity
            layout[position - 1] = g
            expected = _fraction_rows(_fraction_signed_rows(f, [layout], space))
            _assert_holds(insert(f, position, g), expected)
        args = [p for p in parts if p is not None][: f.arity]
        if args:
            expected = _fraction_rows(_fraction_signed_rows(f, _slot_choices(f, args), space))
            _assert_holds(brace_map(f, args), expected)
    assert nonzero > 15


def _scaled_matrix_algebra(V, rng):
    """End(V) on the basis f_a = s_a e_a for random rational s_a: products
    f_a f_b = (s_a s_b / s_c) f_c and the unit sum_p f_pp / s_pp, so both
    have denominators."""
    M = MatrixAlgebra(V)
    scale = {name: rng.choice(COEFFICIENTS) for name in M.space.names}
    products = {
        (a, b): {c: scale[a] * scale[b] / scale[c] * v for c, v in outs.items()}
        for (a, b), outs in M.product_map().items()
    }
    unit = {name: 1 / scale[name] for (name,), _ in M.unit.items()}
    return BasedAlgebra(M.space, products, unit)


ALGEBRAS = {
    "End(0,1)": lambda rng: MatrixAlgebra(GradedSpace([("v1", 0), ("v2", 1)])),
    "scaled End(0,1)": lambda rng: _scaled_matrix_algebra(
        GradedSpace([("v1", 0), ("v2", 1)]), rng
    ),
    "scaled End(-1,0,0)": lambda rng: _scaled_matrix_algebra(SPACES[0], rng),
}


def _fraction_product(algebra, a, b):
    """The componentwise product of two tensors on Fractions, the sign of
    each factor of b passing the factors of a to its right."""
    degree = algebra.space.degree
    product = algebra.product_map().evaluate
    total = {}
    for xf, xc in a.items():
        for yf, yc in b.items():
            exponent = sum(
                degree(y) * degree(x)
                for j, y in enumerate(yf)
                for x in xf[j + 1 :]
            )
            terms = [((), parity_sign(exponent) * xc * yc)]
            for x, y in zip(xf, yf):
                terms = [
                    (names + (c,), v * w) for names, v in terms for c, w in product((x, y)).items()
                ]
            for names, v in terms:
                total[names] = total.get(names, 0) + v
    return total


def _fraction_raised(t, slots, order):
    unit = dict(t.algebra.unit.items())
    free = [k for k in range(1, order + 1) if k not in slots]
    total = {}
    for factors, c in t.items():
        for choice in itertools.product(unit.items(), repeat=len(free)):
            names = dict(zip(slots, factors))
            value = c
            for position, ((name,), u) in zip(free, choice):
                names[position] = name
                value *= u
            key = tuple(names[k] for k in range(1, order + 1))
            total[key] = total.get(key, 0) + value
    return total


def _fraction_F(t):
    """F of a tensor by its definition: every input tuple, the product
    a_1 x_1 a_2 ... x_n a_{n+1} on Fractions, signed by each x_k passing the
    factors right of it."""
    algebra = t.algebra
    space, product = algebra.space, algebra.product_map().evaluate
    n = t.order - 1
    total = {}
    for factors, c in t.items():
        for xs in itertools.product(space.names, repeat=n):
            exponent = sum(
                space.degree(x) * sum(map(space.degree, factors[k + 1 :]))
                for k, x in enumerate(xs)
            )
            terms = {factors[0]: parity_sign(exponent) * c}
            for b in itertools.chain.from_iterable(zip(xs, factors[1:])):
                step = {}
                for a, v in terms.items():
                    for out, w in product((a, b)).items():
                        step[out] = step.get(out, 0) + v * w
                terms = step
            for out, v in terms.items():
                total[xs, out] = total.get((xs, out), 0) + v
    return total


@pytest.mark.parametrize("name", sorted(ALGEBRAS))
def test_tensor_arithmetic_matches_fraction_tables(name):
    rng = random.Random(f"tensors:{name}")
    algebra = ALGEBRAS[name](rng)
    assert algebra.is_associative() and algebra.is_unital()
    density = 0.5 if algebra.space.dim <= 4 else 0.1
    nonzero = 0
    for _ in range(12):
        order = rng.randint(1, 3)
        tensors = [
            random_tensor(rng, algebra, order, None, density, c)
            for c in (INTEGERS, THIRDS, FIFTHS, COEFFICIENTS)
        ]
        total = TensorElem.sum(algebra, order, tensors + [-tensors[0]])
        expected = {}
        for t in tensors[1:]:
            _add_into(expected, _fraction_values(t))
        _assert_holds(total, expected)
        a, b = tensors[2], tensors[3]
        _assert_holds((a + b) - b, _fraction_values(a))
        for scalar in (0, -1, 2, Fraction(-5, 3), "3/4"):
            value = Fraction(scalar)
            _assert_holds(scalar * b, _add_into({}, _fraction_values(b), value))
        product = tensor_product_multiply(a, b)
        _assert_holds(product, _fraction_product(algebra, a, b))
        nonzero += not product.is_zero()
        slots = tuple(sorted(rng.sample(range(1, order + 2), order)))
        _assert_holds(raise_indices(b, slots, order + 1), _fraction_raised(b, slots, order + 1))
    assert nonzero >= 6
    # the unit cube, and the image of m_1 of a pair: units raised into tensors
    cube = algebra._unit_cube()
    _assert_holds(cube, _fraction_raised(algebra.unit, (1,), 3))
    d = random_tensor(rng, algebra, 1, -1, 0.9, COEFFICIENTS)
    m1 = InfinityYBPair(algebra, r={1: d}, s={1: d}).gen("m", 1)
    expected = _add_into(_fraction_raised(d, (2,), 2), _fraction_raised(d, (1,), 2), -1)
    if d.is_zero():
        assert m1 is None
    else:
        _assert_holds(m1, expected)


def _fraction_F_inverse(f):
    """The tensor of each entry of f on End(V) by the definition of F: the
    factors e_{q_0}^{p_1}, e_{v_1}^{p_2}, ... read off the inputs and the
    output, the coefficient signed by each input passing the factors right
    of it."""
    indices, name, degree = MatrixAlgebra.unit_indices, MatrixAlgebra.unit_name, f.space_in.degree
    total = {}
    for (ins, out), c in _fraction_values(f).items():
        us, vs = [indices(x)[0] for x in ins], [indices(x)[1] for x in ins]
        q0, p_last = indices(out)
        factors = tuple(name(q, p) for q, p in zip([q0] + vs, us + [p_last]))
        exponent = sum(
            degree(x) * sum(map(degree, factors[k + 1 :])) for k, x in enumerate(ins)
        )
        total[factors] = parity_sign(exponent) * c
    return total


@pytest.mark.parametrize("name", sorted(ALGEBRAS))
def test_f_map_and_f_inverse_match_fraction_tables(name):
    rng = random.Random(f"dictionary:{name}")
    algebra = ALGEBRAS[name](rng)
    space = algebra.space
    nonzero = 0
    for order in (2, 3):
        for degree in (-1, 0, 1):
            t = random_tensor(rng, algebra, order, degree, 0.4, COEFFICIENTS)
            f = F_map(t)
            _assert_holds(f, _fraction_F(t))
            nonzero += not f.is_zero()
            if isinstance(algebra, MatrixAlgebra):
                assert F_inverse(f, algebra) == t
                g = random_multimap(rng, space, space, order - 1, degree, 0.4, COEFFICIENTS)
                inverse = F_inverse(g, algebra)
                _assert_holds(inverse, _fraction_F_inverse(g))
                _assert_holds(F_map(inverse), _values(g))
    assert nonzero >= 4
