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

import pytest

from rbsinfty import linfty
from rbsinfty.graded import (
    GradedSpace,
    MatrixAlgebra,
    MultiMap,
    _input_space,
    _IntegerTable,
    _signed_rows,
    _slot_choices,
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
    is_mc,
    l_bracket,
    mc_residual,
    nonvanishing_inputs,
    twisted_differential,
)
from rbsinfty.sampling import random_multimap
from rbsinfty.signs import koszul_chi, parity_sign

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
                for ins, outs in part.table.items():
                    d = sum(map(degrees.__getitem__, ins))
                    for out, c in outs.items():
                        option = (ins, c.numerator, c.denominator, d)
                        index.setdefault(out, []).append(option)
            slots.append(None if part is None else (part.degree & 1, indexes[id(part)]))
        for fins, fouts in f.table.items():
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
                _fraction_brace_map(sf, [sh]).table.items(),
                (
                    (ins, {out: -swap * c for out, c in outs.items()})
                    for ins, outs in _fraction_brace_map(sh, [sf]).table.items()
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
        for weight, pieces in nonvanishing_inputs(pool, lead):
            bracket = _fraction_l_bracket(space, pieces)
            terms.append(bracket if weight == 1 else weight * bracket)
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
        fractional += any(
            c.denominator > 1 for outs in composite.table.values() for c in outs.values()
        )
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
    streamed = MultiMap(space, space, 2, f.degree, table)
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
    built = MultiMap(space, space, 1, 0, table)
    assert built == MultiMap(space, space, 1, 0, expected)
    assert any(c.denominator > 1 for outs in built.table.values() for c in outs.values())
    q, rows = built._numerators()
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
        for ins, outs in m.table.items():
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
