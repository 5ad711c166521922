"""Classical and homotopy associative Yang-Baxter pairs.

A pair of tensors over a unital algebra A induces a pair of multilinear
operators: the dictionary F sends an order-(n+1) tensor
a_1 (x) ... (x) a_{n+1} to the operator of interleaved multiplication on n
inputs, with a Koszul sign for moving the inputs into place.  On a full
matrix algebra F is a bijection.

The tensors form the tensor operad of A, an order-(k+1) tensor standing for
an arity-k operation, and F is an operad map from it to End(A).  The
composite of t = a_1 (x) ... (x) a_{k+1} and u = b_1 (x) ... (x) b_{l+1} at
slot i puts u between a_i and a_{i+1}:

    t o_i u = (-1)^(|u| (|a_{i+1}| + ... + |a_{k+1}|))
              a_1 (x) ... (x) a_i b_1 (x) b_2 (x) ... (x) b_l (x) b_{l+1} a_{i+1}
              (x) ... (x) a_{k+1},

the sign of u passing the factors right of the slot, the same linear rule as
a tree graft.  A homotopy pair r_n, s_n with d = r_1 = s_1 is a map from the
minimal model to this operad, with differential m_1 = -d (x) 1 + 1 (x) d:

    m_2 -> 1 (x) 1 (x) 1,   m_k -> 0 (k >= 3),   R_n -> r_{n+1},   S_n -> s_{n+1},

whose images under F are -[d, -], the product of A and the operators of the
pair.  So `check_infinity_ybp` is `generator_differential`'s residual of
`rbsinfty.residuals` evaluated in the tensor operad, negated, and F sends it
to the residual of the differential graded structure `chi_map`.  The four
differential graded pieces of that residual, written once in
`rbsinfty.residuals`, are evaluated in both operads by
`equivalence_identity_1` ... `equivalence_identity_4`.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import partial
from typing import Mapping, Optional

from .graded import (
    BasedAlgebra,
    MatrixAlgebra,
    MultiMap,
    TensorElem,
    _family_key,
    _json_family,
    _json_int,
    _truncation,
    raise_indices,
    tensor_product_multiply,
)
from .residuals import (
    HomotopyRBS,
    _differential_piece,
    _Endomorphisms,
    _product_piece,
    _residual,
    _straddle_piece,
)
from .signs import parity_sign


def F_map(t: TensorElem) -> MultiMap:
    """The interleaved-multiplication operator of an order-(n+1) tensor.

    (a_1 (x) ... (x) a_{n+1}) maps (x_1, ..., x_n) to
    (-1)^e a_1 x_1 a_2 x_2 ... x_n a_{n+1} with e = sum |x_k| |a_j| over j > k.
    """
    if t.order < 2:
        raise ValueError(f"need a tensor of order >= 2, got {t.order}")
    algebra = t.algebra
    space = algebra.space
    n = t.order - 1
    degree = t.homogeneous_degree()
    if degree is None:
        return MultiMap.zero(space, space, n, 0)
    rows = []
    for factors, coeff in t.table.items():
        factor_degrees = [space.degree(a) for a in factors]
        tails = [sum(factor_degrees[k:]) for k in range(n + 1)]
        for xs in itertools.product(space.names, repeat=n):
            exponent = sum(
                space.degree(x) * tails[k] for k, x in enumerate(xs, start=1)
            )
            # one term per path through the structure constants; the map's
            # constructor sums the paths that end in the same basis element
            terms = [(factors[0], parity_sign(exponent) * coeff)]
            for b in itertools.chain.from_iterable(zip(xs, factors[1:])):
                terms = [
                    (c, v * w)
                    for a, v in terms
                    for c, w in algebra.products.get((a, b), {}).items()
                ]
            rows += [(xs, {c: v}) for c, v in terms]
    return MultiMap(space, space, n, degree, rows)


def F_inverse(f: MultiMap, algebra: MatrixAlgebra) -> TensorElem:
    """The unique tensor mapping to f, on a full matrix algebra.

    Reads the coefficient of e_{q_0}^{p_1} (x) e_{v_1}^{p_2} (x) ... directly
    off the value of f on the canonical basis, undoing the interleaving sign.
    """
    if not isinstance(algebra, MatrixAlgebra):
        raise ValueError("tensor extraction needs a full matrix algebra")
    if f.space_in != algebra.space or f.space_out != algebra.space:
        raise ValueError("map is not defined on the given matrix algebra")
    space = algebra.space
    n = f.arity
    terms = []
    for ins, outs in f.table.items():
        rows_cols = [MatrixAlgebra.unit_indices(x) for x in ins]
        us = [rc[0] for rc in rows_cols]
        vs = [rc[1] for rc in rows_cols]
        for out, coeff in outs.items():
            q0, p_last = MatrixAlgebra.unit_indices(out)
            qs = [q0] + vs
            ps = us + [p_last]
            factors = tuple(
                MatrixAlgebra.unit_name(qs[j], ps[j]) for j in range(n + 1)
            )
            factor_degrees = [space.degree(a) for a in factors]
            exponent = sum(
                space.degree(x) * sum(factor_degrees[k:])
                for k, x in enumerate(ins, start=1)
            )
            terms.append((factors, parity_sign(exponent) * coeff))
    return TensorElem(algebra, n + 1, terms)


# ---------------------------------------------------------------------------
# classical pairs
# ---------------------------------------------------------------------------


def _check_degree(t: TensorElem, label: str, expected: int) -> None:
    """Refuse ``t`` unless it is zero or homogeneous of degree ``expected``,
    naming it by ``label``."""
    try:
        degree = t.homogeneous_degree()
    except ValueError as err:
        raise ValueError(f"{label}: {err}") from None
    if degree is not None and degree != expected:
        raise ValueError(f"{label} has degree {degree}, expected {expected}")


class YBPair:
    """A pair of order-2 tensors over one unital based algebra, each
    homogeneous of degree 0 (or zero)."""

    __slots__ = ("algebra", "r", "s")

    def __init__(self, r: TensorElem, s: TensorElem):
        if r.algebra != s.algebra:
            raise ValueError("both tensors must live over the same algebra")
        if r.order != 2 or s.order != 2:
            raise ValueError("classical pairs consist of order-2 tensors")
        for label, t in (("r", r), ("s", s)):
            _check_degree(t, label, 0)
        self.algebra = r.algebra
        self.r = r
        self.s = s

    def to_json(self) -> dict:
        return {"r": self.r.to_json(), "s": self.s.to_json()}

    @classmethod
    def from_json(cls, algebra: BasedAlgebra, data: Mapping) -> "YBPair":
        return cls(
            TensorElem.from_json(algebra, data["r"], field="r"),
            TensorElem.from_json(algebra, data["s"], field="s"),
        )


def check_classical_ybp(pair: YBPair) -> tuple[TensorElem, TensorElem]:
    """Left sides of the two coupled Yang-Baxter equations, as order-3 tensors."""
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


def ybp_to_rbs(pair: YBPair) -> tuple[MultiMap, MultiMap]:
    """The operator pair induced by a tensor pair."""
    return F_map(pair.r), F_map(pair.s)


def rbs_to_ybp(R: MultiMap, S: MultiMap, algebra: MatrixAlgebra) -> YBPair:
    """The tensor pair recovering the given operators on a matrix algebra."""
    if R.arity != 1 or S.arity != 1:
        raise ValueError("classical operators have arity 1")
    return YBPair(F_inverse(R, algebra), F_inverse(S, algebra))


# ---------------------------------------------------------------------------
# homotopy pairs
# ---------------------------------------------------------------------------


class InfinityYBPair:
    """Families of tensors r_n, s_n (order n, degree n-2) with r_1 = s_1."""

    __slots__ = ("algebra", "r", "s", "truncation", "_operad")

    def __init__(
        self,
        algebra: BasedAlgebra,
        r: Optional[Mapping[int, TensorElem]] = None,
        s: Optional[Mapping[int, TensorElem]] = None,
        truncation: Optional[int] = None,
    ):
        self.algebra = algebra
        self.r = self._validated(r, "r")
        self.s = self._validated(s, "s")
        d_r = self.r.get(1, TensorElem.zero(algebra, 1))
        d_s = self.s.get(1, TensorElem.zero(algebra, 1))
        if d_r != d_s:
            raise ValueError("the order-1 members of both families must agree")
        self.truncation = _truncation(truncation, {"r": self.r, "s": self.s})
        self._operad = _TensorOperad(self)

    def _validated(self, family, label) -> dict[int, TensorElem]:
        clean: dict[int, TensorElem] = {}
        for n, t in (family or {}).items():
            n = _family_key(n, f"{label}.{n}")
            if t.algebra != self.algebra:
                raise ValueError(f"{label}_{n} lives over a different algebra")
            if t.order != n:
                raise ValueError(f"{label}_{n} has order {t.order}, expected {n}")
            _check_degree(t, f"{label}_{n}", n - 2)
            if not t.is_zero():
                clean[n] = t
        return clean

    def d(self) -> TensorElem:
        return self.r.get(1, TensorElem.zero(self.algebra, 1))

    def r_at(self, n: int) -> Optional[TensorElem]:
        return self.r.get(n)

    def s_at(self, n: int) -> Optional[TensorElem]:
        return self.s.get(n)

    def to_json(self) -> dict:
        return {
            "truncation": self.truncation,
            "r": {str(n): t.to_json() for n, t in sorted(self.r.items())},
            "s": {str(n): t.to_json() for n, t in sorted(self.s.items())},
        }

    @classmethod
    def from_json(cls, algebra: BasedAlgebra, data: Mapping) -> "InfinityYBPair":
        parse = partial(TensorElem.from_json, algebra)
        return cls(
            algebra,
            r=_json_family(data, "r", parse),
            s=_json_family(data, "s", parse),
            truncation=_json_int(data.get("truncation"), "truncation", optional=True),
        )


class _TensorOperad:
    """The tensor operad of a pair's algebra as a `generator_differential`
    target; ``gen`` gives the images of the module docstring, None for zero."""

    def __init__(self, pair: InfinityYBPair):
        algebra = pair.algebra
        self.algebra = algebra
        self.degrees = algebra.space._degrees
        one = TensorElem(algebra, 1, (((u,), c) for u, c in algebra.unit.items()))
        m = {2: raise_indices(one, (1,), 3)}
        d = pair.d()
        if not d.is_zero():
            m[1] = raise_indices(d, (2,), 2) - raise_indices(d, (1,), 2)
        self.images = {
            "m": m,
            "R": {n - 1: t for n, t in pair.r.items() if n > 1},
            "S": {n - 1: t for n, t in pair.s.items() if n > 1},
        }

    def gen(self, family: str, arity: int) -> Optional[TensorElem]:
        return self.images[family].get(arity)

    def compose_at(self, t: TensorElem, i: int, u: TensorElem) -> TensorElem:
        """t o_i u: u's outer factors multiplied onto a_i and a_{i+1}."""
        products, degrees = self.algebra.products, self.degrees
        rows = []
        for a, ca in t.table.items():
            tail = sum(degrees[x] for x in a[i:])
            head, ai, aj, rest = a[: i - 1], a[i - 1], a[i], a[i + 1 :]
            for b, cb in u.table.items():
                odd = tail % 2 and sum(degrees[y] for y in b) % 2
                coeff = -ca * cb if odd else ca * cb
                middle = b[1:-1]
                for left, v in products.get((ai, b[0]), {}).items():
                    for right, w in products.get((b[-1], aj), {}).items():
                        rows.append((head + (left,) + middle + (right,) + rest, coeff * v * w))
        return TensorElem(self.algebra, t.order + u.order - 2, rows)

    def compose_row(self, f: TensorElem, parts) -> TensorElem:
        """f with ``parts`` grafted left to right; a None part leaves its slot open."""
        slot = 1
        for u in parts:
            if u is not None:
                f = self.compose_at(f, slot, u)
            slot += 1 if u is None else u.order - 1
        return f

    def sum(self, arity: int, degree: int, terms) -> TensorElem:
        """The signed sum of the ``(±1, tensor)`` terms, in one table."""
        rows = (
            (factors, c if sign == 1 else -c)
            for sign, t in terms
            for factors, c in t.table.items()
        )
        return TensorElem(self.algebra, arity + 1, rows)


def check_infinity_ybp(
    pair: InfinityYBPair, n: int
) -> tuple[TensorElem, TensorElem]:
    """Defects of the two homotopy Yang-Baxter identities at index n.

    Order-(n+1) tensors: the residuals of R_n and S_n in the tensor operad,
    negated; n = 0 degenerates to the square of d = r_1 = s_1.
    """
    if n < 0:
        raise ValueError(f"index must be >= 0, got {n}")
    if n + 1 > pair.truncation:
        raise ValueError(
            f"index {n} needs order {n + 1}, beyond the truncation {pair.truncation}"
        )
    if n == 0:
        d = pair.d()
        dd = tensor_product_multiply(d, d)
        return dd, dd
    operad = pair._operad
    return -_residual(operad, "R", n), -_residual(operad, "S", n)


# ---------------------------------------------------------------------------
# the operator picture of each residual piece
# ---------------------------------------------------------------------------


def inner_derivation(d: TensorElem, algebra: BasedAlgebra) -> MultiMap:
    """The map x -> -d x + (-1)^{|x|} x d for an algebra element d."""
    if d.order != 1:
        raise ValueError("an algebra element is an order-1 tensor")
    space = algebra.space
    degree = d.homogeneous_degree()
    if degree is None:
        return MultiMap.zero(space, space, 1, -1)
    d_coeffs = {factors[0]: c for factors, c in d.table.items()}
    rows = []
    for x in space.names:
        x_basis = {x: Fraction(1)}
        sign = parity_sign(space.degree(x))
        left = algebra.multiply(d_coeffs, x_basis)
        right = algebra.multiply(x_basis, d_coeffs)
        rows.append(((x,), {name: -c for name, c in left.items()}))
        rows.append(((x,), {name: sign * c for name, c in right.items()}))
    return MultiMap(space, space, 1, degree, rows)


def _in_both_operads(
    pair: InfinityYBPair, piece, family: str, n: int, *args
) -> tuple[MultiMap, TensorElem]:
    """The piece at index n in End(A), through `chi_map` of the pair read up
    to order n + 1 (so that it has m_2 for n >= 2), and in the tensor
    operad; F_map sends the second to the first."""
    wide = InfinityYBPair(pair.algebra, pair.r, pair.s, max(pair.truncation, n + 1))
    args = (family.upper(), n, *args)
    return piece(_Endomorphisms(chi_map(wide)), *args), piece(wide._operad, *args)


def equivalence_identity_1(
    pair: InfinityYBPair, n: int, family: str = "r"
) -> tuple[MultiMap, TensorElem]:
    """Differential piece: map side and tensor side (they agree under F_map)."""
    return _in_both_operads(pair, _differential_piece, family, n)


def equivalence_identity_2(
    pair: InfinityYBPair, n: int, family: str = "r"
) -> tuple[MultiMap, TensorElem]:
    """Pairwise-product piece."""
    return _in_both_operads(pair, _product_piece, family, n)


def equivalence_identity_3(
    pair: InfinityYBPair, n: int, family: str = "r"
) -> tuple[MultiMap, TensorElem]:
    """First straddling piece: inner first-family composition."""
    return _in_both_operads(pair, _straddle_piece, family, n, "R")


def equivalence_identity_4(
    pair: InfinityYBPair, n: int, family: str = "r"
) -> tuple[MultiMap, TensorElem]:
    """Second straddling piece: inner second-family composition."""
    return _in_both_operads(pair, _straddle_piece, family, n, "S")


# ---------------------------------------------------------------------------
# the correspondence with homotopy Rota-Baxter structures
# ---------------------------------------------------------------------------


def chi_map(pair: InfinityYBPair) -> HomotopyRBS:
    """The differential graded structure induced by a homotopy pair.

    m_1 = -[d, -], m_2 = the algebra product, operators = the tensor images,
    up to the arity pair.truncation - 1 (at least 1).
    """
    algebra = pair.algebra
    truncation = max(1, pair.truncation - 1)
    m = {1: inner_derivation(pair.d(), algebra), 2: algebra.product_map()}
    r = {n - 1: F_map(t) for n, t in pair.r.items() if n >= 2}
    s = {n - 1: F_map(t) for n, t in pair.s.items() if n >= 2}
    return HomotopyRBS(
        algebra.space,
        m={n: f for n, f in m.items() if n <= truncation},
        r=r,
        s=s,
        truncation=truncation,
    )


def chi_inverse(
    structure: HomotopyRBS, d: TensorElem, algebra: MatrixAlgebra
) -> InfinityYBPair:
    """The homotopy pair recovering a differential graded structure.

    The element d must reproduce the structure's differential as -[d, -];
    it is part of the data because -[d, -] determines d only up to center.
    """
    expected = inner_derivation(d, algebra)
    actual = structure.m_at(1) or MultiMap.zero(
        algebra.space, algebra.space, 1, -1
    )
    if expected != actual:
        raise ValueError("m_1 is not -[d, -] for the supplied d")
    r: dict[int, TensorElem] = {1: d}
    s: dict[int, TensorElem] = {1: d}
    for n, f in structure.r.items():
        r[n + 1] = F_inverse(f, algebra)
    for n, f in structure.s.items():
        s[n + 1] = F_inverse(f, algebra)
    return InfinityYBPair(algebra, r=r, s=s, truncation=structure.truncation + 1)
