"""Classical and homotopy associative Yang-Baxter pairs.

A pair of tensors over a unital algebra induces a pair of multilinear
operators: an order-(n+1) tensor a_1 (x) ... (x) a_{n+1} acts on n inputs by
interleaved multiplication, with a Koszul sign for moving the inputs into
place. On a full matrix algebra this dictionary is a bijection, and it
matches the homotopy Yang-Baxter residuals with the operator-family
residuals of the differential graded specialization, piece by piece.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Mapping, Optional

from .graded import (
    BasedAlgebra,
    MatrixAlgebra,
    MultiMap,
    TensorElem,
    _family_key,
    _json_int,
    _json_object,
    compose_tensor,
    insert,
    raise_indices,
    tensor_product_multiply,
)
from .residuals import HomotopyRBS
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


class YBPair:
    """A pair of order-2 tensors over one unital based algebra."""

    __slots__ = ("algebra", "r", "s")

    def __init__(self, r: TensorElem, s: TensorElem):
        if r.algebra != s.algebra:
            raise ValueError("both tensors must live over the same algebra")
        if r.order != 2 or s.order != 2:
            raise ValueError("classical pairs consist of order-2 tensors")
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

    __slots__ = ("algebra", "r", "s", "truncation")

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
        if truncation is None:
            truncation = max([1, *self.r, *self.s])
        if truncation < 1:
            raise ValueError(f"truncation must be >= 1, got {truncation}")
        self.truncation = truncation

    def _validated(self, family, label) -> dict[int, TensorElem]:
        clean: dict[int, TensorElem] = {}
        for n, t in (family or {}).items():
            n = _family_key(n, f"{label}.{n}")
            if t.algebra != self.algebra:
                raise ValueError(f"{label}_{n} lives over a different algebra")
            if t.order != n:
                raise ValueError(f"{label}_{n} has order {t.order}, expected {n}")
            degree = t.homogeneous_degree()
            if degree is not None and degree != n - 2:
                raise ValueError(
                    f"{label}_{n} has degree {degree}, expected {n - 2}"
                )
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
        def family(key):
            return {
                _family_key(n, f"{key}.{n}"): TensorElem.from_json(
                    algebra, t, field=f"{key}.{n}"
                )
                for n, t in _json_object(data.get(key, {}), key).items()
            }

        truncation = _json_int(data.get("truncation"), "truncation", optional=True)
        return cls(
            algebra,
            r=family("r"),
            s=family("s"),
            truncation=truncation,
        )


def _family(pair: InfinityYBPair, name: str):
    return pair.r_at if name == "r" else pair.s_at


def _piece_1(pair: InfinityYBPair, n: int, family: str) -> TensorElem:
    """-sum_k ( d^k * t_{n+1} - (-1)^{n-1} t_{n+1} * d^k )."""
    t = _family(pair, family)(n + 1)
    d = pair.d()
    terms = []
    if t is not None and not d.is_zero():
        sign = parity_sign(n - 1)
        for k in range(1, n + 2):
            dk = raise_indices(d, (k,), n + 1)
            terms.append(tensor_product_multiply(dk, t))
            terms.append(-sign * tensor_product_multiply(t, dk))
    return -TensorElem.sum(pair.algebra, n + 1, terms)


def _piece_2(pair: InfinityYBPair, n: int, family: str) -> TensorElem:
    """sum_{i+j=n} (-1)^{1+i} t_{i+1}^{1..i+1} * t_{j+1}^{i+1..n+1}."""
    at = _family(pair, family)
    terms = []
    for i in range(1, n):
        j = n - i
        left, right = at(i + 1), at(j + 1)
        if left is None or right is None:
            continue
        left_raised = raise_indices(left, tuple(range(1, i + 2)), n + 1)
        right_raised = raise_indices(right, tuple(range(i + 1, n + 2)), n + 1)
        terms.append(
            parity_sign(1 + i) * tensor_product_multiply(left_raised, right_raised)
        )
    return TensorElem.sum(pair.algebra, n + 1, terms)


def _straddle_slots(s: int, j: int, n: int) -> tuple[int, ...]:
    return tuple(range(1, s + 1)) + tuple(range(s + j + 1, n + 2))


def _piece_3(pair: InfinityYBPair, n: int, family: str) -> TensorElem:
    """sum (-1)^{(s-1)+(j-1)(i-s+1)} t_{i+1}^{straddle} * r_{j+1}^{s..s+j}."""
    at = _family(pair, family)
    terms = []
    for i in range(1, n):
        j = n - i
        outer, inner = at(i + 1), pair.r_at(j + 1)
        if outer is None or inner is None:
            continue
        for s in range(1, i + 1):
            outer_raised = raise_indices(outer, _straddle_slots(s, j, n), n + 1)
            inner_raised = raise_indices(inner, tuple(range(s, s + j + 1)), n + 1)
            sign = parity_sign((s - 1) + (j - 1) * (i - s + 1))
            terms.append(sign * tensor_product_multiply(outer_raised, inner_raised))
    return TensorElem.sum(pair.algebra, n + 1, terms)


def _piece_4(pair: InfinityYBPair, n: int, family: str) -> TensorElem:
    """sum (-1)^{(s-1)+(j-1)(i-s)} s_{j+1}^{s+1..s+j+1} * t_{i+1}^{straddle}."""
    at = _family(pair, family)
    terms = []
    for i in range(1, n):
        j = n - i
        outer, inner = at(i + 1), pair.s_at(j + 1)
        if outer is None or inner is None:
            continue
        for s in range(1, i + 1):
            outer_raised = raise_indices(outer, _straddle_slots(s, j, n), n + 1)
            inner_raised = raise_indices(
                inner, tuple(range(s + 1, s + j + 2)), n + 1
            )
            sign = parity_sign((s - 1) + (j - 1) * (i - s))
            terms.append(sign * tensor_product_multiply(inner_raised, outer_raised))
    return TensorElem.sum(pair.algebra, n + 1, terms)


def check_infinity_ybp(
    pair: InfinityYBPair, n: int
) -> tuple[TensorElem, TensorElem]:
    """Defects of the two homotopy Yang-Baxter identities at index n.

    Order-(n+1) tensors; n = 0 degenerates to the square of d = r_1 = s_1.
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
    residuals = []
    for family in ("r", "s"):
        residuals.append(
            -_piece_1(pair, n, family)
            - _piece_2(pair, n, family)
            + _piece_3(pair, n, family)
            + _piece_4(pair, n, family)
        )
    return residuals[0], residuals[1]


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


def _operator(pair: InfinityYBPair, family: str, arity: int) -> MultiMap:
    t = _family(pair, family)(arity + 1)
    if t is None:
        return MultiMap.zero(
            pair.algebra.space, pair.algebra.space, arity, arity - 1
        )
    return F_map(t)


def equivalence_identity_1(
    pair: InfinityYBPair, n: int, family: str = "r"
) -> tuple[MultiMap, TensorElem]:
    """Differential piece: map side and tensor side (they agree under F_map)."""
    space = pair.algebra.space
    m1 = inner_derivation(pair.d(), pair.algebra)
    T = _operator(pair, family, n)
    sign = parity_sign(n - 1)
    terms = [compose_tensor(m1, [T])]
    terms += [-sign * insert(T, i + 1, m1) for i in range(n)]
    return MultiMap.sum(space, space, n, n - 2, terms), _piece_1(pair, n, family)


def equivalence_identity_2(
    pair: InfinityYBPair, n: int, family: str = "r"
) -> tuple[MultiMap, TensorElem]:
    """Pairwise-product piece."""
    space = pair.algebra.space
    m2 = pair.algebra.product_map()
    terms = []
    for i in range(1, n):
        parts = [_operator(pair, family, i), _operator(pair, family, n - i)]
        terms.append(parity_sign(1 + i) * compose_tensor(m2, parts))
    return MultiMap.sum(space, space, n, n - 2, terms), _piece_2(pair, n, family)


def equivalence_identity_3(
    pair: InfinityYBPair, n: int, family: str = "r"
) -> tuple[MultiMap, TensorElem]:
    """First straddling piece: inner first-family composition."""
    space = pair.algebra.space
    m2 = pair.algebra.product_map()
    terms = []
    for i in range(1, n):
        j = n - i
        outer = _operator(pair, family, i)
        inner = compose_tensor(m2, [_operator(pair, "r", j), None])
        for s in range(1, i + 1):
            sign = parity_sign((s - 1) + (j - 1) * (i - s + 1))
            terms.append(sign * insert(outer, s, inner))
    return MultiMap.sum(space, space, n, n - 2, terms), _piece_3(pair, n, family)


def equivalence_identity_4(
    pair: InfinityYBPair, n: int, family: str = "r"
) -> tuple[MultiMap, TensorElem]:
    """Second straddling piece: inner second-family composition."""
    space = pair.algebra.space
    m2 = pair.algebra.product_map()
    terms = []
    for i in range(1, n):
        j = n - i
        outer = _operator(pair, family, i)
        inner = compose_tensor(m2, [None, _operator(pair, "s", j)])
        for s in range(1, i + 1):
            sign = parity_sign((s - 1) + (j - 1) * (i - s))
            terms.append(sign * insert(outer, s, inner))
    return MultiMap.sum(space, space, n, n - 2, terms), _piece_4(pair, n, family)


# ---------------------------------------------------------------------------
# the correspondence with homotopy Rota-Baxter structures
# ---------------------------------------------------------------------------


def chi_map(pair: InfinityYBPair) -> HomotopyRBS:
    """The differential graded structure induced by a homotopy pair.

    m_1 = -[d, -], m_2 = the algebra product, operators = the tensor images.
    """
    algebra = pair.algebra
    m1 = inner_derivation(pair.d(), algebra)
    r = {n - 1: F_map(t) for n, t in pair.r.items() if n >= 2}
    s = {n - 1: F_map(t) for n, t in pair.s.items() if n >= 2}
    return HomotopyRBS(
        algebra.space,
        m={1: m1, 2: algebra.product_map()},
        r=r,
        s=s,
        truncation=max(1, pair.truncation - 1),
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
