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
pair: the structure `chi_map`, which `chi_inverse` inverts by round trip.  An
`InfinityYBPair` is this map, and so its own `generator_differential` target,
whose one composition, `compose_row`, grafts a row one slot at a time, each
step t o_i u above (t o_i u itself is the row of one part, `slot(k, i, u)`).
So `check_infinity_ybp` is the residual of `rbsinfty.residuals` evaluated on
the pair, negated, and F sends it to the residual of `chi_map`; the coupled
classical equations of `check_classical_ybp` are its index 2 on the pair
with r_2 = r and s_2 = s.  The four
differential graded pieces of that residual, written once in
`rbsinfty.residuals`, are evaluated on `chi_map` and on the pair by
`equivalence_identity_1` ... `equivalence_identity_4`.
"""

from __future__ import annotations

import itertools
from functools import partial
from types import MappingProxyType
from typing import Mapping, Optional, Sequence

from .graded import (
    BasedAlgebra,
    MatrixAlgebra,
    MultiMap,
    TensorElem,
    _IntegerTable,
    _MISSING,
    _family_key,
    _flat_sum,
    _json_family,
    _json_int,
    _truncation,
    raise_indices,
    tensor_product_multiply,
)
from .residuals import (
    HomotopyRBS,
    _differential_piece,
    _check_classical_pair,
    _product_piece,
    _residual,
    _straddle_piece,
)


def _tails(degrees: Mapping[str, int], factors: Sequence[str]) -> list[int]:
    """The interleaving sign of inputs x_1, ..., x_n with the factors a_1,
    ..., a_{n+1} is (-1)^e, e = sum_k |x_k| t_k; these are the tails
    t_k = |a_{k+1}| + ... + |a_{n+1}|."""
    tails = list(itertools.accumulate(degrees[a] for a in reversed(factors[1:])))
    tails.reverse()
    return tails


def F_map(t: TensorElem) -> MultiMap:
    """The interleaved-multiplication operator of an order-(n+1) tensor.

    (a_1 (x) ... (x) a_{n+1}) maps (x_1, ..., x_n) to
    (-1)^e a_1 x_1 a_2 x_2 ... x_n a_{n+1} with e = sum |x_k| |a_j| over j > k.

    One step per nonzero path through the structure constants, not per input
    tuple: a factor tuple's paths grow slot by slot, sharing their prefixes,
    by the inputs x with c x ≠ 0 times the next factor, each x_k signed by
    its tail (`_tails`).  Path values are integers over the tensor's and the
    product's denominators (`BasedAlgebra._integer_index`), and every path
    is a row ``(inputs, value, last product)`` of one `_IntegerTable`.
    """
    if t.order < 2:
        raise ValueError(f"need a tensor of order >= 2, got {t.order}")
    algebra = t.algebra
    space = algebra.space
    n = t.order - 1
    degree = t.homogeneous_degree()
    if degree is None:
        return MultiMap.zero(space, space, n, 0)
    q, products, right = algebra._integer_index()
    degrees = space._degrees
    rows = []
    for factors, value in t.rows.items():
        paths = [((), value, {factors[0]: 1})]
        for a, tail in zip(factors[1:], _tails(degrees, factors)):
            paths = [
                (ins + (x,), -v * w * u if tail & degrees[x] & 1 else v * w * u, after)
                for ins, v, outs in paths
                for c, w in outs.items()
                for x, row in right.get(c, ())
                for cx, u in row.items()
                if (after := products.get((cx, a))) is not None
            ]
        rows += paths
    table = _IntegerTable()
    table.add(t.denominator * q ** (2 * n), rows)
    return MultiMap(space, space, n, degree, table.rows, table.denominator)


def F_inverse(f: MultiMap, algebra: MatrixAlgebra) -> TensorElem:
    """The unique tensor mapping to f, on a full matrix algebra.

    Reads the coefficient of e_{q_0}^{p_1} (x) e_{v_1}^{p_2} (x) ... directly
    off the value of f on the canonical basis, undoing the interleaving
    sign: one step per entry of f, with each basis name's (p, q) read once,
    over f's denominator.
    """
    if not isinstance(algebra, MatrixAlgebra):
        raise ValueError("tensor extraction needs a full matrix algebra")
    if f.space_in != algebra.space or f.space_out != algebra.space:
        raise ValueError("map is not defined on the given matrix algebra")
    degrees = algebra.space._degrees
    indices = {name: MatrixAlgebra.unit_indices(name) for name in degrees}
    names = {pq: name for name, pq in indices.items()}
    rows = {}
    for ins, outs in f.rows.items():
        us, vs = zip(*map(indices.__getitem__, ins))
        for out, n in outs.items():
            q0, p_last = indices[out]
            factors = tuple(map(names.__getitem__, zip((q0, *vs), (*us, p_last))))
            e = sum(degrees[x] * tail for x, tail in zip(ins, _tails(degrees, factors)))
            rows[factors] = -n if e & 1 else n
    return TensorElem(algebra, f.arity + 1, rows, f.denominator)


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
            TensorElem.from_json(algebra, data.get("r", _MISSING), field="r"),
            TensorElem.from_json(algebra, data.get("s", _MISSING), field="s"),
        )


def check_classical_ybp(pair: YBPair) -> tuple[TensorElem, TensorElem]:
    """Left sides of the two coupled Yang-Baxter equations, as order-3 tensors,

        r13 r12 - r12 r23 + s23 r13  and  s13 r12 - s12 s23 + s23 s13:

    the homotopy identities at index 2 of the pair with r_2 = r, s_2 = s.
    """
    homotopy = InfinityYBPair(pair.algebra, r={2: pair.r}, s={2: pair.s}, truncation=3)
    return check_infinity_ybp(homotopy, 2)


def ybp_to_rbs(pair: YBPair) -> tuple[MultiMap, MultiMap]:
    """The operator pair induced by a tensor pair."""
    return F_map(pair.r), F_map(pair.s)


def rbs_to_ybp(R: MultiMap, S: MultiMap, algebra: MatrixAlgebra) -> YBPair:
    """The tensor pair recovering the given operators on a matrix algebra."""
    _check_classical_pair(algebra.space, R, S)
    return YBPair(F_inverse(R, algebra), F_inverse(S, algebra))


# ---------------------------------------------------------------------------
# homotopy pairs
# ---------------------------------------------------------------------------


class InfinityYBPair:
    """Families of tensors r_n, s_n (order n, degree n-2) with r_1 = s_1.

    ``r`` and ``s`` are read-only mappings from order to tensor, so the
    tensor-operad images and χ, built from them once, stay theirs.  The pair
    is its map from the minimal model to the tensor operad of its algebra,
    and so a `generator_differential` target: ``gen`` gives the images of
    the module docstring, None for zero, and ``rows`` is its memo of inner
    elements.  A row is streamed as integers: `compose_row` folds it over
    one denominator, and `sum` (and `inner`, the same) adds the rows of a
    residual or an inner sum in one table (`_flat_sum`) and builds one
    tensor.  The images of m_1 and m_2 are the
    unit raised into tensors (`raise_indices`), m_2 once per algebra.
    """

    __slots__ = ("algebra", "r", "s", "truncation", "_images", "_chi", "rows")

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
        if self.r.get(1) != self.s.get(1):  # zero members are dropped
            raise ValueError("the order-1 members of both families must agree")
        self.truncation = _truncation(truncation, {"r": self.r, "s": self.s})
        m = {2: algebra._unit_cube()}
        d = self.r.get(1)
        if d is not None:  # -d (x) 1 + 1 (x) d
            m[1] = raise_indices(d, (2,), 2) - raise_indices(d, (1,), 2)
        self._images = {
            "m": m,
            "R": {n - 1: t for n, t in self.r.items() if n > 1},
            "S": {n - 1: t for n, t in self.s.items() if n > 1},
        }
        self._chi = None
        self.rows = {}

    def _validated(self, family, label) -> Mapping[int, TensorElem]:
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
        return MappingProxyType(clean)

    def d(self) -> TensorElem:
        return self.r.get(1, TensorElem.zero(self.algebra, 1))

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

    def gen(self, family: str, arity: int) -> Optional[TensorElem]:
        return self._images[family].get(arity)

    def support(self, family: str):
        """The arities at which ``family`` has a nonzero image."""
        return self._images[family].keys()

    def compose_row(self, f: TensorElem, parts) -> tuple[int, dict]:
        """f with ``parts`` grafted left to right, a None part leaving its slot
        open: at each slot i, t o_i u of the module docstring.  The row is
        folded on integers, each tensor read in its one form and the
        structure constants over their denominator
        (`BasedAlgebra._integer_index`), and returned unsummed with the
        others: ``(denominator, {factors: numerator})``, which `sum` adds."""
        q, products, _ = self.algebra._integer_index()
        degree = self.algebra.space._degrees.__getitem__
        denominator, table = f.denominator, f.rows
        i = 1
        for u in parts:
            if u is None:
                i += 1
                continue
            denominator *= u.denominator * q * q
            steps = [
                (b[0], b[1:-1], b[-1], cb, sum(map(degree, b)) & 1)
                for b, cb in u.rows.items()
            ]
            rows: dict[tuple, int] = {}
            get = rows.get
            for a, ca in table.items():
                tail = sum(map(degree, a[i:])) & 1
                head, ai, aj, rest = a[: i - 1], a[i - 1], a[i], a[i + 1 :]
                for first, middle, last, cb, odd in steps:
                    lefts = products.get((ai, first))
                    rights = lefts and products.get((last, aj))
                    if not rights:
                        continue
                    coeff = -ca * cb if tail & odd else ca * cb
                    for left, v in lefts.items():
                        for right, w in rights.items():
                            key = head + (left,) + middle + (right,) + rest
                            rows[key] = get(key, 0) + coeff * v * w
            table = rows
            i += u.order - 1
        return denominator, table

    def sum(self, arity: int, degree: int, terms) -> TensorElem:
        """The signed ``(±1, row)`` terms summed in one integer table, one
        order-(arity + 1) tensor built from it."""
        q, rows = _flat_sum(terms)
        return TensorElem(self.algebra, arity + 1, rows, q)

    inner = sum


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
    return _residual(pair, "R", n, -1), _residual(pair, "S", n, -1)


# ---------------------------------------------------------------------------
# the operator picture of each residual piece
# ---------------------------------------------------------------------------


def _in_both_operads(
    pair: InfinityYBPair, piece, family: str, n: int, *args
) -> tuple[MultiMap, TensorElem]:
    """The piece at index n on F of the images, with m_2 at any truncation,
    and in the tensor operad; F_map sends the second to the first."""
    structure = HomotopyRBS(pair.algebra.space, **_chi_images(pair))
    args = (family.upper(), n, *args)
    return piece(structure, *args), piece(pair, *args)


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


def _chi_images(pair: InfinityYBPair) -> dict[str, dict[int, MultiMap]]:
    """F of the pair's images in the tensor operad, keyed m, r, s, built on
    first use and kept on the pair; m_2 is A's product, F(1 (x) 1 (x) 1)."""
    if pair._chi is None:
        pair._chi = {
            family.lower(): {
                n: F_map(t) for n, t in images.items() if (family, n) != ("m", 2)
            }
            for family, images in pair._images.items()
        }
        pair._chi["m"][2] = pair.algebra.product_map()
    return pair._chi


def chi_map(pair: InfinityYBPair) -> HomotopyRBS:
    """The differential graded structure of a homotopy pair: F of its images,
    up to the arity pair.truncation - 1 (at least 1)."""
    truncation = max(1, pair.truncation - 1)
    members = {
        family: {n: f for n, f in images.items() if n <= truncation}
        for family, images in _chi_images(pair).items()
    }
    return HomotopyRBS(pair.algebra.space, truncation=truncation, **members)


def chi_inverse(
    structure: HomotopyRBS, d: TensorElem, algebra: MatrixAlgebra
) -> InfinityYBPair:
    """The homotopy pair recovering a differential graded structure.

    It has d = r_1 = s_1 and F_inverse of the operators, and is returned only
    if `chi_map` sends it back to the structure; else the first member that
    differs is named.  d is part of the data: -[d, -] fixes it up to center.
    """
    r, s = (
        {1: d, **{n + 1: F_inverse(f, algebra) for n, f in family.items()}}
        for family in (structure.r, structure.s)
    )
    pair = InfinityYBPair(algebra, r=r, s=s, truncation=structure.truncation + 1)
    image = chi_map(pair)
    for label, given, recovered in zip(
        ("m", "R", "S"), (structure.m, structure.r, structure.s), (image.m, image.r, image.s)
    ):
        for n in sorted(given.keys() | recovered.keys()):
            if given.get(n) != recovered.get(n):
                message = f"{label}_{n} differs from chi of the pair recovered with d"
                raise ValueError(f"the structure is not an image of chi: {message}")
    return pair
