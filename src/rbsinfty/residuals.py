"""Residuals of the defining identities of homotopy Rota-Baxter systems.

A structure is a graded space with products m_n (arity n, degree n-2) and
two coupled operator families R_n, S_n (arity n, degree n-1), stored up to a
truncation arity: an operad map φ from the minimal model to End(V), given on
the generators. Its identities say that φ commutes with the differentials,
so the residual of X_n (X = m, R, S) is

    ∂φ(X_n) − φ(dX_n),   ∂f = m_1∘f − (−1)^|f| Σ_i f∘_i m_1,

with dX_n the minimal model's `generator_differential` evaluated in End(V),
its unsummed terms (`generator_terms`) negated and summed with those of
∂φ(X_n) in one table.  A `HomotopyRBS` is itself the target: φ on the
generators with the one composition kernel of End(V), `_signed_rows` (f∘_i
g is the row ``slot(k, i, g)`` on f of arity k), whose integer rows every
term streams into one `_IntegerTable` per residual.
At n = 1 the m-identity is m_1∘m_1: m_1 is the differential of End(V), not a
generator. A residual vanishes exactly when its identity holds at that arity.
The residual is written once for any `generator_differential` target with a
differential m_1; `rbsinfty.yang_baxter` evaluates it on an `InfinityYBPair`,
a map into the tensor operad.  Without m_k for k >= 3 the R/S residual splits
into four pieces, also written once for any target: `dga_residual_R/S` sum
them in End(V), and `rbsinfty.yang_baxter` evaluates each in End(A) and in
the tensor operad.  The classical Rota-Baxter-system equations are the
residuals of R_2 and S_2 on the structure (m_2, R_1, S_1), which
`check_classical_rbs` evaluates.
"""

from __future__ import annotations

from functools import partial
from types import MappingProxyType
from typing import Mapping, Optional

from .graded import (
    BasedAlgebra,
    GradedSpace,
    MultiMap,
    _IntegerTable,
    _MISSING,
    _family_key,
    _json_family,
    _json_int,
    _signed_rows,
    _truncation,
)
from .minimal_model import generator_terms, slot
from .signs import parity_sign


def _validated_family(
    space: GradedSpace,
    family: Optional[Mapping[int, MultiMap]],
    label: str,
    degree_of_arity,
) -> Mapping[int, MultiMap]:
    clean: dict[int, MultiMap] = {}
    for n, f in (family or {}).items():
        n = _family_key(n, f"{label}.{n}")
        if n < 1:
            raise ValueError(f"{label}_{n}: arity must be >= 1")
        if f.space_in != space or f.space_out != space:
            raise ValueError(f"{label}_{n} is not defined on the structure space")
        if f.arity != n:
            raise ValueError(f"{label}_{n} has arity {f.arity}, expected {n}")
        if not f.is_zero() and f.degree != degree_of_arity(n):
            raise ValueError(
                f"{label}_{n} has degree {f.degree}, expected {degree_of_arity(n)}"
            )
        if not f.is_zero():
            clean[n] = f
    return MappingProxyType(clean)


class HomotopyRBS:
    """A homotopy Rota-Baxter system on a finite-dimensional graded space.

    ``m``, ``r`` and ``s`` are read-only mappings from arity to map: the
    families as validated, zero members dropped.  The structure is φ, and
    End(V) with φ is its own `generator_differential` target, with its own
    memo ``rows`` of inner elements.  A row is never built as a map:
    `compose_row` gives the integer stream of `_signed_rows`, `sum` adds
    the streams of a residual in one `_IntegerTable` and builds one
    `MultiMap`, and `inner` keeps an inner sum as a composite part.
    """

    __slots__ = ("space", "m", "r", "s", "truncation", "_images", "rows")

    def __init__(
        self,
        space: GradedSpace,
        m: Optional[Mapping[int, MultiMap]] = None,
        r: Optional[Mapping[int, MultiMap]] = None,
        s: Optional[Mapping[int, MultiMap]] = None,
        truncation: Optional[int] = None,
    ):
        self.space = space
        self.m = _validated_family(space, m, "m", lambda n: n - 2)
        self.r = _validated_family(space, r, "R", lambda n: n - 1)
        self.s = _validated_family(space, s, "S", lambda n: n - 1)
        self._images = {"m": self.m, "R": self.r, "S": self.s}
        self.truncation = _truncation(truncation, self._images)
        self.rows = {}

    def gen(self, family: str, arity: int) -> Optional[MultiMap]:
        """φ on a generator, None for zero; ``gen("m", 1)`` is the differential
        m_1 of End(V)."""
        return self._images[family].get(arity)

    def support(self, family: str):
        """The arities at which φ is nonzero on ``family``."""
        return self._images[family].keys()

    def compose_row(self, f: MultiMap, parts) -> tuple:
        """f composed with ``parts`` (a map, None for the identity, or an
        `inner` part), as the unsummed ``(denominator, rows)`` of
        `_signed_rows`; the structure checked that every map acts on V."""
        return _signed_rows(f, (parts,), self.space)

    def sum(self, arity: int, degree: int, terms) -> MultiMap:
        """The ``(±1, row)`` terms summed in one table, one map built."""
        table = _IntegerTable(terms)
        return MultiMap(self.space, self.space, arity, degree, table.rows, table.denominator)

    def inner(self, arity: int, degree: int, terms) -> tuple:
        """The ``(±1, row)`` terms summed in one table, read as a composite
        part of `compose_row` and never made a map."""
        return _IntegerTable(terms).part(degree, self.space)

    def is_dg(self) -> bool:
        """True when no product of arity >= 3 is present."""
        return all(n <= 2 for n in self.m)

    def to_json(self) -> dict:
        return {
            "space": self.space.to_json(),
            "truncation": self.truncation,
            "m": {str(n): f.to_json() for n, f in sorted(self.m.items())},
            "r": {str(n): f.to_json() for n, f in sorted(self.r.items())},
            "s": {str(n): f.to_json() for n, f in sorted(self.s.items())},
        }

    @classmethod
    def from_json(cls, data: Mapping) -> "HomotopyRBS":
        space = GradedSpace.from_json(data.get("space", _MISSING))
        parse = partial(MultiMap.from_json, space, space)
        return cls(
            space,
            m=_json_family(data, "m", parse),
            r=_json_family(data, "r", parse),
            s=_json_family(data, "s", parse),
            truncation=_json_int(data.get("truncation"), "truncation", optional=True),
        )


def _check_arity(structure: HomotopyRBS, n: int) -> None:
    if n < 1:
        raise ValueError(f"identity arity must be >= 1, got {n}")
    if n > structure.truncation:
        raise ValueError(
            f"arity {n} exceeds the truncation {structure.truncation}"
        )


def _residual(target, family: str, n: int, sign: int = 1):
    """∂φ(X_n) − φ(dX_n) in ``target`` times ``sign``, summed in one table
    with the terms of dX_n negated, and m_1∘m_1 for the m-identity at n = 1.

    ``target`` is a `generator_differential` target whose ``gen("m", 1)`` is
    its differential m_1 (None when zero): a `HomotopyRBS` here, and an
    `InfinityYBPair` in the tensor operad of `rbsinfty.yang_baxter`.
    """
    if family == "m" and n == 1:
        m1 = target.gen("m", 1)
        return target.sum(1, -2, [] if m1 is None else [(sign, target.compose_row(m1, [m1]))])
    degree = n - 2 if family == "m" else n - 1
    terms = [(-sign * s, e) for s, e in generator_terms(family, n, target)]
    terms += [(sign * s, e) for s, e in _boundary(target, family, n, degree)]
    return target.sum(n, degree - 1, terms)


def _boundary(target, family: str, n: int, degree: int) -> list:
    """The ``(sign, row)`` terms of ∂φ(X_n) = m_1∘X_n − (−1)^degree Σ_i X_n∘_i m_1
    in ``target``, none when m_1 or X_n is zero there."""
    m1, x = target.gen("m", 1), target.gen(family, n)
    if m1 is None or x is None:
        return []
    compose_row = target.compose_row
    sign = -parity_sign(degree)
    return [(1, compose_row(m1, [x]))] + [
        (sign, compose_row(x, slot(n, i, m1))) for i in range(1, n + 1)
    ]


def stasheff_residual(structure: HomotopyRBS, n: int) -> MultiMap:
    """Defect of the arity-n associativity-up-to-homotopy identity."""
    _check_arity(structure, n)
    return _residual(structure, "m", n)


def hrbs_residual_R(structure: HomotopyRBS, n: int) -> MultiMap:
    """Defect of the arity-n identity for the first operator family."""
    _check_arity(structure, n)
    return _residual(structure, "R", n)


def hrbs_residual_S(structure: HomotopyRBS, n: int) -> MultiMap:
    """Defect of the arity-n identity for the second operator family."""
    _check_arity(structure, n)
    return _residual(structure, "S", n)


# The pieces of the residual of X_n (X = R, S) in a differential graded
# `generator_differential` target, each a sum of arity-n elements there (maps
# of End(V), order-(n+1) tensors): the residual is (1) + (2) - (3) - (4).
# Pieces (2) to (4) run through m_2 and are zero in a target without it.


def _differential_piece(target, family: str, n: int):
    """(1) m_1 o X_n - (-1)^(n-1) sum_i X_n o_i m_1."""
    return target.sum(n, n - 2, _boundary(target, family, n, n - 1))


def _product_piece(target, family: str, n: int):
    """(2) sum_{i+j=n} (-1)^(1+i) m_2(X_i, X_j)."""
    m2, terms = target.gen("m", 2), []
    for i in range(1, n):
        left, right = target.gen(family, i), target.gen(family, n - i)
        if m2 is not None and left is not None and right is not None:
            terms.append((parity_sign(1 + i), target.compose_row(m2, [left, right])))
    return target.sum(n, n - 2, terms)


def _straddle_piece(target, family: str, n: int, inner_family: str):
    """(3) sum (-1)^((s-1) + (j-1)(i-s+1)) X_i o_s m_2(R_j, id) for R, and
    (4) sum (-1)^((s-1) + (j-1)(i-s)) X_i o_s m_2(id, S_j) for S, over
    i + j = n and 1 <= s <= i."""
    m2, first, terms = target.gen("m", 2), inner_family == "R", []
    for i in range(1, n):
        j = n - i
        outer, inner = target.gen(family, i), target.gen(inner_family, j)
        if m2 is None or outer is None or inner is None:
            continue
        row = target.compose_row(m2, [inner, None] if first else [None, inner])
        row = target.inner(j + 1, j - 1, [(1, row)])
        for s in range(1, i + 1):
            sign = parity_sign((s - 1) + (j - 1) * (i - s + first))
            terms.append((sign, target.compose_row(outer, slot(i, s, row))))
    return target.sum(n, n - 2, terms)


def _sum_of_pieces(structure: HomotopyRBS, n: int, family: str) -> MultiMap:
    """The residual of X_n as the sum of its four pieces in End(V)."""
    _check_arity(structure, n)
    if not structure.is_dg():
        raise ValueError("structure has products of arity >= 3")
    pieces = [
        (1, _differential_piece(structure, family, n)),
        (1, _product_piece(structure, family, n)),
        (-1, _straddle_piece(structure, family, n, "R")),
        (-1, _straddle_piece(structure, family, n, "S")),
    ]
    return MultiMap.combination(structure.space, structure.space, n, n - 2, pieces)


def dga_residual_R(structure: HomotopyRBS, n: int) -> MultiMap:
    """First-family residual specialized to a differential graded algebra."""
    return _sum_of_pieces(structure, n, "R")


def dga_residual_S(structure: HomotopyRBS, n: int) -> MultiMap:
    """Second-family residual specialized to a differential graded algebra."""
    return _sum_of_pieces(structure, n, "S")


def _check_classical_pair(space: GradedSpace, R: MultiMap, S: MultiMap) -> None:
    """Refuse R or S unless it is R_1 or S_1 of a structure on ``space``: a
    map of arity 1 and, when nonzero, of degree 0."""
    HomotopyRBS(space, r={1: R}, s={1: S})


def check_classical_rbs(
    algebra: BasedAlgebra, R: MultiMap, S: MultiMap
) -> tuple[MultiMap, MultiMap]:
    """Residuals of the two classical Rota-Baxter-system equations,

        R(a)R(b) - R( R(a)b + aS(b) )  and  S(a)S(b) - S( R(a)b + aS(b) ):

    the residuals of R_2 and S_2 on the structure (m_2, R_1, S_1), with m_2
    the product of the algebra.
    """
    structure = HomotopyRBS(algebra.space, m={2: algebra.product_map()}, r={1: R}, s={1: S})
    return _residual(structure, "R", 2), _residual(structure, "S", 2)
