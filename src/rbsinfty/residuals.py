"""Residuals of the defining identities of homotopy Rota-Baxter systems.

A structure is a graded space with three families of homogeneous maps:
products m_n (arity n, degree n-2) and two coupled operator families
R_n, S_n (arity n, degree n-1), stored up to a truncation arity. Each
defining identity at arity n yields a residual map — the left side minus
the right side — which vanishes exactly when the identity holds there.
"""

from __future__ import annotations

from typing import Mapping, Optional

from .graded import BasedAlgebra, GradedSpace, MultiMap, compose_tensor
from .signs import compositions, parity_sign


def _validated_family(
    space: GradedSpace,
    family: Optional[Mapping[int, MultiMap]],
    label: str,
    degree_of_arity,
) -> dict[int, MultiMap]:
    clean: dict[int, MultiMap] = {}
    for n, f in (family or {}).items():
        n = int(n)
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
    return clean


class HomotopyRBS:
    """A homotopy Rota-Baxter system on a finite-dimensional graded space."""

    __slots__ = ("space", "m", "r", "s", "truncation")

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
        if truncation is None:
            truncation = max([1, *self.m, *self.r, *self.s])
        if truncation < 1:
            raise ValueError(f"truncation must be >= 1, got {truncation}")
        self.truncation = truncation

    def m_at(self, n: int) -> Optional[MultiMap]:
        return self.m.get(n)

    def r_at(self, n: int) -> Optional[MultiMap]:
        return self.r.get(n)

    def s_at(self, n: int) -> Optional[MultiMap]:
        return self.s.get(n)

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
        space = GradedSpace.from_json(data["space"])

        def family(key):
            return {
                int(n): MultiMap.from_json(space, space, f)
                for n, f in data.get(key, {}).items()
            }

        return cls(
            space,
            m=family("m"),
            r=family("r"),
            s=family("s"),
            truncation=data.get("truncation"),
        )


def _check_arity(structure: HomotopyRBS, n: int) -> None:
    if n < 1:
        raise ValueError(f"identity arity must be >= 1, got {n}")
    if n > structure.truncation:
        raise ValueError(
            f"arity {n} exceeds the truncation {structure.truncation}"
        )


def _plug(outer: MultiMap, i: int, inner: MultiMap, k: int) -> MultiMap:
    return compose_tensor(outer, [None] * i + [inner] + [None] * k)


def stasheff_residual(structure: HomotopyRBS, n: int) -> MultiMap:
    """Defect of the arity-n associativity-up-to-homotopy identity.

    Sum over i + j + k = n of (-1)^{i+jk} m_{i+1+k} o (id^i (x) m_j (x) id^k).
    """
    _check_arity(structure, n)
    space = structure.space
    terms = []
    for j in range(1, n + 1):
        inner = structure.m_at(j)
        if inner is None:
            continue
        outer_arity = n - j + 1
        outer = structure.m_at(outer_arity)
        if outer is None:
            continue
        for i in range(outer_arity):
            k = outer_arity - 1 - i
            terms.append(parity_sign(i + j * k) * _plug(outer, i, inner, k))
    return MultiMap.sum(space, space, n, n - 3, terms)


def _operator_lhs(structure: HomotopyRBS, n: int, family) -> MultiMap:
    space = structure.space
    terms = []
    for k in range(1, n + 1):
        m_k = structure.m_at(k)
        if m_k is None:
            continue
        for parts_arities in compositions(n, k):
            parts = [family(a) for a in parts_arities]
            if any(p is None for p in parts):
                continue
            delta = k * (k - 1) // 2 + sum(
                (k - j) * parts_arities[j - 1] for j in range(1, k + 1)
            )
            terms.append(parity_sign(delta) * compose_tensor(m_k, parts))
    return MultiMap.sum(space, space, n, n - 2, terms)


def _operator_rhs(structure: HomotopyRBS, n: int, outer_family) -> MultiMap:
    space = structure.space
    terms = []
    for p in range(1, n + 1):
        m_p = structure.m_at(p)
        if m_p is None:
            continue
        for r in compositions(n, p):
            outer = outer_family(r[0])
            if outer is None:
                continue
            tail_weight = sum(rt - 1 for rt in r[1:])
            for j in range(1, p + 1):
                inner_parts: list[Optional[MultiMap]] = []
                for t in range(2, j + 1):
                    inner_parts.append(structure.r_at(r[t - 1]))
                inner_parts.append(None)
                for t in range(j + 1, p + 1):
                    inner_parts.append(structure.s_at(r[t - 1]))
                if any(
                    part is None for slot, part in enumerate(inner_parts) if slot != j - 1
                ):
                    continue
                inner = compose_tensor(m_p, inner_parts)
                base = (
                    sum(r[t - 1] - 1 for t in range(2, j + 1))
                    + sum((r[t - 1] - 1) * (p - t) for t in range(2, p + 1))
                )
                for i in range(r[0]):
                    k = r[0] - 1 - i
                    eta = i + (p + tail_weight) * k + base
                    terms.append(parity_sign(eta) * _plug(outer, i, inner, k))
    return MultiMap.sum(space, space, n, n - 2, terms)


def hrbs_residual_R(structure: HomotopyRBS, n: int) -> MultiMap:
    """Defect of the arity-n identity for the first operator family."""
    _check_arity(structure, n)
    return _operator_lhs(structure, n, structure.r_at) - _operator_rhs(
        structure, n, structure.r_at
    )


def hrbs_residual_S(structure: HomotopyRBS, n: int) -> MultiMap:
    """Defect of the arity-n identity for the second operator family."""
    _check_arity(structure, n)
    return _operator_lhs(structure, n, structure.s_at) - _operator_rhs(
        structure, n, structure.s_at
    )


def _dga_residual(structure: HomotopyRBS, n: int, family) -> MultiMap:
    _check_arity(structure, n)
    if not structure.is_dg():
        raise ValueError("structure has products of arity >= 3")
    space = structure.space
    m1 = structure.m_at(1)
    m2 = structure.m_at(2)
    lhs = []
    if m1 is not None and family(n) is not None:
        lhs.append(compose_tensor(m1, [family(n)]))
    if m2 is not None:
        for i in range(1, n):
            j = n - i
            left, right = family(i), family(j)
            if left is None or right is None:
                continue
            lhs.append(parity_sign(i + 1) * compose_tensor(m2, [left, right]))
    rhs = []
    if m2 is not None:
        for p in range(1, n):
            q = n - p
            outer = family(p)
            if outer is None:
                continue
            r_q, s_q = structure.r_at(q), structure.s_at(q)
            if r_q is not None:
                inner = compose_tensor(m2, [r_q, None])
                for i in range(p):
                    sign = parity_sign(i + (q - 1) * (p - i))
                    rhs.append(sign * _plug(outer, i, inner, p - i - 1))
            if s_q is not None:
                inner = compose_tensor(m2, [None, s_q])
                for i in range(p):
                    sign = parity_sign(i + (q - 1) * (p - i - 1))
                    rhs.append(sign * _plug(outer, i, inner, p - i - 1))
    if m1 is not None and family(n) is not None:
        sign = parity_sign(n - 1)
        for i in range(n):
            rhs.append(sign * _plug(family(n), i, m1, n - i - 1))
    return MultiMap.sum(space, space, n, n - 2, lhs) - MultiMap.sum(
        space, space, n, n - 2, rhs
    )


def dga_residual_R(structure: HomotopyRBS, n: int) -> MultiMap:
    """First-family residual specialized to a differential graded algebra."""
    return _dga_residual(structure, n, structure.r_at)


def dga_residual_S(structure: HomotopyRBS, n: int) -> MultiMap:
    """Second-family residual specialized to a differential graded algebra."""
    return _dga_residual(structure, n, structure.s_at)


def check_classical_rbs(
    algebra: BasedAlgebra, R: MultiMap, S: MultiMap
) -> tuple[MultiMap, MultiMap]:
    """Residuals of the two classical Rota-Baxter-system equations.

    First: R(a)R(b) - R( R(a)b + aS(b) ); second: S(a)S(b) - S( R(a)b + aS(b) ).
    """
    mult = algebra.product_map()
    inner = compose_tensor(mult, [R, None]) + compose_tensor(mult, [None, S])
    res_r = compose_tensor(mult, [R, R]) - compose_tensor(R, [inner])
    res_s = compose_tensor(mult, [S, S]) - compose_tensor(S, [inner])
    return res_r, res_s
