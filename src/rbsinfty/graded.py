"""Finite-dimensional graded linear algebra over exact rationals.

Everything downstream of the symbolic operad calculus evaluates on concrete
graded spaces: sparse multilinear maps with Koszul-signed composition,
tensors over a based graded algebra (componentwise products with interchange
signs, unit insertions into prescribed slots), and matrix algebras End(V)
with their canonical basis e_p^q.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Sequence, Union

Rational = Union[Fraction, int]


def _frac(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {value!r}") from None
    raise TypeError(f"not an exact rational: {value!r}")


class GradedSpace:
    """A finite list of named basis vectors with integer degrees."""

    __slots__ = ("_names", "_degrees")

    def __init__(self, basis: Iterable[tuple[str, int]]):
        names = []
        degrees = {}
        for name, degree in basis:
            if name in degrees:
                raise ValueError(f"duplicate basis name {name!r}")
            names.append(name)
            degrees[name] = int(degree)
        self._names = tuple(names)
        self._degrees = degrees

    @property
    def names(self) -> tuple[str, ...]:
        return self._names

    def degree(self, name: str) -> int:
        return self._degrees[name]

    @property
    def dim(self) -> int:
        return len(self._names)

    def suspend(self, shift: int = 1) -> "GradedSpace":
        """Same names, all degrees raised by `shift`."""
        return GradedSpace((n, self._degrees[n] + shift) for n in self._names)

    def __iter__(self):
        return iter(self._names)

    def __eq__(self, other):
        if not isinstance(other, GradedSpace):
            return NotImplemented
        return self._names == other._names and self._degrees == other._degrees

    def __hash__(self):
        return hash(tuple((n, self._degrees[n]) for n in self._names))

    def __repr__(self):
        inner = ", ".join(f"{n}:{self._degrees[n]}" for n in self._names)
        return f"GradedSpace({inner})"

    def to_json(self) -> dict:
        return {"basis": [{"name": n, "degree": self._degrees[n]} for n in self._names]}

    @classmethod
    def from_json(cls, data: Mapping) -> "GradedSpace":
        return cls((b["name"], b["degree"]) for b in data["basis"])


class MultiMap:
    """A homogeneous multilinear map, stored sparsely over basis tuples.

    `table` maps input basis-name tuples to output coefficient dicts; every
    stored entry satisfies deg(out) = sum(deg(inputs)) + degree.
    """

    __slots__ = ("space_in", "space_out", "arity", "degree", "table")

    def __init__(
        self,
        space_in: GradedSpace,
        space_out: GradedSpace,
        arity: int,
        degree: int,
        table: Optional[Mapping[tuple, Mapping[str, Rational]]] = None,
    ):
        if arity < 1:
            raise ValueError(f"arity must be >= 1, got {arity}")
        self.space_in = space_in
        self.space_out = space_out
        self.arity = arity
        self.degree = degree
        clean: dict[tuple[str, ...], dict[str, Fraction]] = {}
        for ins, outs in (table or {}).items():
            ins = tuple(ins)
            if len(ins) != arity:
                raise ValueError(f"input tuple {ins} does not match arity {arity}")
            in_degree = sum(space_in.degree(name) for name in ins)
            row: dict[str, Fraction] = {}
            for out, coeff in outs.items():
                coeff = _frac(coeff)
                if coeff == 0:
                    continue
                if space_out.degree(out) != in_degree + degree:
                    raise ValueError(
                        f"entry {ins} -> {out} violates homogeneity of degree {degree}"
                    )
                row[out] = coeff
            if row:
                clean[ins] = row
        self.table = clean

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, space_in, space_out, arity, degree) -> "MultiMap":
        return cls(space_in, space_out, arity, degree, {})

    @classmethod
    def identity(cls, space: GradedSpace) -> "MultiMap":
        return cls(space, space, 1, 0, {(n,): {n: Fraction(1)} for n in space})

    # -- queries ------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.table

    def evaluate(self, ins: Sequence[str]) -> dict[str, Fraction]:
        return dict(self.table.get(tuple(ins), {}))

    def items(self):
        for ins in sorted(self.table):
            yield ins, dict(sorted(self.table[ins].items()))

    # -- linear structure ---------------------------------------------------

    def _compatible(self, other: "MultiMap"):
        if (
            self.space_in != other.space_in
            or self.space_out != other.space_out
            or self.arity != other.arity
        ):
            raise ValueError("maps live on different spaces or arities")
        if self.degree != other.degree and not (self.is_zero() or other.is_zero()):
            raise ValueError(
                f"cannot combine maps of degrees {self.degree} and {other.degree}"
            )

    def __add__(self, other: "MultiMap") -> "MultiMap":
        self._compatible(other)
        degree = other.degree if self.is_zero() else self.degree
        table: dict[tuple, dict[str, Fraction]] = {}
        for source in (self.table, other.table):
            for ins, outs in source.items():
                row = table.setdefault(ins, {})
                for out, coeff in outs.items():
                    row[out] = row.get(out, Fraction(0)) + coeff
        return MultiMap(self.space_in, self.space_out, self.arity, degree, table)

    def __neg__(self) -> "MultiMap":
        return self.__rmul__(-1)

    def __sub__(self, other: "MultiMap") -> "MultiMap":
        return self + (-other)

    def __rmul__(self, scalar) -> "MultiMap":
        scalar = _frac(scalar)
        table = {
            ins: {out: scalar * c for out, c in outs.items()}
            for ins, outs in self.table.items()
        }
        return MultiMap(self.space_in, self.space_out, self.arity, self.degree, table)

    __mul__ = __rmul__

    def __eq__(self, other):
        if not isinstance(other, MultiMap):
            return NotImplemented
        if self.is_zero() and other.is_zero():
            return (
                self.space_in == other.space_in
                and self.space_out == other.space_out
                and self.arity == other.arity
            )
        return (
            self.space_in == other.space_in
            and self.space_out == other.space_out
            and self.arity == other.arity
            and self.degree == other.degree
            and self.table == other.table
        )

    def __repr__(self):
        if self.is_zero():
            return f"MultiMap(0; arity={self.arity}, degree={self.degree})"
        bits = []
        for ins, outs in self.items():
            for out, coeff in outs.items():
                bits.append(f"({', '.join(ins)}) -> {coeff}*{out}")
        return f"MultiMap[{'; '.join(bits)}]"

    # -- serialization ------------------------------------------------------

    def to_json(self) -> dict:
        entries = []
        for ins, outs in self.items():
            entries.append(
                {"in": list(ins), "out": {o: str(c) for o, c in outs.items()}}
            )
        return {"arity": self.arity, "degree": self.degree, "entries": entries}

    @classmethod
    def from_json(cls, space_in, space_out, data: Mapping) -> "MultiMap":
        table = {
            tuple(e["in"]): {o: _frac(c) for o, c in e["out"].items()}
            for e in data.get("entries", [])
        }
        return cls(space_in, space_out, data["arity"], data["degree"], table)


def compose_tensor(f: MultiMap, parts: Sequence[Optional[MultiMap]]) -> MultiMap:
    """f composed with one map (or the identity, passed as None) per input slot.

    Evaluation carries the Koszul sign of each part crossing all inputs
    feeding the slots to its left.
    """
    if len(parts) != f.arity:
        raise ValueError(f"need {f.arity} parts, got {len(parts)}")
    space_in = None
    for part in parts:
        if part is None:
            continue
        if part.space_out != f.space_in:
            raise ValueError("part output space does not match host input space")
        if space_in is None:
            space_in = part.space_in
        elif part.space_in != space_in:
            raise ValueError("parts have mismatched input spaces")
    if space_in is None:
        space_in = f.space_in
    elif any(part is None for part in parts) and space_in != f.space_in:
        raise ValueError("identity slots require matching input space")

    arity = sum(1 if part is None else part.arity for part in parts)
    degree = f.degree + sum(0 if part is None else part.degree for part in parts)
    out = MultiMap.zero(space_in, f.space_out, arity, degree)
    for fins, fouts in f.table.items():
        options = []
        feasible = True
        for slot, part in enumerate(parts):
            target = fins[slot]
            if part is None:
                options.append([((target,), Fraction(1))])
                continue
            slot_options = [
                (gins, gcoeffs[target])
                for gins, gcoeffs in part.table.items()
                if target in gcoeffs
            ]
            if not slot_options:
                feasible = False
                break
            options.append(slot_options)
        if not feasible:
            continue
        table: dict[tuple, dict[str, Fraction]] = {}
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
            row = table.setdefault(ins, {})
            for fout, fc in fouts.items():
                row[fout] = row.get(fout, Fraction(0)) + coeff * fc
        out = out + MultiMap(space_in, f.space_out, arity, degree, table)
    return out


def insert(f: MultiMap, position: int, g: MultiMap) -> MultiMap:
    """f with g plugged into one input slot, identities elsewhere."""
    if not 1 <= position <= f.arity:
        raise IndexError(f"position {position} out of range 1..{f.arity}")
    parts: list[Optional[MultiMap]] = [None] * f.arity
    parts[position - 1] = g
    return compose_tensor(f, parts)


def brace_map(f: MultiMap, args: Sequence[MultiMap]) -> MultiMap:
    """Sum of compositions of f with args at all increasing slot choices."""
    if not args:
        return f
    if len(args) > f.arity:
        first = args[0]
        arity = f.arity - len(args) + sum(a.arity for a in args)
        degree = f.degree + sum(a.degree for a in args)
        return MultiMap.zero(first.space_in, f.space_out, max(arity, 1), degree)
    total = None
    for slots in itertools.combinations(range(f.arity), len(args)):
        parts: list[Optional[MultiMap]] = [None] * f.arity
        for slot, arg in zip(slots, args):
            parts[slot] = arg
        term = compose_tensor(f, parts)
        total = term if total is None else total + term
    return total


# ---------------------------------------------------------------------------
# based algebras and tensors over them
# ---------------------------------------------------------------------------


class BasedAlgebra:
    """A unital graded algebra with explicit basis and structure constants."""

    __slots__ = ("space", "products", "unit")

    def __init__(
        self,
        space: GradedSpace,
        products: Mapping[tuple[str, str], Mapping[str, Rational]],
        unit: Mapping[str, Rational],
    ):
        self.space = space
        clean: dict[tuple[str, str], dict[str, Fraction]] = {}
        for (a, b), outs in products.items():
            row = {c: _frac(v) for c, v in outs.items() if _frac(v) != 0}
            for c in row:
                if space.degree(c) != space.degree(a) + space.degree(b):
                    raise ValueError(f"product {a}*{b} -> {c} breaks the grading")
            if row:
                clean[(a, b)] = row
        self.products = clean
        self.unit = {n: _frac(c) for n, c in unit.items() if _frac(c) != 0}

    def multiply_basis(self, a: str, b: str) -> dict[str, Fraction]:
        return dict(self.products.get((a, b), {}))

    def multiply(
        self, x: Mapping[str, Fraction], y: Mapping[str, Fraction]
    ) -> dict[str, Fraction]:
        out: dict[str, Fraction] = {}
        for a, ca in x.items():
            for b, cb in y.items():
                for c, v in self.products.get((a, b), {}).items():
                    coeff = out.get(c, Fraction(0)) + ca * cb * v
                    if coeff:
                        out[c] = coeff
                    elif c in out:
                        del out[c]
        return out

    def is_associative(self) -> bool:
        for a, b, c in itertools.product(self.space.names, repeat=3):
            left = self.multiply(self.multiply_basis(a, b), {c: Fraction(1)})
            right = self.multiply({a: Fraction(1)}, self.multiply_basis(b, c))
            if left != right:
                return False
        return True

    def is_unital(self) -> bool:
        for a in self.space.names:
            one_a = self.multiply(self.unit, {a: Fraction(1)})
            a_one = self.multiply({a: Fraction(1)}, self.unit)
            if one_a != {a: Fraction(1)} or a_one != {a: Fraction(1)}:
                return False
        return True

    def product_map(self) -> MultiMap:
        """The multiplication as an arity-2, degree-0 MultiMap."""
        table = {(a, b): outs for (a, b), outs in self.products.items()}
        return MultiMap(self.space, self.space, 2, 0, table)

    def __eq__(self, other):
        if not isinstance(other, BasedAlgebra):
            return NotImplemented
        return (
            self.space == other.space
            and self.products == other.products
            and self.unit == other.unit
        )

    def __repr__(self):
        return f"BasedAlgebra(dim={self.space.dim})"


class MatrixAlgebra(BasedAlgebra):
    """End(V) on the canonical basis e_p^q (sends basis q to basis p)."""

    __slots__ = ("V",)

    def __init__(self, V: GradedSpace):
        self.V = V
        dim = V.dim
        names = []
        for p in range(1, dim + 1):
            for q in range(1, dim + 1):
                degree = V.degree(V.names[p - 1]) - V.degree(V.names[q - 1])
                names.append((self.unit_name(p, q), degree))
        space = GradedSpace(names)
        products = {}
        for i, j, k, l in itertools.product(range(1, dim + 1), repeat=4):
            if j == k:
                products[(self.unit_name(i, j), self.unit_name(k, l))] = {
                    self.unit_name(i, l): Fraction(1)
                }
        unit = {self.unit_name(p, p): Fraction(1) for p in range(1, dim + 1)}
        super().__init__(space, products, unit)

    @staticmethod
    def unit_name(p: int, q: int) -> str:
        return f"e{p}^{q}"

    @staticmethod
    def unit_indices(name: str) -> tuple[int, int]:
        p, q = name[1:].split("^")
        return int(p), int(q)


class TensorElem:
    """A sparse element of A^(⊗ order) over a based algebra A."""

    __slots__ = ("algebra", "order", "table")

    def __init__(
        self,
        algebra: BasedAlgebra,
        order: int,
        table: Optional[Mapping[tuple, Rational]] = None,
    ):
        if order < 1:
            raise ValueError(f"order must be >= 1, got {order}")
        self.algebra = algebra
        self.order = order
        clean: dict[tuple[str, ...], Fraction] = {}
        for factors, coeff in (table or {}).items():
            factors = tuple(factors)
            if len(factors) != order:
                raise ValueError(f"factor tuple {factors} does not match order {order}")
            for name in factors:
                if name not in algebra.space.names:
                    raise ValueError(f"unknown basis name {name!r}")
            coeff = _frac(coeff)
            if coeff:
                clean[factors] = clean.get(factors, Fraction(0)) + coeff
                if not clean[factors]:
                    del clean[factors]
        self.table = clean

    @classmethod
    def zero(cls, algebra, order) -> "TensorElem":
        return cls(algebra, order, {})

    def is_zero(self) -> bool:
        return not self.table

    def entry_degree(self, factors: tuple[str, ...]) -> int:
        return sum(self.algebra.space.degree(name) for name in factors)

    def homogeneous_degree(self) -> Optional[int]:
        degrees = {self.entry_degree(f) for f in self.table}
        if not degrees:
            return None
        if len(degrees) > 1:
            raise ValueError(f"tensor is not homogeneous: degrees {sorted(degrees)}")
        return degrees.pop()

    def items(self):
        for factors in sorted(self.table):
            yield factors, self.table[factors]

    def __add__(self, other: "TensorElem") -> "TensorElem":
        if self.algebra != other.algebra or self.order != other.order:
            raise ValueError("tensor mismatch in algebra or order")
        table = dict(self.table)
        for factors, coeff in other.table.items():
            table[factors] = table.get(factors, Fraction(0)) + coeff
        return TensorElem(self.algebra, self.order, table)

    def __neg__(self):
        return self.__rmul__(-1)

    def __sub__(self, other):
        return self + (-other)

    def __rmul__(self, scalar) -> "TensorElem":
        scalar = _frac(scalar)
        return TensorElem(
            self.algebra,
            self.order,
            {f: scalar * c for f, c in self.table.items()},
        )

    __mul__ = __rmul__

    def __eq__(self, other):
        if not isinstance(other, TensorElem):
            return NotImplemented
        return (
            self.algebra == other.algebra
            and self.order == other.order
            and self.table == other.table
        )

    def __repr__(self):
        if self.is_zero():
            return f"TensorElem(0; order={self.order})"
        bits = [f"{c}*{'(x)'.join(f)}" for f, c in self.items()]
        return f"TensorElem[{' + '.join(bits)}]"

    def to_json(self) -> dict:
        return {
            "order": self.order,
            "entries": [
                {"factors": list(f), "coeff": str(c)} for f, c in self.items()
            ],
        }

    @classmethod
    def from_json(cls, algebra, data: Mapping) -> "TensorElem":
        table = {tuple(e["factors"]): _frac(e["coeff"]) for e in data.get("entries", [])}
        return cls(algebra, data["order"], table)


def tensor_product_multiply(a: TensorElem, b: TensorElem) -> TensorElem:
    """Componentwise product in A^(⊗n) with Koszul interchange signs."""
    if a.algebra != b.algebra or a.order != b.order:
        raise ValueError("tensor mismatch in algebra or order")
    algebra = a.algebra
    space = algebra.space
    out = TensorElem.zero(algebra, a.order)
    table: dict[tuple, Fraction] = {}
    for xf, xc in a.table.items():
        for yf, yc in b.table.items():
            # each y-factor moves left past the x-factors strictly to its right
            exp = sum(
                space.degree(yf[j]) * space.degree(xf[k])
                for j in range(a.order)
                for k in range(j + 1, a.order)
            )
            coeff = -xc * yc if exp % 2 else xc * yc
            slot_products = [algebra.multiply_basis(x, y) for x, y in zip(xf, yf)]
            if any(not p for p in slot_products):
                continue
            for combo in itertools.product(*(p.items() for p in slot_products)):
                names = tuple(name for name, _ in combo)
                value = coeff
                for _, v in combo:
                    value *= v
                table[names] = table.get(names, Fraction(0)) + value
    return out + TensorElem(algebra, a.order, table)


def raise_indices(t: TensorElem, slots: Sequence[int], order: int) -> TensorElem:
    """Spread t's factors over the given slots of A^(⊗ order), units elsewhere."""
    slots = tuple(slots)
    if len(slots) != t.order:
        raise ValueError(f"need {t.order} slots, got {len(slots)}")
    if any(s2 <= s1 for s1, s2 in zip(slots, slots[1:])):
        raise ValueError(f"slots must be strictly increasing, got {slots}")
    if slots and (slots[0] < 1 or slots[-1] > order):
        raise ValueError(f"slots {slots} out of range 1..{order}")
    algebra = t.algebra
    free = [k for k in range(1, order + 1) if k not in set(slots)]
    table: dict[tuple, Fraction] = {}
    for factors, coeff in t.table.items():
        for unit_choice in itertools.product(algebra.unit.items(), repeat=len(free)):
            names = [""] * order
            value = coeff
            for slot, name in zip(slots, factors):
                names[slot - 1] = name
            for position, (name, unit_coeff) in zip(free, unit_choice):
                names[position - 1] = name
                value *= unit_coeff
            key = tuple(names)
            table[key] = table.get(key, Fraction(0)) + value
    return TensorElem(algebra, order, table)
