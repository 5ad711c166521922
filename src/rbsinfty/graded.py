"""Finite-dimensional graded linear algebra over exact rationals.

Everything downstream of the symbolic operad calculus evaluates on concrete
graded spaces: sparse multilinear maps with Koszul-signed composition,
tensors over a based graded algebra (componentwise products with interchange
signs, unit insertions into prescribed slots), and matrix algebras End(V)
with their canonical basis e_p^q.
"""

from __future__ import annotations

import itertools
import re
from fractions import Fraction
from math import lcm
from typing import Iterable, Iterator, Mapping, Optional, Sequence, Union

Rational = Union[Fraction, int]

# the exponent form of Fraction's string grammar, as in "1e9", "-2.5E-3"
_EXPONENT = re.compile(
    r"\s*[-+]?(?=\.?\d)\d*(?:_\d+)*(?:\.(?:\d+(?:_\d+)*)?)?[eE][-+]?\d+(?:_\d+)*\s*"
)


def _frac(value) -> Fraction:
    """An exact rational; a string with an exponent ("1e999999999") is
    refused, as Fraction would compute the power in full."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError(f"not an exact rational: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        # "n" and "p/q" in ASCII digits, the forms reports and inputs use,
        # read without Fraction's parser; anything else is left to it
        numerator, slash, denominator = value.partition("/")
        digits = numerator[1:] if numerator[:1] == "-" else numerator
        if digits.isdigit() and digits.isascii():
            if not slash:
                return Fraction(int(numerator))
            if denominator.isdigit() and denominator.isascii():
                if denominator.strip("0"):  # a zero denominator is refused below
                    return Fraction(int(numerator), int(denominator))
        if _EXPONENT.fullmatch(value):
            raise ValueError(f"coefficient {value!r} has an exponent; write p/q or a decimal")
        try:
            return Fraction(value)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {value!r}") from None
    raise TypeError(f"not an exact rational: {value!r}")


class GradedSpace:
    """A finite list of named basis vectors with integer degrees; its
    suspension by one is made on first use and kept (`suspend`)."""

    __slots__ = ("_names", "_degrees", "_suspension")

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
        self._suspension = None

    @property
    def names(self) -> tuple[str, ...]:
        return self._names

    def degree(self, name: str) -> int:
        try:
            return self._degrees[name]
        except KeyError:
            raise ValueError(f"unknown basis name {name!r}") from None

    @property
    def dim(self) -> int:
        return len(self._names)

    def suspend(self, shift: int = 1) -> "GradedSpace":
        """Same names, all degrees raised by `shift`; the same space each
        time for the shift 1."""
        if shift == 1 and self._suspension is not None:
            return self._suspension
        space = GradedSpace((n, self._degrees[n] + shift) for n in self._names)
        if shift == 1:
            self._suspension = space
        return space

    def __iter__(self):
        return iter(self._names)

    def __eq__(self, other):
        if other is self:
            return True
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
        basis = _json_array(_json_object(data, "space").get("basis"), "space.basis")
        if not basis:  # every check would pass on the zero space
            raise ValueError("space.basis must not be empty")
        return cls((_field(b, "name", str), _field(b, "degree", int)) for b in basis)


class _IntegerTable:
    """Integer rows summed over one common denominator, the accumulator
    behind `compose_tensor`, `brace_map`, `MultiMap.combination`, the
    residuals of `rbsinfty.residuals` and the brackets of `rbsinfty.linfty`
    (and their inner compositions).

    A row is ``(inputs, factor, {output: numerator})`` and stands for the
    outputs' numerators times ``factor``.  `add` takes the rows of one
    stream over that stream's denominator; a denominator that does not
    divide the table's rescales what is stored once, to their least common
    multiple.  A `MultiMap` built from the table takes its rows over as its
    integer form and makes one `Fraction` per entry that does not cancel;
    `part` reads the table as a part of `_signed_rows` without one.
    """

    __slots__ = ("rows", "denominator")

    def __init__(self):
        self.rows: dict[tuple, dict[str, int]] = {}
        self.denominator = 1

    def add(self, denominator: int, rows: Iterable[tuple], numerator: int = 1) -> None:
        """Sum ``rows`` times ``numerator``, their values over ``denominator``,
        into the table."""
        common = self.denominator
        if common % denominator:
            grown = lcm(common, denominator)
            k = grown // common
            for row in self.rows.values():
                for out in row:
                    row[out] *= k
            self.denominator = common = grown
        k = common // denominator * numerator
        table = self.rows
        for ins, factor, outs in rows:
            factor *= k
            row = table.get(ins)
            if row is None:
                table[ins] = {out: factor * n for out, n in outs.items()}
            else:
                for out, n in outs.items():
                    row[out] = row[out] + factor * n if out in row else factor * n

    def part(self, degree: int, space_in: "GradedSpace") -> tuple:
        """The table as a composite part of `_signed_rows`, a map of
        ``degree`` on ``space_in`` never built: ``(degree, denominator,
        _output_index)``."""
        return degree, self.denominator, _output_index(self.rows, space_in)


def _output_index(
    rows: Mapping[tuple, Mapping[str, int]], space_in: GradedSpace
) -> dict:
    """``{output: [(inputs, numerator, input degree)]}``: integer rows on
    ``space_in`` indexed by output name, leaving out the entries that
    cancelled to zero (so a zero map gives an empty index)."""
    degrees = space_in._degrees
    index: dict[str, list] = {}
    for ins, row in rows.items():
        d = sum(map(degrees.__getitem__, ins))
        for out, n in row.items():
            if n:
                option = (ins, n, d)
                if out in index:
                    index[out].append(option)
                else:
                    index[out] = [option]
    return index


class MultiMap:
    """A homogeneous multilinear map, stored sparsely over basis tuples.

    `table` maps input basis-name tuples to output coefficient dicts; every
    stored entry satisfies deg(out) = sum(deg(inputs)) + degree.

    The constructor is the one place where coefficients are combined: it
    takes a mapping or an iterable of ``(inputs, outputs)`` pairs in which an
    input tuple may repeat, sums the outputs of a repeated tuple, drops the
    coefficients that cancel and validates what is left.  It also takes an
    `_IntegerTable`, already summed, whose surviving entries it normalises
    and validates.  A map is not changed once built: the integer forms that
    the composition kernel reads (`_numerators`, `_by_output`) are made on
    first use and kept.
    """

    __slots__ = (
        "space_in", "space_out", "arity", "degree", "table", "_integers", "_index"
    )

    def __init__(
        self,
        space_in: GradedSpace,
        space_out: GradedSpace,
        arity: int,
        degree: int,
        table: Union[
            Mapping[tuple, Mapping[str, Rational]], Iterable[tuple], _IntegerTable, None
        ] = None,
    ):
        if arity < 1:
            raise ValueError(f"arity must be >= 1, got {arity}")
        self.space_in = space_in
        self.space_out = space_out
        self.arity = arity
        self.degree = degree
        self._index = None
        if isinstance(table, _IntegerTable):
            # the table's numerators are the integer form (a cancelled entry
            # stays as a zero there, which composes to zero)
            merged, q = table.rows, table.denominator
            self._integers = (q, merged)
        else:
            self._integers = q = None
            if hasattr(table, "items"):
                table = table.items()
            merged = {}
            for ins, outs in table or ():
                ins = tuple(ins)
                row = merged.get(ins)
                if row is None:
                    row = merged[ins] = {}
                for out, coeff in outs.items():
                    if coeff.__class__ is not Fraction:
                        coeff = _frac(coeff)
                    row[out] = row[out] + coeff if out in row else coeff
        # degrees read from the spaces' tables, once per input tuple
        degrees_in, degrees_out = space_in._degrees, space_out._degrees
        clean: dict[tuple[str, ...], dict[str, Fraction]] = {}
        for ins, row in merged.items():
            if len(ins) != arity:
                raise ValueError(f"input tuple {ins} does not match arity {arity}")
            try:
                out_degree = sum(map(degrees_in.__getitem__, ins)) + degree
            except KeyError as unknown:
                raise ValueError(f"unknown basis name {unknown.args[0]!r}") from None
            # drop what cancels; normalise an integer table, one Fraction per entry
            if q is None:
                row = {out: coeff for out, coeff in row.items() if coeff}
            elif q == 1:
                row = {out: Fraction(n) for out, n in row.items() if n}
            else:
                row = {out: Fraction(n, q) for out, n in row.items() if n}
            for out in row:
                if degrees_out.get(out) != out_degree:
                    space_out.degree(out)  # an unknown name is refused as such
                    raise ValueError(
                        f"entry {ins} -> {out} violates homogeneity of degree {degree}"
                    )
            if row:
                clean[ins] = row
        self.table = clean

    def _numerators(self) -> tuple[int, dict]:
        """``(denominator, {inputs: {output: numerator}})``: the table as
        integers over a common denominator, made once (the least one unless
        the map was built from an `_IntegerTable`, whose rows it keeps)."""
        if self._integers is None:
            table = self.table
            q = lcm(*{c.denominator for row in table.values() for c in row.values()})
            if q == 1:
                rows = {
                    ins: {out: c.numerator for out, c in row.items()}
                    for ins, row in table.items()
                }
            else:
                rows = {
                    ins: {out: q // c.denominator * c.numerator for out, c in row.items()}
                    for ins, row in table.items()
                }
            self._integers = (q, rows)
        return self._integers

    def _by_output(self) -> tuple[int, int, dict]:
        """``(degree, denominator, index)``: the map as `_signed_rows` reads
        a part, its integer table indexed by `_output_index`, made once."""
        if self._index is None:
            q, rows = self._numerators()
            self._index = (self.degree, q, _output_index(rows, self.space_in))
        return self._index

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, space_in, space_out, arity, degree) -> "MultiMap":
        return cls(space_in, space_out, arity, degree, {})

    @classmethod
    def identity(cls, space: GradedSpace) -> "MultiMap":
        return cls(space, space, 1, 0, {(n,): {n: Fraction(1)} for n in space})

    @classmethod
    def sum(
        cls, space_in, space_out, arity, degree, maps: Iterable["MultiMap"]
    ) -> "MultiMap":
        """The sum of maps of one shape, built in one table.

        The sum takes the degree of its first nonzero term; `degree` is the
        degree of the zero map returned when every term is zero.
        """
        terms = ((1, m) for m in maps)
        return cls.combination(space_in, space_out, arity, degree, terms)

    @classmethod
    def combination(
        cls, space_in, space_out, arity, degree, terms: Iterable[tuple]
    ) -> "MultiMap":
        """The linear combination of ``(scalar, map)`` terms of one shape: the
        maps' integer forms, each scaled, summed in one `_IntegerTable`.  The
        degree is chosen as in `sum`; a scalar is an int or a `Fraction`."""
        table = _IntegerTable()
        for scalar, m in terms:
            if (
                m.arity != arity
                or m.space_in is not space_in and m.space_in != space_in
                or m.space_out is not space_out and m.space_out != space_out
            ):
                raise ValueError("maps live on different spaces or arities")
            if m.table:
                if not table.rows:  # the first nonzero term sets the degree
                    degree = m.degree
                q, rows = m._numerators()
                n = scalar.numerator
                table.add(q * scalar.denominator, ((ins, n, r) for ins, r in rows.items()))
        return cls(space_in, space_out, arity, degree, table)

    # -- queries ------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.table

    def evaluate(self, ins: Sequence[str]) -> dict[str, Fraction]:
        return dict(self.table.get(tuple(ins), {}))

    def items(self):
        for ins in sorted(self.table):
            yield ins, dict(sorted(self.table[ins].items()))

    # -- linear structure ---------------------------------------------------

    def __add__(self, other: "MultiMap") -> "MultiMap":
        return MultiMap.sum(
            self.space_in, self.space_out, self.arity, other.degree, (self, other)
        )

    def __neg__(self) -> "MultiMap":
        return self.__rmul__(-1)

    def __sub__(self, other: "MultiMap") -> "MultiMap":
        terms = ((1, self), (-1, other))
        return MultiMap.combination(
            self.space_in, self.space_out, self.arity, other.degree, terms
        )

    def __rmul__(self, scalar) -> "MultiMap":
        if scalar.__class__ is not int:
            scalar = _frac(scalar)
        return MultiMap.combination(
            self.space_in, self.space_out, self.arity, self.degree, ((scalar, self),)
        )

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
        return {"arity": self.arity, "degree": self.degree, "entries": self._entries()}

    def _entries(self, limit: Optional[int] = None) -> list[dict]:
        """The serialized entries of `to_json`, only the first ``limit``
        when it is given."""
        return [
            {"in": list(ins), "out": {o: str(c) for o, c in outs.items()}}
            for ins, outs in itertools.islice(self.items(), limit)
        ]

    @classmethod
    def from_json(
        cls, space_in, space_out, data: Mapping, field: str = "map"
    ) -> "MultiMap":
        data = _json_object(data, field)
        table = [
            (tuple(_field(e, "in", list)), _field(e, "out", dict))
            for e in _json_array(data.get("entries", []), f"{field}.entries")
        ]
        _reject_repeats(ins for ins, _ in table)
        arity = _json_int(data.get("arity"), f"{field}.arity")
        degree = _json_int(data.get("degree"), f"{field}.degree")
        return cls(space_in, space_out, arity, degree, table)


# what a reader passes for a top-level field its JSON object lacks
# (``data.get(key, _MISSING)``), told apart from an explicit null (None)
_MISSING = object()


def _kind(value) -> str:
    """The name a refusal gives the kind of ``value``: null for JSON null."""
    return "null" if value is None else type(value).__name__


def _json_object(value, field: str) -> dict:
    """``value``, refusing anything but a JSON object by naming ``field``."""
    if value is _MISSING:
        raise ValueError(f"{field} is missing")
    if not isinstance(value, dict):
        raise ValueError(f"{field} must be a JSON object, got {_kind(value)}")
    return value


def _json_array(value, field: str) -> list:
    """``value``, refusing anything but a JSON array by naming ``field``."""
    if not isinstance(value, list):
        raise ValueError(f"{field} must be a JSON array, got {_kind(value)}")
    return value


def _json_int(value, field: str, optional: bool = False) -> Optional[int]:
    """``value``, refusing anything but a JSON integer (a boolean, a float, a
    string) by naming ``field``; an ``optional`` field may be absent (None)."""
    if value is None and optional:
        return None
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{field} must be an integer, got {_kind(value)}")
    return value


def _family_key(key, field: str) -> int:
    """A family member's arity from its key: an int, or a string that is the
    canonical decimal form of one (no sign, space or leading zero that
    ``int`` would pass over); anything else is refused by naming ``field``."""
    if isinstance(key, int) and not isinstance(key, bool):
        return key
    if isinstance(key, str) and key.isascii() and key.isdigit() and str(int(key)) == key:
        return int(key)
    raise ValueError(f"{field}: family key must be a decimal integer")


def _json_family(data: Mapping, key: str, parse) -> dict:
    """The family stored under ``key`` (absent: empty), one member per arity:
    each value read by ``parse(value, field)`` with its field named ``key.n``."""
    return {
        _family_key(n, f"{key}.{n}"): parse(value, f"{key}.{n}")
        for n, value in _json_object(data.get(key, {}), key).items()
    }


def _truncation(truncation: Optional[int], families: Mapping[str, Iterable[int]]) -> int:
    """``truncation``, or the highest arity in the labelled ``families`` (at
    least 1) when it is None; a truncation below 1, or a member above it
    (which no check would read), is refused by naming it."""
    members = [(label, n) for label, family in families.items() for n in family]
    if truncation is None:
        truncation = max([1, *(n for _, n in members)])
    if truncation < 1:
        raise ValueError(f"truncation must be >= 1, got {truncation}")
    for label, n in members:
        if n > truncation:
            raise ValueError(f"{label}_{n} is above the truncation {truncation}")
    return truncation


_FIELD_KINDS = {
    list: "an array of names",
    dict: "an object",
    str: "a string",
    int: "an integer",
    (str, int): "a string or an integer",
}


def _field(entry, key: str, kind: type):
    """``entry[key]``, refusing an entry that is not an object or a value
    that is not of ``kind``: a JSON array of names (list), an object (dict),
    a string (str), an integer (int, booleans refused) or either of the last
    two (a coefficient)."""
    value = entry.get(key) if isinstance(entry, dict) else None
    names = kind is not list or all(isinstance(n, str) for n in value or ())
    if not isinstance(value, kind) or isinstance(value, bool) or not names:
        raise ValueError(f"entry {entry!r} needs {key!r} as {_FIELD_KINDS[kind]}")
    return value


def _reject_repeats(keys: Iterable[tuple]) -> None:
    """Refuse a serialized table that lists one key twice."""
    seen = set()
    for key in keys:
        if key in seen:
            raise ValueError(f"entry {list(key)} is listed more than once")
        seen.add(key)


def _input_space(f: MultiMap, parts: Sequence[Optional[MultiMap]]) -> GradedSpace:
    """The common input space of ``parts``, checked against the host ``f``."""
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
        return f.space_in
    if any(part is None for part in parts) and space_in != f.space_in:
        raise ValueError("identity slots require matching input space")
    return space_in


def _slot_choices(f: MultiMap, args: Sequence[MultiMap]) -> Iterator[list]:
    """The parts of each increasing choice of slots of f for ``args``, the
    identity (None) in the other slots."""
    for chosen in itertools.combinations(range(f.arity), len(args)):
        parts: list[Optional[MultiMap]] = [None] * f.arity
        for slot, arg in zip(chosen, args):
            parts[slot] = arg
        yield parts


def _signed_rows(
    f: MultiMap,
    layouts: Iterable[Sequence],
    space_in: GradedSpace,
    numerator: int = 1,
    denominator: int = 1,
) -> tuple[int, Iterator[tuple]]:
    """f composed with each layout of parts, times ``numerator /
    denominator``, as ``(common denominator, rows)``: each row is ``(inputs,
    factor, host outputs)``, the integer rows of `_IntegerTable`.  A layout
    holds one part per slot: a map on ``space_in``, None for the identity,
    or a composite never made a map, given as the triple that
    `MultiMap._by_output` gives for a map: its degree, and the denominator
    and `_output_index` of its summed `_IntegerTable`.

    Every map is read as integers over a common denominator of its own
    (`MultiMap._numerators`), and each part is indexed once by output name
    (`MultiMap._by_output`).  The scale, the Koszul signs and all these
    denominators fold into the factors: a host entry grows its input tuples
    slot by slot from the options of its targets, carrying one integer and
    the degree of the inputs so far, and a part of odd degree flips the sign
    past inputs of odd total degree.
    """
    if not f.table:
        return 1, iter(())
    f_denominator, f_rows = f._numerators()
    plans, common = [], 1
    for parts in layouts:
        q = f_denominator * denominator
        slots = []
        for part in parts:
            if part is None:
                slots.append(None)
                continue
            degree, part_denominator, index = (
                part if part.__class__ is tuple else part._by_output()
            )
            if not index:
                break  # a zero part: the layout gives no row
            q *= part_denominator
            slots.append((degree & 1, index))
        else:
            plans.append((q, slots))
            if common % q:
                common = lcm(common, q)
    return common, _layout_rows(f_rows, plans, common, numerator, space_in._degrees)


def _layout_rows(
    f_rows: dict, plans: list, common: int, numerator: int, degrees: dict
) -> Iterator[tuple]:
    """The integer rows of `_signed_rows`, layout by layout, each over
    ``common``: a layout over a smaller denominator q starts from
    ``numerator * common / q``."""
    for q, slots in plans:
        start = numerator * (common // q)
        for fins, fouts in f_rows.items():
            partial = [((), start, 0)]
            for target, slot in zip(fins, slots):
                if slot is None:
                    d = degrees[target]
                    partial = [(ins + (target,), n, left + d) for ins, n, left in partial]
                    continue
                odd, index = slot
                options = index.get(target)
                if options is None:
                    break
                partial = [
                    (ins + gins, -n * gn if odd & left else n * gn, left + gd)
                    for ins, n, left in partial
                    for gins, gn, gd in options
                ]
            else:
                for ins, n, _ in partial:
                    yield ins, n, fouts


def compose_tensor(f: MultiMap, parts: Sequence[Optional[MultiMap]]) -> MultiMap:
    """f composed with one map (or the identity, passed as None) per input slot.

    Evaluation carries the Koszul sign of each part crossing all inputs
    feeding the slots to its left.  The integer rows of `_signed_rows` are
    summed in one `_IntegerTable`, which the `MultiMap` normalises once per
    entry.
    """
    if len(parts) != f.arity:
        raise ValueError(f"need {f.arity} parts, got {len(parts)}")
    space_in = _input_space(f, parts)
    arity = sum(1 if part is None else part.arity for part in parts)
    degree = f.degree + sum(0 if part is None else part.degree for part in parts)
    table = _IntegerTable()
    table.add(*_signed_rows(f, [parts], space_in))
    return MultiMap(space_in, f.space_out, arity, degree, table)


def insert(f: MultiMap, position: int, g: MultiMap) -> MultiMap:
    """f with g plugged into one input slot, identities elsewhere."""
    if not 1 <= position <= f.arity:
        raise IndexError(f"position {position} out of range 1..{f.arity}")
    parts: list[Optional[MultiMap]] = [None] * f.arity
    parts[position - 1] = g
    return compose_tensor(f, parts)


def brace_map(f: MultiMap, args: Sequence[MultiMap]) -> MultiMap:
    """Sum of compositions of f with args at all increasing slot choices,
    built in one table."""
    if not args:
        return f
    space_in = _input_space(f, list(args) + [None] * (f.arity - len(args)))
    arity = f.arity - len(args) + sum(a.arity for a in args)
    degree = f.degree + sum(a.degree for a in args)
    table = _IntegerTable()
    table.add(*_signed_rows(f, _slot_choices(f, args), space_in))
    return MultiMap(space_in, f.space_out, max(arity, 1), degree, table)


# ---------------------------------------------------------------------------
# based algebras and tensors over them
# ---------------------------------------------------------------------------


class BasedAlgebra:
    """A unital graded algebra with explicit basis and structure constants
    (a table of a `MultiMap`, or an `_IntegerTable`), and the integer index
    of them that `F_map` walks (`_integer_index`)."""

    __slots__ = ("space", "products", "unit", "_product", "_index", "_cube")

    def __init__(
        self,
        space: GradedSpace,
        products: Union[Mapping[tuple[str, str], Mapping[str, Rational]], _IntegerTable],
        unit: Mapping[str, Rational],
    ):
        for name in unit:
            degree = space._degrees.get(name)
            if degree is None:
                raise ValueError(f"unit entry {name!r} is not a basis name")
            if degree != 0:
                raise ValueError(f"unit entry {name!r} has degree {degree}, expected 0")
        self.space = space
        self._product = MultiMap(space, space, 2, 0, products)
        self.products = self._product.table
        self.unit = {n: _frac(c) for n, c in unit.items() if _frac(c) != 0}
        self._index = self._cube = None

    def _integer_index(self) -> tuple[int, dict, dict]:
        """``(q, products, right)``: the structure constants as numerators
        over one denominator q, ``products[a, b] = {a·b: numerator}``, and
        ``right[a]``, the pairs ``(b, products[a, b])`` with a·b ≠ 0; made
        on first use and kept."""
        if self._index is None:
            q, rows = self._product._numerators()
            right: dict[str, list] = {}
            for (a, b), row in rows.items():
                right.setdefault(a, []).append((b, row))
            self._index = (q, rows, right)
        return self._index

    def _unit_numerators(self) -> tuple[int, list]:
        """``(q, [(name, numerator)])``: the unit over one denominator q."""
        q = lcm(*(c.denominator for c in self.unit.values()))
        return q, [(u, q // c.denominator * c.numerator) for u, c in self.unit.items()]

    def _unit_cube(self) -> "TensorElem":
        """1 ⊗ 1 ⊗ 1, the image of m_2 in the tensor operad
        (`rbsinfty.yang_baxter`): made once, on integers over the cube of
        the unit's denominator."""
        if self._cube is None:
            q, unit = self._unit_numerators()
            rows = {(a, b, c): x * y * z for a, x in unit for b, y in unit for c, z in unit}
            self._cube = TensorElem._from_integers(self, 3, q**3, rows)
        return self._cube

    def multiply_basis(self, a: str, b: str) -> dict[str, Fraction]:
        return dict(self.products.get((a, b), {}))

    def multiply(
        self, x: Mapping[str, Fraction], y: Mapping[str, Fraction]
    ) -> dict[str, Fraction]:
        product = TensorElem(
            self,
            1,
            (
                ((c,), ca * cb * v)
                for a, ca in x.items()
                for b, cb in y.items()
                for c, v in self.products.get((a, b), {}).items()
            ),
        )
        return {c: coeff for (c,), coeff in product.table.items()}

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
        """The multiplication as an arity-2, degree-0 MultiMap: the one map,
        validated once, whose table is ``products``."""
        return self._product

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
        degrees = [V._degrees[n] for n in V.names]
        dims = range(len(degrees))
        e = [[self.unit_name(p + 1, q + 1) for q in dims] for p in dims]
        space = GradedSpace((e[p][q], degrees[p] - degrees[q]) for p in dims for q in dims)
        # e_i^j e_j^l = e_i^l, every structure constant 1
        products = _IntegerTable()
        products.rows = {
            (e[i][j], e[j][l]): {e[i][l]: 1} for i, j, l in itertools.product(dims, repeat=3)
        }
        super().__init__(space, products, {e[p][p]: 1 for p in dims})

    @staticmethod
    def unit_name(p: int, q: int) -> str:
        return f"e{p}^{q}"

    @staticmethod
    def unit_indices(name: str) -> tuple[int, int]:
        p, q = name[1:].split("^")
        return int(p), int(q)


class TensorElem:
    """A sparse element of A^(⊗ order) over a based algebra A.

    The constructor is the one place where coefficients are combined: it
    takes a mapping or an iterable of ``(factors, coefficient)`` pairs in
    which a factor tuple may repeat, sums repeated tuples, drops those that
    cancel and checks each tuple's length and basis names.  `_from_integers`
    builds a tensor from integer rows already summed.  The integer form that
    the tensor operad reads (`_numerators`) is made on first use and kept.
    """

    __slots__ = ("algebra", "order", "table", "_integers")

    def __init__(
        self,
        algebra: BasedAlgebra,
        order: int,
        table: Union[Mapping[tuple, Rational], Iterable[tuple], None] = None,
    ):
        if order < 1:
            raise ValueError(f"order must be >= 1, got {order}")
        self.algebra = algebra
        self.order = order
        if hasattr(table, "items"):
            table = table.items()
        merged: dict[tuple[str, ...], Fraction] = {}
        for factors, coeff in table or ():
            factors = tuple(factors)
            coeff = _frac(coeff)
            merged[factors] = merged[factors] + coeff if factors in merged else coeff
        for factors in merged:
            if len(factors) != order:
                raise ValueError(f"factor tuple {factors} does not match order {order}")
            for name in factors:
                algebra.space.degree(name)
        self.table = {factors: c for factors, c in merged.items() if c}
        self._integers = None

    @classmethod
    def _from_integers(
        cls, algebra: "BasedAlgebra", order: int, denominator: int, rows: dict
    ) -> "TensorElem":
        """The tensor ``{factors: numerator / denominator}`` of integer rows
        summed elsewhere, one `Fraction` per entry that does not cancel; the
        rows are kept as its integer form."""
        t = cls(algebra, order, {f: Fraction(n, denominator) for f, n in rows.items() if n})
        t._integers = (denominator, rows)
        return t

    def _numerators(self) -> tuple[int, dict]:
        """``(q, {factors: numerator})``: the coefficients as integers over a
        common denominator q, made once (the lcm of their denominators
        unless the tensor was built by `_from_integers`, whose rows it keeps)."""
        if self._integers is None:
            table = self.table
            q = lcm(*(c.denominator for c in table.values()))
            self._integers = (
                q, {factors: q // c.denominator * c.numerator for factors, c in table.items()}
            )
        return self._integers

    @classmethod
    def zero(cls, algebra, order) -> "TensorElem":
        return cls(algebra, order, {})

    @classmethod
    def sum(cls, algebra, order, tensors: Iterable["TensorElem"]) -> "TensorElem":
        """The sum of tensors of one algebra and order, built in one table."""
        tensors = list(tensors)
        if any(t.algebra != algebra or t.order != order for t in tensors):
            raise ValueError("tensor mismatch in algebra or order")
        return cls(algebra, order, (term for t in tensors for term in t.table.items()))

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
        return TensorElem.sum(self.algebra, self.order, (self, other))

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
        return {"order": self.order, "entries": self._entries()}

    def _entries(self, limit: Optional[int] = None) -> list[dict]:
        """The serialized entries of `to_json`, only the first ``limit``
        when it is given."""
        return [
            {"factors": list(f), "coeff": str(c)}
            for f, c in itertools.islice(self.items(), limit)
        ]

    @classmethod
    def from_json(cls, algebra, data: Mapping, field: str = "tensor") -> "TensorElem":
        data = _json_object(data, field)
        table = [
            (tuple(_field(e, "factors", list)), _field(e, "coeff", (str, int)))
            for e in _json_array(data.get("entries", []), f"{field}.entries")
        ]
        _reject_repeats(factors for factors, _ in table)
        return cls(algebra, _json_int(data.get("order"), f"{field}.order"), table)


def tensor_product_multiply(a: TensorElem, b: TensorElem) -> TensorElem:
    """Componentwise product in A^(⊗n) with Koszul interchange signs."""
    if a.algebra != b.algebra or a.order != b.order:
        raise ValueError("tensor mismatch in algebra or order")
    algebra = a.algebra
    space = algebra.space
    terms = []
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
                terms.append((names, value))
    return TensorElem(algebra, a.order, terms)


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
    terms = []
    for factors, coeff in t.table.items():
        for unit_choice in itertools.product(algebra.unit.items(), repeat=len(free)):
            names = [""] * order
            value = coeff
            for slot, name in zip(slots, factors):
                names[slot - 1] = name
            for position, (name, unit_coeff) in zip(free, unit_choice):
                names[position - 1] = name
                value *= unit_coeff
            terms.append((tuple(names), value))
    return TensorElem(algebra, order, terms)
