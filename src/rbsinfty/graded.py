"""Finite-dimensional graded linear algebra over exact rationals.

Everything downstream of the symbolic operad calculus evaluates on concrete
graded spaces: sparse multilinear maps with Koszul-signed composition,
tensors over a based graded algebra (componentwise products with interchange
signs, unit insertions into prescribed slots), and matrix algebras End(V)
with their canonical basis e_p^q.

Maps, tensors and a based algebra's product and unit store one exact form:
a positive ``denominator`` and integer ``rows`` over it, in lowest terms
(the least denominator that makes every entry an integer) with cancelled
entries dropped, reduced once when built and never changed after.  The
format belongs to this module.  A `Fraction` is made only where a
coefficient is read (`_frac`) and by the value readers `evaluate` and
`items`; a report writes its entries from the integers (`_text`).
"""

from __future__ import annotations

import itertools
import re
from fractions import Fraction
from math import gcd, lcm
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


def _ratio(value) -> tuple[int, int]:
    """``value`` as ``(numerator, denominator)``: an int over 1, anything
    else read by `_frac` (a `Fraction` as it is)."""
    if value.__class__ is int:
        return value, 1
    value = _frac(value)
    return value.numerator, value.denominator


def _text(numerator: int, denominator: int) -> str:
    """``str(Fraction(numerator, denominator))``, without the `Fraction`."""
    g = gcd(numerator, denominator)
    if g == denominator:
        return str(numerator // g)
    return f"{numerator // g}/{denominator // g}"


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
    multiple.  The table is built from signed streams ``(sign, (denominator,
    rows))``, or empty; a `MultiMap` is built from its ``rows`` and
    ``denominator``, and `part` reads it as a part of `_signed_rows` without
    one.
    """

    __slots__ = ("rows", "denominator")

    def __init__(self, terms: Iterable[tuple] = ()):
        self.rows: dict[tuple, dict[str, int]] = {}
        self.denominator = 1
        for sign, (denominator, rows) in terms:
            self.add(denominator, rows, sign)

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


def _flat_sum(terms: Iterable[tuple]) -> tuple[int, dict]:
    """The signed ``(sign, (denominator, {key: numerator}))`` terms summed in
    one table over their least common denominator: ``(denominator, {key:
    numerator})``, the tensor counterpart of `_IntegerTable`."""
    terms = list(terms)
    common, table = lcm(*(denominator for _, (denominator, _) in terms)), {}
    get = table.get
    for sign, (denominator, rows) in terms:
        k = sign * (common // denominator)
        for key, n in rows.items():
            table[key] = get(key, 0) + k * n
    return common, table


def _lowest(denominator: int, numerators: Iterable[int]) -> int:
    """What integer rows over ``denominator`` are divided by to be in lowest
    terms: the gcd of the denominator and every numerator."""
    return gcd(denominator, *numerators) if denominator != 1 else 1


class MultiMap:
    """A homogeneous multilinear map, stored sparsely over basis tuples.

    Its one form is ``denominator`` and ``rows``, ``{inputs: {output:
    numerator}}``, every stored entry nonzero with deg(out) =
    sum(deg(inputs)) + degree.  The constructor takes either a table of
    rationals, a mapping or an iterable of ``(inputs, outputs)`` pairs in
    which an input tuple may repeat, whose coefficients it reads (`_ratio`),
    sums and validates; or integer rows over a given ``denominator``, the
    sum of a kernel (an `_IntegerTable`), taken as homogeneous.  Either way
    the rows are reduced once (`_lowest`) and cancelled entries dropped.  A
    map is not changed once built: the index by output that `_signed_rows`
    reads (`_by_output`) is derived from the rows on first use and kept.
    """

    __slots__ = ("space_in", "space_out", "arity", "degree", "denominator", "rows", "_index")

    def __init__(
        self,
        space_in: GradedSpace,
        space_out: GradedSpace,
        arity: int,
        degree: int,
        table: Union[Mapping[tuple, Mapping[str, Rational]], Iterable[tuple], None] = None,
        denominator: Optional[int] = None,
    ):
        if arity < 1:
            raise ValueError(f"arity must be >= 1, got {arity}")
        self.space_in = space_in
        self.space_out = space_out
        self.arity = arity
        self.degree = degree
        self._index = None
        parsed = denominator is None
        if parsed:
            denominator, table = _read_table(table.items() if hasattr(table, "items") else table)
        # degrees read from the spaces' tables, once per input tuple
        degrees_in, degrees_out = space_in._degrees, space_out._degrees
        rows: dict[tuple[str, ...], dict[str, int]] = {}
        for ins, row in table.items():
            row = {out: n for out, n in row.items() if n}
            if parsed:
                if len(ins) != arity:
                    raise ValueError(f"input tuple {ins} does not match arity {arity}")
                try:
                    out_degree = sum(map(degrees_in.__getitem__, ins)) + degree
                except KeyError as unknown:
                    raise ValueError(f"unknown basis name {unknown.args[0]!r}") from None
                for out in row:
                    if degrees_out.get(out) != out_degree:
                        space_out.degree(out)  # an unknown name is refused as such
                        raise ValueError(
                            f"entry {ins} -> {out} violates homogeneity of degree {degree}"
                        )
            if row:
                rows[ins] = row
        g = _lowest(denominator, (n for row in rows.values() for n in row.values()))
        if g != 1:
            rows = {ins: {out: n // g for out, n in row.items()} for ins, row in rows.items()}
        self.denominator = denominator // g
        self.rows = rows

    def _by_output(self) -> tuple[int, int, dict]:
        """``(degree, denominator, index)``: the map as `_signed_rows` reads
        a part, its rows indexed by `_output_index`, made once."""
        if self._index is None:
            self._index = (self.degree, self.denominator, _output_index(self.rows, self.space_in))
        return self._index

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, space_in, space_out, arity, degree) -> "MultiMap":
        return cls(space_in, space_out, arity, degree, {}, 1)

    @classmethod
    def identity(cls, space: GradedSpace) -> "MultiMap":
        return cls(space, space, 1, 0, {(n,): {n: 1} for n in space}, 1)

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
        maps' rows, each scaled, summed in one `_IntegerTable`.  The degree
        is chosen as in `sum`, and a nonzero term of another degree is
        refused; a scalar is an int or a `Fraction`."""
        table = _IntegerTable()
        for scalar, m in terms:
            if (
                m.arity != arity
                or m.space_in is not space_in and m.space_in != space_in
                or m.space_out is not space_out and m.space_out != space_out
            ):
                raise ValueError("maps live on different spaces or arities")
            if m.rows and scalar:
                if not table.rows:  # the first nonzero term sets the degree
                    degree = m.degree
                elif m.degree != degree:
                    raise ValueError(f"maps of degrees {degree} and {m.degree} in one sum")
                n = scalar.numerator
                rows = ((ins, n, r) for ins, r in m.rows.items())
                table.add(m.denominator * scalar.denominator, rows)
        return cls(space_in, space_out, arity, degree, table.rows, table.denominator)

    # -- queries ------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.rows

    def evaluate(self, ins: Sequence[str]) -> dict[str, Fraction]:
        q = self.denominator
        return {out: Fraction(n, q) for out, n in self.rows.get(tuple(ins), {}).items()}

    def items(self):
        """``(inputs, {output: Fraction})``, sorted."""
        for ins in sorted(self.rows):
            yield ins, self.evaluate(ins)

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
        if (
            self.space_in != other.space_in
            or self.space_out != other.space_out
            or self.arity != other.arity
        ):
            return False
        if not self.rows and not other.rows:
            return True
        return (
            self.degree == other.degree
            and self.denominator == other.denominator
            and self.rows == other.rows
        )

    def __repr__(self):
        if self.is_zero():
            return f"MultiMap(0; arity={self.arity}, degree={self.degree})"
        bits = [
            f"({', '.join(entry['in'])}) -> {coeff}*{out}"
            for entry in self._entries()
            for out, coeff in entry["out"].items()
        ]
        return f"MultiMap[{'; '.join(bits)}]"

    # -- serialization ------------------------------------------------------

    def to_json(self) -> dict:
        return {"arity": self.arity, "degree": self.degree, "entries": self._entries()}

    def _entries(self, limit: Optional[int] = None) -> list[dict]:
        """The serialized entries of `to_json`, in sorted order, only the
        first ``limit`` when it is given."""
        q, rows = self.denominator, self.rows
        return [
            {"in": list(ins), "out": {o: _text(n, q) for o, n in sorted(rows[ins].items())}}
            for ins in itertools.islice(sorted(rows), limit)
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


def _read_table(table: Optional[Iterable[tuple]]) -> tuple[int, dict]:
    """``(denominator, {inputs: {output: numerator}})``: the ``(inputs,
    outputs)`` pairs of a table of rationals, each coefficient read by
    `_ratio`, summed over their least common denominator, a repeated input
    tuple added; every input tuple given appears, if only with an empty row."""
    read = [
        (tuple(ins), [(out, *_ratio(coeff)) for out, coeff in outs.items()])
        for ins, outs in table or ()
    ]
    common, rows = lcm(*{q for _, row in read for *_, q in row}), {}
    for ins, row in read:
        merged = rows.get(ins)
        if merged is None:
            merged = rows[ins] = {}
        for out, n, q in row:
            n *= common // q
            merged[out] = merged[out] + n if out in merged else n
    return common, rows


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

    Every map is read in its one form, integer rows over its denominator,
    and each part is indexed once by output name (`MultiMap._by_output`).
    The scale, the Koszul signs and all these denominators fold into the
    factors: a host entry grows its input tuples slot by slot from the
    options of its targets, carrying one integer and the degree of the
    inputs so far, and a part of odd degree flips the sign past inputs of
    odd total degree.
    """
    if not f.rows:
        return 1, iter(())
    f_denominator, f_rows = f.denominator, f.rows
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
    summed in one `_IntegerTable`, the rows of the map.
    """
    if len(parts) != f.arity:
        raise ValueError(f"need {f.arity} parts, got {len(parts)}")
    space_in = _input_space(f, parts)
    arity = sum(1 if part is None else part.arity for part in parts)
    degree = f.degree + sum(0 if part is None else part.degree for part in parts)
    table = _IntegerTable([(1, _signed_rows(f, [parts], space_in))])
    return MultiMap(space_in, f.space_out, arity, degree, table.rows, table.denominator)


def brace_map(f: MultiMap, args: Sequence[MultiMap]) -> MultiMap:
    """Sum of compositions of f with args at all increasing slot choices,
    built in one table."""
    if not args:
        return f
    space_in = _input_space(f, list(args) + [None] * (f.arity - len(args)))
    arity = f.arity - len(args) + sum(a.arity for a in args)
    degree = f.degree + sum(a.degree for a in args)
    table = _IntegerTable([(1, _signed_rows(f, _slot_choices(f, args), space_in))])
    return MultiMap(
        space_in, f.space_out, max(arity, 1), degree, table.rows, table.denominator
    )


# ---------------------------------------------------------------------------
# based algebras and tensors over them
# ---------------------------------------------------------------------------


class BasedAlgebra:
    """A unital graded algebra with explicit basis and structure constants:
    the product is one arity-2, degree-0 `MultiMap` (`product_map`), given
    as a table of rationals or as the map, and the unit an order-1
    `TensorElem`, given as a table of rationals.  The
    index of the product's rows that `F_map` walks (`_integer_index`) and
    the unit cube are derived from them on first use."""

    __slots__ = ("space", "unit", "_product", "_index", "_cube")

    def __init__(
        self,
        space: GradedSpace,
        products: Union[Mapping[tuple[str, str], Mapping[str, Rational]], MultiMap],
        unit: Mapping[str, Rational],
    ):
        for name in unit:
            degree = space._degrees.get(name)
            if degree is None:
                raise ValueError(f"unit entry {name!r} is not a basis name")
            if degree != 0:
                raise ValueError(f"unit entry {name!r} has degree {degree}, expected 0")
        self.space = space
        if not isinstance(products, MultiMap):
            products = MultiMap(space, space, 2, 0, products)
        self._product = products
        self.unit = TensorElem(self, 1, (((name,), c) for name, c in unit.items()))
        self._index = self._cube = None

    def _integer_index(self) -> tuple[int, dict, dict]:
        """``(q, products, right)``: the product's rows over its denominator
        q, ``products[a, b] = {a·b: numerator}``, and ``right[a]``, the pairs
        ``(b, products[a, b])`` with a·b ≠ 0; made on first use and kept."""
        if self._index is None:
            product = self._product
            right: dict[str, list] = {}
            for (a, b), row in product.rows.items():
                right.setdefault(a, []).append((b, row))
            self._index = (product.denominator, product.rows, right)
        return self._index

    def _unit_cube(self) -> "TensorElem":
        """1 (x) 1 (x) 1, the image of m_2 in the tensor operad
        (`rbsinfty.yang_baxter`), made once."""
        if self._cube is None:
            self._cube = raise_indices(self.unit, (1,), 3)
        return self._cube

    def product_map(self) -> MultiMap:
        """The multiplication as an arity-2, degree-0 MultiMap, validated
        once."""
        return self._product

    def __eq__(self, other):
        if other is self:
            return True
        if not isinstance(other, BasedAlgebra):
            return NotImplemented
        return (
            self.space == other.space
            and self._product == other._product
            and self.unit.denominator == other.unit.denominator
            and self.unit.rows == other.unit.rows
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
        products = {
            (e[i][j], e[j][l]): {e[i][l]: 1} for i, j, l in itertools.product(dims, repeat=3)
        }
        product = MultiMap(space, space, 2, 0, products, 1)
        super().__init__(space, product, {e[p][p]: 1 for p in dims})

    @staticmethod
    def unit_name(p: int, q: int) -> str:
        return f"e{p}^{q}"

    @staticmethod
    def unit_indices(name: str) -> tuple[int, int]:
        p, q = name[1:].split("^")
        return int(p), int(q)


class TensorElem:
    """A sparse element of A^(⊗ order) over a based algebra A.

    Its one form is ``denominator`` and ``rows``, ``{factors: numerator}``,
    every entry nonzero.  The constructor takes either a table of
    rationals, a mapping or an iterable of ``(factors, coefficient)`` pairs
    in which a factor tuple may repeat, whose coefficients it reads
    (`_ratio`) and sums, checking each tuple's length and basis names; or
    integer rows over a given ``denominator``, a kernel's sum.  Either way
    the rows are reduced once (`_lowest`) and cancelled entries dropped; a
    tensor is not changed once built.
    """

    __slots__ = ("algebra", "order", "denominator", "rows")

    def __init__(
        self,
        algebra: BasedAlgebra,
        order: int,
        table: Union[Mapping[tuple, Rational], Iterable[tuple], None] = None,
        denominator: Optional[int] = None,
    ):
        if order < 1:
            raise ValueError(f"order must be >= 1, got {order}")
        self.algebra = algebra
        self.order = order
        if denominator is None:
            if hasattr(table, "items"):
                table = table.items()
            read = [(tuple(factors), *_ratio(coeff)) for factors, coeff in table or ()]
            denominator, table = lcm(*{q for *_, q in read}), {}
            for factors, n, q in read:
                n *= denominator // q
                table[factors] = table[factors] + n if factors in table else n
            for factors in table:
                if len(factors) != order:
                    raise ValueError(f"factor tuple {factors} does not match order {order}")
                for name in factors:
                    algebra.space.degree(name)
        rows = {factors: n for factors, n in table.items() if n}
        g = _lowest(denominator, rows.values())
        if g != 1:
            rows = {factors: n // g for factors, n in rows.items()}
        self.denominator = denominator // g
        self.rows = rows

    @classmethod
    def zero(cls, algebra, order) -> "TensorElem":
        return cls(algebra, order, {}, 1)

    @classmethod
    def sum(cls, algebra, order, tensors: Iterable["TensorElem"]) -> "TensorElem":
        """The sum of tensors of one algebra and order, built in one table."""
        tensors = list(tensors)
        if any(t.algebra != algebra or t.order != order for t in tensors):
            raise ValueError("tensor mismatch in algebra or order")
        q, rows = _flat_sum((1, (t.denominator, t.rows)) for t in tensors)
        return cls(algebra, order, rows, q)

    def is_zero(self) -> bool:
        return not self.rows

    def entry_degree(self, factors: tuple[str, ...]) -> int:
        return sum(self.algebra.space.degree(name) for name in factors)

    def homogeneous_degree(self) -> Optional[int]:
        degrees = {self.entry_degree(f) for f in self.rows}
        if not degrees:
            return None
        if len(degrees) > 1:
            raise ValueError(f"tensor is not homogeneous: degrees {sorted(degrees)}")
        return degrees.pop()

    def items(self):
        """``(factors, Fraction)``, sorted."""
        q = self.denominator
        for factors in sorted(self.rows):
            yield factors, Fraction(self.rows[factors], q)

    def __add__(self, other: "TensorElem") -> "TensorElem":
        return TensorElem.sum(self.algebra, self.order, (self, other))

    def __neg__(self):
        return self.__rmul__(-1)

    def __sub__(self, other):
        return self + (-other)

    def __rmul__(self, scalar) -> "TensorElem":
        n, d = _ratio(scalar)
        rows = {factors: n * c for factors, c in self.rows.items()}
        return TensorElem(self.algebra, self.order, rows, self.denominator * d)

    __mul__ = __rmul__

    def __eq__(self, other):
        if not isinstance(other, TensorElem):
            return NotImplemented
        return (
            self.algebra == other.algebra
            and self.order == other.order
            and self.denominator == other.denominator
            and self.rows == other.rows
        )

    def __repr__(self):
        if self.is_zero():
            return f"TensorElem(0; order={self.order})"
        bits = [f"{e['coeff']}*{'(x)'.join(e['factors'])}" for e in self._entries()]
        return f"TensorElem[{' + '.join(bits)}]"

    def to_json(self) -> dict:
        return {"order": self.order, "entries": self._entries()}

    def _entries(self, limit: Optional[int] = None) -> list[dict]:
        """The serialized entries of `to_json`, in sorted order, only the
        first ``limit`` when it is given."""
        q, rows = self.denominator, self.rows
        return [
            {"factors": list(f), "coeff": _text(rows[f], q)}
            for f in itertools.islice(sorted(rows), limit)
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
    """Componentwise product in A^(⊗n) with Koszul interchange signs, on the
    rows of a and b and of the structure constants (`_integer_index`)."""
    if a.algebra != b.algebra or a.order != b.order:
        raise ValueError("tensor mismatch in algebra or order")
    algebra, order = a.algebra, a.order
    q, products, _ = algebra._integer_index()
    degrees = algebra.space._degrees
    rows: dict[tuple, int] = {}
    for xf, xn in a.rows.items():
        for yf, yn in b.rows.items():
            slot_products = [products.get(pair) for pair in zip(xf, yf)]
            if not all(slot_products):
                continue
            # each y-factor moves left past the x-factors strictly to its right
            exp = sum(
                degrees[yf[j]] * degrees[xf[k]]
                for j in range(order)
                for k in range(j + 1, order)
            )
            coeff = -xn * yn if exp % 2 else xn * yn
            for combo in itertools.product(*(p.items() for p in slot_products)):
                names = tuple(name for name, _ in combo)
                value = coeff
                for _, v in combo:
                    value *= v
                rows[names] = rows.get(names, 0) + value
    return TensorElem(algebra, order, rows, a.denominator * b.denominator * q**order)


def raise_indices(t: TensorElem, slots: Sequence[int], order: int) -> TensorElem:
    """Spread t's factors over the given slots of A^(⊗ order), units elsewhere."""
    slots = tuple(slots)
    if len(slots) != t.order:
        raise ValueError(f"need {t.order} slots, got {len(slots)}")
    if any(s2 <= s1 for s1, s2 in zip(slots, slots[1:])):
        raise ValueError(f"slots must be strictly increasing, got {slots}")
    if slots and (slots[0] < 1 or slots[-1] > order):
        raise ValueError(f"slots {slots} out of range 1..{order}")
    unit = t.algebra.unit
    free = [k for k in range(1, order + 1) if k not in set(slots)]
    rows: dict[tuple, int] = {}
    for factors, n in t.rows.items():
        for unit_choice in itertools.product(unit.rows.items(), repeat=len(free)):
            names = [""] * order
            value = n
            for slot, name in zip(slots, factors):
                names[slot - 1] = name
            for position, ((name,), unit_n) in zip(free, unit_choice):
                names[position - 1] = name
                value *= unit_n
            key = tuple(names)
            rows[key] = rows.get(key, 0) + value
    q = t.denominator * unit.denominator ** len(free)
    return TensorElem(t.algebra, order, rows, q)
