"""Command-line interface: structural verifications and file-based checks.

Every command prints a JSON report to stdout.  Exit status is 0 when all
requested checks pass, 1 when a verification fails, and 2 when the input
cannot be parsed (bad flags, missing files, malformed JSON, or data that
violates a structural precondition).  Reports contain no timestamps and
iterate sparse tables in sorted order, so a fixed command line (including
any ``--seed``) always produces byte-for-byte identical output.

A valid command line is read straight from the command table `_COMMANDS`,
which also feeds the argparse tree of `build_parser`: the command's exact
option names, as ``--name VALUE`` or ``--name=VALUE``, and its positional
``file``, through the same ``type``, ``choices`` and ``default`` keywords.
Any other line (help, an abbreviation, ``--``, a value starting with ``-``,
a refused value, a missing or extra argument, an unknown command) goes to
that tree, which gives every help, usage and error text; only then is
argparse imported.  The report is written by `_json_text`, byte for byte
what ``json.dumps(report, indent=2, sort_keys=True)`` gives, and a
residual's report serializes only the witnesses it prints.

File formats (all JSON; coefficients are strings parsed as exact rationals):

* ``check rbs`` / ``convert rbs-to-ybp``: ``{"space", "R", "S"}`` where
  ``space`` describes the module V and the operators act on the matrix
  algebra End(V), whose basis element ``e{p}^{q}`` sends basis vector q
  to basis vector p.
* ``check ybp`` / ``convert ybp-to-rbs``: ``{"space", "r", "s"}`` with two
  order-2 tensors of degree 0 over End(V).
* ``check hrbs``: the serialized homotopy structure
  ``{"space", "truncation", "m", "r", "s"}`` with one multilinear map per
  arity; the maps act on the given space directly.
* ``check aybe-infinity``: ``{"space", "truncation", "r", "s"}`` with one
  order-n tensor per index n over End(V).
* ``check mc``: either a serialized cochain ``{"space", "degree",
  "truncation", "parts"}`` or a classical triple ``{"space", "product",
  "R", "S", "truncation"}`` acting on the space itself (degree-0 basis
  required); a file with ``parts`` is a cochain.

A top-level field outside its format is refused (exit 2) by name.
"""

from __future__ import annotations

import json
import os
import sys
from functools import lru_cache
from json.encoder import encode_basestring_ascii as _escape
from types import SimpleNamespace
from typing import Optional

from .graded import (
    GradedSpace,
    MatrixAlgebra,
    MultiMap,
    TensorElem,
    _MISSING,
    _json_int,
    _json_object,
)
from .linfty import (
    CochainElement,
    classical_cochain,
    mc_residual,
    twist_square_defects,
    verify_generalized_jacobi,
)
from .minimal_model import _WITNESS_CAP, PRESENTATIONS, check_d_squared
from .monomial_model import check_homotopy
from .residuals import (
    HomotopyRBS,
    check_classical_rbs,
    hrbs_residual_R,
    hrbs_residual_S,
    stasheff_residual,
)
from .yang_baxter import (
    InfinityYBPair,
    YBPair,
    check_classical_ybp,
    check_infinity_ybp,
    rbs_to_ybp,
    ybp_to_rbs,
)

# -- report helpers -------------------------------------------------------------


def _load(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        try:
            data = json.load(handle)
        except RecursionError:
            raise ValueError(f"{path}: the JSON is nested too deeply to parse") from None
    return _json_object(data, "the top-level JSON value")


# the top-level fields of each file format
_RBS_FIELDS = ("space", "R", "S")
_YBP_FIELDS = ("space", "r", "s")
_HRBS_FIELDS = ("space", "truncation", "m", "r", "s")
_AYBE_FIELDS = ("space", "truncation", "r", "s")
_COCHAIN_FIELDS = ("space", "degree", "truncation", "parts")
_TRIPLE_FIELDS = ("space", "product", "R", "S", "truncation")


def _schema(data: dict, fields: tuple[str, ...]) -> dict:
    """``data``, refusing a top-level field outside ``fields`` by naming it, so
    that a misspelled field is not read as a missing one."""
    unknown = sorted(data.keys() - fields)
    if unknown:
        raise ValueError(
            f"unknown top-level field {_escape(unknown[0])}; "
            f"the fields of this file are {', '.join(fields)}"
        )
    return data


def _report(residual: MultiMap | TensorElem) -> dict:
    """Entry count, first serialized entries and verdict of a residual; the
    entries are counted in its rows, and only those printed are serialized."""
    count = len(residual.rows)
    return {
        "nonzero_entries": count,
        "witnesses": residual._entries(_WITNESS_CAP),
        "ok": not count,
    }


def _pair_report(res_r: MultiMap | TensorElem, res_s: MultiMap | TensorElem) -> dict:
    """The reports of a residual pair and their joint verdict."""
    return {
        "residual_r": _report(res_r),
        "residual_s": _report(res_s),
        "ok": res_r.is_zero() and res_s.is_zero(),
    }


def _matrix_setup(data: dict) -> tuple[GradedSpace, MatrixAlgebra]:
    space = GradedSpace.from_json(data.get("space", _MISSING))
    return space, MatrixAlgebra(space)


def _operator_pair(data: dict, space: GradedSpace) -> tuple[MultiMap, MultiMap]:
    """The fields R and S of ``data``, as maps on ``space``."""
    return tuple(
        MultiMap.from_json(space, space, data.get(k, _MISSING), field=k) for k in "RS"
    )


# -- verify ---------------------------------------------------------------------


def _cmd_verify_d_squared(args: SimpleNamespace) -> dict:
    report = dict(check_d_squared(PRESENTATIONS[args.presentation], args.max_arity))
    report["command"] = "verify d-squared"
    report["presentation"] = args.presentation
    return report


def _cmd_verify_homotopy(args: SimpleNamespace) -> dict:
    report = dict(check_homotopy(args.max_arity, args.max_weight))
    report["command"] = "verify homotopy"
    report["max_arity"] = args.max_arity
    report["max_weight"] = args.max_weight
    return report


def _cmd_verify_linfinity(args: SimpleNamespace) -> dict:
    report = dict(
        verify_generalized_jacobi(
            dim=args.dim, truncation=args.trunc, trials=args.trials, seed=args.seed
        )
    )
    report["command"] = "verify linfinity"
    return report


# -- check ----------------------------------------------------------------------


def _cmd_check_rbs(args: SimpleNamespace) -> dict:
    data = _schema(_load(args.file), _RBS_FIELDS)
    space, algebra = _matrix_setup(data)
    R, S = _operator_pair(data, algebra.space)
    return {
        "command": "check rbs",
        "module_dimension": space.dim,
        "algebra_dimension": algebra.space.dim,
        **_pair_report(*check_classical_rbs(algebra, R, S)),
    }


def _cmd_check_hrbs(args: SimpleNamespace) -> dict:
    data = _schema(_load(args.file), _HRBS_FIELDS)
    structure = HomotopyRBS.from_json(data)
    limit = structure.truncation if args.max_arity is None else args.max_arity
    limit = min(limit, structure.truncation)
    if limit < 1:
        raise ValueError(f"--max-arity must be >= 1, got {limit}")
    results = []
    for n in range(1, limit + 1):
        for label, residual in (
            ("associativity", stasheff_residual(structure, n)),
            ("operator-r", hrbs_residual_R(structure, n)),
            ("operator-s", hrbs_residual_S(structure, n)),
        ):
            results.append({"identity": label, "arity": n, **_report(residual)})
    return {
        "command": "check hrbs",
        "max_arity": limit,
        "truncation": structure.truncation,
        "results": results,
        "ok": all(r["ok"] for r in results),
    }


def _cmd_check_ybp(args: SimpleNamespace) -> dict:
    data = _schema(_load(args.file), _YBP_FIELDS)
    space, algebra = _matrix_setup(data)
    pair = YBPair.from_json(algebra, data)
    return {
        "command": "check ybp",
        "module_dimension": space.dim,
        **_pair_report(*check_classical_ybp(pair)),
    }


def _cmd_check_aybe(args: SimpleNamespace) -> dict:
    data = _schema(_load(args.file), _AYBE_FIELDS)
    space, algebra = _matrix_setup(data)
    pair = InfinityYBPair.from_json(algebra, data)
    top = pair.truncation - 1
    limit = top if args.max_n is None else min(args.max_n, top)
    if limit < 0:
        raise ValueError(f"--max-n must be >= 0, got {limit}")
    results = [
        {"index": n, **_pair_report(*check_infinity_ybp(pair, n))}
        for n in range(limit + 1)
    ]
    return {
        "command": "check aybe-infinity",
        "max_n": limit,
        "truncation": pair.truncation,
        "results": results,
        "ok": all(r["ok"] for r in results),
    }


def _cmd_check_mc(args: SimpleNamespace) -> dict:
    data = _load(args.file)
    if "parts" in data:
        alpha = CochainElement.from_json(_schema(data, _COCHAIN_FIELDS))
        source = "cochain"
    else:
        _schema(data, _TRIPLE_FIELDS)
        space = GradedSpace.from_json(data.get("space", _MISSING))
        alpha = classical_cochain(
            MultiMap.from_json(
                space, space, data.get("product", _MISSING), field="product"
            ),
            *_operator_pair(data, space),
            truncation=_json_int(data.get("truncation", 3), "truncation"),
        )
        source = "classical"
    residual = mc_residual(alpha)
    components = [
        {"tag": piece.tag, "arity": piece.arity, **_report(piece.map)}
        for piece in residual.pieces()
    ]
    satisfied = residual.is_zero()
    report = {
        "command": "check mc",
        "source": source,
        "degree": alpha.degree,
        "truncation": alpha.truncation,
        "residual_components": components,
        "is_mc": satisfied,
    }
    if satisfied:
        twist = twist_square_defects(alpha, max_arity=2)
        report["twist_square_zero"] = twist["ok"]
        report["twist_checked"] = twist["checked"]
        report["ok"] = twist["ok"]
    else:
        report["twist_square_zero"] = None
        report["twist_checked"] = 0
        report["ok"] = False
    return report


# -- convert --------------------------------------------------------------------


def _cmd_convert_ybp_to_rbs(args: SimpleNamespace) -> dict:
    data = _schema(_load(args.file), _YBP_FIELDS)
    space, algebra = _matrix_setup(data)
    R, S = ybp_to_rbs(YBPair.from_json(algebra, data))
    return {"space": space.to_json(), "R": R.to_json(), "S": S.to_json()}


def _cmd_convert_rbs_to_ybp(args: SimpleNamespace) -> dict:
    data = _schema(_load(args.file), _RBS_FIELDS)
    space, algebra = _matrix_setup(data)
    R, S = _operator_pair(data, algebra.space)
    pair = rbs_to_ybp(R, S, algebra)
    return {"space": space.to_json(), "r": pair.r.to_json(), "s": pair.s.to_json()}


# -- parser ---------------------------------------------------------------------

_GROUPS = {
    "verify": "run built-in structural verifications",
    "check": "check a structure loaded from JSON",
    "convert": "convert between tensor and operator presentations",
}

_FILE = ("file", {})

# (group, target) -> (help, handler, arguments): each argument is the name
# and the keywords of one `add_argument` call, in the order of the help text
_COMMANDS = {
    ("verify", "d-squared"): (
        "the differential squares to zero on free generators",
        _cmd_verify_d_squared,
        [
            ("--presentation", {"choices": sorted(PRESENTATIONS), "default": "mrs"}),
            ("--max-arity", {"type": int, "default": 4}),
        ],
    ),
    ("verify", "homotopy"): (
        "the contraction satisfies dH + Hd = Id on monomials",
        _cmd_verify_homotopy,
        [
            ("--max-arity", {"type": int, "default": 3}),
            ("--max-weight", {"type": int, "default": 4}),
        ],
    ),
    ("verify", "linfinity"): (
        "generalized Jacobi identities on random cochains",
        _cmd_verify_linfinity,
        [
            ("--dim", {"type": int, "default": 2}),
            ("--trunc", {"type": int, "default": 3}),
            ("--trials", {"type": int, "default": 120}),
            ("--seed", {"type": int, "default": 0}),
        ],
    ),
    ("check", "rbs"): ("classical operator pair on End(V)", _cmd_check_rbs, [_FILE]),
    ("check", "hrbs"): (
        "homotopy operator-pair identities",
        _cmd_check_hrbs,
        [_FILE, ("--max-arity", {"type": int, "default": None})],
    ),
    ("check", "ybp"): (
        "coupled classical Yang-Baxter equations", _cmd_check_ybp, [_FILE]
    ),
    ("check", "aybe-infinity"): (
        "homotopy Yang-Baxter family identities",
        _cmd_check_aybe,
        [_FILE, ("--max-n", {"type": int, "default": None})],
    ),
    ("check", "mc"): (
        "Maurer-Cartan equation and the twisted differential", _cmd_check_mc, [_FILE]
    ),
    ("convert", "ybp-to-rbs"): (
        "tensor pair to operator pair", _cmd_convert_ybp_to_rbs, [_FILE]
    ),
    ("convert", "rbs-to-ybp"): (
        "operator pair to tensor pair", _cmd_convert_rbs_to_ybp, [_FILE]
    ),
}


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The parser of every command, built once per process; parsing does not
    change it.  `main` reaches it only for a line `_table_parse` leaves, so it
    gives every help, usage and error text."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="rbsinfty",
        description="Exact symbolic checks for Rota-Baxter systems, their "
        "homotopy variants, and the associated Yang-Baxter and "
        "Maurer-Cartan structures.",
    )
    groups = parser.add_subparsers(dest="group", required=True)
    targets = {}
    for (group, target), (help_text, handler, arguments) in _COMMANDS.items():
        if group not in targets:
            sub = groups.add_parser(group, help=_GROUPS[group])
            targets[group] = sub.add_subparsers(dest="target", required=True)
        command = targets[group].add_parser(target, help=help_text)
        for name, options in arguments:
            command.add_argument(name, **options)
        command.set_defaults(handler=handler)
    return parser


def _table_parse(argv: list[str]) -> Optional[SimpleNamespace]:
    """The arguments of ``argv`` read straight from `_COMMANDS`, equal to what
    `build_parser` returns apart from ``group`` and ``target``; None for a
    line that takes anything but the command's exact option names
    (``--name VALUE`` or ``--name=VALUE``, through the same ``type`` and
    ``choices``) and its one positional ``file``: help, an abbreviation,
    ``--``, a value or positional starting with ``-``, a refused value, a
    missing or extra argument, an unknown command."""
    command = _COMMANDS.get(tuple(argv[:2]))
    if command is None:
        return None
    _, handler, arguments = command
    specs = dict(arguments)
    positionals = [name for name in specs if not name.startswith("-")]
    given = {}
    tokens = iter(argv[2:])
    for token in tokens:
        if token.startswith("-"):
            name, equals, value = token.partition("=")
            if not equals:
                value = next(tokens, "-")
        elif positionals:
            name, value = positionals.pop(0), token
        else:
            return None
        spec = specs.get(name)
        if spec is None or value.startswith("-"):
            return None
        if "type" in spec:
            try:
                value = spec["type"](value)
            except ValueError:
                return None
        if "choices" in spec and value not in spec["choices"]:
            return None
        given[name] = value
    if positionals:
        return None
    return SimpleNamespace(
        handler=handler,
        **{
            name.lstrip("-").replace("-", "_"): given.get(name, spec.get("default"))
            for name, spec in arguments
        },
    )


def _parse(argv: list[str]) -> SimpleNamespace:
    """The arguments of ``argv``: from the command table, or from the full
    tree for any line the table leaves (the tree prints help and errors and
    exits)."""
    args = _table_parse(argv)
    if args is None:
        args = SimpleNamespace(**vars(build_parser().parse_args(argv)))
    return args


def _json_text(value, indent: str = "\n") -> str:
    """``json.dumps(value, indent=2, sort_keys=True)``, byte for byte, for the
    values a report holds: dicts with string keys, lists and tuples, strings,
    ints, booleans and None.  ``indent`` is the newline and the indentation of
    the line ``value`` starts on.  Anything else raises TypeError, as
    `json.dumps` does for a type it does not know.  Most members are strings,
    so a container escapes those itself instead of recursing."""
    if isinstance(value, str):
        return _escape(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    inner = indent + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [
            f"{_escape(key)}: "
            f"{_escape(item) if isinstance(item, str) else _json_text(item, inner)}"
            for key, item in sorted(value.items())
        ]
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        items = [
            _escape(item) if isinstance(item, str) else _json_text(item, inner)
            for item in value
        ]
        return "[" + inner + ("," + inner).join(items) + indent + "]"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _print(report: dict) -> None:
    try:
        print(_json_text(report), flush=True)
    except BrokenPipeError:
        # the reader left early (``| head``); the interpreter flushes stdout
        # again at exit, so send what is left to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def main(argv: Optional[list[str]] = None) -> int:
    args = _parse(sys.argv[1:] if argv is None else list(argv))
    try:
        report = args.handler(args)
    except (OSError, KeyError, TypeError, ValueError) as exc:
        _print({"error": str(exc) or type(exc).__name__})
        return 2
    _print(report)
    return 0 if report.get("ok", True) else 1


if __name__ == "__main__":
    raise SystemExit(main())
