"""Command-line interface: structural verifications and file-based checks.

Every command prints a JSON report to stdout.  Exit status is 0 when all
requested checks pass, 1 when a verification fails, and 2 when the input
cannot be parsed (bad flags, missing files, malformed JSON, or data that
violates a structural precondition).  Reports contain no timestamps and
iterate sparse tables in sorted order, so a fixed command line (including
any ``--seed``) always produces byte-for-byte identical output.

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
  "R", "S"}`` acting on the space itself (degree-0 basis required).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import lru_cache
from typing import Optional

from .graded import (
    GradedSpace,
    MatrixAlgebra,
    MultiMap,
    TensorElem,
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
        return _json_object(json.load(handle), "the top-level JSON value")


def _report(residual: MultiMap | TensorElem) -> dict:
    """Entry count, first serialized entries and verdict of a residual."""
    entries = residual.to_json()["entries"]
    return {
        "nonzero_entries": len(entries),
        "witnesses": entries[:_WITNESS_CAP],
        "ok": not entries,
    }


def _matrix_setup(data: dict) -> tuple[GradedSpace, MatrixAlgebra]:
    space = GradedSpace.from_json(data["space"])
    return space, MatrixAlgebra(space)


def _operator_pair(data: dict, algebra: MatrixAlgebra) -> tuple[MultiMap, MultiMap]:
    end = algebra.space
    return (
        MultiMap.from_json(end, end, data["R"], field="R"),
        MultiMap.from_json(end, end, data["S"], field="S"),
    )


# -- verify ---------------------------------------------------------------------


def _cmd_verify_d_squared(args: argparse.Namespace) -> dict:
    report = dict(check_d_squared(PRESENTATIONS[args.presentation], args.max_arity))
    report["command"] = "verify d-squared"
    report["presentation"] = args.presentation
    return report


def _cmd_verify_homotopy(args: argparse.Namespace) -> dict:
    report = dict(check_homotopy(args.max_arity, args.max_weight))
    report["command"] = "verify homotopy"
    report["max_arity"] = args.max_arity
    report["max_weight"] = args.max_weight
    return report


def _cmd_verify_linfinity(args: argparse.Namespace) -> dict:
    report = dict(
        verify_generalized_jacobi(
            dim=args.dim, truncation=args.trunc, trials=args.trials, seed=args.seed
        )
    )
    report["command"] = "verify linfinity"
    return report


# -- check ----------------------------------------------------------------------


def _cmd_check_rbs(args: argparse.Namespace) -> dict:
    data = _load(args.file)
    space, algebra = _matrix_setup(data)
    R, S = _operator_pair(data, algebra)
    res_r, res_s = check_classical_rbs(algebra, R, S)
    return {
        "command": "check rbs",
        "module_dimension": space.dim,
        "algebra_dimension": algebra.space.dim,
        "residual_r": _report(res_r),
        "residual_s": _report(res_s),
        "ok": res_r.is_zero() and res_s.is_zero(),
    }


def _cmd_check_hrbs(args: argparse.Namespace) -> dict:
    data = _load(args.file)
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


def _cmd_check_ybp(args: argparse.Namespace) -> dict:
    data = _load(args.file)
    space, algebra = _matrix_setup(data)
    pair = YBPair.from_json(algebra, data)
    res_r, res_s = check_classical_ybp(pair)
    return {
        "command": "check ybp",
        "module_dimension": space.dim,
        "residual_r": _report(res_r),
        "residual_s": _report(res_s),
        "ok": res_r.is_zero() and res_s.is_zero(),
    }


def _cmd_check_aybe(args: argparse.Namespace) -> dict:
    data = _load(args.file)
    space, algebra = _matrix_setup(data)
    pair = InfinityYBPair.from_json(algebra, data)
    top = pair.truncation - 1
    limit = top if args.max_n is None else min(args.max_n, top)
    if limit < 0:
        raise ValueError(f"--max-n must be >= 0, got {limit}")
    results = []
    for n in range(limit + 1):
        res_r, res_s = check_infinity_ybp(pair, n)
        results.append(
            {
                "index": n,
                "residual_r": _report(res_r),
                "residual_s": _report(res_s),
                "ok": res_r.is_zero() and res_s.is_zero(),
            }
        )
    return {
        "command": "check aybe-infinity",
        "max_n": limit,
        "truncation": pair.truncation,
        "results": results,
        "ok": all(r["ok"] for r in results),
    }


def _cmd_check_mc(args: argparse.Namespace) -> dict:
    data = _load(args.file)
    if "parts" in data:
        alpha = CochainElement.from_json(data)
        source = "cochain"
    else:
        space = GradedSpace.from_json(data["space"])
        alpha = classical_cochain(
            MultiMap.from_json(space, space, data["product"], field="product"),
            MultiMap.from_json(space, space, data["R"], field="R"),
            MultiMap.from_json(space, space, data["S"], field="S"),
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


def _cmd_convert_ybp_to_rbs(args: argparse.Namespace) -> dict:
    data = _load(args.file)
    space, algebra = _matrix_setup(data)
    R, S = ybp_to_rbs(YBPair.from_json(algebra, data))
    return {"space": space.to_json(), "R": R.to_json(), "S": S.to_json()}


def _cmd_convert_rbs_to_ybp(args: argparse.Namespace) -> dict:
    data = _load(args.file)
    space, algebra = _matrix_setup(data)
    R, S = _operator_pair(data, algebra)
    pair = rbs_to_ybp(R, S, algebra)
    return {"space": space.to_json(), "r": pair.r.to_json(), "s": pair.s.to_json()}


# -- parser ---------------------------------------------------------------------


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The parser of `main`, built once per process; parsing does not change it."""
    parser = argparse.ArgumentParser(
        prog="rbsinfty",
        description="Exact symbolic checks for Rota-Baxter systems, their "
        "homotopy variants, and the associated Yang-Baxter and "
        "Maurer-Cartan structures.",
    )
    groups = parser.add_subparsers(dest="group", required=True)

    verify = groups.add_parser("verify", help="run built-in structural verifications")
    targets = verify.add_subparsers(dest="target", required=True)

    p = targets.add_parser(
        "d-squared", help="the differential squares to zero on free generators"
    )
    p.add_argument("--presentation", choices=sorted(PRESENTATIONS), default="mrs")
    p.add_argument("--max-arity", type=int, default=4)
    p.set_defaults(handler=_cmd_verify_d_squared)

    p = targets.add_parser(
        "homotopy", help="the contraction satisfies dH + Hd = Id on monomials"
    )
    p.add_argument("--max-arity", type=int, default=3)
    p.add_argument("--max-weight", type=int, default=4)
    p.set_defaults(handler=_cmd_verify_homotopy)

    p = targets.add_parser(
        "linfinity", help="generalized Jacobi identities on random cochains"
    )
    p.add_argument("--dim", type=int, default=2)
    p.add_argument("--trunc", type=int, default=3)
    p.add_argument("--trials", type=int, default=120)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(handler=_cmd_verify_linfinity)

    check = groups.add_parser("check", help="check a structure loaded from JSON")
    targets = check.add_subparsers(dest="target", required=True)

    p = targets.add_parser("rbs", help="classical operator pair on End(V)")
    p.add_argument("file")
    p.set_defaults(handler=_cmd_check_rbs)

    p = targets.add_parser("hrbs", help="homotopy operator-pair identities")
    p.add_argument("file")
    p.add_argument("--max-arity", type=int, default=None)
    p.set_defaults(handler=_cmd_check_hrbs)

    p = targets.add_parser("ybp", help="coupled classical Yang-Baxter equations")
    p.add_argument("file")
    p.set_defaults(handler=_cmd_check_ybp)

    p = targets.add_parser(
        "aybe-infinity", help="homotopy Yang-Baxter family identities"
    )
    p.add_argument("file")
    p.add_argument("--max-n", type=int, default=None)
    p.set_defaults(handler=_cmd_check_aybe)

    p = targets.add_parser(
        "mc", help="Maurer-Cartan equation and the twisted differential"
    )
    p.add_argument("file")
    p.set_defaults(handler=_cmd_check_mc)

    convert = groups.add_parser(
        "convert", help="convert between tensor and operator presentations"
    )
    targets = convert.add_subparsers(dest="target", required=True)

    p = targets.add_parser("ybp-to-rbs", help="tensor pair to operator pair")
    p.add_argument("file")
    p.set_defaults(handler=_cmd_convert_ybp_to_rbs)

    p = targets.add_parser("rbs-to-ybp", help="operator pair to tensor pair")
    p.add_argument("file")
    p.set_defaults(handler=_cmd_convert_rbs_to_ybp)

    return parser


def _print(report: dict) -> None:
    try:
        print(json.dumps(report, indent=2, sort_keys=True), flush=True)
    except BrokenPipeError:
        # the reader left early (``| head``); the interpreter flushes stdout
        # again at exit, so send what is left to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        report = args.handler(args)
    except (OSError, KeyError, TypeError, ValueError) as exc:
        _print({"error": str(exc) or type(exc).__name__})
        return 2
    _print(report)
    return 0 if report.get("ok", True) else 1


if __name__ == "__main__":
    raise SystemExit(main())
