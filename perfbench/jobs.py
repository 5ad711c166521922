"""Running one benchmark job and checking its report."""

import contextlib
import io
import json
import time
from fractions import Fraction


def run_job(cli, job: dict) -> dict:
    """Call the CLI once, check its report, and time call to verified report."""
    buffer = io.StringIO()
    problem = None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buffer):
            code = cli.main(list(job["argv"]))
    except SystemExit as exc:  # argparse rejects the command line
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # a library error is a failed job, not a crash
        code, problem = None, f"raised {type(exc).__name__}: {exc}"
    text = buffer.getvalue()
    if problem is None:
        problem = check_report(job["expect"], code, text)
    t1 = time.perf_counter()
    return {
        "t0": t0,
        "t1": t1,
        "bytes": len(text.encode("utf-8")),
        "problem": problem,
    }


def check_report(expect: dict, code, text: str):
    """None when the report is the one the input was built to give."""
    if code != expect["exit"]:
        return f"exit code {code}, expected {expect['exit']}"
    try:
        report = json.loads(text)
    except ValueError:
        return "the report is not JSON"
    for key, want in expect.get("fields", {}).items():
        if report.get(key) != want:
            return f"{key} = {report.get(key)!r}, expected {want!r}"
    for key, want in expect.get("lengths", {}).items():
        got = report.get(key)
        if not isinstance(got, list) or len(got) != want:
            return f"{key} has {len(got) if isinstance(got, list) else got!r} items, expected {want}"
    if "report" in expect and canonical(report) != canonical(expect["report"]):
        return "the report differs from the expected one"
    return None


def canonical(value):
    """Sparse tables compared as sets of entries with exact coefficients."""
    if isinstance(value, list):
        return [canonical(v) for v in value]
    if not isinstance(value, dict):
        return value
    out = {k: canonical(v) for k, v in value.items() if k != "entries"}
    if "entries" in value:
        rows = []
        for entry in value["entries"]:
            entry = dict(entry)
            if "out" in entry:
                entry["out"] = {
                    k: str(Fraction(c)) for k, c in entry["out"].items() if Fraction(c)
                }
            if "coeff" in entry:
                entry["coeff"] = str(Fraction(entry["coeff"]))
            rows.append(json.dumps(entry, sort_keys=True))
        out["entries"] = sorted(rows)
    return out
