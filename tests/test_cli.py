"""End-to-end tests for the command-line interface.

Each test drives `main` with an argv list, captures the JSON report from
stdout, and asserts on the documented exit codes: 0 when every check
passes, 1 on a verification failure, 2 on unparseable input.
"""

import contextlib
import hashlib
import importlib.util
import io
import json
import os
import random
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import rbsinfty
from rbsinfty import cli, linfty, minimal_model
from rbsinfty.cli import _WITNESS_CAP, main
from rbsinfty.graded import BasedAlgebra, GradedSpace, MatrixAlgebra, MultiMap, TensorElem
from rbsinfty.minimal_model import extend_derivation
from rbsinfty.residuals import HomotopyRBS
from rbsinfty.sampling import random_multimap, random_tensor
from rbsinfty.signs import compositions
from rbsinfty.trees import OperadElement, gen

PLANE = GradedSpace([("v1", 0), ("v2", 0)])
GRADED = GradedSpace([("v1", 0), ("v2", 1)])


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


def dump(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def zero_operator_file(tmp_path):
    end = MatrixAlgebra(PLANE).space
    zero = MultiMap.zero(end, end, 1, 0).to_json()
    return dump(
        tmp_path, "zero_pair.json", {"space": PLANE.to_json(), "R": zero, "S": zero}
    )


def nilpotent_tensor_file(tmp_path):
    algebra = MatrixAlgebra(PLANE)
    nil = TensorElem(algebra, 2, {("e1^2", "e1^2"): Fraction(1)}).to_json()
    return dump(
        tmp_path, "nilpotent.json", {"space": PLANE.to_json(), "r": nil, "s": nil}
    )


def generic_tensor_file(tmp_path):
    algebra = MatrixAlgebra(PLANE)
    rng = random.Random(7)
    r = random_tensor(rng, algebra, 2, degree=0, density=0.6)
    s = random_tensor(rng, algebra, 2, degree=0, density=0.6)
    return dump(
        tmp_path,
        "generic_random.json",
        {"space": PLANE.to_json(), "r": r.to_json(), "s": s.to_json()},
    )


def diagonal_triple(scale_r=2, scale_s=3):
    algebra = BasedAlgebra(
        PLANE,
        {("v1", "v1"): {"v1": 1}, ("v2", "v2"): {"v2": 1}},
        {"v1": 1, "v2": 1},
    )
    R = MultiMap(PLANE, PLANE, 1, 0, {("v1",): {"v1": Fraction(scale_r)}})
    S = MultiMap(PLANE, PLANE, 1, 0, {("v2",): {"v2": Fraction(scale_s)}})
    return algebra, R, S


# -- verify ---------------------------------------------------------------------


def test_verify_d_squared_passes_for_both_presentations(capsys):
    for presentation in ("mrs", "xyz"):
        code, report = run(
            capsys,
            "verify",
            "d-squared",
            "--presentation",
            presentation,
            "--max-arity",
            "3",
        )
        assert code == 0
        assert report["ok"] is True
        assert report["presentation"] == presentation
        assert all(r["ok"] for r in report["results"])


def test_verify_d_squared_rejects_tiny_bound(capsys):
    code, report = run(capsys, "verify", "d-squared", "--max-arity", "1")
    assert code == 2
    assert "error" in report


def test_verify_homotopy_rejects_arity_one(capsys):
    # arity 1 holds only degree-0 monomials: the check would be vacuous
    code, report = run(
        capsys, "verify", "homotopy", "--max-arity", "1", "--max-weight", "2"
    )
    assert code == 2
    assert "nothing to check" in report["error"]


def test_verify_linfinity_rejects_a_vacuous_bound(capsys):
    code, report = run(capsys, "verify", "linfinity", "--dim", "1", "--trunc", "1")
    assert code == 2
    assert "nothing to check" in report["error"]


@pytest.mark.parametrize(
    "argv",
    [
        ("--trials", "1", "--seed", "0"),
        ("--dim", "1", "--trunc", "2", "--trials", "24", "--seed", "3"),
    ],
)
def test_verify_linfinity_refuses_a_run_with_no_active_trial(capsys, argv):
    # every term of every drawn Jacobi combination vanishes: no pass to report
    code, report = run(capsys, "verify", "linfinity", *argv)
    assert code == 2
    assert report["error"].startswith("active 0 of ")
    assert "nothing was checked" in report["error"]


def test_verify_d_squared_failure_carries_witnesses(capsys, monkeypatch):
    real = minimal_model.diff_generator
    m4 = gen("m", 4)
    flipped_tree, flipped_coeff = next(real(m4).items())

    def stand_in(g):
        # a copy of d m4 with one sign flipped; the real cache is only read
        image = real(g)
        if g != m4:
            return image
        return OperadElement(
            image.arity,
            ((t, -c if t == flipped_tree else c) for t, c in image.terms.items()),
        )

    monkeypatch.setattr(minimal_model, "diff_generator", stand_in)
    code, report = run(capsys, "verify", "d-squared", "--max-arity", "5")
    monkeypatch.undo()
    assert code == 1 and report["ok"] is False
    by_name = {r["generator"]: r for r in report["results"]}
    # d(d m4) keeps only -2c d(t) for the flipped term c t
    residual = extend_derivation(
        real, OperadElement.monomial(flipped_tree, -2 * flipped_coeff)
    )
    assert by_name["m4"]["residual_terms"] == len(residual.terms)
    assert by_name["m4"]["witnesses"] == [
        {"tree": t.to_text(), "coeff": str(c)} for t, c in residual.items()
    ]
    # d R5 reaches m4 through its m4(R, R, R, R) rows: more terms than the cap
    assert by_name["R5"]["residual_terms"] > _WITNESS_CAP
    assert len(by_name["R5"]["witnesses"]) == _WITNESS_CAP
    for result in report["results"]:
        if result["ok"]:
            assert set(result) == {"generator", "arity", "residual_terms", "ok"}
        else:
            assert 0 < len(result["witnesses"]) <= _WITNESS_CAP
    assert real(m4) == real.__wrapped__(m4)


def test_verify_d_squared_xyz_failure_carries_witnesses(capsys, monkeypatch):
    # the (x, y, z) twin: the word-keyed residual of check_d_squared against
    # the tree-path residual of extend_derivation
    real = minimal_model.diff_generator
    x4 = gen("x", 4)
    flipped_tree, flipped_coeff = next(real(x4).items())

    def stand_in(g):
        image = real(g)
        if g != x4:
            return image
        return OperadElement(
            image.arity,
            ((t, -c if t == flipped_tree else c) for t, c in image.terms.items()),
        )

    monkeypatch.setattr(minimal_model, "diff_generator", stand_in)
    code, report = run(capsys, "verify", "d-squared", "--presentation", "xyz", "--max-arity", "5")
    residuals = {
        g.name: extend_derivation(stand_in, stand_in(g))
        for g in minimal_model.presentation_generators(minimal_model.PRESENTATIONS["xyz"], 5)
    }
    monkeypatch.undo()
    assert code == 1 and report["ok"] is False
    # d(d x4) keeps only -2c d(t) for the flipped term c t
    assert residuals["x4"] == extend_derivation(
        real, OperadElement.monomial(flipped_tree, -2 * flipped_coeff)
    )
    for result in report["results"]:
        residual = residuals[result["generator"]]
        assert result["residual_terms"] == len(residual.terms)
        assert result["ok"] is residual.is_zero()
        if not result["ok"]:
            assert result["witnesses"] == [
                {"tree": t.to_text(), "coeff": str(c)}
                for t, c in list(residual.items())[:_WITNESS_CAP]
            ]
    failing = [r["generator"] for r in report["results"] if not r["ok"]]
    assert failing == ["x4", "x5", "y4", "y5", "z4", "z5"]
    # d y5 reaches x4 through its x4(y, y, y, y) rows: more terms than the cap
    assert residuals["y5"] and len(residuals["y5"].terms) > _WITNESS_CAP


def test_verify_homotopy_passes(capsys):
    code, report = run(
        capsys, "verify", "homotopy", "--max-arity", "3", "--max-weight", "3"
    )
    assert code == 0
    assert report["ok"] is True
    assert report["checked"] > 0
    assert report["failures"] == []


def test_verify_linfinity_passes_and_reports_activity(capsys):
    code, report = run(
        capsys,
        "verify",
        "linfinity",
        "--dim",
        "2",
        "--trunc",
        "3",
        "--trials",
        "12",
        "--seed",
        "5",
    )
    assert code == 0
    assert report["ok"] is True
    assert report["trials"] == 12
    assert report["seed"] == 5
    assert report["active"] >= 1


def test_verify_linfinity_failure_lists_the_defect(capsys, monkeypatch):
    real = linfty.l_bracket

    def flipped(space, pieces):
        # one sign flipped: l_2 of two algebra cochains, the first unary
        bracket = real(space, pieces)
        tags = [p.tag for p in pieces]
        flip = tags == [linfty.TAG_ALG] * 2 and pieces[0].arity == 1
        return -bracket if flip else bracket

    monkeypatch.setattr(linfty, "l_bracket", flipped)
    argv = ("verify", "linfinity", "--trials", "40", "--seed", "3")
    code, report = run(capsys, *argv)
    monkeypatch.undo()
    assert code == 1 and report["ok"] is False
    assert report["failures"]
    for failure in report["failures"]:
        assert failure["defect"]
        for component in failure["defect"]:
            assert set(component) == {"tag", "arity", "nonzero_entries"}
            assert component["tag"] in linfty.TAGS
            assert component["nonzero_entries"] > 0
    code, passing = run(capsys, *argv)
    assert code == 0 and passing["failures"] == []


# -- check rbs / ybp ------------------------------------------------------------


def test_check_rbs_zero_pair_passes(capsys, tmp_path):
    code, report = run(capsys, "check", "rbs", zero_operator_file(tmp_path))
    assert code == 0
    assert report["ok"] is True
    assert report["residual_r"]["nonzero_entries"] == 0
    assert report["algebra_dimension"] == 4


def test_check_rbs_detects_violation(capsys, tmp_path):
    end = MatrixAlgebra(PLANE).space
    # the identity operator paired with zero: R(a)R(b) = ab but R(R(a)b) = ab + 0,
    # leaving the S-composite term unbalanced for S != R
    ident = MultiMap(
        end, end, 1, 0, {(n,): {n: Fraction(1)} for n in end}
    ).to_json()
    bad = MultiMap(end, end, 1, 0, {("e1^1",): {"e2^2": Fraction(1)}}).to_json()
    path = dump(tmp_path, "bad.json", {"space": PLANE.to_json(), "R": ident, "S": bad})
    code, report = run(capsys, "check", "rbs", path)
    assert code == 1
    assert report["ok"] is False
    witnesses = report["residual_r"]["witnesses"] + report["residual_s"]["witnesses"]
    assert witnesses


def test_check_ybp_generic_random_fails_with_witnesses(capsys, tmp_path):
    code, report = run(capsys, "check", "ybp", generic_tensor_file(tmp_path))
    assert code == 1
    assert report["ok"] is False
    assert (
        report["residual_r"]["nonzero_entries"] > 0
        or report["residual_s"]["nonzero_entries"] > 0
    )
    assert report["residual_r"]["witnesses"] or report["residual_s"]["witnesses"]


def test_check_ybp_nilpotent_passes(capsys, tmp_path):
    code, report = run(capsys, "check", "ybp", nilpotent_tensor_file(tmp_path))
    assert code == 0
    assert report["ok"] is True


# -- check hrbs -----------------------------------------------------------------


def test_check_hrbs_classical_system_passes(capsys, tmp_path):
    algebra, R, S = diagonal_triple()
    structure = HomotopyRBS(
        PLANE, m={2: algebra.product_map()}, r={1: R}, s={1: S}, truncation=3
    )
    path = dump(tmp_path, "hrbs.json", structure.to_json())
    code, report = run(capsys, "check", "hrbs", path, "--max-arity", "3")
    assert code == 0
    assert report["ok"] is True
    assert len(report["results"]) == 9
    labels = {r["identity"] for r in report["results"]}
    assert labels == {"associativity", "operator-r", "operator-s"}


def test_check_hrbs_detects_broken_operator(capsys, tmp_path):
    algebra, R, S = diagonal_triple()
    broken = R + MultiMap(PLANE, PLANE, 1, 0, {("v2",): {"v1": Fraction(1)}})
    structure = HomotopyRBS(
        PLANE, m={2: algebra.product_map()}, r={1: broken}, s={1: S}, truncation=2
    )
    path = dump(tmp_path, "hrbs_bad.json", structure.to_json())
    code, report = run(capsys, "check", "hrbs", path)
    assert code == 1
    failing = [r for r in report["results"] if not r["ok"]]
    assert failing
    assert all(r["witnesses"] for r in failing)


def test_check_hrbs_refuses_a_member_above_the_truncation(capsys, tmp_path):
    # m_2 = product, R_1 = S_1 = Id on a 1-dim V fails at truncation 2; at
    # truncation 1 its m_2 would be read by no identity and the file would pass
    line = GradedSpace([("v", 0)])
    identity = MultiMap.identity(line).to_json()
    payload = {
        "space": line.to_json(),
        "truncation": 1,
        "m": {"2": MultiMap(line, line, 2, 0, {("v", "v"): {"v": 1}}).to_json()},
        "r": {"1": identity},
        "s": {"1": identity},
    }
    code, report = run(capsys, "check", "hrbs", dump(tmp_path, "above.json", payload))
    assert code == 2
    assert report["error"] == "m_2 is above the truncation 1"
    payload["truncation"] = 2
    code, report = run(capsys, "check", "hrbs", dump(tmp_path, "within.json", payload))
    assert code == 1


# -- check aybe-infinity ----------------------------------------------------------


def aybe_files(tmp_path):
    algebra = MatrixAlgebra(GRADED)
    d = TensorElem(algebra, 1, {("e1^2",): Fraction(1)})
    good = {
        "space": GRADED.to_json(),
        "truncation": 2,
        "r": {"1": d.to_json()},
        "s": {"1": d.to_json()},
    }
    r2 = TensorElem(algebra, 2, {("e1^1", "e1^1"): Fraction(1)})
    bad = dict(good, r={"1": d.to_json(), "2": r2.to_json()})
    return dump(tmp_path, "aybe_good.json", good), dump(
        tmp_path, "aybe_bad.json", bad
    )


def test_check_aybe_infinity_differential_only_passes(capsys, tmp_path):
    good, _ = aybe_files(tmp_path)
    code, report = run(capsys, "check", "aybe-infinity", good, "--max-n", "1")
    assert code == 0
    assert report["ok"] is True
    assert [r["index"] for r in report["results"]] == [0, 1]


def test_check_aybe_infinity_flags_bad_member(capsys, tmp_path):
    _, bad = aybe_files(tmp_path)
    code, report = run(capsys, "check", "aybe-infinity", bad)
    assert code == 1
    outcomes = {r["index"]: r["ok"] for r in report["results"]}
    assert outcomes[0] is True
    assert outcomes[1] is False


def test_check_aybe_infinity_refuses_a_member_above_the_truncation(capsys, tmp_path):
    # an order-2 member read by no index at truncation 1; at truncation 3 it fails
    e = TensorElem(MatrixAlgebra(PLANE), 2, {("e1^1", "e1^1"): Fraction(1)}).to_json()
    payload = {"space": PLANE.to_json(), "truncation": 1, "r": {"2": e}, "s": {"2": e}}
    code, report = run(capsys, "check", "aybe-infinity", dump(tmp_path, "above.json", payload))
    assert code == 2
    assert report["error"] == "r_2 is above the truncation 1"
    payload["truncation"] = 3
    code, report = run(capsys, "check", "aybe-infinity", dump(tmp_path, "within.json", payload))
    assert code == 1


def test_a_zero_structure_above_every_member_draws_few_compositions(
    capsys, tmp_path, monkeypatch
):
    # a row through a zero m_k is never drawn: the compositions of n behind
    # such rows number about 2^n, which left these runs without bound
    drawn = 0

    def counted(n, k, allowed=None):
        nonlocal drawn
        for parts in compositions(n, k, allowed):
            drawn += 1
            if drawn > 10_000:
                raise AssertionError("more than 10,000 compositions drawn")
            yield parts

    monkeypatch.setattr(minimal_model, "compositions", counted)
    v1, v2 = {"name": "v1", "degree": 0}, {"name": "v2", "degree": 0}
    for command, basis, truncation in (("hrbs", [v1], 60), ("aybe-infinity", [v1, v2], 30)):
        payload = {"space": {"basis": basis}, "truncation": truncation}
        code, report = run(capsys, "check", command, dump(tmp_path, "zero.json", payload))
        assert code == 0
        assert report["ok"] is True and report["truncation"] == truncation
        assert all(r["ok"] for r in report["results"])
        assert len(report["results"]) == (3 * truncation if command == "hrbs" else truncation)


# -- check mc ---------------------------------------------------------------------


def test_check_mc_classical_triple_passes_with_twist(capsys, tmp_path):
    algebra, R, S = diagonal_triple()
    path = dump(
        tmp_path,
        "mc.json",
        {
            "space": PLANE.to_json(),
            "product": algebra.product_map().to_json(),
            "R": R.to_json(),
            "S": S.to_json(),
        },
    )
    code, report = run(capsys, "check", "mc", path)
    assert code == 0
    assert report["is_mc"] is True
    assert report["twist_square_zero"] is True
    assert report["twist_checked"] == 36
    assert report["source"] == "classical"
    assert report["degree"] == -1


def test_check_mc_detects_failure_and_skips_twist(capsys, tmp_path):
    algebra, R, S = diagonal_triple()
    bad = R + MultiMap(PLANE, PLANE, 1, 0, {("v2",): {"v1": Fraction(1)}})
    path = dump(
        tmp_path,
        "mc_bad.json",
        {
            "space": PLANE.to_json(),
            "product": algebra.product_map().to_json(),
            "R": bad.to_json(),
            "S": S.to_json(),
        },
    )
    code, report = run(capsys, "check", "mc", path)
    assert code == 1
    assert report["is_mc"] is False
    assert report["twist_square_zero"] is None
    assert report["residual_components"]
    assert all(c["witnesses"] for c in report["residual_components"])


def test_check_mc_accepts_serialized_cochain(capsys, tmp_path):
    from rbsinfty.linfty import classical_cochain

    algebra, R, S = diagonal_triple()
    alpha = classical_cochain(algebra.product_map(), R, S)
    path = dump(tmp_path, "cochain.json", alpha.to_json())
    code, report = run(capsys, "check", "mc", path)
    assert code == 0
    assert report["source"] == "cochain"
    assert report["is_mc"] is True


def test_check_mc_rejects_wrong_degree_cochain(capsys, tmp_path):
    from rbsinfty.linfty import CochainElement

    suspended = GRADED.suspend()
    m = MultiMap(suspended, suspended, 1, 0, {("v1",): {"v1": Fraction(1)}})
    alpha = CochainElement(GRADED, {"alg": {1: m}})
    assert alpha.degree == 0
    path = dump(tmp_path, "wrong_degree.json", alpha.to_json())
    code, report = run(capsys, "check", "mc", path)
    assert code == 2
    assert "error" in report


# -- convert ----------------------------------------------------------------------


def test_convert_round_trip_from_tensor_side(capsys, tmp_path):
    source = nilpotent_tensor_file(tmp_path)
    code, as_rbs = run(capsys, "convert", "ybp-to-rbs", source)
    assert code == 0
    middle = dump(tmp_path, "mid.json", as_rbs)
    code, back = run(capsys, "convert", "rbs-to-ybp", middle)
    assert code == 0
    assert back == json.loads((tmp_path / "nilpotent.json").read_text())


def test_convert_round_trip_from_operator_side(capsys, tmp_path):
    source = zero_operator_file(tmp_path)
    code, as_ybp = run(capsys, "convert", "rbs-to-ybp", source)
    assert code == 0
    middle = dump(tmp_path, "mid.json", as_ybp)
    code, back = run(capsys, "convert", "ybp-to-rbs", middle)
    assert code == 0
    assert back == json.loads((tmp_path / "zero_pair.json").read_text())


def test_convert_output_feeds_check(capsys, tmp_path):
    source = nilpotent_tensor_file(tmp_path)
    code, as_rbs = run(capsys, "convert", "ybp-to-rbs", source)
    assert code == 0
    path = dump(tmp_path, "converted.json", as_rbs)
    code, report = run(capsys, "check", "rbs", path)
    assert code == 0
    assert report["ok"] is True


# -- error handling and determinism -----------------------------------------------


def test_missing_file_exits_2(capsys):
    code, report = run(capsys, "check", "rbs", "/nonexistent/nowhere.json")
    assert code == 2
    assert "error" in report


def test_malformed_json_exits_2(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("not json {")
    code, report = run(capsys, "check", "ybp", str(path))
    assert code == 2
    assert "error" in report


@pytest.mark.parametrize(
    "command",
    [key for key, (_, _, arguments) in cli._COMMANDS.items() if ("file", {}) in arguments],
)
def test_deeply_nested_json_exits_2(capsys, tmp_path, command):
    # json.load recurses once per level and raised RecursionError
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000 + "]" * 100000)
    code, report = run(capsys, *command, str(path))
    assert code == 2
    assert report == {"error": f"{path}: the JSON is nested too deeply to parse"}


def test_wrong_schema_exits_2(capsys, tmp_path):
    path = dump(tmp_path, "incomplete.json", {"space": PLANE.to_json()})
    code, report = run(capsys, "check", "rbs", path)
    assert code == 2
    assert "error" in report


def test_non_object_top_level_exits_2(capsys, tmp_path):
    path = tmp_path / "list.json"
    path.write_text("[1, 2, 3]")
    code, report = run(capsys, "check", "rbs", str(path))
    assert code == 2


def test_zero_denominator_coefficient_exits_2(capsys, tmp_path):
    algebra, R, S = diagonal_triple()
    product = algebra.product_map().to_json()
    first = product["entries"][0]
    first["out"] = {name: "1/0" for name in first["out"]}
    path = dump(
        tmp_path,
        "mc_zero_denominator.json",
        {
            "space": PLANE.to_json(),
            "product": product,
            "R": R.to_json(),
            "S": S.to_json(),
        },
    )
    code, report = run(capsys, "check", "mc", path)
    assert code == 2
    assert "1/0" in report["error"]


def test_exponent_coefficient_exits_2(capsys, tmp_path):
    # Fraction reads "1e400" as 10**400, and a larger exponent would not finish
    end = MatrixAlgebra(PLANE).space
    R = {"arity": 1, "degree": 0, "entries": [{"in": ["e1^1"], "out": {"e1^1": "1e400"}}]}
    zero = MultiMap.zero(end, end, 1, 0).to_json()
    path = dump(tmp_path, "exponent.json", {"space": PLANE.to_json(), "R": R, "S": zero})
    code, report = run(capsys, "check", "rbs", path)
    assert code == 2
    assert "1e400" in report["error"]


def hrbs_payload():
    algebra, R, S = diagonal_triple()
    return HomotopyRBS(
        PLANE, m={2: algebra.product_map()}, r={1: R}, s={1: S}, truncation=2
    ).to_json()


def repeated_map_input():
    payload = hrbs_payload()
    # R sends v1 to 2 v1; listing the input v1 twice must not pass as 1 or 2
    payload["r"]["1"]["entries"] = [
        {"in": ["v1"], "out": {"v1": "1"}},
        {"in": ["v1"], "out": {"v1": "2"}},
    ]
    return "hrbs", payload


def repeated_tensor_factors():
    nil = {"order": 2, "entries": [{"factors": ["e1^2", "e1^2"], "coeff": "1"}] * 2}
    return "ybp", {"space": PLANE.to_json(), "r": nil, "s": nil}


def repeated_cochain_part():
    from rbsinfty.linfty import classical_cochain

    algebra, R, S = diagonal_triple()
    payload = classical_cochain(algebra.product_map(), R, S).to_json()
    payload["parts"].append(payload["parts"][-1])
    return "mc", payload


@pytest.mark.parametrize(
    "build", [repeated_map_input, repeated_tensor_factors, repeated_cochain_part]
)
def test_repeated_entries_exit_2(capsys, tmp_path, build):
    command, payload = build()
    code, report = run(capsys, "check", command, dump(tmp_path, "rep.json", payload))
    assert code == 2
    assert "more than once" in report["error"]


def test_boolean_coefficient_exits_2(capsys, tmp_path):
    payload = hrbs_payload()
    payload["r"]["1"]["entries"] = [{"in": ["v1"], "out": {"v1": True}}]
    code, report = run(capsys, "check", "hrbs", dump(tmp_path, "bool.json", payload))
    assert code == 2
    assert "True" in report["error"]


def unknown_map_input():
    payload = hrbs_payload()
    payload["r"]["1"]["entries"][0]["in"] = ["nope"]
    return "hrbs", payload


def unknown_tensor_factor():
    bad = {"order": 2, "entries": [{"factors": ["e1^2", "nope"], "coeff": "1"}]}
    return "ybp", {"space": PLANE.to_json(), "r": bad, "s": bad}


@pytest.mark.parametrize("build", [unknown_map_input, unknown_tensor_factor])
def test_unknown_basis_name_is_named(capsys, tmp_path, build):
    command, payload = build()
    code, report = run(capsys, "check", command, dump(tmp_path, "nope.json", payload))
    assert code == 2
    assert report["error"] == "unknown basis name 'nope'"


def map_output_as_array():
    payload = hrbs_payload()
    payload["r"]["1"]["entries"] = [{"in": ["v1"], "out": ["v1", "2"]}]
    return "hrbs", payload


def map_input_as_string():
    # on the basis {a, b} the string "ab" must not be read as ("a", "b")
    space = GradedSpace([("a", 0), ("b", 0)])
    m2 = {"arity": 2, "degree": 0, "entries": [{"in": "ab", "out": {"a": "1"}}]}
    return "hrbs", {"space": space.to_json(), "m": {"2": m2}}


def map_input_not_names():
    payload = hrbs_payload()
    payload["r"]["1"]["entries"] = [{"in": [["v1"]], "out": {"v1": "2"}}]
    return "hrbs", payload


def tensor_factors_as_string():
    bad = {"order": 2, "entries": [{"factors": "e1^2", "coeff": "1"}]}
    return "ybp", {"space": PLANE.to_json(), "r": bad, "s": bad}


def map_entry_not_an_object():
    payload = hrbs_payload()
    payload["r"]["1"]["entries"] = [["v1", "v1", "2"]]
    return "hrbs", payload


@pytest.mark.parametrize(
    "build",
    [
        map_output_as_array,
        map_input_as_string,
        map_input_not_names,
        tensor_factors_as_string,
        map_entry_not_an_object,
    ],
)
def test_malformed_entry_shape_exits_2(capsys, tmp_path, build):
    command, payload = build()
    code, report = run(capsys, "check", command, dump(tmp_path, "shape.json", payload))
    assert code == 2
    assert report["error"].startswith("entry ")


def hrbs_family_as_array():
    payload = hrbs_payload()
    payload["m"] = []
    return "hrbs", payload, "m"


def hrbs_member_as_string():
    payload = hrbs_payload()
    payload["m"] = {"2": "x"}
    return "hrbs", payload, "m.2"


def aybe_family_as_array():
    return "aybe-infinity", {"space": PLANE.to_json(), "truncation": 2, "r": []}, "r"


def rbs_operator_as_string():
    end = MatrixAlgebra(PLANE).space
    zero = MultiMap.zero(end, end, 1, 0).to_json()
    return "rbs", {"space": PLANE.to_json(), "R": "x", "S": zero}, "R"


def ybp_tensor_as_string():
    nil = {"order": 2, "entries": [{"factors": ["e1^2", "e1^2"], "coeff": "1"}]}
    return "ybp", {"space": PLANE.to_json(), "r": "x", "s": nil}, "r"


def cochain_part_map_as_string():
    from rbsinfty.linfty import classical_cochain

    algebra, R, S = diagonal_triple()
    payload = classical_cochain(algebra.product_map(), R, S).to_json()
    payload["parts"][0]["map"] = "x"
    return "mc", payload, "map"


@pytest.mark.parametrize(
    "build",
    [
        hrbs_family_as_array,
        hrbs_member_as_string,
        aybe_family_as_array,
        rbs_operator_as_string,
        ybp_tensor_as_string,
        cochain_part_map_as_string,
    ],
)
def test_field_that_is_not_an_object_is_named(capsys, tmp_path, build):
    command, payload, field = build()
    code, report = run(capsys, "check", command, dump(tmp_path, "field.json", payload))
    assert code == 2
    assert report["error"].startswith(f"{field} must be a JSON object, got ")


def aybe_payload(**changes):
    nil = {"order": 1, "entries": [{"factors": ["e1^2"], "coeff": "1"}]}
    payload = {"space": GRADED.to_json(), "truncation": 2}
    return dict(payload, r={"1": nil}, s={"1": nil}, **changes)


def cochain_payload():
    from rbsinfty.linfty import classical_cochain

    algebra, R, S = diagonal_triple()
    return classical_cochain(algebra.product_map(), R, S).to_json()


def truncation_as(value):
    def build():
        payload = aybe_payload(truncation=value)
        return "aybe-infinity", payload, "truncation must be an integer"

    build.__name__ = f"truncation_as_{value!r}"
    return build


def hrbs_truncation_as_string():
    return "hrbs", dict(hrbs_payload(), truncation="3"), "truncation must be an integer"


def classical_mc_truncation_as_boolean():
    algebra, R, S = diagonal_triple()
    payload = {
        "space": PLANE.to_json(),
        "product": algebra.product_map().to_json(),
        "R": R.to_json(),
        "S": S.to_json(),
        "truncation": True,
    }
    return "mc", payload, "truncation must be an integer, got bool"


def map_arity_as(value):
    def build():
        payload = hrbs_payload()
        payload["r"]["1"]["arity"] = value
        return "hrbs", payload, "r.1.arity must be an integer"

    build.__name__ = f"map_arity_as_{value!r}"
    return build


def map_degree_as_boolean():
    payload = hrbs_payload()
    payload["m"]["2"]["degree"] = False
    return "hrbs", payload, "m.2.degree must be an integer, got bool"


def cochain_part_arity_as_string():
    payload = cochain_payload()
    payload["parts"][0]["map"]["arity"] = "2"
    return "mc", payload, "map.arity must be an integer, got str"


def cochain_degree_as_boolean():
    payload = dict(cochain_payload(), degree=True)
    return "mc", payload, "degree must be an integer, got bool"


def tensor_order_as_boolean():
    nil = {"order": True, "entries": [{"factors": ["e1^2"], "coeff": "1"}]}
    return "ybp", {"space": PLANE.to_json(), "r": nil, "s": nil}, "r.order must be"


def basis_degree_as(value):
    def build():
        basis = [{"name": "v1", "degree": value}, {"name": "v2", "degree": 0}]
        payload = aybe_payload(space={"basis": basis})
        return "aybe-infinity", payload, "needs 'degree' as an integer"

    build.__name__ = f"basis_degree_as_{value!r}"
    return build


def basis_name_as_number():
    space = {"basis": [{"name": 1, "degree": 0}]}
    return "aybe-infinity", aybe_payload(space=space), "needs 'name' as a string"


def space_as_string():
    payload = dict(hrbs_payload(), space="x")
    return "hrbs", payload, "space must be a JSON object, got str"


def basis_as_string():
    payload = dict(hrbs_payload(), space={"basis": "x"})
    return "hrbs", payload, "space.basis must be a JSON array, got str"


def cochain_space_as_array():
    payload = dict(cochain_payload(), space=[])
    return "mc", payload, "space must be a JSON object, got list"


@pytest.mark.parametrize(
    "build",
    [
        truncation_as(True),
        truncation_as(1.0),
        truncation_as(1e9),
        truncation_as("3"),
        hrbs_truncation_as_string,
        classical_mc_truncation_as_boolean,
        map_arity_as(True),
        map_arity_as(1.0),
        map_arity_as("1"),
        map_degree_as_boolean,
        cochain_part_arity_as_string,
        cochain_degree_as_boolean,
        tensor_order_as_boolean,
        basis_degree_as(True),
        basis_degree_as(0.0),
        basis_degree_as("0"),
        basis_name_as_number,
        space_as_string,
        basis_as_string,
        cochain_space_as_array,
    ],
)
def test_wrongly_typed_scalar_field_is_named(capsys, tmp_path, build):
    command, payload, message = build()
    code, report = run(capsys, "check", command, dump(tmp_path, "typed.json", payload))
    assert code == 2
    assert message in report["error"]


def test_the_payloads_with_typed_fields_fixed_are_accepted(capsys, tmp_path):
    for command, payload in (
        ("aybe-infinity", aybe_payload()),
        ("hrbs", hrbs_payload()),
        ("mc", cochain_payload()),
    ):
        code, report = run(capsys, "check", command, dump(tmp_path, "ok.json", payload))
        assert code == 0 and report["ok"] is True


def rbs_payload():
    end = MatrixAlgebra(PLANE).space
    zero = MultiMap.zero(end, end, 1, 0).to_json()
    return {"space": PLANE.to_json(), "R": zero, "S": zero}


def ybp_payload():
    nil = TensorElem(MatrixAlgebra(PLANE), 2, {("e1^2", "e1^2"): 1}).to_json()
    return {"space": PLANE.to_json(), "r": nil, "s": nil}


def classical_mc_payload():
    algebra, R, S = diagonal_triple()
    product = algebra.product_map().to_json()
    return {"space": PLANE.to_json(), "product": product, "R": R.to_json(), "S": S.to_json()}


TOP_LEVEL_FIELDS = [
    (["check", "rbs"], rbs_payload, "space"),
    (["check", "rbs"], rbs_payload, "R"),
    (["check", "rbs"], rbs_payload, "S"),
    (["convert", "rbs-to-ybp"], rbs_payload, "S"),
    (["check", "ybp"], ybp_payload, "r"),
    (["check", "ybp"], ybp_payload, "s"),
    (["convert", "ybp-to-rbs"], ybp_payload, "s"),
    (["check", "mc"], classical_mc_payload, "space"),
    (["check", "mc"], classical_mc_payload, "product"),
    (["check", "mc"], classical_mc_payload, "S"),
    (["check", "mc"], cochain_payload, "space"),
    (["check", "hrbs"], hrbs_payload, "space"),
    (["check", "aybe-infinity"], aybe_payload, "space"),
]


@pytest.mark.parametrize("command, build, field", TOP_LEVEL_FIELDS)
def test_missing_top_level_field_is_named(capsys, tmp_path, command, build, field):
    payload = build()
    code, _ = run(capsys, *command, dump(tmp_path, "whole.json", payload))
    assert code == 0
    del payload[field]
    code, report = run(capsys, *command, dump(tmp_path, "missing.json", payload))
    assert code == 2
    assert report["error"] == f"{field} is missing"


@pytest.mark.parametrize("command, build, field", TOP_LEVEL_FIELDS)
def test_null_top_level_field_is_named_as_null(capsys, tmp_path, command, build, field):
    payload = build()
    payload[field] = None
    code, report = run(capsys, *command, dump(tmp_path, "null.json", payload))
    assert code == 2
    assert report["error"] == f"{field} must be a JSON object, got null"


def classical_operator_file(tmp_path, name, operator):
    # the pair (R, S) over End(V), V = (v1: 0, v2: 1), with ``operator`` in
    # the place of ``name`` and the zero map of arity 1 and degree 0 in the other
    end = MatrixAlgebra(GRADED).space
    zero = MultiMap.zero(end, end, 1, 0).to_json()
    payload = {"space": GRADED.to_json(), "R": zero, "S": zero, name: operator}
    return dump(tmp_path, "operators.json", payload)


@pytest.mark.parametrize("command", [["check", "rbs"], ["convert", "rbs-to-ybp"]])
@pytest.mark.parametrize("name", ["R", "S"])
def test_classical_operator_of_nonzero_degree_is_named(capsys, tmp_path, command, name):
    # e1^1 has degree 0 and e2^1 degree 1, so this operator has degree 1
    end = MatrixAlgebra(GRADED).space
    odd = MultiMap(end, end, 1, 1, {("e1^1",): {"e2^1": 1}}).to_json()
    code, report = run(capsys, *command, classical_operator_file(tmp_path, name, odd))
    assert code == 2
    assert report["error"] == f"{name}_1 has degree 1, expected 0"


@pytest.mark.parametrize("command", [["check", "rbs"], ["convert", "rbs-to-ybp"]])
@pytest.mark.parametrize("name", ["R", "S"])
def test_classical_operator_of_arity_two_is_named(capsys, tmp_path, command, name):
    end = MatrixAlgebra(GRADED).space
    binary = MultiMap(end, end, 2, 0, {("e1^1", "e1^1"): {"e1^1": 1}}).to_json()
    code, report = run(capsys, *command, classical_operator_file(tmp_path, name, binary))
    assert code == 2
    assert report["error"] == f"{name}_1 has arity 2, expected 1"


@pytest.mark.parametrize("command", [["check", "rbs"], ["convert", "rbs-to-ybp"]])
def test_classical_zero_operator_of_any_degree_is_accepted(capsys, tmp_path, command):
    end = MatrixAlgebra(GRADED).space
    zero = MultiMap.zero(end, end, 1, 1).to_json()
    code, _ = run(capsys, *command, classical_operator_file(tmp_path, "R", zero))
    assert code == 0


@pytest.mark.parametrize("key", ["x", " 2", "+2", "2.0", "02"])
@pytest.mark.parametrize("command", ["hrbs", "aybe-infinity"])
def test_family_key_that_is_not_a_decimal_integer_is_named(
    capsys, tmp_path, command, key
):
    payload = hrbs_payload() if command == "hrbs" else aybe_payload()
    family = "m" if command == "hrbs" else "r"
    good = "2" if command == "hrbs" else "1"
    payload[family][key] = payload[family].pop(good)
    code, report = run(capsys, "check", command, dump(tmp_path, "key.json", payload))
    assert code == 2
    assert report["error"] == f"{family}.{key}: family key must be a decimal integer"


def test_family_keys_of_the_unmodified_payloads_are_accepted(capsys, tmp_path):
    for command, payload in (("hrbs", hrbs_payload()), ("aybe-infinity", aybe_payload())):
        code, report = run(capsys, "check", command, dump(tmp_path, "ok.json", payload))
        assert code == 0 and report["ok"] is True


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_verify_linfinity_refuses_an_empty_trial_count(capsys, trials):
    code, report = run(capsys, "verify", "linfinity", "--trials", trials)
    assert code == 2
    assert "trials" in report["error"]


def test_reader_closing_the_pipe_early_gets_no_traceback(tmp_path):
    # a dense dim-4 pair converts to ~15 KB, more than stdout buffers, so the
    # report is written while it prints, into a pipe nobody reads any more
    space = GradedSpace([(f"v{i}", 0) for i in range(1, 5)])
    algebra = MatrixAlgebra(space)
    rng = random.Random(3)
    r, s = (random_tensor(rng, algebra, 2, degree=0, density=1.0) for _ in "rs")
    payload = {"space": space.to_json(), "r": r.to_json(), "s": s.to_json()}
    path = dump(tmp_path, "dense.json", payload)
    env = dict(os.environ, PYTHONPATH=str(Path(rbsinfty.__file__).parent.parent))
    child = subprocess.Popen(
        [sys.executable, "-m", "rbsinfty.cli", "convert", "ybp-to-rbs", path],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    child.stdout.close()
    stderr = child.stderr.read().decode()
    assert child.wait() == 0
    assert "Traceback" not in stderr and "BrokenPipeError" not in stderr


def test_unknown_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as info:
        main(["verify", "nonsense"])
    assert info.value.code == 2


def test_reports_are_byte_for_byte_reproducible(capsys, tmp_path):
    outputs = []
    for _ in range(2):
        main(
            [
                "verify",
                "linfinity",
                "--dim",
                "2",
                "--trunc",
                "3",
                "--trials",
                "10",
                "--seed",
                "3",
            ]
        )
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("degrees", [["0", "0"], ["-1", "0"]])
def test_dense_cochain_tool_returns_a_checkable_cochain(capsys, tmp_path, degrees):
    # with V = (0, 0) the arity-1 algebra map is empty; every arity-1 operator
    # commutes with it, and redrawing those would never end
    tool = Path(__file__).parent.parent / "tools" / "dense_cochain.py"
    out = subprocess.run(
        [sys.executable, str(tool), "--degrees", *degrees, "--truncation", "2", "--seed", "1"],
        capture_output=True,
        check=True,
        timeout=30,
    ).stdout
    path = tmp_path / "dense.json"
    path.write_bytes(out)
    assert main(["check", "mc", str(path)]) in (0, 1)


def test_report_digest_tool_hashes_each_report(capsys, tmp_path):
    path = Path(__file__).parent.parent / "tools" / "report_digest.py"
    spec = importlib.util.spec_from_file_location("report_digest", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    # a report is the exit code and the stdout of main
    argv = ["verify", "d-squared", "--presentation", "mrs", "--max-arity", "2"]
    code = main(argv)
    assert tool.report(argv) == f"{code}\n{capsys.readouterr().out}".encode()
    jobs = tool.build("operad-d2", 1, tmp_path, small=True)
    lines = list(tool.digest_lines((job["label"], job["argv"]) for job in jobs))
    assert [line.split("  ", 1)[1] for line in lines] == [
        "verify d-squared mrs 2",
        "verify d-squared xyz 3",
        "verify d-squared mrs 3",
        "total",
    ]
    # a digest is that of the report, the total that of the digests
    digests = [hashlib.sha256(tool.report(job["argv"])).hexdigest() for job in jobs]
    assert [line.split("  ", 1)[0] for line in lines[:-1]] == digests
    assert lines[-1].split("  ", 1)[0] == hashlib.sha256("".join(digests).encode()).hexdigest()
    # a line argparse refuses adds its stderr
    refused = ["verify", "homotopy", "--max-weight", "x"]
    with pytest.raises(SystemExit) as info:
        main(refused)
    out, err = capsys.readouterr()
    assert err and tool.report(refused) == f"{info.value.code}\n{out}stderr:\n{err}".encode()


def test_report_serializes_only_the_witnesses_it_prints():
    algebra = MatrixAlgebra(PLANE)
    end = algebra.space
    rng = random.Random(3)
    residuals = [
        random_multimap(rng, end, end, 2, 0, density=1.0),
        random_tensor(rng, algebra, 2, degree=0, density=1.0),
        MultiMap.zero(end, end, 2, 0),
        TensorElem.zero(algebra, 2),
    ]
    for residual in residuals:
        entries = residual.to_json()["entries"]
        assert cli._report(residual) == {
            "nonzero_entries": len(entries),
            "witnesses": entries[:_WITNESS_CAP],
            "ok": not entries,
        }
    assert all(len(r.rows) > _WITNESS_CAP for r in residuals[:2])


# -- the parser -------------------------------------------------------------------


def _run_in_process(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    return code, capsys.readouterr().out


def _run_alone(argv):
    env = dict(os.environ, PYTHONPATH=str(Path(rbsinfty.__file__).parent.parent))
    child = subprocess.run(
        [sys.executable, "-m", "rbsinfty.cli", *argv],
        capture_output=True,
        env=env,
        timeout=60,
    )
    return child.returncode, child.stdout.decode()


def test_repeated_main_calls_match_each_call_run_alone(capsys, tmp_path):
    data = Path(__file__).parent / "data"
    calls = [
        ["check", "rbs", str(data / "rbs_graded_input.json")],
        ["verify", "d-squared", "--max-arity", "3", "--bogus"],
        ["check", "ybp", nilpotent_tensor_file(tmp_path)],
        ["verify", "d-squared", "--presentation", "xyz", "--max-arity", "3"],
        ["check", "rbs", str(data / "rbs_graded_input.json")],
    ]
    in_process = [_run_in_process(capsys, argv) for argv in calls]
    assert [code for code, _ in in_process] == [1, 2, 0, 0, 1]
    assert in_process == [_run_alone(argv) for argv in calls]
    assert cli.build_parser() is cli.build_parser()


def _valid_lines():
    """One command line per command of `_COMMANDS`, each on a saved input."""
    data = Path(__file__).parent / "data"
    rbs, ybp, mc = (
        str(data / f"{name}_input.json")
        for name in ("rbs_graded", "ybp_graded", "mc_system")
    )
    valid = [
        ["verify", "d-squared", "--presentation", "xyz", "--max-arity", "3"],
        ["verify", "homotopy", "--max-arity", "2", "--max-weight", "3"],
        ["verify", "linfinity", "--dim", "2", "--trunc", "2", "--trials", "4", "--seed", "2"],
        ["check", "rbs", rbs],
        ["check", "hrbs", str(data / "hrbs_graded_input.json"), "--max-arity", "2"],
        ["check", "ybp", ybp],
        ["check", "aybe-infinity", str(data / "aybe_system_input.json"), "--max-n", "1"],
        ["check", "mc", mc],
        ["convert", "ybp-to-rbs", ybp],
        ["convert", "rbs-to-ybp", rbs],
    ]
    assert {tuple(argv[:2]) for argv in valid} == set(cli._COMMANDS)
    return valid


def _equivalence_lines():
    data = Path(__file__).parent / "data"
    rbs, mc = (str(data / f"{name}_input.json") for name in ("rbs_graded", "mc_system"))
    return _valid_lines() + [
        [],
        ["-h"],
        ["--help"],
        ["verify", "-h"],
        ["check", "--help"],
        ["check", "mc", "-h"],
        ["verify", "homotopy", "--help"],
        ["convert", "rbs-to-ybp", "--h"],
        ["verify"],
        ["check", "mc"],
        ["check", "mc", mc, "extra"],
        ["check", "mc", mc, "--bogus"],
        ["verify", "d-squared", "--bogus", "--max-arity", "3"],
        ["verify", "d-squared", "--presentation", "abc"],
        ["verify", "homotopy", "--max-weight", "x"],
        ["check", "hrbs", rbs, "--max-arity"],
        ["verify", "homotopy", "--max", "2"],
        ["verify", "d-squared", "--max-arity=3", "--presentation=mrs"],
        ["verify", "homotopy", "--max-a", "2", "--max-w", "3"],
        ["check", "mc", "--", mc],
        ["verify", "d-squared", "--", "--max-arity", "3"],
        ["check", "rbs", str(data / "no_such_file.json")],
        ["bogus"],
        ["check", "bogus"],
        ["verify", "mc"],
    ]


def test_each_command_parser_answers_as_the_full_tree(capsys, monkeypatch):
    lines = _equivalence_lines()

    def outcomes():
        seen = []
        for argv in lines:
            try:
                code = main(list(argv))
            except SystemExit as exc:
                code = exc.code
            captured = capsys.readouterr()
            seen.append((code, captured.out, captured.err))
        return seen

    fast = outcomes()
    monkeypatch.setattr(cli, "_parse", lambda argv: cli.build_parser().parse_args(argv))
    assert outcomes() == fast
    assert {code for code, _, _ in fast} == {0, 1, 2}
    by_line = dict(zip(map(tuple, lines), fast))
    _, out, _ = by_line["check", "mc", "-h"]
    assert out.startswith("usage: rbsinfty check mc [-h] file")
    _, _, err = by_line["check", "mc"]
    assert "rbsinfty check mc: error: the following arguments are required: file" in err
    # what a command's parser leaves over is refused under the top-level prog
    _, _, err = by_line["verify", "d-squared", "--bogus", "--max-arity", "3"]
    assert err.endswith("rbsinfty: error: unrecognized arguments: --bogus\n")


def test_a_valid_command_line_builds_no_argparse_parser(capsys, monkeypatch):
    import argparse

    def refuse(self, *args, **kwargs):
        raise AssertionError("an argparse.ArgumentParser was built")

    cli.build_parser.cache_clear()
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", refuse)
    for argv in _valid_lines():
        assert main(list(argv)) in (0, 1)
    capsys.readouterr()
    # neither importing the CLI nor running a valid line imports argparse or
    # locale (which argparse's gettext pulls in)
    script = (
        "import sys\n"
        "import rbsinfty.cli\n"
        "loaded = sorted({'argparse', 'locale'} & set(sys.modules))\n"
        "rbsinfty.cli.main(['verify', 'd-squared', '--max-arity', '2'])\n"
        "loaded += sorted({'argparse', 'locale'} & set(sys.modules))\n"
        "print(loaded, file=sys.stderr)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(rbsinfty.__file__).parent.parent))
    child = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, env=env, timeout=60
    )
    assert child.returncode == 0 and child.stderr.decode() == "[]\n"


_OPTION_NAMES = sorted(
    {name for _, _, arguments in cli._COMMANDS.values() for name, _ in arguments}
    - {"file"}
)
# every option name and each of its prefixes, "-" and "--" among them
_OPTION_TOKENS = sorted(
    {name[:end] for name in _OPTION_NAMES for end in range(1, len(name) + 1)}
    | {"-h", "--help"}
)
_VALUES = ["5", "+5", "1_0", "-3", "0", " 7", "x", "mrs", "xyz", "abc", "", "in.json"]
_HEADS = st.sampled_from(
    sorted(cli._COMMANDS) + [("bogus", "mc"), ("check", "-h"), ("verify", "bogus")]
)


def _lines_after(head):
    """Command lines that start with ``head``: up to three options of its
    command with values, as two tokens or joined by ``=``, or lone values, and
    in a third of the lines one more token: an option name or a prefix of one,
    ``-``, ``--``, ``-h`` or ``--help``."""
    _, _, arguments = cli._COMMANDS.get(tuple(head), (None, None, []))
    names = st.sampled_from([name for name, _ in arguments if name != "file"] or _OPTION_NAMES)
    values = st.sampled_from(_VALUES)
    piece = (
        st.tuples(names, values).map(list)
        | st.builds("{}={}".format, names, values).map(lambda token: [token])
        | values.map(lambda value: [value])
    )
    extra = st.just([]) | st.just([]) | st.sampled_from(_OPTION_TOKENS).map(lambda t: [t])
    return st.tuples(st.lists(piece, max_size=3), extra, st.integers(0, 3)).map(
        lambda drawn: [*head, *_insert(sum(drawn[0], []), drawn[2], drawn[1])]
    )


def _insert(tokens, at, more):
    return tokens[:at] + more + tokens[at:]


@settings(max_examples=600, deadline=None)
@given(_HEADS.flatmap(_lines_after))
def test_the_table_parse_defers_or_agrees_with_the_full_tree(argv):
    args = cli._table_parse(argv)
    if args is None:
        return
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            full = vars(cli.build_parser().parse_args(argv))
    except SystemExit:
        pytest.fail(f"the full tree refuses {argv}, which the table parse took")
    del full["group"], full["target"]
    assert vars(args) == full


def test_the_table_parse_takes_every_valid_line():
    for argv in _valid_lines() + [
        ["verify", "d-squared", "--max-arity=3", "--presentation=mrs"],
        ["verify", "homotopy", "--max-weight", "+5", "--max-arity", "1_0", "--max-arity", "2"],
        ["check", "hrbs", "--max-arity", "2", "in.json"],
    ]:
        expected = vars(cli.build_parser().parse_args(argv))
        del expected["group"], expected["target"]
        assert vars(cli._table_parse(argv)) == expected


# -- the report writer ---------------------------------------------------------------

_TEXT = st.text(
    st.sampled_from('"\\/\x00\x1f\x7f\u00e9\u2028\ud800\U0001d11e') | st.characters(),
    max_size=8,
)
_JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-(10**40), max_value=10**40)
    | _TEXT,
    lambda inner: st.lists(inner)
    | st.lists(inner).map(tuple)
    | st.dictionaries(_TEXT, inner),
    max_leaves=10,
)


@settings(max_examples=200, deadline=None)
@given(_JSON_VALUES)
def test_the_report_writer_equals_indented_json_dumps(value):
    assert cli._json_text(value) == json.dumps(value, indent=2, sort_keys=True)


def test_the_report_writer_equals_indented_json_dumps_on_every_saved_file():
    paths = sorted((Path(__file__).parent / "data").glob("*.json"))
    assert paths
    for path in paths:
        value = json.loads(path.read_text())
        assert cli._json_text(value) == json.dumps(value, indent=2, sort_keys=True), path.name


@pytest.mark.parametrize(
    "value", [1.5, Fraction(1, 2), b"x", {"a": [{1, 2}]}, {1: "a"}, [object()]]
)
def test_the_report_writer_refuses_a_type_no_report_holds(value):
    with pytest.raises(TypeError):
        cli._json_text(value)


# -- refusals ---------------------------------------------------------------------


def inhomogeneous_ybp_file(tmp_path):
    # e1^1 (x) e1^1 has degree 0 and e1^2 (x) e1^1 degree -1 over V = (0, 1)
    algebra = MatrixAlgebra(GRADED)
    r = TensorElem(algebra, 2, {("e1^1", "e1^1"): 1, ("e1^2", "e1^1"): 1}).to_json()
    zero = TensorElem.zero(algebra, 2).to_json()
    payload = {"space": GRADED.to_json(), "r": r, "s": zero}
    return dump(tmp_path, "inhomogeneous.json", payload)


@pytest.mark.parametrize("command", [["check", "ybp"], ["convert", "ybp-to-rbs"]])
def test_ybp_pair_refuses_an_inhomogeneous_tensor(capsys, tmp_path, command):
    code, report = run(capsys, *command, inhomogeneous_ybp_file(tmp_path))
    assert code == 2
    assert report["error"] == "r: tensor is not homogeneous: degrees [-1, 0]"


def test_infinity_pair_names_an_inhomogeneous_member(capsys, tmp_path):
    ybp = json.loads(open(inhomogeneous_ybp_file(tmp_path)).read())
    payload = {"space": ybp["space"], "truncation": 2, "s": {"2": ybp["r"]}}
    code, report = run(capsys, "check", "aybe-infinity", dump(tmp_path, "inf.json", payload))
    assert code == 2
    assert report["error"] == "s_2: tensor is not homogeneous: degrees [-1, 0]"


def test_ybp_pair_refuses_a_tensor_of_nonzero_degree(capsys, tmp_path):
    algebra = MatrixAlgebra(GRADED)
    odd = TensorElem(algebra, 2, {("e1^2", "e1^1"): 1}).to_json()
    payload = {"space": GRADED.to_json(), "r": odd, "s": odd}
    code, report = run(capsys, "check", "ybp", dump(tmp_path, "odd.json", payload))
    assert code == 2
    assert report["error"] == "r has degree -1, expected 0"
    # the same tensor, as the operator it induces, is refused on the way back
    end = algebra.space
    operator = MultiMap(end, end, 1, -1, {("e2^1",): {"e1^1": 1}}).to_json()
    zero = MultiMap.zero(end, end, 1, 0).to_json()
    payload = {"space": GRADED.to_json(), "R": operator, "S": zero}
    code, report = run(capsys, "convert", "rbs-to-ybp", dump(tmp_path, "op.json", payload))
    assert code == 2
    assert "expected 0" in report["error"]


def map_entries_as_number():
    payload = hrbs_payload()
    payload["r"]["1"]["entries"] = 3
    return "hrbs", payload, "r.1.entries must be a JSON array, got int"


def tensor_entries_as_number():
    bad = {"order": 2, "entries": 3}
    return "ybp", {"space": PLANE.to_json(), "r": bad, "s": bad}, "r.entries must be"


def tensor_coeff_missing():
    bad = {"order": 2, "entries": [{"factors": ["e1^2", "e1^2"]}]}
    return "ybp", {"space": PLANE.to_json(), "r": bad, "s": bad}, "needs 'coeff'"


def cochain_parts_as_string():
    payload = dict(cochain_payload(), parts="alg")
    return "mc", payload, "parts must be a JSON array, got str"


def cochain_part_as_string():
    payload = dict(cochain_payload(), parts=["alg"])
    return "mc", payload, "needs 'tag' as a string"


def cochain_tag_missing():
    payload = cochain_payload()
    del payload["parts"][0]["tag"]
    return "mc", payload, "needs 'tag' as a string"


def cochain_tag_as_array():
    payload = cochain_payload()
    payload["parts"][0]["tag"] = ["alg"]
    return "mc", payload, "needs 'tag' as a string"


@pytest.mark.parametrize(
    "build",
    [
        map_entries_as_number,
        tensor_entries_as_number,
        tensor_coeff_missing,
        cochain_parts_as_string,
        cochain_part_as_string,
        cochain_tag_missing,
        cochain_tag_as_array,
    ],
)
def test_misshapen_json_field_is_named(capsys, tmp_path, build):
    command, payload, message = build()
    code, report = run(capsys, "check", command, dump(tmp_path, "shape.json", payload))
    assert code == 2
    assert message in report["error"]


_EMPTY = {"basis": []}
_ZERO_OPERATOR = {"arity": 1, "degree": 0, "entries": []}
_ZERO_TENSOR = {"order": 2, "entries": []}


@pytest.mark.parametrize(
    "argv, payload",
    [
        (("check", "rbs"), {"space": _EMPTY, "R": _ZERO_OPERATOR, "S": _ZERO_OPERATOR}),
        (("check", "ybp"), {"space": _EMPTY, "r": _ZERO_TENSOR, "s": _ZERO_TENSOR}),
        (("check", "hrbs"), {"space": _EMPTY, "truncation": 2}),
        (("check", "aybe-infinity"), {"space": _EMPTY, "truncation": 2}),
        (
            ("check", "mc"),
            {
                "space": _EMPTY,
                "product": {"arity": 2, "degree": 0, "entries": []},
                "R": _ZERO_OPERATOR,
                "S": _ZERO_OPERATOR,
            },
        ),
        (("check", "mc"), {"space": _EMPTY, "parts": []}),
        (("convert", "ybp-to-rbs"), {"space": _EMPTY, "r": _ZERO_TENSOR, "s": _ZERO_TENSOR}),
        (("convert", "rbs-to-ybp"), {"space": _EMPTY, "R": _ZERO_OPERATOR, "S": _ZERO_OPERATOR}),
    ],
    ids=[
        "check-rbs",
        "check-ybp",
        "check-hrbs",
        "check-aybe-infinity",
        "check-mc-classical",
        "check-mc-cochain",
        "convert-ybp-to-rbs",
        "convert-rbs-to-ybp",
    ],
)
def test_empty_basis_is_refused_not_passed(capsys, tmp_path, argv, payload):
    # on the zero space every identity holds vacuously
    code, report = run(capsys, *argv, dump(tmp_path, "empty.json", payload))
    assert code == 2
    assert report == {"error": "space.basis must not be empty"}


# -- unknown top-level fields ------------------------------------------------------

DATA = Path(__file__).parent / "data"


def hrbs_families_spelled_as_in_check_rbs():
    # (2 P1, 3 P1) on the diagonal algebra is not a Rota-Baxter system; spelled
    # R and S, as a check rbs file spells them, its families were read as
    # missing and the product alone passed
    algebra, R, _ = diagonal_triple()
    S = MultiMap(PLANE, PLANE, 1, 0, {("v1",): {"v1": Fraction(3)}})
    payload = HomotopyRBS(PLANE, m={2: algebra.product_map()}, r={1: R}, s={1: S}).to_json()
    payload["R"], payload["S"] = payload.pop("r"), payload.pop("s")
    return payload


RBS_FIELDS = "space, R, S"
YBP_FIELDS = "space, r, s"
UNKNOWN_FIELDS = [
    (["check", "rbs"], lambda: dict(rbs_payload(), truncation=2), "truncation", RBS_FIELDS),
    (
        ["check", "hrbs"],
        hrbs_families_spelled_as_in_check_rbs,
        "R",
        "space, truncation, m, r, s",
    ),
    (["check", "ybp"], lambda: dict(ybp_payload(), R=rbs_payload()["R"]), "R", YBP_FIELDS),
    (
        ["check", "aybe-infinity"],
        lambda: dict(aybe_payload(), m={}),
        "m",
        "space, truncation, r, s",
    ),
    (
        ["check", "mc"],
        lambda: dict(cochain_payload(), product={}),
        "product",
        "space, degree, truncation, parts",
    ),
    (
        ["check", "mc"],
        lambda: dict(classical_mc_payload(), degree=-1),
        "degree",
        "space, product, R, S, truncation",
    ),
    (["convert", "ybp-to-rbs"], lambda: dict(ybp_payload(), truncation=2), "truncation", YBP_FIELDS),
    (["convert", "rbs-to-ybp"], lambda: dict(rbs_payload(), r=ybp_payload()["r"]), "r", RBS_FIELDS),
]


@pytest.mark.parametrize(
    "command, build, field, fields",
    UNKNOWN_FIELDS,
    ids=[
        "check-rbs",
        "check-hrbs",
        "check-ybp",
        "check-aybe-infinity",
        "check-mc-cochain",
        "check-mc-classical",
        "convert-ybp-to-rbs",
        "convert-rbs-to-ybp",
    ],
)
def test_an_unknown_top_level_field_is_refused_by_name(
    capsys, tmp_path, command, build, field, fields
):
    code, report = run(capsys, *command, dump(tmp_path, "unknown.json", build()))
    assert code == 2
    assert report == {
        "error": f'unknown top-level field "{field}"; the fields of this file are {fields}'
    }


def test_the_misspelled_hrbs_families_fail_when_spelled_right(capsys, tmp_path):
    payload = hrbs_families_spelled_as_in_check_rbs()
    payload["r"], payload["s"] = payload.pop("R"), payload.pop("S")
    code, report = run(capsys, "check", "hrbs", dump(tmp_path, "right.json", payload))
    assert code == 1
    failed = [(r["identity"], r["arity"]) for r in report["results"] if not r["ok"]]
    assert failed == [("operator-r", 2), ("operator-s", 2)]


# the commands that read each saved input, by the first word of its file name
_SAVED_INPUT_COMMANDS = {
    "aybe": [("check", "aybe-infinity")],
    "hrbs": [("check", "hrbs")],
    "mc": [("check", "mc")],
    "rbs": [("check", "rbs"), ("convert", "rbs-to-ybp")],
    "ybp": [("check", "ybp"), ("convert", "ybp-to-rbs")],
}


def test_every_saved_input_uses_only_the_fields_of_its_format(capsys):
    for path in sorted(DATA.glob("*_input.json")):
        for command in _SAVED_INPUT_COMMANDS[path.name.split("_")[0]]:
            code, report = run(capsys, *command, str(path))
            assert code in (0, 1), (path.name, command, report)


# -- the truncation gap (ROADMAP item 2) -------------------------------------------

# a product on V = (0, 0) with a.a = b and b.a = a: (a.a).a = a but a.(a.a) = 0
_NOT_ASSOCIATIVE = {
    "arity": 2,
    "degree": 0,
    "entries": [{"in": ["a", "a"], "out": {"b": "1"}}, {"in": ["b", "a"], "out": {"a": "1"}}],
}
_AB = {"basis": [{"name": "a", "degree": 0}, {"name": "b", "degree": 0}]}


def test_check_mc_fails_a_non_associative_product(capsys, tmp_path):
    zero = {"arity": 1, "degree": 0, "entries": []}
    payload = {"space": _AB, "product": _NOT_ASSOCIATIVE, "R": zero, "S": zero, "truncation": 2}
    code, _ = run(capsys, "check", "mc", dump(tmp_path, "triple.json", payload))
    assert code == 1


@pytest.mark.xfail(
    strict=True, reason="check hrbs stops at the truncation: m_2 o m_2 lives at arity 3"
)
def test_check_hrbs_fails_a_non_associative_product_of_truncation_two(capsys, tmp_path):
    payload = {"space": _AB, "truncation": 2, "m": {"2": _NOT_ASSOCIATIVE}}
    code, _ = run(capsys, "check", "hrbs", dump(tmp_path, "hrbs.json", payload))
    assert code == 1


def _graded_ybp_as_an_infinity_pair(truncation):
    ybp = json.loads((DATA / "ybp_graded_input.json").read_text())
    return {"space": ybp["space"], "truncation": truncation, "r": {"2": ybp["r"]}, "s": {"2": ybp["s"]}}


def test_the_graded_ybp_input_fails_check_ybp_and_the_index_two_identities(capsys, tmp_path):
    code, _ = run(capsys, "check", "ybp", str(DATA / "ybp_graded_input.json"))
    assert code == 1
    path = dump(tmp_path, "aybe.json", _graded_ybp_as_an_infinity_pair(3))
    code, report = run(capsys, "check", "aybe-infinity", path)
    assert code == 1
    assert [r["index"] for r in report["results"] if not r["ok"]] == [2]


@pytest.mark.xfail(
    strict=True, reason="check aybe-infinity stops at index truncation - 1: r_2 r_2 lives at 2"
)
def test_check_aybe_fails_the_graded_ybp_input_at_truncation_two(capsys, tmp_path):
    path = dump(tmp_path, "aybe.json", _graded_ybp_as_an_infinity_pair(2))
    code, _ = run(capsys, "check", "aybe-infinity", path)
    assert code == 1


# -- fuzzed file formats (ROADMAP item 8) ------------------------------------------

LINE = GradedSpace([("v1", 0)])


def line_mc_payload():
    # v1.v1 = v1 with R = 2 Id and S = 0, a Rota-Baxter system on a line: an
    # MC element whose twisted square is checked, in a few milliseconds
    product = MultiMap(LINE, LINE, 2, 0, {("v1", "v1"): {"v1": 1}})
    R = MultiMap(LINE, LINE, 1, 0, {("v1",): {"v1": 2}})
    S = MultiMap.zero(LINE, LINE, 1, 0)
    return {"space": LINE.to_json(), "product": product.to_json(), "R": R.to_json(), "S": S.to_json()}


def line_cochain_payload():
    from rbsinfty.linfty import classical_cochain

    triple = line_mc_payload()
    product, R, S = (MultiMap.from_json(LINE, LINE, triple[k]) for k in ("product", "R", "S"))
    return classical_cochain(product, R, S).to_json()


# a valid file of each file command, mangled below
_FUZZ_BASES = [
    (("check", "rbs"), rbs_payload),
    (("check", "ybp"), ybp_payload),
    (("check", "hrbs"), hrbs_payload),
    (("check", "aybe-infinity"), aybe_payload),
    (("check", "mc"), line_cochain_payload),
    (("check", "mc"), line_mc_payload),
    (("convert", "ybp-to-rbs"), ybp_payload),
    (("convert", "rbs-to-ybp"), rbs_payload),
]
_FIELD_NAMES = [
    "space", "R", "S", "r", "s", "m", "truncation", "degree", "parts", "product",
    "basis", "name", "arity", "entries", "in", "out", "order", "factors", "coeff",
    "tag", "map", "1", "2", "3",
]
_GARBAGE = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-3, 4)
    | st.floats()
    | st.text(max_size=4)
    | st.sampled_from(["1/2", "-1", "0", "v1", "v2", "e1^2", "alg", "1e5", "R"]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(_FIELD_NAMES) | st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)


def _mangle(data, value):
    """``value`` with one node changed, as ``data`` chooses: a node deep in
    it replaced by garbage, or a member of an object or array dropped or
    added, or a key of an object misspelled."""
    if isinstance(value, dict) and value and data.draw(st.booleans()):
        key = data.draw(st.sampled_from(sorted(value)))
        return {**value, key: _mangle(data, value[key])}
    if isinstance(value, list) and value and data.draw(st.booleans()):
        i = data.draw(st.integers(0, len(value) - 1))
        return value[:i] + [_mangle(data, value[i])] + value[i + 1 :]
    change = data.draw(st.sampled_from(["replace", "drop", "add", "misspell"]))
    if change == "replace" or not isinstance(value, (dict, list)):
        return data.draw(_GARBAGE)
    if change == "add":
        if isinstance(value, list):
            return value + [data.draw(_GARBAGE)]
        return {**value, data.draw(st.sampled_from(_FIELD_NAMES)): data.draw(_GARBAGE)}
    if not value:
        return data.draw(_GARBAGE)
    if isinstance(value, list):
        i = data.draw(st.integers(0, len(value) - 1))
        return value[:i] + value[i + 1 :]
    key = data.draw(st.sampled_from(sorted(value)))
    rest = {k: v for k, v in value.items() if k != key}
    if change == "drop":
        return rest
    spelled = data.draw(st.sampled_from([key.upper(), key.lower(), key + "s", key[:-1], " " + key]))
    return {**rest, spelled: value[key]}


@settings(max_examples=250, deadline=None)
@given(st.sampled_from(_FUZZ_BASES), st.data())
def test_a_mangled_file_gets_an_exit_code_and_no_traceback(base, data):
    command, build = base
    payload = build()
    for _ in range(data.draw(st.integers(1, 3))):
        payload = _mangle(data, payload)
    with tempfile.TemporaryDirectory() as workdir:
        path = os.path.join(workdir, "mangled.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([*command, path])
    assert code in (0, 1, 2)
    assert not err.getvalue()
    report = json.loads(out.getvalue())
    assert (code == 2) == ("error" in report)
