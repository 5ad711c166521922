"""End-to-end tests for the command-line interface.

Each test drives `main` with an argv list, captures the JSON report from
stdout, and asserts on the documented exit codes: 0 when every check
passes, 1 on a verification failure, 2 on unparseable input.
"""

import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import rbsinfty
from rbsinfty import cli, linfty, minimal_model
from rbsinfty.cli import _WITNESS_CAP, main
from rbsinfty.graded import BasedAlgebra, GradedSpace, MatrixAlgebra, MultiMap, TensorElem
from rbsinfty.minimal_model import extend_derivation
from rbsinfty.residuals import HomotopyRBS
from rbsinfty.sampling import random_tensor
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


# -- one parser per process ---------------------------------------------------------


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
