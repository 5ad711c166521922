"""End-to-end tests for the command-line interface.

Each test drives `main` with an argv list, captures the JSON report from
stdout, and asserts on the documented exit codes: 0 when every check
passes, 1 on a verification failure, 2 on unparseable input.
"""

import json
import random
from fractions import Fraction

import pytest

from rbsinfty.cli import main
from rbsinfty.graded import BasedAlgebra, GradedSpace, MatrixAlgebra, MultiMap, TensorElem
from rbsinfty.residuals import HomotopyRBS
from rbsinfty.sampling import random_tensor

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


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_verify_linfinity_refuses_an_empty_trial_count(capsys, trials):
    code, report = run(capsys, "verify", "linfinity", "--trials", trials)
    assert code == 2
    assert "trials" in report["error"]


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
