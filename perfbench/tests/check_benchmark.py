"""Tests of the benchmark itself (not part of the library's suite).

Run from the root of a checkout:

    python3 -m pytest -q perfbench/tests/check_benchmark.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import jobs  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from rbsinfty import cli  # noqa: E402

# the layers each workload exists to exercise: every traced function gets at
# least one call on the workloads listed for it
EXERCISED = {
    "operad-d2": [
        "minimal_model.diff_generator",
        "minimal_model.extend_derivation",
        "minimal_model.replace_vertex",
        "trees.compose_at",
        "trees.graft_with_sign",
        "trees.brace",
        "trees.OperadElement.__add__",
        "signs.inversion_sign",
        "cli.main",
    ],
    "operad-homotopy": [
        "minimal_model.extend_derivation",
        "minimal_model.replace_vertex",
        "monomial_model.diff_bar",
        "monomial_model.homotopy_H",
        "monomial_model.is_effective",
        "monomial_model.apply_homotopy",
        "monomial_model.enumerate_monomials",
        "trees.compose_at",
        "trees.graft_with_sign",
        "trees.OperadElement.__add__",
        "signs.inversion_sign",
        "cli.main",
    ],
    "mc-dense": [
        "signs.koszul_chi",
        "graded.compose_tensor",
        "graded.brace_map",
        "graded.MultiMap.__init__",
        "graded.MultiMap.__add__",
        "linfty.l_bracket",
        "linfty.mc_residual",
        "linfty.CochainElement.__add__",
        "cli.main",
        "cli.from_json",
    ],
    "file-checks": [
        "signs.koszul_chi",
        "signs.shuffles",
        "graded.compose_tensor",
        "graded.MultiMap.__init__",
        "graded.MultiMap.__add__",
        "graded.tensor_product_multiply",
        "graded.raise_indices",
        "linfty.l_bracket",
        "linfty.twisted_differential",
        "residuals.stasheff_residual",
        "residuals.hrbs_residual_R",
        "residuals.hrbs_residual_S",
        "residuals.check_classical_rbs",
        "yang_baxter.F_map",
        "yang_baxter.check_classical_ybp",
        "yang_baxter.check_infinity_ybp",
        "cli.main",
        "cli.from_json",
    ],
}


def traced_run(name: str, workdir: Path) -> dict:
    plan = workloads.build(name, 7, workdir, small=True)
    runner = run.Runner(workdir, plan, started=run.time.monotonic())
    result = runner.spawn("trace")
    assert all(job["problem"] is None for job in result["jobs"]), result["jobs"]
    values, header = tracer.layer_metrics(str(runner.spans))
    assert header["missing"] == []
    return values


@pytest.fixture(scope="module")
def layer_values(tmp_path_factory) -> dict[str, dict]:
    return {
        name: traced_run(name, tmp_path_factory.mktemp(name))
        for name in workloads.JOB_LISTS
    }


def test_benchmark_json_lists_what_the_runner_prints():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(workloads.JOB_LISTS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == tracer.metric_units()
    setup = next(m for m in bench["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in bench["end_to_end"])


def test_every_traced_function_is_exercised_by_some_workload():
    covered = {function for functions in EXERCISED.values() for function in functions}
    assert covered == {f"{layer}.{function}" for layer, function, _ in tracer.LAYERS}


@pytest.mark.parametrize("workload", list(EXERCISED))
def test_workload_exercises_its_layers(layer_values, workload):
    values = layer_values[workload]
    for function in EXERCISED[workload]:
        count = values.get(f"{function}.calls", values.get(f"{function}.yielded"))
        assert count > 0, f"{function} not called on {workload}"


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_workload_bypasses_what_it_predicts(layer_values, workload):
    values = layer_values[workload]
    for prefix in workloads.WORKLOADS[workload]["bypasses"]:
        called = {
            name: value
            for name, value in values.items()
            if name.startswith(prefix + ".") and name.endswith((".calls", ".yielded"))
            and value
        }
        assert not called, f"{workload} reaches {prefix}: {called}"


def test_named_bypass_zeros(layer_values):
    assert layer_values["operad-homotopy"]["minimal_model.diff_generator.calls"] == 0
    assert layer_values["operad-d2"]["monomial_model.diff_bar.calls"] == 0
    for workload in ("operad-d2", "operad-homotopy"):
        assert layer_values[workload]["linfty.l_bracket.calls"] == 0


@pytest.mark.parametrize("workload", list(workloads.JOB_LISTS))
def test_inputs_depend_only_on_the_seed(tmp_path, workload):
    def files(seed, where):
        where.mkdir()
        plan = workloads.build(workload, seed, where)
        texts = sorted(p.read_text() for p in where.iterdir())
        argv = [[a.replace(str(where), "") for a in job["argv"]] for job in plan]
        return argv, [job["expect"] for job in plan], texts

    assert files(3, tmp_path / "a") == files(3, tmp_path / "b")
    if workload in ("mc-dense", "file-checks"):
        assert files(3, tmp_path / "c")[2] != files(4, tmp_path / "d")[2]


@pytest.mark.parametrize("seed", range(6))
def test_file_check_verdicts_hold_for_every_seed(tmp_path, seed):
    for job in workloads.build("file-checks", seed, tmp_path):
        outcome = jobs.run_job(cli, job)
        assert outcome["problem"] is None, (job["label"], outcome["problem"])


# 1023, 1106 and 1634663114 first drew an arity-1 operator that commutes with
# the arity-1 algebra map, which drops a residual component unless redrawn
@pytest.mark.parametrize("seed", [0, 1, 2, 1023, 1106, 1634663114])
def test_dense_cochain_residual_has_a_fixed_shape(tmp_path, seed):
    (job,) = workloads.build("mc-dense", seed, tmp_path)
    outcome = jobs.run_job(cli, job)
    assert outcome["problem"] is None, outcome["problem"]


def test_a_wrong_verdict_is_a_failed_job(tmp_path):
    (job,) = workloads.build("mc-dense", 1, tmp_path, small=True)
    job["expect"]["exit"] = 0
    assert jobs.run_job(cli, job)["problem"] == "exit code 1, expected 0"
    job["expect"] = {"exit": 1, "lengths": {"residual_components": 3}}
    assert "residual_components has 10 items" in jobs.run_job(cli, job)["problem"]


def test_canonical_ignores_entry_order_and_coefficient_spelling():
    a = {"R": {"entries": [{"in": ["x"], "out": {"y": "2/4"}}, {"in": ["z"], "out": {"y": "1"}}]}}
    b = {"R": {"entries": [{"in": ["z"], "out": {"y": "1/1"}}, {"in": ["x"], "out": {"y": "1/2"}}]}}
    assert jobs.canonical(a) == jobs.canonical(b)
    b["R"]["entries"][0]["out"]["y"] = "2"
    assert jobs.canonical(a) != jobs.canonical(b)


SCRIPT = """
import json, sys
sys.path[:0] = [{src!r}, {bench!r}]
import rbsinfty.cli, rbsinfty.minimal_model as mm, rbsinfty.trees as trees
del mm.replace_vertex
import tracer
t = tracer.Tracer()
t.install()
import rbsinfty.signs as signs
same = trees.inversion_sign is signs.inversion_sign is mm.inversion_sign
trees.inversion_sign(((0, 1), (1, 1)), (1, 0))
t.write({spans!r})
values, header = tracer.layer_metrics({spans!r})
print(json.dumps({{"same": same, "values": values, "header": header}}))
"""


def test_tracer_wraps_every_binding_and_reports_missing_functions(tmp_path):
    script = SCRIPT.format(src=str(ROOT / "src"), bench=str(BENCH), spans=str(tmp_path / "s"))
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, check=True)
    result = json.loads(out.stdout)
    assert result["same"]
    bindings = result["header"]["bindings"]["signs.inversion_sign"]
    assert {"rbsinfty.signs.inversion_sign", "rbsinfty.trees.inversion_sign",
            "rbsinfty.minimal_model.inversion_sign"} <= set(bindings)
    assert result["values"]["signs.inversion_sign.calls"] == 1
    assert result["header"]["missing"] == ["minimal_model.replace_vertex"]
    assert result["values"]["minimal_model.replace_vertex.calls"] is None
    assert result["values"]["minimal_model.replace_vertex.self_s"] is None


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    argv = bench["command"] + ["--workload", "mc-dense", "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_probe_never_imports_the_library(tmp_path):
    out = tmp_path / "probe.json"
    command = [sys.executable, str(BENCH / "child.py"), "probe", str(tmp_path / "no-src"), "-", str(out)]
    subprocess.run(command, check=True, timeout=60)
    assert "ready" in json.loads(out.read_text())


def test_a_run_samples_its_speed_and_leaves_the_samples_out_of_its_times(tmp_path):
    plan = workloads.build("file-checks", 3, tmp_path)
    result = run.Runner(tmp_path, plan, started=run.time.monotonic()).spawn("run")
    assert all(job["problem"] is None for job in result["jobs"])
    assert len(result["slices_s"]) >= 1 + int(result["run_s"] / 0.05) // 2
    latencies = [job["latency_s"] for job in result["jobs"]]
    assert min(latencies) > 0
    assert sum(latencies) <= result["run_s"]
