"""Tests of the benchmark harness itself, at the tiny scale.

    python3 -m pytest -q perfbench/tests
"""

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from femtoshare import experiments  # noqa: E402

from perfbench import checks, tracing, workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
COUNTED_UNITS = ("count", "ratio", "bytes")


def run_cli(workload: str, trace: int, cwd: Path = ROOT):
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "0", "--trace", str(trace), "--scale", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def traced_pass(workload: str, seed: int, out_dir: Path) -> tracing.Tracer:
    with tracing.Tracer() as tracer:
        for spec in workloads.specs(workload, seed, out_dir, workloads.TINY):
            experiments.run(spec)
    return tracer


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_named_metric_appears(workload):
    for trace, block in ((0, "end_to_end"), (1, "per_layer")):
        out = run_cli(workload, trace)
        assert out.returncode == 0, out.stderr
        result = json.loads(out.stdout.splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["attempted"] >= 1
        expected = {m["name"]: m["unit"] for m in BENCHMARK[block]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        assert got == expected
        if trace:
            # from the set-up probe, where the rule cache starts cold
            assert result["metrics"]["quadrature.make_rule.calls"]["value"] > 0


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]] == tracing.PER_LAYER


def test_tracer_restores_originals(tmp_path):
    originals = [(owner, attr, vars(owner)[attr]) for owner, attr, _ in tracing.targets()]
    with pytest.raises(RuntimeError):
        with tracing.Tracer() as tracer:
            assert all(vars(owner)[attr] is not fn for owner, attr, fn in originals)
            for spec in workloads.specs("validation_op", 1, tmp_path, workloads.TINY):
                experiments.run(spec)
            raise RuntimeError("leave the block early")
    assert tracer.spans
    assert all(vars(owner)[attr] is fn for owner, attr, fn in originals)


@pytest.fixture(scope="module")
def ase_traces(tmp_path_factory):
    return [traced_pass("ase", 5, tmp_path_factory.mktemp(f"pass{i}"))
            for i in range(2)]


def test_counters_reproducible(ase_traces):
    counts = [{name: t.metrics()[name] for name, unit in tracing.PER_LAYER
               if unit in COUNTED_UNITS}
              for t in ase_traces]
    assert counts[0] == counts[1]
    assert counts[0]["regulation.decide.calls"] > 0
    assert counts[0]["kernels.pairs"] > 0


def test_top_level_spans_account_for_run(ase_traces):
    spans = ase_traces[0].spans
    top_level_s = sum(
        rec[tracing.END] - rec[tracing.START] for rec in spans
        if rec[tracing.PARENT] >= 0
        and spans[rec[tracing.PARENT]][tracing.LAYER] == "experiments.run")
    m = ase_traces[0].metrics()
    assert top_level_s + m["experiments.self_s"] == pytest.approx(
        m["experiments.run.s"], rel=1e-9)
    assert m["experiments.self_s"] < 0.05 * m["experiments.run.s"]


def test_reference_checks_pass_reference_and_catch_drift():
    ref = checks.load_reference("validation_op")
    curves = {name: {"x": c["x"], "value": c["mean"], "std_err": [0.0] * len(c["x"])}
              for name, c in ref["curves"].items()}
    assert not checks.failed(checks.reference_checks(curves, ref))

    sim = next(n for n in curves if workloads.SIMULATED_CURVE.search(n))
    sd = ref["curves"][sim]["sd"]
    broken = copy.deepcopy(curves)
    broken[sim]["value"][0] += 20 * max(sd) + 1e-3
    assert checks.failed(checks.reference_checks(broken, ref)) != []

    # every point within the per-point limit, the curve as a whole shifted
    broken = copy.deepcopy(curves)
    broken[sim]["value"] = [v - 3.0 * e for v, e in zip(broken[sim]["value"], sd)]
    assert checks.failed(checks.reference_checks(broken, ref)) != []

    bound = next(n for n in curves if not workloads.SIMULATED_CURVE.search(n))
    broken = copy.deepcopy(curves)
    broken[bound]["value"][-1] *= 1.0 + 1e-4
    assert checks.failed(checks.reference_checks(broken, ref)) != []


def test_refuses_to_run_without_package_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = run_cli("validation_op", 0, cwd=tmp_path)
    assert out.returncode != 0
    assert out.stdout == ""
