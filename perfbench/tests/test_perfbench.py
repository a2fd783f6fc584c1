"""Tests of the benchmark itself, each workload at a tiny size.

    python3 -m pytest perfbench/tests -q
"""

import json
import math
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

import run  # noqa: E402
import tracer  # noqa: E402

CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in CONTRACT["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in CONTRACT["per_layer"]}


def tiny(name):
    """The workload with its identity cut down to a few seconds of work."""
    spec = json.loads(json.dumps(run.WORKLOADS[name]))
    if name == "block-variance":
        # the Monte Carlo slope gate needs many reps at small n
        spec.update(reps=1200, studies=1, n_grid=[8, 16, 32, 64],
                    rule_shapes=[[3, 6, 3], [4, 6, 3], [5, 6, 3], [6, 6, 3]])
        return spec
    spec.update(reps=6, levels=spec["levels"][:2])
    spec["rule_shapes"] = {
        "cd-product": [[1, 2, 2], [1, 4, 2], [1, 6, 2], [2, 2, 2], [2, 4, 2], [3, 2, 2],
                       [3, 4, 2], [4, 2, 2]],
        "cd-pairs": [[1, 2, 2], [1, 4, 2], [2, 2, 2], [2, 4, 2], [3, 2, 2], [3, 4, 2],
                     [4, 2, 2], [4, 4, 2]],
    }[name]
    return spec


@pytest.fixture(autouse=True)
def two_workers(monkeypatch):
    monkeypatch.setattr(run, "MIN_WORKERS", 2)


def check_result(result, expected_metrics):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    units = {k: v["unit"] for k, v in result["metrics"].items()}
    assert units == expected_metrics
    for v in result["metrics"].values():
        assert isinstance(v["value"], (int, float)) and math.isfinite(v["value"])


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_untraced_run_emits_end_to_end_metrics(name):
    out = run.measure(name, tiny(name), seed=3, seconds=0, trace=False)
    check_result(out["result"], END_TO_END)
    summary = out["summary"]
    assert summary["workers"] == 2
    assert out["result"]["correct"] and summary["failed_checks"] == []
    for key in ("commit", "python", "numpy", "nproc", "openblas_threads", "loadavg_at_start"):
        assert key in summary["env"]
    metrics = out["result"]["metrics"]
    assert all(metrics[m]["value"] > 0 for m in ("setup_s", "study_s", "peak_rss_mb"))
    spec = tiny(name)
    for w in summary["per_worker"]:
        # one probe before the spawn, one after set-up, one after each study
        assert len(w["studies"]) == len(w["study_scaled_s"]) == spec["studies"]
        assert len(w["probe_s"]) == spec["studies"] + 2


def test_scaling_to_nominal_host_speed():
    nominal = run.PROBE_NOMINAL_S
    assert run.at_nominal_speed(3.0, nominal, 1.0) == 3.0
    assert math.isclose(run.at_nominal_speed(3.0, 2 * nominal, 1.0), 1.5)
    assert math.isclose(run.at_nominal_speed(3.0, 2 * nominal, 0.5), 3.0 / math.sqrt(2))
    worker = {"setup_s": 4.0, "probe_s": [nominal, 3 * nominal, 2 * nominal, nominal],
              "studies": [{"wall_s": 1.0}, {"wall_s": 2.0}]}
    setup, studies = run.scaled_times(worker, {"probe_exponent": 1.0})
    assert math.isclose(setup, 2.0)
    assert [round(t, 12) for t in studies] == [0.4, round(2.0 / 1.5, 12)]


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_traced_run_reports_busy_layers(name):
    spec = tiny(name)
    out = run.measure(name, spec, seed=3, seconds=0, trace=True)
    check_result(out["result"], PER_LAYER)
    totals = run.trace_totals(out["summary"]["trace"][0])
    idle = [label for label in spec["busy_layers"] if totals.get(label, {}).get("calls", 0) == 0]
    assert idle == []
    assert out["result"]["correct"]
    assert set(out["summary"]["top_self"][0]) == {"setup", "study"}


def test_missing_trace_target_fails_loudly(monkeypatch):
    monkeypatch.setitem(tracer.TARGETS, "prf.gone", ("prf", "no_such_function", None))
    with pytest.raises(tracer.TraceError, match="no longer exists"):
        tracer.Tracer().install()


def test_unreachable_alias_fails_loudly():
    # a default argument keeps the original out of reach of rebinding
    code = (
        "import cdquad.prf as prf\n"
        "exec('def probe(key=derive_seed):\\n    return key', vars(prf))\n"
        "import tracer\n"
        "try:\n"
        "    tracer.Tracer().install()\n"
        "except tracer.TraceError as exc:\n"
        "    print(exc)\n"
    )
    env_path = f"{BENCH}:{ROOT / 'src'}"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={"PYTHONPATH": env_path}, timeout=120)
    assert "default argument of cdquad.prf.probe" in out.stdout, out.stderr


def test_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "cd-product",
                          "--seed", "0", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert out.returncode != 0
    assert out.stdout.strip() == ""
