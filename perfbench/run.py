"""cdquad benchmark: end-to-end study metrics and per-layer traced spans.

    python3 perfbench/run.py --workload cd-product --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout.  Each worker is a fresh interpreter
(worker.py), so in-process caches start cold; it sets the workload up once
and runs its study a fixed number of times.  Workers run one after another
until `--seconds` is spent, at least MIN_WORKERS untraced ones.  Times are
rescaled to a fixed host speed with the host probe the worker runs next to
each study (see worker.py), and the metrics are medians over set-ups and
over studies.  `--trace 1` alternates untraced and traced workers and
reports the per-layer metrics.  The last stdout line is the result; the
line before it records the environment, the failed fraction, the row
checksums and the unscaled wall times.  README.md describes the workloads,
metrics and checks.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from worker import PROBE_NOMINAL_S, host_probe

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = json.loads((HERE / "workloads.json").read_text())

MIN_WORKERS = 3
#: a run must end within 180 s, so workers are killed past this many seconds
RUN_LIMIT_S = 170.0

LAYER_METRICS = (
    # (metric, trace label, field, unit)
    ("prf.derive_seed.calls", "prf.derive_seed", "calls", "count"),
    ("prf.derive_seed.self_s", "prf.derive_seed", "self_s", "s"),
    ("prf.mix64_array.calls", "prf.mix64_array", "calls", "count"),
    ("prf.mix64_array.self_s", "prf.mix64_array", "self_s", "s"),
    ("prf.mix64_array.words", "prf.mix64_array", "count", "count"),
    ("lattice.search_generating_vector.calls", "lattice.search_generating_vector", "calls", "count"),
    ("lattice.search_generating_vector.self_s", "lattice.search_generating_vector", "self_s", "s"),
    ("gfpoly.is_irreducible.calls", "gfpoly.is_irreducible", "calls", "count"),
    ("gfpoly.is_irreducible.self_s", "gfpoly.is_irreducible", "self_s", "s"),
    ("lattice.plr_points.calls", "lattice.plr_points", "calls", "count"),
    ("lattice.plr_points.self_s", "lattice.plr_points", "self_s", "s"),
    ("lattice.plr_points.points", "lattice.plr_points", "count", "count"),
    ("scramble.scramble_digit_matrix.calls", "scramble.scramble_digit_matrix", "calls", "count"),
    ("scramble.scramble_digit_matrix.self_s", "scramble.scramble_digit_matrix", "self_s", "s"),
    ("scramble.scramble_digit_matrix.digits", "scramble.scramble_digit_matrix", "count", "count"),
    ("scramble.scramble_digit_matrix.rss_rise_mb", "scramble.scramble_digit_matrix", "rss_rise_mb", "MB"),
    ("scramble.interlace_digit_matrices.self_s", "scramble.interlace_digit_matrices", "self_s", "s"),
    ("scramble.digits_to_floats.self_s", "scramble.digits_to_floats", "self_s", "s"),
    ("scramble.numerators_to_digits.self_s", "scramble.numerators_to_digits", "self_s", "s"),
    ("quadrature.rule_points.calls", "quadrature.rule_points", "calls", "count"),
    ("quadrature.rule_points.self_s", "quadrature.rule_points", "self_s", "s"),
    ("quadrature.run_rule_batch.self_s", "quadrature.run_rule_batch", "self_s", "s"),
    ("quadrature.rule_points_seeds.calls", "quadrature.rule_points_seeds", "calls", "count"),
    ("quadrature.rule_points_seeds.self_s", "quadrature.rule_points_seeds", "self_s", "s"),
    ("quadrature.rule_points_seeds.points", "quadrature.rule_points_seeds", "count", "count"),
    ("quadrature.run_rule_seeds.self_s", "quadrature.run_rule_seeds", "self_s", "s"),
    ("decomp.anchored_component.calls", "decomp.anchored_component", "calls", "count"),
    ("decomp.anchored_component.self_s", "decomp.anchored_component", "self_s", "s"),
    ("decomp.bias_squared.self_s", "decomp.bias_squared", "self_s", "s"),
    ("weights.weighted_power_sum.self_s", "weights.weighted_power_sum", "self_s", "s"),
    ("cdalg.plan_build.calls", "cdalg.plan_build", "calls", "count"),
    ("cdalg.plan_build.self_s", "cdalg.plan_build", "self_s", "s"),
    ("cdalg.active_sets", "cdalg.plan_build", "count", "count"),
    ("cdalg.cd_estimate_many.self_s", "cdalg.cd_estimate_many", "self_s", "s"),
    ("harness.run_convergence_study.self_s", "harness.run_convergence_study", "self_s", "s"),
    ("harness.run_variance_study.self_s", "harness.run_variance_study", "self_s", "s"),
    ("harness.StudyResult.write.self_s", "harness.StudyResult.write", "self_s", "s"),
    ("harness.StudyResult.write.bytes", "harness.StudyResult.write", "count", "B"),
    ("cli.main.self_s", "cli.main", "self_s", "s"),
)
CACHE_METRICS = (
    ("quadrature.default_generating_vector.hits", "quadrature.default_generating_vector", "hits"),
    ("quadrature.default_generating_vector.misses", "quadrature.default_generating_vector", "misses"),
    ("lattice.irreducible_modulus.hits", "lattice.irreducible_modulus", "hits"),
    ("lattice.irreducible_modulus.misses", "lattice.irreducible_modulus", "misses"),
)


class BenchError(RuntimeError):
    pass


def git_commit(root: Path) -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def run_worker(name: str, spec: dict, seed: int, trace: bool, out_dir: Path,
               timeout: float) -> dict:
    """One fresh-interpreter run; returns its record with setup_s, worker
    spawn to its READY line, measured here, and the host probe just before
    the spawn."""
    job = {"root": str(ROOT), "spec": spec, "seed": seed, "trace": trace,
           "out_dir": str(out_dir)}
    threads = str(nproc())
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
               MKL_NUM_THREADS=threads)
    out_dir.mkdir(parents=True, exist_ok=True)
    probe_s = host_probe()
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py")], stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    watchdog = threading.Timer(timeout, proc.kill)
    watchdog.start()
    try:
        proc.stdin.write(json.dumps(job))
        proc.stdin.close()
        line = proc.stdout.readline().strip()
        if line != "READY":
            raise BenchError(f"{name} worker: expected READY, got {line[:200]!r}")
        setup_s = time.perf_counter() - t0
        tail = proc.stdout.read()
        proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        shutil.rmtree(out_dir, ignore_errors=True)
    if proc.returncode != 0 or not tail.strip():
        raise BenchError(f"{name} worker failed with exit code {proc.returncode}")
    record = json.loads(tail.strip().splitlines()[-1])
    record["setup_s"] = setup_s
    record["probe_s"].insert(0, probe_s)
    return record


def at_nominal_speed(wall_s: float, probe_s: float, exponent: float) -> float:
    """A wall time rescaled to the host speed at which the probe takes
    PROBE_NOMINAL_S.  `exponent` is how strongly the timed work follows the
    probe: 1 for interpreter-bound work, less for work bound by memory."""
    return wall_s * (PROBE_NOMINAL_S / probe_s) ** exponent


def scaled_times(worker: dict, spec: dict) -> tuple[float, list[float]]:
    """Set-up time and each study's time, each scaled by the mean of the
    probes just before and just after it.  Set-up is interpreter-bound."""
    probes = worker["probe_s"]
    setup = at_nominal_speed(worker["setup_s"], (probes[0] + probes[1]) / 2, 1.0)
    studies = [at_nominal_speed(st["wall_s"], (probes[k + 1] + probes[k + 2]) / 2,
                                spec["probe_exponent"])
               for k, st in enumerate(worker["studies"])]
    return setup, studies


def trace_totals(trace: dict) -> dict:
    """Per-label stats summed over phases."""
    totals: dict[str, dict] = {}
    for recs in trace["phases"].values():
        for label, rec in recs.items():
            tot = totals.setdefault(label, dict.fromkeys(rec, 0))
            for k in tot:
                tot[k] += rec[k]
    return totals


def layer_metrics(trace: dict) -> dict:
    totals = trace_totals(trace)
    out = {}
    for metric, label, field, unit in LAYER_METRICS:
        out[metric] = (totals.get(label, {}).get(field, 0), unit)
    for metric, label, field in CACHE_METRICS:
        out[metric] = (trace["caches"][label][field], "count")
    return out


def top_self(trace: dict) -> dict:
    """The traced function with the largest self time, per phase."""
    return {phase: max(recs, key=lambda k: recs[k]["self_s"])
            for phase, recs in trace["phases"].items() if recs}


def measure(name: str, spec: dict, seed: int, seconds: float, trace: bool) -> dict:
    """Run workers until `seconds` is spent and summarize them."""
    out_root = ROOT / ".bench_out"
    loadavg = Path("/proc/loadavg").read_text().split()[:3]
    start = time.perf_counter()
    plain, traced = [], []
    while True:
        tag = out_root / f"{name}-{os.getpid()}-{len(plain) + len(traced)}"
        plain.append(run_worker(name, spec, seed, False, tag,
                                start + RUN_LIMIT_S - time.perf_counter()))
        if trace:
            traced.append(run_worker(name, spec, seed, True, tag.with_name(tag.name + "-t"),
                                     start + RUN_LIMIT_S - time.perf_counter()))
        per_round = (time.perf_counter() - start) / len(plain)
        enough = trace or len(plain) >= MIN_WORKERS
        if enough and time.perf_counter() - start + per_round > seconds:
            break
    workers = plain + traced
    for w in workers:
        w["setup_scaled_s"], w["study_scaled_s"] = scaled_times(w, spec)
    checks = [c for w in workers for c in w["checks"]]
    digests = {w["rows_sha256"] for w in workers}
    checks.append(["same rows for the same seed", len(digests) == 1, len(workers)])
    for w in traced:
        totals = trace_totals(w["trace"])
        for label in spec["busy_layers"]:
            checks.append([f"traced {label} busy", totals.get(label, {}).get("calls", 0) > 0, label])
    failed = [c for c in checks if not c[1]]
    summary = {
        "workload": name, "seed": seed, "trace": int(trace), "workers": len(workers),
        "failed_frac": len(failed) / len(checks), "failed_checks": failed,
        "rows_sha256": sorted(digests),
        "probe_median_s": statistics.median(p for w in workers for p in w["probe_s"]),
        "per_worker": [dict({k: w[k] for k in ("setup_s", "setup_scaled_s", "probe_s", "studies",
                                               "study_scaled_s", "peak_rss_mb")},
                            traced="trace" in w) for w in workers],
    }
    if trace:
        per_worker = [layer_metrics(w["trace"]) for w in traced]
        layers = {m: (statistics.median(lm[m][0] for lm in per_worker), u)
                  for m, (_, u) in per_worker[0].items()}
        overhead = (statistics.median(t for w in traced for t in w["study_scaled_s"])
                    - statistics.median(t for w in plain for t in w["study_scaled_s"]))
        layers["trace.overhead_s"] = (overhead, "s")
        metrics = {m: {"value": v, "unit": u} for m, (v, u) in layers.items()}
        summary["top_self"] = [top_self(w["trace"]) for w in traced]
        summary["trace"] = [w["trace"] for w in traced]
    else:
        metrics = {
            "setup_s": {"value": statistics.median(w["setup_scaled_s"] for w in plain),
                        "unit": "s"},
            "study_s": {"value": statistics.median(t for w in plain for t in w["study_scaled_s"]),
                        "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(w["peak_rss_mb"] for w in plain),
                            "unit": "MB"},
            "rate": {"value": statistics.median(st["rate"] for w in plain for st in w["studies"]),
                     "unit": "1"},
        }
        summary["wall_median_s"] = {
            "setup": statistics.median(w["setup_s"] for w in plain),
            "study": statistics.median(st["wall_s"] for w in plain for st in w["studies"]),
        }
    summary["env"] = dict(plain[0]["env"], commit=git_commit(ROOT), nproc=nproc(),
                          loadavg_at_start=loadavg)
    result = {"correct": not failed, "attempted": len(checks), "failed": len(failed),
              "metrics": metrics}
    return {"summary": summary, "result": result}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "cdquad" / "__init__.py").is_file():
        print(f"perfbench: no cdquad sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        out = measure(args.workload, WORKLOADS[args.workload], args.seed, args.seconds,
                      bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    record = ROOT / ".bench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps(out, indent=1) + "\n")
    brief = {k: v for k, v in out["summary"].items() if k != "trace"}
    print("# perfbench " + json.dumps(brief))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
