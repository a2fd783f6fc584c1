"""One measured run of a workload in a fresh interpreter.

Reads a job as JSON on stdin, imports cdquad from the checkout's `src` and
sets the workload up.  It writes `READY` to stdout once set-up is done, so
the parent process times set-up from outside the program.  It then runs the
workload's study `studies` times, each with its own seed, times each call
and times the host probe before the first study and after every study.  The
last line is a JSON record with those times, the output checks, the fitted
rates, the peak RSS of this process, the environment and, for a traced job,
the per-layer trace.

The host probe is a fixed piece of Python and numpy work that does not
touch cdquad.  The host this benchmark runs on is shared, and its speed
moves by up to half for tens of seconds at a time; the probe measures that
speed next to each study, so run.py can rescale the times to a fixed host
speed.

Each check is one operation of the benchmark: the paper's rate gates, one
finiteness check per study row, rmse2 >= bias2 per row against the bank's
exact bias, plans that match the study rows and, for the CLI workload, the
CSV and metadata read back.  A workload whose plans or rule shapes differ
from its recorded identity raises, so a planner change cannot silently
shrink it.
"""

from __future__ import annotations

import contextlib
import csv
import ctypes
import dataclasses
import hashlib
import io
import json
import math
import platform
import resource
import sys
import time
from pathlib import Path

PROTOCOL = sys.stdout

#: the host probe's time in the slower spells of a 2-vCPU Intel Xeon VM (it
#: takes 0.1 s in the faster ones); study and set-up times are reported as if
#: every probe had taken this long
PROBE_NOMINAL_S = 0.2


def emit(line: str):
    PROTOCOL.write(line + "\n")
    PROTOCOL.flush()


def host_probe() -> float:
    """Seconds taken by fixed interpreter and numpy work, independent of
    cdquad: a proxy for the host's speed at this moment.  The numpy part
    works in place, so the time does not depend on the allocator's state."""
    import numpy as np

    a = np.arange(1 << 16, dtype=np.uint64)
    t = np.empty_like(a)
    t0 = time.perf_counter()
    x, last = 0, {}
    for i in range(300_000):
        x = _lcg(x, i)
        last[i & 1023] = x
    for _ in range(600):
        np.right_shift(a, np.uint64(29), out=t)
        np.multiply(a, np.uint64(0x9E3779B97F4A7C15), out=a)
        np.bitwise_xor(a, t, out=a)
    return time.perf_counter() - t0


def _lcg(x: int, i: int) -> int:
    return (x * 6364136223846793005 + i) & 0xFFFFFFFFFFFFFFFF


def study_seed(seed: int, k: int) -> int:
    """Master seed of study k of a run with the given seed."""
    return 1000 * seed + k


def rows_sha256(rows) -> str:
    return hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest()


def ols_slope(x, y) -> float:
    """Least-squares slope, computed here rather than by cdquad so that the
    sidecar's slope is checked independently."""
    mx, my = sum(x) / len(x), sum(y) / len(y)
    return (sum((a - mx) * (b - my) for a, b in zip(x, y))
            / sum((a - mx) ** 2 for a in x))


def finite_row(row) -> bool:
    return all(math.isfinite(v) for v in row.values() if isinstance(v, (int, float)))


class Convergence:
    """RMSE^2 against plan cost over fixed eps levels (acceptance criterion 5),
    run through the library API or through `cdquad study`."""

    def __init__(self, spec: dict, out_dir: Path):
        self.spec = spec
        self.out = out_dir / "study.csv"

    def setup(self):
        from cdquad.cdalg import PlannerConstants, RuleTemplate, cost_model, plan_build, plan_cost
        from cdquad.harness import ExperimentConfig
        from cdquad.quadrature import default_generating_vector

        s = self.spec
        self.eps = tuple(level["eps"] for level in s["levels"])
        self.cfg = ExperimentConfig(weights=s["weights"], eps_grid=self.eps, tau=s["tau"],
                                    alpha=s["alpha"], reps=s["reps"])
        w = self.cfg.resolve_weights()
        self.bank = self.cfg.resolve_bank()
        tpl = RuleTemplate(kind=self.cfg.rule, alpha=self.cfg.alpha, b=self.cfg.base)
        dollar = cost_model(self.cfg.cost)
        self.plans = []
        shapes = set()
        for level in s["levels"]:
            consts = PlannerConstants.for_weights(w, level["eps"], self.cfg.tau, chi=self.cfg.chi)
            plan = plan_build(w, consts, tpl)
            got = {"eps": level["eps"], "q_size": len(plan.Q),
                   "plan_cost": plan_cost(plan, dollar),
                   "max_n": max(plan.allocations.values())}
            if got != level:
                raise RuntimeError(f"plan differs from the workload identity: {got} != {level}")
            self.plans.append(plan)
            shapes.update((n.bit_length() - 1, tpl.alpha * len(u), tpl.alpha)
                          for u, n in plan.allocations.items() if n > 1)
        if sorted(shapes) != [tuple(x) for x in s["rule_shapes"]]:
            raise RuntimeError(f"rule shapes differ from the workload identity: {sorted(shapes)}")
        for m, dim, alpha in sorted(shapes):
            default_generating_vector(tpl.b, m, dim, alpha)

    def study(self, seed: int):
        self.seed = seed
        if self.spec["via"] == "library":
            from cdquad.harness import run_convergence_study

            res = run_convergence_study(dataclasses.replace(self.cfg, seed=seed))
            self.rows, self.slope = res.rows, res.slope
            return
        from cdquad import cli

        s = self.spec
        argv = ["study", "--weights", s["weights_flag"],
                "--eps-grid", ",".join(repr(e) for e in self.eps),
                "--tau", repr(s["tau"]), "--alpha", str(s["alpha"]),
                "--reps", str(s["reps"]), "--seed", str(self.seed), "--out", str(self.out)]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            self.status = cli.main(argv)
        self.printed = buf.getvalue()

    def check(self):
        checks = []
        if self.spec["via"] == "cli":
            checks += self._read_back()
        for plan, row in zip(self.plans, self.rows):
            bias2 = self.bank.plan_bias(plan.Q) ** 2
            checks.append(("row finite", finite_row(row), row["eps"]))
            checks.append(("rmse2 >= bias2", row["rmse2"] >= bias2, row["eps"]))
            checks.append(("row matches plan", row["q_size"] == len(plan.Q), row["eps"]))
        checks.append(("one row per level", len(self.rows) == len(self.plans), len(self.rows)))
        checks.append(("criterion-5 slope", self.slope <= self.spec["slope_max"], self.slope))
        return checks, -self.slope, self.rows

    def _read_back(self):
        """Rows from the CSV `cdquad study` wrote, checked against its printed
        table and its .meta.json sidecar."""
        with self.out.open(newline="") as fh:
            table = list(csv.DictReader(fh))
        meta = json.loads(self.out.with_suffix(".csv.meta.json").read_text())
        self.rows = [{k: (int(v) if k in ("q_size", "d_eps") else float(v)) for k, v in r.items()}
                     for r in table]
        self.slope = meta["slope"]
        printed = [line.split("\t") for line in self.printed.splitlines()
                   if line and not line.startswith("#")]
        cols = list(self.rows[0]) if self.rows else []
        shown = [[f"{row[c]:.6g}" if isinstance(row[c], float) else str(row[c]) for c in cols]
                 for row in self.rows]
        refit = ols_slope([math.log(r["plan_cost"]) for r in self.rows],
                          [math.log(r["rmse2"]) for r in self.rows])
        cfg = meta["config"]
        return [
            ("cli exit status", self.status == 0, self.status),
            ("csv matches printed table", printed == [cols] + shown, len(printed)),
            ("meta slope matches csv", math.isclose(refit, self.slope, rel_tol=1e-9), refit),
            ("meta config matches job",
             (tuple(cfg["eps_grid"]), cfg["reps"], cfg["seed"]) == (self.eps, self.spec["reps"], self.seed),
             cfg["seed"]),
        ]


class BlockVariance:
    """Variance of one interlaced rule against n, plus the Monte Carlo
    baseline on the same grid (acceptance criterion 4)."""

    def __init__(self, spec: dict, out_dir: Path):
        self.spec = spec

    def setup(self):
        from cdquad.harness import ExperimentConfig
        from cdquad.quadrature import default_generating_vector

        s = self.spec
        d = len(ExperimentConfig(bank=s["bank"]).resolve_bank().active)
        grid = tuple(s["n_grid"])
        self.plr = ExperimentConfig(bank=s["bank"], rule="plr", alpha=s["alpha"], chi=1,
                                    n_grid=grid, reps=s["reps"])
        self.mc = ExperimentConfig(bank=s["bank"], rule="mc", n_grid=grid, reps=s["reps"])
        shapes = [(n.bit_length() - 1, d * s["alpha"], s["alpha"]) for n in grid]
        if shapes != [tuple(x) for x in s["rule_shapes"]]:
            raise RuntimeError(f"rule shapes differ from the workload identity: {shapes}")
        for m, dim, alpha in shapes:
            default_generating_vector(2, m, dim, alpha)

    def study(self, seed: int):
        from cdquad.harness import run_variance_study

        self.res_plr = run_variance_study(dataclasses.replace(self.plr, seed=seed))
        self.res_mc = run_variance_study(dataclasses.replace(self.mc, seed=seed))

    def check(self):
        s = self.spec
        checks = []
        for label, res in (("plr", self.res_plr), ("mc", self.res_mc)):
            checks.append((f"{label} one row per n", len(res.rows) == len(s["n_grid"]), len(res.rows)))
            for row in res.rows:
                checks.append((f"{label} row finite", finite_row(row) and row["variance"] > 0,
                               row["n"]))
        checks.append(("criterion-4 plr slope", self.res_plr.slope <= s["plr_slope_max"],
                       self.res_plr.slope))
        checks.append(("criterion-4 mc slope",
                       abs(self.res_mc.slope + 1.0) <= s["mc_slope_tol"], self.res_mc.slope))
        rows = {"plr": self.res_plr.rows, "mc": self.res_mc.rows}
        return checks, -self.res_plr.slope, rows


KINDS = {"convergence": Convergence, "variance": BlockVariance}


def openblas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None."""
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return fn()
    return None


def main():
    job = json.loads(sys.stdin.read())
    root = Path(job["root"])
    sys.path.insert(0, str(root / "src"))
    import numpy
    import cdquad

    if Path(cdquad.__file__).resolve().parent != (root / "src" / "cdquad").resolve():
        raise RuntimeError(f"imported cdquad from {cdquad.__file__}, not from the checkout")
    tracer = None
    if job["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    spec = job["spec"]
    workload = KINDS[spec["kind"]](spec, Path(job["out_dir"]))
    workload.setup()
    emit("READY")
    if tracer:
        tracer.phase = "study"
    probe_s = [host_probe()]
    studies, checks, rows = [], [], []
    for k in range(spec["studies"]):
        t0 = time.perf_counter()
        workload.study(study_seed(job["seed"], k))
        wall_s = time.perf_counter() - t0
        probe_s.append(host_probe())
        study_checks, rate, study_rows = workload.check()
        studies.append({"wall_s": wall_s, "rate": rate})
        checks += study_checks
        rows.append(study_rows)
    record = {
        "probe_s": probe_s,
        "studies": studies,
        "checks": checks,
        "rows_sha256": rows_sha256(rows),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": {"python": platform.python_version(), "numpy": numpy.__version__,
                "openblas_threads": openblas_threads()},
    }
    if tracer:
        record["trace"] = tracer.report()
    emit(json.dumps(record))


if __name__ == "__main__":
    main()
