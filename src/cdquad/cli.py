"""Command line entry point.

Subcommands: plan (print an allocation plan), estimate (one changing
dimension run on a bank function), study (convergence or variance table),
points (exact digit dump of a point set), selftest (fast invariant suite).
A JSON config file can supply any ExperimentConfig field; flags override it.
The accuracies of plan, estimate and a convergence study come from
--eps-grid, or from --cost-grid: each target cost becomes the accuracy
whose plan costs about that much (harness.eps_grid_for_costs).
Bad input (an unknown preset or preset option, an impossible plan, an eps,
tau or target cost that is not > 0, both --eps-grid and --cost-grid, an
invalid rule size, an unreadable config file, an unknown config field, a
seed outside [0, 2^64)) prints one `cdquad: error:` line to stderr and exits
with status 2.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from .cdalg import (
    cd_estimate,
    cost_model,
    epsilon_dimension,
    plan_cost,
    plan_grid,
)
from .harness import (
    ExperimentConfig,
    _preset_name,
    dump_points,
    eps_grid_for_costs,
    run_convergence_study,
    run_variance_study,
    selftest,
)
from .quadrature import INTERLACED_PLR, MONTE_CARLO


def _parse_spec(text: str) -> dict:
    """'product-poly,a=3' or a JSON object -> preset mapping."""
    text = text.strip()
    if text.startswith("{"):
        return json.loads(text)
    head, *opts = text.split(",")
    spec: dict = {"preset": head}
    for opt in opts:
        k, _, v = opt.partition("=")
        try:
            spec[k] = json.loads(v)
        except json.JSONDecodeError:
            spec[k] = v
    return spec


def _parse_grid(text: str, cast) -> tuple:
    return tuple(cast(t) for t in text.split(",") if t.strip())


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--config", help="JSON file with ExperimentConfig fields")
    p.add_argument("--weights", help="weight preset, e.g. product-poly,a=3")
    p.add_argument("--bank", help="bank preset, e.g. single or weights")
    p.add_argument("--chi", type=int)
    p.add_argument("--alpha", type=int, help="interlacing factor")
    p.add_argument("--base", type=int, help="digit base b")
    p.add_argument("--rule", choices=[INTERLACED_PLR, MONTE_CARLO])
    p.add_argument("--cost", help="cost model: linear, power, exp")
    p.add_argument("--tau", type=float)
    p.add_argument("--eps-grid", help="comma separated accuracies")
    p.add_argument("--cost-grid", help="comma separated plan costs, each turned into the "
                                       "accuracy whose plan costs about that much")
    p.add_argument("--n-grid", help="comma separated point counts")
    p.add_argument("--reps", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", help="output CSV path (JSON sidecar alongside)")


def _config_from(args: argparse.Namespace) -> ExperimentConfig:
    fields: dict = {}
    if args.config:
        try:
            text = Path(args.config).read_text()
        except OSError as exc:
            raise ValueError(f"cannot read config {args.config}: {exc.strerror}") from exc
        loaded = json.loads(text)
        if not isinstance(loaded, dict):
            raise ValueError(f"config {args.config} must hold a JSON object")
        unknown = sorted(set(loaded) - {f.name for f in dataclasses.fields(ExperimentConfig)})
        if unknown:
            raise ValueError(f"unknown config field(s) in {args.config}: {', '.join(unknown)}")
        fields.update(loaded)
    overrides = {
        "chi": args.chi, "alpha": args.alpha, "base": args.base,
        "rule": args.rule, "tau": args.tau, "reps": args.reps,
        "seed": args.seed, "out": args.out,
    }
    if args.weights:
        overrides["weights"] = _parse_spec(args.weights)
    if args.bank:
        overrides["bank"] = _parse_spec(args.bank) if "," in args.bank or args.bank.startswith("{") else args.bank
    if args.cost:
        spec = _parse_spec(args.cost)
        overrides["cost"] = _preset_name("cost", spec, ("linear", "power", "exp"))
        overrides["cost_params"] = spec
    if args.eps_grid:
        overrides["eps_grid"] = _parse_grid(args.eps_grid, float)
    if args.n_grid:
        overrides["n_grid"] = _parse_grid(args.n_grid, int)
    fields.update({k: v for k, v in overrides.items() if v is not None})
    if "eps_grid" in fields and fields["eps_grid"] is not None:
        fields["eps_grid"] = tuple(fields["eps_grid"])
    if "n_grid" in fields and fields["n_grid"] is not None:
        fields["n_grid"] = tuple(fields["n_grid"])
    cfg = ExperimentConfig(**fields)
    if args.cost_grid:
        if args.eps_grid:
            raise ValueError("give either --eps-grid or --cost-grid, not both")
        cfg.eps_grid = tuple(eps_grid_for_costs(
            cfg.resolve_weights(), _parse_grid(args.cost_grid, float), cfg.tau, chi=cfg.chi,
            template=cfg.template(), dollar=cost_model(cfg.cost, **cfg.cost_params)))
    return cfg


def _plans(cfg: ExperimentConfig):
    return plan_grid(cfg.resolve_weights(), cfg.eps_grid, cfg.tau, chi=cfg.chi,
                     template=cfg.template())


def _cmd_plan(args) -> int:
    cfg = _config_from(args)
    if not cfg.eps_grid:
        print("plan: need --eps-grid (one or more accuracies) or --cost-grid", file=sys.stderr)
        return 2
    dollar = cost_model(cfg.cost, **cfg.cost_params)
    for eps, plan in zip(cfg.eps_grid, _plans(cfg)):
        print(f"# eps={eps} |Q|={len(plan.Q)} d(eps)={epsilon_dimension(plan)} "
              f"cost={plan_cost(plan, dollar):.6g}")
        if args.full:
            print(plan.to_json())
    return 0


def _cmd_estimate(args) -> int:
    cfg = _config_from(args)
    if not cfg.eps_grid:
        print("estimate: need --eps-grid (one or more accuracies) or --cost-grid",
              file=sys.stderr)
        return 2
    bank = cfg.resolve_bank()
    f = bank.integrand()
    dollar = cost_model(cfg.cost, **cfg.cost_params)
    for eps, plan in zip(cfg.eps_grid, _plans(cfg)):
        est, ledger = cd_estimate(f, plan, cfg.seed, dollar)
        print(f"eps={eps} estimate={est!r} exact={bank.integral!r} "
              f"error={est - bank.integral:.6e} cost={ledger.total:.6g}")
    return 0


def _cmd_study(args) -> int:
    cfg = _config_from(args)
    if cfg.eps_grid and cfg.n_grid:
        print("study: give either --eps-grid or --n-grid, not both", file=sys.stderr)
        return 2
    if cfg.eps_grid:
        res = run_convergence_study(cfg)
    elif cfg.n_grid:
        res = run_variance_study(cfg)
    else:
        print("study: need --eps-grid (convergence) or --n-grid (variance)",
              file=sys.stderr)
        return 2
    cols = list(res.rows[0].keys())
    print("\t".join(cols))
    for row in res.rows:
        print("\t".join(f"{row[c]:.6g}" if isinstance(row[c], float) else str(row[c])
                        for c in cols))
    print(f"# slope = {res.slope:.4f} +/- {res.slope_stderr:.4f}")
    if cfg.out:
        print(f"# wrote {cfg.out} and {cfg.out}.meta.json")
    return 0


def _cmd_points(args) -> int:
    seed = args.seed if args.scramble else None
    lines = dump_points(args.base, args.m, args.s, alpha=args.alpha, seed=seed)
    text = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_selftest(args) -> int:
    return 0 if selftest() else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="cdquad")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("plan", help="print allocation plans for an eps grid")
    _add_common(p)
    p.add_argument("--full", action="store_true", help="print full plan JSON")
    p.set_defaults(fn=_cmd_plan)

    p = sub.add_parser("estimate", help="one changing dimension estimate")
    _add_common(p)
    p.set_defaults(fn=_cmd_estimate)

    p = sub.add_parser("study", help="convergence or variance table")
    _add_common(p)
    p.set_defaults(fn=_cmd_study)

    p = sub.add_parser("points", help="dump a point set as digit strings")
    p.add_argument("--base", type=int, default=2)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--alpha", type=int, default=1)
    p.add_argument("--scramble", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_points)

    p = sub.add_parser("selftest", help="run the fast invariant suite")
    p.set_defaults(fn=_cmd_selftest)

    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, KeyError) as exc:
        # bad input (planning errors included) is a usage error, not a crash
        msg = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"cdquad: error: {msg}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
