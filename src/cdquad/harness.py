"""Experiment harness: analytic test integrands, convergence and variance
studies with rate fitting, and exact point dumps.

The test-integrand bank is built from products of the Bernoulli polynomial
B_2/2, which has zero mean on [0,1], so every component is an explicit ANOVA
term and the integral of the whole function is just the constant coefficient.

A study does its eps-free work once: its config builds the weights and the
bank, and a convergence study computes the planner constants and enumerates
the active sets once, at its smallest eps, then filters every plan of its
grid from that enumeration (cdalg.plan_grid).  eps_grid_for_costs bisects for
the accuracy of each target cost on plans filtered from one enumeration,
made anew only when a step goes below every earlier one; a plan past the
hard cap of MAX_ACTIVE_SETS active sets, and every smaller eps, counts as
infinite cost, and a target that no plan within the cap reaches is a
PlanningError.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import operator
from dataclasses import asdict, dataclass, field, replace
from functools import cached_property
from pathlib import Path
from types import MappingProxyType
from typing import Callable, Mapping, Sequence

import numpy as np

from . import cdalg
from .cdalg import (
    CostModel,
    Enumeration,
    PlannerConstants,
    PlanningError,
    RuleTemplate,
    _preset_options,
    cd_estimate_many,
    cost_model,
    epsilon_dimension,
    plan_build,
    plan_cost,
    plan_grid,
)
from .decomp import Anchor, BlackBoxIntegrand, bias_squared
from .kernels import bernoulli, kernel_diag
from .lattice import GeneratingVector, plr_points
from .prf import derive_seed
from .quadrature import (
    INTERLACED_PLR,
    RuleSpec,
    default_generating_vector,
    _scrambled_rule,
    empirical_variance,
    rule_keys,
)
from .scramble import check_base
from .weights import (
    ExplicitWeights,
    FiniteProductWeights,
    ProductWeights,
    Truncation,
    WeightModel,
    disjoint_pair_weights,
    downward_closure,
)

__all__ = [
    "BankFunction",
    "ExperimentConfig",
    "StudyResult",
    "bank_preset",
    "bank_from_weights",
    "weight_preset",
    "run_convergence_study",
    "run_variance_study",
    "eps_grid_for_costs",
    "dump_points",
    "ols_slope",
    "selftest",
]

def _eta(x):
    return bernoulli(2, x) / 2.0


# the 6-point Gauss-Legendre rule on [-1, 1], as numpy.polynomial.legendre.leggauss(6)
# gives it, for BankFunction._validate
_GL6_NODES = (-0.9324695142031519, -0.6612093864662645, -0.2386191860831969,
              0.2386191860831969, 0.6612093864662645, 0.9324695142031519)
_GL6_WEIGHTS = (0.17132449237917027, 0.3607615730481387, 0.46791393457269104,
                0.46791393457269104, 0.3607615730481387, 0.17132449237917027)


def _normalize_coeffs(coeffs: Mapping) -> dict[frozenset, float]:
    out = {}
    for u, c in coeffs.items():
        key = frozenset(int(j) for j in u)
        if any(j < 1 for j in key):
            raise ValueError("coordinate labels start at 1")
        out[key] = float(c)
    return out


def _bank_eval(coeffs: Mapping[frozenset, float], sets, x: np.ndarray, anchor_value):
    # the bank's evaluator: eta of each point coordinate once, when its
    # coordinate is first read.  A coordinate that every set holds is eta of
    # its column, a fresh (K, N) array; one that no set holds is the scalar
    # eta(a); one that only some rows hold is an eta(a)-filled array with
    # those rows' etas written in.  Each product runs left to right in sorted
    # coordinate order, in place on its own fresh array
    held: dict = {}  # coordinate -> {column: rows holding it there}
    for k, s in enumerate(sets):
        for i, j in enumerate(s):
            held.setdefault(j, {}).setdefault(i, []).append(k)
    eta_a = _eta(anchor_value)
    etas: dict = {}
    total = coeffs.get(frozenset(), 0.0)
    for u, c in coeffs.items():
        if not u:
            continue
        term = c
        for j in sorted(u):
            if j not in etas:
                where = held.get(j, {})
                i, rows = next(iter(where.items()), (0, ()))
                if len(rows) == len(sets):  # every set holds j, so all in column i
                    etas[j] = _eta(x[:, :, i])
                elif not where:
                    etas[j] = eta_a
                else:
                    etas[j] = np.full(x.shape[:2], eta_a)
                    for i, rows in where.items():
                        etas[j][rows] = _eta(x[rows, :, i])
            term *= etas[j]
        total += term
    return total


@dataclass(frozen=True)
class BankFunction:
    """Test integrand f = sum_u c_u prod_{j in u} B_2(x_j)/2 with exact
    integral c_empty; every component is mean-zero per active coordinate."""

    name: str
    coeffs: dict

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _normalize_coeffs(self.coeffs))
        self._validate()

    @property
    def integral(self) -> float:
        return self.coeffs.get(frozenset(), 0.0)

    @property
    def active(self) -> tuple[int, ...]:
        return tuple(sorted(set().union(*self.coeffs.keys()))) if self.coeffs else ()

    def kappa_table(self, anchor_value) -> dict:
        """{sorted u: kappa_u} with kappa_u = sum over v containing u of
        c_v eta(a)^{|v|-|u|}, one exact fsum per u in the closure of the
        coefficient sets; every other u has no terms, so kappa_u = 0."""
        eta_a = float(_eta(anchor_value))
        terms: dict = {}
        for v, c in self.coeffs.items():
            for r in range(len(v) + 1):
                for u in itertools.combinations(sorted(v), r):
                    terms.setdefault(u, []).append(c * eta_a ** (len(v) - r))
        return {u: math.fsum(ts) for u, ts in terms.items()}

    @cached_property
    def _per_anchor(self) -> dict:
        """anchor value -> (kappa_table, plan_bias terms), each built once."""
        return {}

    def _anchor_tables(self, anchor_value) -> tuple[dict, list]:
        """kappa_table(anchor_value), and (v, I(f_{v,a})) for every v in
        the downward closure of the coefficient sets."""
        tables = self._per_anchor.get(anchor_value)
        if tables is None:
            eta_a = float(_eta(anchor_value))
            kappa = self.kappa_table(anchor_value)
            terms = [(v, (-eta_a) ** len(v) * kappa.get(tuple(sorted(v)), 0.0))
                     for v in downward_closure(self.coeffs)]
            tables = self._per_anchor[anchor_value] = (kappa, terms)
        return tables

    def integrand(self) -> BlackBoxIntegrand:
        coeffs = self.coeffs

        def anchored(sets, x, av):
            # for a sum of products the u-anchored component collapses to
            # kappa_u times prod_{j in u} (eta(x_j) - eta(a)), multiplied left
            # to right in sorted coordinate order
            table = self._anchor_tables(av)[0]
            term = np.array([table.get(u, 0.0) for u in sets])[:, None]
            factors = _eta(x) - float(_eta(av))
            for i in range(x.shape[2]):
                term = term * factors[:, :, i]
            return np.broadcast_to(term, x.shape[:2])

        return BlackBoxIntegrand(
            evaluator=lambda sets, x, av: _bank_eval(coeffs, sets, x, av),
            anchored=anchored,
        )

    def plan_bias(self, Q, anchor_value: float = 0.5) -> float:
        """Exact bias of a changing dimension estimator with active family Q:
        I(f) minus the sum of anchored-component integrals over Q, where
        I(f_{v,a}) = (-eta(a))^{|v|} kappa_v."""
        Q = {frozenset(q) for q in Q}
        return math.fsum(term for v, term in self._anchor_tables(anchor_value)[1] if v not in Q)

    def _validate(self, tol: float = 1e-10):
        # brute-force check of the analytic integral on the active cube;
        # above 4 active coordinates, check a 4-variable restriction instead
        active = self.active
        nodes = (np.array(_GL6_NODES) + 1) / 2
        wts = np.array(_GL6_WEIGHTS) / 2
        if len(active) <= 4:
            v = active
            expected = self.integral
        else:
            v = active[:4]
            eta_a = float(_eta(0.5))
            expected = math.fsum(
                c * eta_a ** len(u)
                for u, c in self.coeffs.items()
                if not (u & frozenset(v))
            )
        if not v:
            got = self.coeffs.get(frozenset(), 0.0)
        else:
            x = np.stack(np.meshgrid(*([nodes] * len(v)), indexing="ij"), axis=-1)
            wgrids = np.meshgrid(*([wts] * len(v)), indexing="ij")
            weight = np.prod([w.ravel() for w in wgrids], axis=0)
            vals = _bank_eval(self.coeffs, [v], x.reshape(1, -1, len(v)), 0.5)[0]
            got = float(np.sum(vals * weight))
        if abs(got - expected) > tol:
            raise ValueError(
                f"bank function {self.name!r}: quadrature check failed "
                f"({got} vs {expected})"
            )


def bank_from_weights(w: WeightModel, max_index: int = 8, max_order: int = 3,
                      name: str = "weights") -> BankFunction:
    """Bank function whose coefficients follow the weight model: c_u = gamma_u
    over a finite enumeration of the support, plus a unit constant."""
    coeffs: dict = {frozenset(): 1.0}
    if w.has_finite_support():
        for u in w.support_closure():
            if u and w.gamma(u) > 0:
                coeffs[u] = w.gamma(u)
    else:
        pool = range(1, max_index + 1)
        for k in range(1, max_order + 1):
            for u in itertools.combinations(pool, k):
                g = w.gamma(frozenset(u))
                if g > 0:
                    coeffs[frozenset(u)] = g
    return BankFunction(name, coeffs)


_BANK_PRESETS: dict[str, Callable[[], BankFunction]] = {
    "constant": lambda: BankFunction("constant", {frozenset(): 1.0}),
    "single": lambda: BankFunction("single", {frozenset({1}): 1.0}),
    "orthogonal2": lambda: BankFunction(
        "orthogonal2", {frozenset({1}): 1.0, frozenset({2}): 1.0}
    ),
    "pair": lambda: BankFunction(
        "pair",
        {frozenset(): 1.0, frozenset({1}): 1.0, frozenset({2}): 0.7,
         frozenset({1, 2}): 0.5},
    ),
}


def bank_preset(spec) -> BankFunction:
    """Resolve a bank function from a preset name or a config mapping."""
    if isinstance(spec, BankFunction):
        return spec
    if isinstance(spec, str):
        try:
            return _BANK_PRESETS[spec]()
        except KeyError:
            raise KeyError(f"unknown bank preset {spec!r}") from None
    spec = dict(spec)
    name = _preset_name("bank", spec, (*_BANK_PRESETS, "weights", "explicit"))
    if name == "weights":
        # the weights option is a weight preset, which weight_preset checks
        opts = _preset_options("bank", name, spec, {
            "weights": weight_preset, "max_index": operator.index, "max_order": operator.index, "name": str},
            required=("weights",))
        return bank_from_weights(opts.pop("weights"), **opts)
    if name == "explicit":
        opts = _preset_options("bank", name, spec, {"coeffs": MappingProxyType, "name": str},
                               required=("coeffs",))
        coeffs = {_parse_coordset(k): float(v) for k, v in opts["coeffs"].items()}
        return BankFunction(opts.get("name", "explicit"), coeffs)
    bank = bank_preset(name)
    _preset_options("bank", name, spec, {})
    return bank


def _parse_coordset(key: str) -> frozenset:
    key = key.strip()
    if not key or key in ("()", "{}", "empty"):
        return frozenset()
    return frozenset(int(t) for t in key.replace("{", "").replace("}", "").split(","))


def _preset_name(kind: str, spec: dict, known) -> str:
    """Pop the preset name of a config mapping."""
    if "preset" not in spec:
        raise ValueError(f"a {kind} mapping needs a 'preset' key, one of {', '.join(known)}")
    return spec.pop("preset")


def weight_preset(spec) -> WeightModel:
    """Resolve a weight model from a config mapping like
    {"preset": "product-poly", "a": 3.0}."""
    if isinstance(spec, WeightModel):
        return spec
    if isinstance(spec, str):
        spec = {"preset": spec}
    spec = dict(spec)
    name = _preset_name("weight", spec,
                        ("product-poly", "finite-product-poly", "disjoint-pairs", "explicit"))
    if name == "product-poly":
        opts = _preset_options("weight", name, spec, {"a": float, "c": float})
        return ProductWeights.polynomial(opts.get("a", 3.0), opts.get("c", 1.0))
    if name == "finite-product-poly":
        opts = _preset_options("weight", name, spec, {"order": operator.index, "a": float, "c": float})
        return FiniteProductWeights.polynomial(
            opts.get("order", 2), opts.get("a", 3.0), opts.get("c", 1.0)
        )
    if name == "disjoint-pairs":
        opts = _preset_options("weight", name, spec, {"a": float, "count": operator.index})
        return disjoint_pair_weights(opts.get("a", 3.0), opts.get("count", 50))
    if name == "explicit":
        opts = _preset_options("weight", name, spec, {"table": MappingProxyType}, required=("table",))
        return ExplicitWeights({_parse_coordset(k): float(v) for k, v in opts["table"].items()})
    raise KeyError(f"unknown weight preset {name!r}")


@dataclass
class ExperimentConfig:
    """One study: which weights/bank, which rule, which grid, how many reps.

    The weight model and the bank are resolved once, at construction (use
    dataclasses.replace for a config with other weights or bank)."""

    weights: dict = field(default_factory=lambda: {"preset": "product-poly", "a": 3.0})
    bank: object | None = None  # None -> derived from weights
    chi: int = 1
    alpha: int = 2
    base: int = 2
    rule: str = INTERLACED_PLR
    cost: str = "linear"
    cost_params: dict = field(default_factory=dict)
    tau: float = 2.5
    eps_grid: tuple[float, ...] | None = None
    n_grid: tuple[int, ...] | None = None
    reps: int = 50
    seed: int = 0
    out: str | None = None

    def __post_init__(self):
        if self.reps < 2:
            raise ValueError("need at least 2 replications")
        if not isinstance(self.seed, (int, np.integer)) or not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must be an integer in [0, 2^64), got {self.seed!r}")
        # fail fast on bad preset names and rule parameters, before any
        # planning; the weights and the bank are built here, once per config
        self.template()
        self._weights = weight_preset(self.weights)
        self._bank = (bank_from_weights(self._weights) if self.bank is None
                      else bank_preset(self.bank))
        cost_model(self.cost, **self.cost_params)

    def template(self) -> RuleTemplate:
        return RuleTemplate(kind=self.rule, alpha=self.alpha, b=self.base)

    def resolve_weights(self) -> WeightModel:
        """The weight model, built at construction."""
        return self._weights

    def resolve_bank(self) -> BankFunction:
        """The bank, built at construction (from the weights when bank is
        None), so its kappa tables are computed once per config."""
        return self._bank

    def to_jsonable(self) -> dict:
        d = asdict(self)
        if isinstance(self.bank, BankFunction):
            d["bank"] = {
                "preset": "explicit",
                "name": self.bank.name,
                "coeffs": {",".join(map(str, sorted(u))): c
                           for u, c in self.bank.coeffs.items()},
            }
        return d


def ols_slope(x: Sequence[float], y: Sequence[float]) -> tuple[float, float]:
    """Least-squares slope of y on x with its standard error."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if len(x) < 2:
        raise ValueError("need at least two points to fit a slope")
    xc = x - x.mean()
    sxx = float(xc @ xc)
    slope = float(xc @ y) / sxx
    resid = y - y.mean() - slope * xc
    dof = len(x) - 2
    se = math.sqrt(float(resid @ resid) / dof / sxx) if dof > 0 else float("nan")
    return slope, se


def _log_slope(points) -> tuple[float, float]:
    """ols_slope of log y on log x over the (x, y) pairs with y > 0; NaN and
    NaN when those pairs hold fewer than two distinct x."""
    usable = [(x, y) for x, y in points if y > 0]
    if len({x for x, _ in usable}) < 2:
        return float("nan"), float("nan")
    return ols_slope([math.log(x) for x, _ in usable], [math.log(y) for _, y in usable])


@dataclass
class StudyResult:
    kind: str
    rows: list[dict]
    slope: float
    slope_stderr: float
    config: ExperimentConfig

    def write(self, path: str | Path):
        """CSV table plus a JSON metadata sidecar; byte-stable per seed."""
        from . import __version__

        path = Path(path)
        fieldnames = list(self.rows[0].keys())
        with path.open("w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=fieldnames)
            writer.writeheader()
            writer.writerows(self.rows)
        meta = {
            "kind": self.kind,
            "slope": self.slope,
            "slope_stderr": self.slope_stderr,
            "config": self.config.to_jsonable(),
            "version": __version__,
        }
        path.with_suffix(path.suffix + ".meta.json").write_text(
            json.dumps(meta, indent=2, sort_keys=True) + "\n"
        )


def run_convergence_study(cfg: ExperimentConfig) -> StudyResult:
    """RMSE vs cost across the eps grid: plan (every plan filtered from one
    enumeration, made at the smallest eps; see cdalg.plan_grid), replicate
    the changing dimension estimator under R master seeds, compare against
    the analytic integral, and fit the log-log slope."""
    if not cfg.eps_grid:
        raise ValueError("convergence study needs an eps grid")
    w = cfg.resolve_weights()
    bank = cfg.resolve_bank()
    f = bank.integrand()
    dollar = cost_model(cfg.cost, **cfg.cost_params)
    anchor = Anchor()
    k_aa = kernel_diag(cfg.chi, anchor.value)
    rows = []
    plans = plan_grid(w, cfg.eps_grid, cfg.tau, chi=cfg.chi, template=cfg.template())
    for eps, plan in zip(cfg.eps_grid, plans):
        cost = plan_cost(plan, dollar)
        seeds = [derive_seed(cfg.seed, "study", f"{eps:.12e}", r)
                 for r in range(cfg.reps)]
        ests, _ = cd_estimate_many(f, plan, seeds, dollar)
        err2 = (ests - bank.integral) ** 2
        rmse2 = float(err2.mean())
        stderr = float(err2.std(ddof=1)) / math.sqrt(cfg.reps)
        bound = bias_squared(plan.Q, w, k_aa, Truncation())
        b2 = bank.plan_bias(plan.Q, anchor.value) ** 2
        rows.append({
            "eps": eps,
            "q_size": len(plan.Q),
            "d_eps": epsilon_dimension(plan),
            "plan_cost": cost,
            "rmse2": rmse2,
            "rmse": math.sqrt(rmse2),
            "stderr_rmse2": stderr,
            "bias2": b2,
            "bias2_bound": bound,
        })
    slope, se = _log_slope((r["plan_cost"], r["rmse2"]) for r in rows)
    result = StudyResult("convergence", rows, slope, se, cfg)
    if cfg.out:
        result.write(cfg.out)
    return result


def run_variance_study(cfg: ExperimentConfig) -> StudyResult:
    """Variance of a single randomized rule vs n on the bank function's
    active coordinates; the Monte Carlo kind gives the slope -1 baseline.
    The slope is fitted over the rows of positive variance, and is NaN when
    they hold fewer than two distinct n (a one-point n grid, say)."""
    if not cfg.n_grid:
        raise ValueError("variance study needs an n grid")
    bank = cfg.resolve_bank()
    coords = bank.active
    if not coords:
        raise ValueError("bank function has no active coordinates")
    evaluator = bank.integrand().evaluator

    def g(pts):  # f on (n, |coords|) points, one set of K = 1
        return evaluator([coords], pts[None], 0.5)[0]

    rows = []
    for n in cfg.n_grid:
        spec = RuleSpec(cfg.rule, coords, int(n),
                        seed=derive_seed(cfg.seed, "var", int(n)),
                        alpha=cfg.alpha, b=cfg.base)
        est = empirical_variance(spec, g, cfg.reps)
        rows.append({
            "n": int(n),
            "mean": est.mean,
            "variance": est.variance,
            "stderr_mean": est.stderr_mean,
            "stderr_variance": est.stderr_variance,
        })
    slope, se = _log_slope((r["n"], r["variance"]) for r in rows)
    result = StudyResult("variance", rows, slope, se, cfg)
    if cfg.out:
        result.write(cfg.out)
    return result


def eps_grid_for_costs(
    w: WeightModel,
    targets: Sequence[float],
    tau: float,
    chi: int = 1,
    template: RuleTemplate | None = None,
    dollar: CostModel | None = None,
    lo: float = 1e-8,
    hi: float = 100.0,
) -> list[float]:
    """For each target cost, bisect (in log eps) for the accuracy whose plan
    costs roughly that much.  Plan cost is nonincreasing in eps.  Each step
    plans from one Enumeration, made anew only when a step goes below every
    earlier one.  A plan past the hard cap of MAX_ACTIVE_SETS active sets
    counts as infinite cost, and so does every smaller eps, as plans only
    grow as eps falls.  A target is a PlanningError unless some eps tried
    plans within the cap at a cost at least as large: else every plan down
    to lo costs less, or those that would cost that much are past the cap.
    An infinite target, which no plan costs, is one at once."""
    template = template or RuleTemplate()
    dollar = dollar or cost_model("linear")
    if not all(t > 0 for t in targets):  # written so that NaN fails too
        raise ValueError(f"target costs must be > 0, got {list(targets)}")
    if math.inf in targets:  # else found only after a long walk down to the cap
        raise PlanningError("no plan reaches the target cost inf: every plan costs a finite amount")
    consts = PlannerConstants.for_weights(w, hi, tau, chi=chi)
    past_cap = 0.0  # the largest eps known to plan past the cap
    enum = None

    def cost_at(eps: float) -> float:
        nonlocal past_cap, enum
        if eps <= past_cap:
            return math.inf
        try:
            if enum is None or eps**2 < enum.low:
                enum = Enumeration(w, replace(consts, eps=eps))
            plan = plan_build(w, replace(consts, eps=eps), template, enum)
        except PlanningError:
            # past the cap: more than any target, but it reaches none
            past_cap = eps
            return math.inf
        return plan_cost(plan, dollar)

    def at_least(eps: float, target: float) -> bool:
        nonlocal reached
        cost = cost_at(eps)
        reached |= target <= cost < math.inf
        return cost >= target

    out = []
    for target in targets:
        reached = False  # whether an eps tried plans at a finite cost >= target
        a, b_ = math.log(lo), math.log(hi)
        if at_least(math.exp(b_), target):
            eps = math.exp(b_)
        else:
            for _ in range(40):
                mid = (a + b_) / 2
                if at_least(math.exp(mid), target):
                    a = mid
                else:
                    b_ = mid
            eps = math.exp((a + b_) / 2)
        if not reached:
            raise PlanningError(
                f"no plan reaches the target cost {target}: every eps down to lo = {lo} "
                f"plans at less, or past the hard cap of {cdalg.MAX_ACTIVE_SETS} active sets")
        out.append(eps)
    return out


def dump_points(
    b: int,
    m: int,
    s: int,
    alpha: int = 1,
    seed: int | None = None,
    gv: GeneratingVector | None = None,
) -> list[str]:
    """Emit the (interlaced, scrambled) point set as exact base-b digit
    strings, one point per line, coordinates space-separated.  seed=None
    means identity scramble (the raw interlaced net); a seed draws the key of
    rule_points(RuleSpec("plr", (1..s), b^m, seed, alpha)) at index 0, so
    with the default vector the digits read as floats are that point set."""
    check_base(b)
    if gv is None:
        gv = default_generating_vector(b, m, s * alpha, alpha)
    if (gv.base.b, gv.m) != (b, m):
        raise ValueError(f"generating vector is for b={gv.base.b}, m={gv.m}, not b={b}, m={m}")
    if gv.s != s * alpha:
        raise ValueError(f"generating vector has {gv.s} components, need {s * alpha}")
    keys = None if seed is None else rule_keys(seed, range(1, s + 1), [0])
    lines = [f"# b={b} m={m} s={s} alpha={alpha} seed={seed}"]
    for point in _scrambled_rule(gv, alpha).digits(keys)[0]:
        lines.append(" ".join("".join(str(int(d)) for d in coord) for coord in point))
    return lines


def selftest(verbose: bool = True) -> bool:
    """Fast invariant suite for the CLI; returns True when everything holds."""
    from .decomp import alt_sum_S, anchored_component
    from .gfpoly import FieldBase
    from .lattice import irreducible_modulus

    checks: list[tuple[str, bool]] = []

    # one-dimensional projections of a PLR are {i/b^m}
    ok = True
    for bb in (2, 3):
        for mm in (1, 2, 3):
            gvec = GeneratingVector(FieldBase(bb), mm, irreducible_modulus(bb, mm), (1,))
            vals = sorted(plr_points(gvec).values()[:, 0])
            ok &= np.allclose(vals, [i / bb**mm for i in range(bb**mm)])
    checks.append(("plr 1-d projections", ok))

    # worked dump example
    lines = dump_points(2, 2, 1, gv=GeneratingVector(FieldBase(2), 2, irreducible_modulus(2, 2), (1,)))
    checks.append(("dump worked example", lines[1:] == ["00", "01", "11", "10"]))

    # alternating sums vanish on downward closed families
    q = downward_closure({frozenset({1, 2}), frozenset({3})})
    ok = all(alt_sum_S(q, u) == 0 for u in q if u)
    checks.append(("alternating sum vanishes", ok))

    # anchored decomposition completeness on a small bank function, through
    # its analytic hook and through the inclusion-exclusion without it
    f = bank_preset("pair").integrand()
    a = Anchor()
    x = np.array([[[0.3, 0.8]]])
    full = float(f.evaluator([(1, 2)], x, a.value)[0, 0])
    for name, g in (("", f), (" without hook", BlackBoxIntegrand(f.evaluator))):
        total = math.fsum(
            float(anchored_component(g, [u], a, x[:, :, list(cols)])[0, 0])
            for u, cols in [((), ()), ((1,), (0,)), ((2,), (1,)), ((1, 2), (0, 1))]
        )
        checks.append((f"decomposition completeness{name}", abs(total - full) < 1e-12))

    # constant function integrates exactly under any plan
    cfg = ExperimentConfig(
        weights={"preset": "explicit", "table": {"1": 0.5}},
        bank="constant", eps_grid=(0.5,), reps=5, alpha=2,
    )
    res = run_convergence_study(cfg)
    checks.append(("constant bank rmse 0", res.rows[0]["rmse2"] == 0.0))

    all_ok = all(ok for _, ok in checks)
    if verbose:
        for name, ok in checks:
            print(f"{'PASS' if ok else 'FAIL'}  {name}")
    return all_ok
