"""Acceptance gate: six criteria, one pass/fail line each.

Each test prints its verdict directly to the terminal (outside pytest's
capture) so a plain `pytest tests/test_acceptance.py` shows the six lines.
"""

import math
import time
from itertools import combinations

import numpy as np
import pytest
import scipy.stats

from cdquad.cdalg import (
    PlannerConstants,
    RuleTemplate,
    cd_estimate,
    cost_model,
    epsilon_dimension,
    plan_build,
    plan_cost,
)
from cdquad.decomp import (
    Anchor,
    BlackBoxIntegrand,
    alt_sum_S,
    anchored_component,
    bias_squared,
)
from cdquad.gfpoly import FieldBase, _coeffs, _encode, laurent_digits
from cdquad.harness import ExperimentConfig, bank_preset, run_variance_study
from cdquad.harness import eps_grid_for_costs, run_convergence_study
from cdquad.kernels import bernoulli
from cdquad.lattice import plr_points, search_generating_vector
from cdquad.quadrature import RuleSpec, empirical_variance, rule_points
from cdquad.weights import (
    ExplicitWeights,
    FiniteProductWeights,
    ProductWeights,
    disjoint_pair_weights,
    downward_closure,
)
from oracles import at, component, coordinate, pointwise, psi_Q_project

fs = frozenset


def verdict(capsys, num, name, ok, detail=""):
    line = f"ACCEPTANCE {num} ({name}): {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    with capsys.disabled():
        print(line)
    assert ok, line


# --- criterion 1: exact algebra, under one second ---------------------------


def _all_downward_closed_on_4():
    subsets = [fs(c) for k in range(1, 5) for c in combinations(range(1, 5), k)]
    masks = []
    child = []
    for i, s in enumerate(subsets):
        cm = 0
        for j, t in enumerate(subsets):
            if len(t) == len(s) - 1 and t <= s:
                cm |= 1 << j
        child.append(cm)
    for F in range(1 << len(subsets)):
        ok = True
        f = F
        while f:
            i = (f & -f).bit_length() - 1
            if child[i] & ~F:
                ok = False
                break
            f &= f - 1
        if ok:
            yield {fs()} | {subsets[i] for i in range(len(subsets)) if F >> i & 1}


def test_criterion_1_exact_algebra(capsys):
    t0 = time.perf_counter()
    ok = True

    # polynomial round-trips
    for b in (2, 3, 5):
        ok &= all(_encode(_coeffs(k, b), b) == k for k in range(200))

    # Laurent division reconstruction: with deg h < deg p the digit stream of
    # h/p satisfies the linear recurrence sum_k p_k d_{t+k} = 0 in F_b
    for b in (2, 3):
        for pnum, hnum in ((7, 1), (7, 2), (11, 3)):
            p = _coeffs(pnum, b)
            digs = laurent_digits(hnum, pnum, 30, b)
            m = len(p) - 1
            ok &= all(
                sum(p[k] * digs[t + k - 1] for k in range(m + 1)) % b == 0
                for t in range(1, 30 - m)
            )

    # one-dimensional PLR projections are exactly {i/b^m}: the integer
    # numerators over b^m form the full residue set
    for b in (2, 3):
        for m in range(1, 7):
            gv = search_generating_vector(1, m, FieldBase(b))
            nums = sorted(plr_points(gv).coords[:, 0].tolist())
            ok &= nums == list(range(b**m))

    # digital-net closure under digitwise addition, m <= 4
    for m in (2, 3, 4):
        gv = search_generating_vector(2, m, FieldBase(2))
        nums = {tuple(row) for row in plr_points(gv).coords.tolist()}
        sample = sorted(nums)[: 2**m]
        ok &= all(
            tuple(a ^ c for a, c in zip(x, y)) in nums for x in sample for y in sample
        )

    # alternating sums vanish on every downward-closed family in 2^[4]
    for fam in _all_downward_closed_on_4():
        for u in fam:
            if u:
                ok &= alt_sum_S(fam, u) == 0

    # anchored inclusion-exclusion == defining recursion, |u| <= 4
    A = Anchor(0.5)
    rng = np.random.default_rng(0)
    coeffs = {fs(): 0.4}
    for k in range(1, 5):
        for u in combinations(range(1, 5), k):
            coeffs[fs(u)] = float(rng.uniform(-1, 1))

    def ev(sets, x, a):
        total = 0.0
        for u, c in coeffs.items():
            term = c
            for j in sorted(u):
                term = term * bernoulli(2, coordinate(sets, x, j, a))
            total = total + term
        return total

    f = BlackBoxIntegrand(ev)

    def recursion(u, x):
        u = tuple(sorted(u))
        total = at(f, {j: x[j] for j in u}, A)
        for k in range(len(u)):
            for v in combinations(u, k):
                total -= recursion(v, x)
        return total

    x = {j: float(rng.random()) for j in range(1, 5)}
    for k in range(5):
        for u in combinations(range(1, 5), k):
            got = component(f, u, A, x)
            ok &= abs(got - recursion(u, x)) < 1e-12

    # decomposition completeness: sum of all components reproduces f
    total = sum(
        component(f, u, A, x)
        for k in range(5)
        for u in combinations(range(1, 5), k)
    )
    ok &= abs(total - at(f, x, A)) < 1e-12

    # bias_squared closed form == brute force over 2^[5]
    rng2 = np.random.default_rng(1)
    table = {}
    for k in range(1, 6):
        for u in combinations(range(1, 6), k):
            table[fs(u)] = float(rng2.uniform(0.1, 1.0))
    w = ExplicitWeights(table)
    Q = downward_closure([fs({1, 2}), fs({4})])
    k_aa = 1 / 12
    brute = math.fsum(
        alt_sum_S(Q, fs(u)) ** 2 * w.gamma(fs(u)) * k_aa**k
        for k in range(1, 6)
        for u in combinations(range(1, 6), k)
    )
    ok &= abs(bias_squared(Q, w, k_aa) - brute) < 1e-15

    # cost ledger == plan_cost exactly, and seed-matched projection invariance
    wp = ProductWeights.polynomial(3.0)
    consts = PlannerConstants.for_weights(wp, 0.2, 1.0)
    plan = plan_build(wp, consts, RuleTemplate(kind="mc"))
    g = BlackBoxIntegrand(
        lambda sets, x, a: 1.0
        + bernoulli(2, coordinate(sets, x, 1, a))
        + 0.5 * bernoulli(2, coordinate(sets, x, 1, a)) * bernoulli(2, coordinate(sets, x, 2, a))
    )
    est1, ledger = cd_estimate(g, plan, 7)
    ok &= ledger.total == plan_cost(plan, cost_model("linear"))
    proj = psi_Q_project(g, plan.Q, consts.anchor)
    est2, _ = cd_estimate(proj, plan, 7)
    ok &= est1 == est2

    dt = time.perf_counter() - t0
    ok &= dt < 1.0
    verdict(capsys, 1, "exact algebra suite", ok, f"{dt:.2f}s")


# --- criterion 2: unbiasedness ----------------------------------------------


def test_criterion_2_unbiasedness(capsys):
    ok = True
    details = []
    for bname in ("constant", "single", "orthogonal2", "pair"):
        bank = bank_preset(bname)
        coords = bank.active or (1,)
        g = pointwise(bank.integrand(), coords)
        for kind, alpha in (("mc", 1), ("plr", 2)):
            spec = RuleSpec(kind, coords, 32, seed=11, alpha=alpha)
            est = empirical_variance(spec, g, 2000)
            dev = abs(est.mean - bank.integral)
            if dev > 4 * est.stderr_mean + 1e-12:
                ok = False
                details.append(f"{bname}/{kind} dev={dev:.3g}")

    # per-coordinate KS uniformity of scrambled single points, 1e4 reps
    reps = np.arange(10_000)
    one = rule_points(RuleSpec("plr", (1, 2), 1, seed=9, alpha=2), reps)[:, 0, :]
    first16 = rule_points(RuleSpec("plr", (1, 2), 16, seed=4, alpha=2), reps)[:, 0, :]
    pvals = [
        scipy.stats.kstest(col, "uniform").pvalue
        for arr in (one, first16)
        for col in arr.T
    ]
    if min(pvals) <= 0.01:
        ok = False
        details.append(f"KS min p={min(pvals):.4f}")
    verdict(capsys, 2, "unbiasedness + KS uniformity", ok,
            "; ".join(details) or f"KS min p={min(pvals):.3f}")


# --- criterion 3: ANOVA invariance ------------------------------------------


def test_criterion_3_anova_invariance(capsys):
    R, n = 5000, 2**8
    spec = RuleSpec("plr", (1, 2), n, seed=21, alpha=2)
    pts = rule_points(spec, np.arange(R))  # (R, n, 2), shared randomization
    comp_a = bernoulli(2, pts[:, :, 0]).mean(axis=1)  # Q(f_{1})
    comp_b = (bernoulli(2, pts[:, :, 0]) * bernoulli(2, pts[:, :, 1])).mean(axis=1)
    total = comp_a + comp_b  # Q(f) by linearity on the same points

    ac, bc = comp_a - comp_a.mean(), comp_b - comp_b.mean()
    cov = float(ac @ bc) / (R - 1)
    cov_se = float(np.std(ac * bc, ddof=1)) / math.sqrt(R)
    ok = abs(cov) < 4 * cov_se

    var_f = float(np.var(total, ddof=1))
    var_sum = float(np.var(comp_a, ddof=1)) + float(np.var(comp_b, ddof=1))
    # Var(a+b) - Var(a) - Var(b) = 2 Cov(a, b) identically
    ok &= abs(var_f - var_sum) < 4 * (2 * cov_se)
    verdict(capsys, 3, "ANOVA invariance", ok,
            f"cov={cov:.3e} (se {cov_se:.3e}), dVar={var_f - var_sum:.3e}")


# --- criterion 4: building-block variance rate ------------------------------


def test_criterion_4_building_block_rate(capsys):
    t0 = time.perf_counter()
    n_grid = tuple(2**k for k in range(6, 14))
    res = run_variance_study(
        ExperimentConfig(bank="pair", rule="plr", alpha=3, chi=1,
                         n_grid=n_grid, reps=500, seed=0)
    )
    mc = run_variance_study(
        ExperimentConfig(bank="pair", rule="mc", n_grid=n_grid, reps=500, seed=0)
    )
    dt = time.perf_counter() - t0
    ok = res.slope <= -2.5 and abs(mc.slope + 1.0) <= 0.15 and dt <= 300
    verdict(capsys, 4, "building-block rate",
            ok, f"plr slope={res.slope:.2f}, mc slope={mc.slope:.2f}, {dt:.0f}s")


# --- criterion 5: changing-dimension rate -----------------------------------


def test_criterion_5_changing_dimension_rate(capsys):
    t0 = time.perf_counter()
    targets = [1e2, 1e3, 1e4, 1e5, 1e6]
    details = []
    ok = True
    presets = [
        ("product", {"preset": "product-poly", "a": 3.0}),
        ("pairs", {"preset": "disjoint-pairs", "a": 3.0, "count": 50}),
    ]
    from cdquad.harness import weight_preset

    for label, wspec in presets:
        grid = eps_grid_for_costs(weight_preset(wspec), targets, tau=2.5)
        res = run_convergence_study(
            ExperimentConfig(weights=wspec, eps_grid=tuple(grid),
                             tau=2.5, reps=200, seed=0)
        )
        details.append(f"{label} slope={res.slope:.2f}+/-{res.slope_stderr:.2f}")
        ok &= res.slope <= -1.6
    dt = time.perf_counter() - t0
    ok &= dt <= 1200
    verdict(capsys, 5, "changing-dimension rate", ok,
            ", ".join(details) + f", {dt:.0f}s")


# --- criterion 6: plan structure --------------------------------------------


def test_criterion_6_plan_structure(capsys):
    eps_grid = [0.5, 0.2, 0.1, 0.05, 0.02, 0.01]
    ok = True

    # finite-order presets: epsilon-dimension capped by the order, exactly
    for w, beta in ((FiniteProductWeights.polynomial(2, 3.0), 2),
                    (disjoint_pair_weights(3.0, 50), 2)):
        for eps in eps_grid:
            plan = plan_build(w, PlannerConstants.for_weights(w, eps, 2.5))
            ok &= epsilon_dimension(plan) <= beta

    # product preset: d(eps) nondecreasing as eps decreases; the log bound is
    # reported but not asserted
    w = ProductWeights.polynomial(3.0)
    dims = [
        epsilon_dimension(plan_build(w, PlannerConstants.for_weights(w, e, 2.5)))
        for e in eps_grid
    ]
    ok &= dims == sorted(dims)
    bound = [f"{d}<=?{1 + math.log(1 / e):.1f}" for d, e in zip(dims, eps_grid)]
    verdict(capsys, 6, "plan structure", ok,
            f"product d(eps)={dims}, log-bound {bound}")
