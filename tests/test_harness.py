"""Bank functions, presets, studies, point dumps, and the CLI."""

import dataclasses
import itertools
import json
import math
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from cdquad import cdalg, harness
from cdquad.cdalg import PlanningError
from cdquad.cli import main
from cdquad.harness import (
    BankFunction,
    ExperimentConfig,
    bank_from_weights,
    bank_preset,
    dump_points,
    eps_grid_for_costs,
    ols_slope,
    run_convergence_study,
    run_variance_study,
    selftest,
    weight_preset,
)
from cdquad.kernels import bernoulli
from cdquad.lattice import GeneratingVector, plr_points
from cdquad.quadrature import RuleSpec, rule_points
from cdquad.weights import (
    FiniteProductWeights,
    ProductWeights,
    disjoint_pair_weights,
    downward_closure,
)
from oracles import at

fs = frozenset


class TestBankFunction:
    def test_integral_is_constant_coefficient(self):
        f = BankFunction("t", {fs(): 2.0, fs({1}): 1.0})
        assert f.integral == 2.0
        assert f.active == (1,)

    def test_validation_catches_bad_integral(self):
        # _validate integrates numerically; feed it an impossible claim by
        # checking a consistent one passes and trusting the quadrature test
        f = BankFunction("ok", {fs(): 1.0, fs({1, 2}): 0.5})
        assert f.integral == 1.0

    def test_evaluate_at_anchor(self):
        f = bank_preset("pair")
        eta_a = bernoulli(2, 0.5) / 2
        expect = 1.0 + eta_a + 0.7 * eta_a + 0.5 * eta_a**2
        assert at(f.integrand(), {}) == pytest.approx(expect, abs=1e-15)

    def test_plan_bias_full_closure_zero(self):
        f = bank_preset("pair")
        Q = downward_closure([fs({1, 2})])
        assert f.plan_bias(Q) == pytest.approx(0.0, abs=1e-15)

    def test_plan_bias_empty_family(self):
        f = bank_preset("pair")
        # sampling only the empty set leaves bias I(f) - f(a)
        got = f.plan_bias({fs()})
        assert got == pytest.approx(f.integral - at(f.integrand(), {}), abs=1e-14)

    def test_plan_bias_partial(self):
        f = bank_preset("pair")
        Q = {fs(), fs({1}), fs({2})}
        eta_a = bernoulli(2, 0.5) / 2
        # only the {1,2} anchored component is dropped; its integral is
        # c_{12} * eta(a)^2
        assert f.plan_bias(Q) == pytest.approx(0.5 * eta_a**2, abs=1e-15)

    @pytest.mark.parametrize("size", [0, 1, 2, 3, 4])
    @pytest.mark.parametrize("av", [0.5, 0.2])
    def test_anchored_hook_is_the_per_set_formula(self, size, av):
        # the set-batched hook gives, bit for bit, kappa_u (one fsum over the
        # coefficients containing u) times prod (eta(x_j) - eta(a)) multiplied
        # left to right, evaluated one set at a time
        bank = bank_from_weights(ProductWeights.polynomial(2.0), max_index=6, max_order=3)
        sets = list(itertools.combinations(range(1, 8), size))
        x = np.random.default_rng(size).random((len(sets), 11, size))
        got = bank.integrand().anchored(sets, x, av)
        eta_a = float(bernoulli(2, av) / 2.0)
        for k, u in enumerate(sets):
            term = math.fsum(c * eta_a ** (len(v) - size)
                             for v, c in bank.coeffs.items() if fs(u) <= v)
            for i in range(size):
                term = term * (bernoulli(2, x[k, :, i]) / 2.0 - eta_a)
            assert np.array_equal(got[k], np.broadcast_to(term, (11,)))

    def test_on_points_matches_evaluate(self):
        # the evaluator on a group of K = 1 set and N points (as the variance
        # study calls it) equals its one-point calls and the bank's formula
        bank = bank_preset("pair")
        ev = bank.integrand().evaluator
        pts = np.array([[0.1, 0.9], [0.5, 0.5], [0.7, 0.2]])
        got = ev([(1, 2)], pts[None], 0.5)
        assert got.shape == (1, 3)
        eta = bernoulli(2, pts) / 2
        assert np.allclose(got[0], 1 + eta[:, 0] + 0.7 * eta[:, 1] + 0.5 * eta[:, 0] * eta[:, 1],
                           rtol=0, atol=1e-15)
        for row, expect in zip(pts, got[0]):
            assert ev([(1, 2)], row.reshape(1, 1, 2), 0.5)[0, 0] == expect

    def test_evaluator_takes_mixed_groups(self):
        # rows whose sets hold a coordinate in other columns, or not at all,
        # give the values of their own one-set groups, bit for bit
        bank = bank_from_weights(ProductWeights.polynomial(2.0), max_index=6, max_order=3)
        ev = bank.integrand().evaluator
        sets = [(1, 2), (2, 3), (1, 3), (4, 5), (1, 2)]
        x = np.random.default_rng(4).random((len(sets), 7, 2))
        got = ev(sets, x, 0.3)
        assert got.shape == (len(sets), 7)
        for k, s in enumerate(sets):
            assert np.array_equal(got[k], ev([s], x[k:k + 1], 0.3)[0])


class TestPresets:
    def test_bank_presets_exist(self):
        for name in ("constant", "single", "orthogonal2", "pair"):
            assert bank_preset(name).name == name
        with pytest.raises(KeyError):
            bank_preset("nope")

    def test_bank_from_weights_finite(self):
        w = disjoint_pair_weights(a=3.0, count=3)
        bank = bank_from_weights(w)
        assert bank.coeffs[fs()] == 1.0
        assert bank.coeffs[fs({1, 2})] == 1.0
        assert fs({1, 3}) not in bank.coeffs

    def test_bank_from_weights_product(self):
        w = ProductWeights.polynomial(3.0)
        bank = bank_from_weights(w, max_index=4, max_order=2)
        assert bank.coeffs[fs({2})] == pytest.approx(2.0**-3)
        assert bank.coeffs[fs({1, 3})] == pytest.approx(3.0**-3)

    def test_weight_presets(self):
        assert isinstance(weight_preset({"preset": "product-poly", "a": 3.0}),
                          ProductWeights)
        assert isinstance(weight_preset("finite-product-poly"),
                          FiniteProductWeights)
        w = weight_preset({"preset": "disjoint-pairs", "a": 3.0, "count": 4})
        assert w.gamma(fs({1, 2})) == 1.0
        with pytest.raises(KeyError):
            weight_preset("nope")

    @pytest.mark.parametrize("resolve,kind,first", [(weight_preset, "weight", "product-poly"),
                                                    (bank_preset, "bank", "constant")])
    def test_mapping_without_preset_names_the_key(self, resolve, kind, first):
        with pytest.raises(ValueError, match=f"a {kind} mapping needs a 'preset' key, one of {first}, "):
            resolve({"a": 3})

    def test_explicit_presets(self):
        w = weight_preset({"preset": "explicit",
                           "table": {"1": 0.5, "2": 0.5, "1,2": 0.25}})
        assert w.gamma(fs({1, 2})) == 0.25
        bank = bank_preset({"preset": "explicit",
                            "coeffs": {"": 1.0, "1": 0.5}})
        assert bank.integral == 1.0


class TestDumpPoints:
    def test_worked_example(self):
        from cdquad.gfpoly import FieldBase
        from cdquad.lattice import irreducible_modulus

        gv = GeneratingVector(FieldBase(2), 2, irreducible_modulus(2, 2), (1,))
        assert dump_points(2, 2, 1, gv=gv)[1:] == ["00", "01", "11", "10"]

    @pytest.mark.parametrize("b,m", [(2, 2), (3, 3)])
    def test_gv_must_match_base_and_size(self, b, m):
        from cdquad.gfpoly import FieldBase
        from cdquad.lattice import search_generating_vector

        gv = search_generating_vector(1, m, FieldBase(b))
        with pytest.raises(ValueError):
            dump_points(2, 3, 1, gv=gv)

    def test_unscrambled_matches_plr(self):
        lines = dump_points(2, 3, 2)
        assert lines[0].startswith("#")
        # reconstruct fractions from digits and compare to the raw net
        from cdquad.lattice import search_generating_vector
        from cdquad.gfpoly import FieldBase

        gv = search_generating_vector(2, 3, FieldBase(2), alpha=1)
        pts = plr_points(gv)
        for h, line in enumerate(lines[1:]):
            cols = line.split()
            for j, digits in enumerate(cols):
                val = sum(int(c) * 2.0 ** -(p + 1) for p, c in enumerate(digits))
                assert val == float(pts.values()[h][j])

    def test_bases_past_uint8_digits_rejected(self):
        # digits are uint8: base 257 would print digit 256 as 0
        assert dump_points(251, 1, 1)[-1] == "250"
        with pytest.raises(ValueError, match="digit base must be at most 256"):
            dump_points(257, 1, 1)

    def test_byte_identical_reruns(self):
        a = dump_points(2, 4, 2, alpha=2, seed=11)
        b = dump_points(2, 4, 2, alpha=2, seed=11)
        assert a == b

    def test_seed_sensitivity(self):
        assert dump_points(2, 4, 2, alpha=2, seed=1) != dump_points(2, 4, 2,
                                                                    alpha=2, seed=2)

    @pytest.mark.parametrize("s,alpha", [(1, 1), (2, 2), (3, 3)])
    def test_scrambled_dump_is_rule_points(self, s, alpha):
        # the dump and the estimator draw their keys from one schedule
        lines = dump_points(2, 4, s, alpha=alpha, seed=11)
        dumped = np.array([[sum(int(c) * 2.0 ** -(p + 1) for p, c in enumerate(digits[:53]))
                            for digits in line.split()] for line in lines[1:]])
        pts = rule_points(RuleSpec("plr", tuple(range(1, s + 1)), 16, 11, alpha=alpha))
        assert np.array_equal(dumped, pts)


class TestStudies:
    def test_ols_slope_exact_line(self):
        x = [1.0, 2.0, 3.0, 4.0]
        y = [5.0 - 2.0 * t for t in x]
        slope, se = ols_slope(x, y)
        assert slope == pytest.approx(-2.0, abs=1e-12)
        assert se == pytest.approx(0.0, abs=1e-12)
        with pytest.raises(ValueError):
            ols_slope([1.0], [1.0])

    def test_variance_study_mc_baseline(self):
        cfg = ExperimentConfig(bank="single", rule="mc",
                               n_grid=(2**4, 2**6, 2**8), reps=200, seed=3)
        res = run_variance_study(cfg)
        assert res.kind == "variance"
        assert abs(res.slope + 1.0) < 0.2

    def test_variance_slope_needs_two_positive_rows(self, monkeypatch):
        # a one-point grid reports its row and a NaN slope instead of failing
        # after the draws; rows of zero variance are left out of the fit
        res = run_variance_study(ExperimentConfig(bank="pair", rule="mc", n_grid=(8,), reps=3))
        assert len(res.rows) == 1 and res.rows[0]["variance"] > 0
        assert math.isnan(res.slope) and math.isnan(res.slope_stderr)
        cfg = ExperimentConfig(bank="single", rule="mc", n_grid=(16, 64, 256), reps=50, seed=2)
        full = run_variance_study(cfg)
        real = harness.empirical_variance

        def zero_at_64(spec, g, reps):
            est = real(spec, g, reps)
            return dataclasses.replace(est, variance=0.0) if spec.n == 64 else est

        monkeypatch.setattr(harness, "empirical_variance", zero_at_64)
        res = run_variance_study(cfg)
        assert [r["variance"] for r in res.rows] == [full.rows[0]["variance"], 0.0,
                                                    full.rows[2]["variance"]]
        expect = ols_slope([math.log(16), math.log(256)],
                           [math.log(full.rows[0]["variance"]), math.log(full.rows[2]["variance"])])
        assert res.slope == expect[0] and math.isnan(res.slope_stderr)
        monkeypatch.setattr(harness, "empirical_variance",
                            lambda spec, g, reps: dataclasses.replace(real(spec, g, reps),
                                                                      variance=0.0))
        assert math.isnan(run_variance_study(cfg).slope)

    @pytest.mark.parametrize("grid", [["--n-grid", "8"], ["--n-grid", "8,8"],
                                      ["--eps-grid", "0.5,0.5", "--weights", "product-poly,a=3"]])
    def test_cli_one_point_study(self, capsys, grid):
        # one n, or one cost repeated, leaves no slope to fit
        assert main(["study", "--bank", "pair", *grid, "--reps", "3", "--rule", "mc"]) == 0
        assert "# slope = nan +/- nan" in capsys.readouterr().out

    def test_convergence_study_runs(self, tmp_path):
        out = tmp_path / "study.csv"
        cfg = ExperimentConfig(weights={"preset": "disjoint-pairs", "a": 3.0,
                                        "count": 8},
                               eps_grid=(0.5, 0.2), reps=8, seed=0,
                               out=str(out))
        res = run_convergence_study(cfg)
        assert res.kind == "convergence"
        assert [r["eps"] for r in res.rows] == [0.5, 0.2]
        assert all(r["plan_cost"] > 0 for r in res.rows)
        assert out.exists()

    def test_study_result_byte_stable(self, tmp_path):
        cfg = ExperimentConfig(bank="single", rule="mc", n_grid=(16, 64),
                               reps=10, seed=5)
        res = run_variance_study(cfg)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        res.write(p1)
        run_variance_study(cfg).write(p2)
        assert p1.read_bytes() == p2.read_bytes()
        meta = json.loads((tmp_path / "a.csv.meta.json").read_text())
        assert meta["kind"] == "variance"
        assert meta["config"]["seed"] == 5

    def test_sidecar_version_is_the_package_version(self, tmp_path):
        import cdquad

        res = run_variance_study(ExperimentConfig(bank="single", rule="mc", n_grid=(16,), reps=3))
        res.write(tmp_path / "v.csv")
        meta = json.loads((tmp_path / "v.csv.meta.json").read_text())
        assert meta["version"] == cdquad.__version__
        pyproject = (Path(cdquad.__file__).parents[2] / "pyproject.toml").read_text()
        assert f'\nversion = "{cdquad.__version__}"\n' in pyproject

    def test_validation_nodes_are_leggauss(self):
        nodes, weights = np.polynomial.legendre.leggauss(6)
        assert nodes.tolist() == list(harness._GL6_NODES)
        assert weights.tolist() == list(harness._GL6_WEIGHTS)

    def test_config_builds_weights_and_bank_once(self):
        cfg = ExperimentConfig(weights={"preset": "disjoint-pairs", "a": 3.0, "count": 4},
                               bank="pair")
        assert cfg.resolve_weights() is cfg.resolve_weights()
        assert cfg.resolve_bank() is cfg.resolve_bank()
        # a bank derived from the weights is built once too
        cfg = ExperimentConfig(weights={"preset": "disjoint-pairs", "a": 3.0, "count": 4})
        assert cfg.resolve_bank() is cfg.resolve_bank()
        assert cfg.resolve_bank().coeffs == bank_from_weights(cfg.resolve_weights()).coeffs

    def test_eps_grid_for_costs_monotone(self):
        w = disjoint_pair_weights(a=3.0, count=20)
        grid = eps_grid_for_costs(w, [1e2, 1e3, 1e4], tau=1.0)
        assert grid == sorted(grid, reverse=True)
        assert all(e > 0 for e in grid)

    @pytest.mark.parametrize("wspec,cap,target", [
        # every plan within a cap of 300 sets costs far less than 1e9
        ({"preset": "product-poly", "a": 3.0}, 300, 1e9),
        # 151 sets, never at the cap: every eps down to lo plans below 1e30
        ({"preset": "disjoint-pairs", "a": 3.0, "count": 50}, None, 1e30),
    ], ids=["past-the-cap", "below-every-cost"])
    def test_eps_grid_for_costs_unreachable_target(self, monkeypatch, wspec, cap, target):
        if cap is not None:
            monkeypatch.setattr(cdalg, "MAX_ACTIVE_SETS", cap)
        message = (f"no plan reaches the target cost {target}: every eps down to lo = 1e-08 "
                   f"plans at less, or past the hard cap of {cdalg.MAX_ACTIVE_SETS} active sets")
        # the first target plans; the error names the second
        with pytest.raises(PlanningError) as err:
            eps_grid_for_costs(weight_preset(wspec), [1e2, target], tau=2.5)
        assert str(err.value) == message

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(reps=1)
        with pytest.raises(ValueError):
            ExperimentConfig(rule="sobol")
        with pytest.raises(KeyError):
            ExperimentConfig(weights={"preset": "nope"})

    def test_config_rejects_alpha_before_planning(self):
        # the rule template is built at construction, so a study with a bad
        # interlacing factor never reaches the planner
        with pytest.raises(ValueError, match="alpha"):
            ExperimentConfig(alpha=0, eps_grid=(0.5,))


class TestSelftestAndCLI:
    def test_selftest_passes(self):
        assert selftest(verbose=False) is True

    def test_cli_oversized_search_fails_fast(self, capsys):
        # a 2^29-point dump once died in a numpy allocation error after the
        # search had started; the size check now comes before any table, so
        # the usage error is quick and allocates next to nothing
        tracemalloc.start()
        try:
            start = time.perf_counter()
            assert main(["points", "--base", "2", "--m", "29", "--s", "1"]) == 2
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert elapsed < 5 and peak < 1 << 20
        err = capsys.readouterr().err
        assert err.startswith("cdquad: error: ") and "b^m = 2^29" in err and "4096 MiB" in err

    def test_cli_deep_interlacing_fails_fast(self, capsys):
        # alpha 12 at m = 10 spans 11^12 depth tuples: its variance search
        # once died in a numpy allocation error of 22.8 TiB (exit 1); it is
        # refused before rho is allocated
        tracemalloc.start()
        try:
            assert main(["points", "--base", "2", "--m", "10", "--s", "1", "--alpha", "12"]) == 2
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        err = capsys.readouterr().err
        assert err.startswith("cdquad: error: ") and "m = 10, alpha = 12" in err
        assert f"{9 * 11**12} bytes" in err

    def test_cli_points_worked_example(self, capsys):
        assert main(["points", "--base", "2", "--m", "2", "--s", "1"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[1:] == ["00", "01", "11", "10"]

    def test_cli_plan(self, capsys):
        rc = main(["plan", "--weights", "disjoint-pairs,a=3,count=8",
                   "--eps-grid", "0.5,0.1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "d(eps)=" in out

    def test_cli_estimate(self, capsys):
        rc = main(["estimate", "--weights", "disjoint-pairs,a=3,count=4",
                   "--bank", "pair", "--eps-grid", "0.3", "--seed", "7"])
        assert rc == 0
        assert "estimate=" in capsys.readouterr().out

    def test_cli_study_variance(self, capsys):
        rc = main(["study", "--bank", "single", "--rule", "mc",
                   "--n-grid", "16,64", "--reps", "10"])
        assert rc == 0
        assert "# slope" in capsys.readouterr().out

    def test_cli_selftest(self):
        assert main(["selftest"]) == 0

    def test_cli_missing_grid(self, capsys):
        assert main(["plan"]) == 2
        assert "eps-grid" in capsys.readouterr().err

    def test_cli_cost_grid(self, capsys, tmp_path):
        w = weight_preset({"preset": "disjoint-pairs", "a": 3.0, "count": 8})
        grid = eps_grid_for_costs(w, [1e2, 1e3], tau=2.5)
        assert main(["plan", "--weights", "disjoint-pairs,a=3,count=8",
                     "--cost-grid", "1e2,1e3"]) == 0
        lines = [line for line in capsys.readouterr().out.splitlines() if line.startswith("# eps=")]
        assert [line.split()[1] for line in lines] == [f"eps={eps}" for eps in grid]
        out = tmp_path / "study.csv"
        assert main(["study", "--weights", "disjoint-pairs,a=3,count=8", "--cost-grid", "1e2,1e3",
                     "--reps", "3", "--out", str(out)]) == 0
        meta = json.loads((tmp_path / "study.csv.meta.json").read_text())
        assert meta["config"]["eps_grid"] == grid

    @pytest.mark.parametrize("argv,message", [
        (["points", "--m", "2", "--s", "0"], "number of coordinates s must be >= 1"),
        (["study", "--weights", "nosuch", "--eps-grid", "0.5"], "unknown weight preset 'nosuch'"),
        (["plan", "--weights", "product-poly,a=0.5", "--eps-grid", "0.5"], "weight decay 0.5 must exceed 1"),
        (["estimate", "--bank", "pair", "--eps-grid", "0.5", "--alpha", "0"], "alpha must be >= 1"),
        (["plan", "--config", "missing.json", "--eps-grid", "0.5"], "cannot read config missing.json"),
        (["plan", "--config", "nosuch.json", "--eps-grid", "0.5"], "unknown config field(s) in nosuch.json: nosuch"),
        (["estimate", "--bank", "pair", "--eps-grid", "0.5", "--seed", "-1"], "seed must be an integer in [0, 2^64), got -1"),
        (["study", "--bank", "pair", "--eps-grid", "0.5", "--seed", "18446744073709551616"],
         "seed must be an integer in [0, 2^64), got 18446744073709551616"),
        (["study", "--bank", "single", "--n-grid", "4", "--seed", "-1"], "seed must be an integer in [0, 2^64)"),
        (["points", "--m", "2", "--s", "1", "--scramble", "--seed", "18446744073709551616"],
         "seed must be an integer in [0, 2^64)"),
        (["points", "--m", "2", "--s", "1", "--scramble", "--seed", "-1"], "seed must be an integer in [0, 2^64)"),
        (["plan", "--config", "strseed.json", "--eps-grid", "0.5"], "seed must be an integer in [0, 2^64), got '7'"),
        # past 2^32 points the 64-bit digit arithmetic cannot hold the lattice
        (["points", "--m", "33", "--s", "1"], "lattice size b^m = 2^33 exceeds the 2^32 points"),
        (["study", "--n-grid", "8589934592", "--reps", "2"], "lattice size b^m = 2^33 exceeds the 2^32 points"),
        # a NaN accuracy never pruned the planner's search, which then ran on
        (["plan", "--weights", "product-poly,a=3", "--eps-grid", "nan"], "eps must be > 0, got nan"),
        (["estimate", "--bank", "pair", "--rule", "mc", "--eps-grid", "nan"], "eps must be > 0, got nan"),
        (["plan", "--eps-grid", "0.5", "--tau", "nan"], "tau must be > 0, got nan"),
        (["plan", "--eps-grid", "0.5", "--tau", "-1"], "tau must be > 0, got -1.0"),
        # preset options are checked by name and converted by type
        (["plan", "--weights", "product-poly,a=3,foo=1", "--eps-grid", "0.5"],
         "weight preset 'product-poly' has no option foo"),
        (["plan", "--cost", "linear,foo=1", "--eps-grid", "0.5"], "cost preset 'linear' has no option foo"),
        (["plan", "--weights", "product-poly,a=x", "--eps-grid", "0.5"],
         "weight preset 'product-poly': bad value 'x' for option a"),
        (["plan", "--weights", "disjoint-pairs,a=3,count=x", "--eps-grid", "0.5"],
         "weight preset 'disjoint-pairs': bad value 'x' for option count"),
        (["estimate", "--bank", "weights,weights=product-poly,foo=1", "--eps-grid", "0.5"],
         "bank preset 'weights' has no option foo"),
        (["estimate", "--bank", "explicit,coeffs=3", "--eps-grid", "0.5"],
         "bank preset 'explicit': bad value 3 for option coeffs"),
        (["plan", "--cost", "exp,sigma=x", "--eps-grid", "0.5"], "cost preset 'exp': bad value 'x' for option sigma"),
        (["plan", "--weights", "explicit", "--eps-grid", "0.5"], "weight preset 'explicit' needs option table"),
        (["plan", "--weights", "product-poly,a=nan", "--eps-grid", "0.5"], "need a > 0 and c >= 0, got a = nan"),
        (["points", "--base", "257", "--m", "1", "--s", "1"], "digit base must be at most 256"),
        (["plan", "--weights", '{"a":3}', "--eps-grid", "0.5"],
         "a weight mapping needs a 'preset' key, one of product-poly, finite-product-poly, "
         "disjoint-pairs, explicit"),
        (["estimate", "--bank", '{"a":3}', "--eps-grid", "0.5"],
         "a bank mapping needs a 'preset' key, one of constant, single, orthogonal2, pair, "
         "weights, explicit"),
        (["plan", "--weights", "product-poly,a=3", "--cost", '{"s":2}', "--eps-grid", "0.5"],
         "a cost mapping needs a 'preset' key, one of linear, power, exp"),
        # the planner rounds n_u up to a power of the PLR base: it looped
        # forever at bases 0 and 1 and printed plans no rule could run at 4 and 257
        *[(["plan", "--weights", "product-poly,a=3", "--eps-grid", "0.5", "--base", b], message)
          for b, message in [("0", "base must be prime, got 0"), ("1", "base must be prime, got 1"),
                             ("4", "base must be prime, got 4"),
                             ("257", "digit base must be at most 256")]],
        # a cost grid picks the accuracies, so it cannot come with them
        (["plan", "--weights", "product-poly,a=3", "--eps-grid", "0.5", "--cost-grid", "1e2"],
         "give either --eps-grid or --cost-grid, not both"),
        (["study", "--weights", "product-poly,a=3", "--cost-grid", "1e2,0"],
         "target costs must be > 0"),
        # no plan costs inf: the grid must not name an eps the user never gave
        (["plan", "--weights", "disjoint-pairs,a=3,count=8", "--cost-grid", "1e2,inf"],
         "no plan reaches the target cost inf"),
        # rejected before any plan: a bisection toward inf once ran 35 s
        # down to the cap of the product weights
        (["plan", "--weights", "product-poly,a=3", "--cost-grid", "inf"],
         "no plan reaches the target cost inf"),
    ])
    def test_cli_bad_input_is_usage_error(self, capsys, tmp_path, monkeypatch, argv, message):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "nosuch.json").write_text('{"nosuch": 1}')
        (tmp_path / "strseed.json").write_text('{"seed": "7"}')
        start = time.perf_counter()
        assert main(argv) == 2
        assert time.perf_counter() - start < 5  # bad input fails at once
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("cdquad: error: ")
        assert captured.err.count("\n") == 1 and message in captured.err
