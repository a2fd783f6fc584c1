"""Unbiased randomized building-block rules.

Two kinds: plain Monte Carlo, and interlaced scrambled polynomial lattice
rules.  Both use equal weights 1/n and independent per-coordinate
randomization, so variance splits along the ANOVA decomposition.

One key schedule feeds every draw: rule_keys turns (seed, u) into one
blake2b key and spreads it over an array of R indices with the vectorized
mix64 PRF, one uint64 key per randomization.  A replication number and a
master seed are both such an index, and a single draw is the case R = 1.
All entry points below are thin fronts over one keyed path.  It draws the
point sets of K rules of one shape (kind, n, |u|, alpha, b, vector) under R
indices in a single call, since every scramble is a per-key function; the
changing-dimension estimator uses this to draw each group of active sets of
equal (|u|, n) at once.  Each rule's integrand is then called once on all of
its R*n points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .gfpoly import FieldBase
from .lattice import GeneratingVector, plr_points, search_generating_vector
from .prf import counters_uniform, derive_seed, mix64_array
from .scramble import ScrambledRule

MONTE_CARLO = "mc"
INTERLACED_PLR = "plr"


@dataclass(frozen=True)
class RuleSpec:
    """An executable randomized rule on the coordinates in u.

    seed and u name the rule's key; the randomizations of the rule are the
    indices read from it (see rule_keys).
    """

    kind: str
    u: tuple[int, ...]
    n: int
    seed: int
    alpha: int = 1
    b: int = 2
    gv: GeneratingVector | None = None

    def __post_init__(self):
        object.__setattr__(self, "u", tuple(sorted(set(self.u))))
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.alpha < 1:
            raise ValueError(f"interlacing factor alpha must be >= 1, got {self.alpha}")
        if self.kind not in (MONTE_CARLO, INTERLACED_PLR):
            raise ValueError(f"unknown rule kind {self.kind!r}")
        if self.kind == INTERLACED_PLR:
            m = round(math.log(self.n, self.b))
            if self.b**m != self.n:
                raise ValueError("PLR rules need n = b^m")
            if self.gv is not None:
                if (self.gv.base.b, self.gv.m) != (self.b, m):
                    raise ValueError(
                        f"generating vector is for b={self.gv.base.b}, m={self.gv.m}; "
                        f"the rule needs b={self.b}, m={m}")
                if self.gv.s != self.alpha * len(self.u):
                    raise ValueError("generating vector dimension must be alpha * |u|")

    @property
    def m(self) -> int:
        return round(math.log(self.n, self.b))


@lru_cache(maxsize=512)
def default_generating_vector(b: int, m: int, s: int, alpha: int) -> GeneratingVector:
    """Cached CBC vector for rules that don't bring their own."""
    return search_generating_vector(s, m, FieldBase(b), alpha=alpha)


@lru_cache(maxsize=128)
def _scrambled_rule(gv: GeneratingVector, alpha: int) -> ScrambledRule:
    """The point generator of a vector, so that every rule and draw on it
    shares one point set and one stream digit matrix."""
    return ScrambledRule(gv.base.b, gv.m, plr_points(gv).coords, alpha)


def rule_keys(seed: int, u, index) -> np.ndarray:
    """The key schedule: one uint64 key per entry of the index array.

    (seed, u) gets a single blake2b key, and entry i is the counter-based
    PRF of that key at counter index[i].  Distinct indices give distinct keys.
    """
    key = np.uint64(derive_seed(seed, "rule", u))
    return mix64_array(np.asarray(index, dtype=np.uint64) ^ key)


def _shape(spec: RuleSpec) -> tuple:
    return (spec.kind, spec.n, len(spec.u), spec.alpha, spec.b, spec.gv)


def _draw(specs, index) -> np.ndarray:
    """Point arrays of shape (K*R, n, |u|) for K specs of one shape; row
    k*R + r is randomization index[r] of specs[k]."""
    index = np.atleast_1d(index)
    spec = specs[0]
    if any(_shape(other) != _shape(spec) for other in specs[1:]):
        raise ValueError("rules drawn together must share kind, n, |u|, alpha, b and vector")
    d = len(spec.u)
    if d == 0:
        return np.empty((len(specs) * len(index), spec.n, 0))
    keys = np.concatenate([rule_keys(other.seed, other.u, index) for other in specs])
    if spec.kind == MONTE_CARLO or spec.n == 1:
        # an n = 1 scrambled rule is the Owen scramble of one point, which is
        # a uniform draw: take its 53 bits per coordinate in one PRF call
        return counters_uniform(keys, spec.n * d).reshape(len(keys), spec.n, d)
    gv = spec.gv or default_generating_vector(spec.b, spec.m, d * spec.alpha, spec.alpha)
    return _scrambled_rule(gv, spec.alpha).points(keys)


def _means(spec: RuleSpec, g, pts: np.ndarray) -> np.ndarray:
    """(1/n) sum of g over each of the R point sets; g is called once on all
    R*n points stacked, so pointwise integrands pay Python call overhead per
    rule rather than per randomization."""
    R = len(pts)
    vals = np.asarray(g(pts.reshape(R * spec.n, len(spec.u))), dtype=np.float64)
    return np.broadcast_to(vals, (R * spec.n,)).reshape(R, spec.n).mean(axis=1)


def rule_points(spec: RuleSpec, index=0) -> np.ndarray:
    """The randomized point array of a rule.

    A scalar index gives shape (n, |u|); an index array gives (R, n, |u|)
    whose row i equals rule_points(spec, index[i]).
    """
    pts = _draw([spec], index)
    return pts[0] if np.ndim(index) == 0 else pts


def rule_points_seeds(specs, seeds) -> np.ndarray:
    """The point sets of K rules of one shape under R master seeds, drawn
    together: shape (K*R, n, |u|), row k*R + r equal to
    rule_points(specs[k], seeds[r])."""
    return _draw(list(specs), seeds)


def run_rule_batch(spec: RuleSpec, g, reps) -> np.ndarray:
    """Estimates for the randomizations `reps` of one rule."""
    return _means(spec, g, rule_points(spec, reps))


def run_rule_seeds(specs, gs, seeds) -> np.ndarray:
    """Estimates of K rules of one shape, rule k on its own integrand gs[k],
    under R master seeds: shape (K, R), row k equal to
    run_rule_batch(specs[k], gs[k], seeds).  The K point sets come from one
    draw."""
    specs = list(specs)
    if len(gs) != len(specs):
        raise ValueError(f"need one integrand per rule, got {len(gs)} for {len(specs)}")
    pts = rule_points_seeds(specs, seeds)
    R = len(pts) // len(specs)
    return np.stack([_means(spec, g, pts[k * R:(k + 1) * R])
                     for k, (spec, g) in enumerate(zip(specs, gs))])


@dataclass(frozen=True)
class VarianceEstimate:
    mean: float
    variance: float
    stderr_mean: float
    stderr_variance: float
    replications: int

    def __float__(self):
        return self.variance


def empirical_variance(spec: RuleSpec, g, replications: int) -> VarianceEstimate:
    """Sample variance over independent randomizations, with a jackknife
    standard error on the variance itself."""
    if replications < 2:
        raise ValueError("need at least 2 replications")
    ests = run_rule_batch(spec, g, np.arange(replications))
    R = replications
    mean = float(np.mean(ests))
    var = float(np.var(ests, ddof=1))
    # leave-one-out variances in O(R) from the moment identities
    ss = float(np.sum((ests - mean) ** 2))
    loo_ss = ss - (ests - mean) ** 2 * R / (R - 1)
    loo_var = loo_ss / (R - 2) if R > 2 else np.zeros(R)
    se_var = math.sqrt((R - 1) / R * float(np.sum((loo_var - np.mean(loo_var)) ** 2)))
    se_mean = math.sqrt(var / R)
    return VarianceEstimate(mean, var, se_mean, se_var, R)
