"""Unbiased randomized building-block rules.

Two kinds: plain Monte Carlo, and interlaced scrambled polynomial lattice
rules.  Both use equal weights 1/n and independent per-coordinate
randomization, so variance splits along the ANOVA decomposition.

One key schedule feeds every draw: each (seed, u) gets one blake2b key, and
the vectorized mix64 PRF spreads it over an array of R indices, one uint64
key per randomization; the keys of a group of sets are spread in one call.
A replication number and a master seed are both such an index, and a single
draw is the case R = 1.  All entry points below are thin fronts over one
keyed path.  It draws the point sets of K rules of one shape (kind, n, |u|,
alpha, b, vector) under R indices in a single call, since every scramble is
a per-key function; the changing-dimension estimator uses this to draw each
group of active sets of equal (|u|, n) at once.

Memory contract: the estimators (run_rule_batch, run_rule_seeds and so
empirical_variance) stream.  They draw, integrate and reduce one chunk of
the (set, index) grid at a time, at most scramble.CHUNK_BYTES (1 MB) of
points, or one point set where a single one is larger, so they hold one chunk
and the (K, R) means, never all R*n points.  Each chunk of a group calls its
integrand once, on the points of all its sets.  Rows do not depend on the
chunking, as every draw is a function of its key and every mean of its row.
rule_points and rule_points_seeds return the full point array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .gfpoly import FieldBase
from .lattice import GeneratingVector, plr_points, search_generating_vector
from .prf import counters_uniform, derive_seed, mix64_array
from .scramble import ScrambledRule, check_base, key_chunks

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
            check_base(self.b)
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

    @cached_property
    def key(self) -> int:
        """The blake2b key of (seed, u), derived once per spec however many
        chunks draw from it."""
        return derive_seed(self.seed, "rule", self.u)

    @cached_property
    def vector(self) -> GeneratingVector:
        """gv, or the default vector of the rule's shape, looked up once per
        spec."""
        return self.gv or default_generating_vector(self.b, self.m, self.alpha * len(self.u),
                                                    self.alpha)


@lru_cache(maxsize=512)
def default_generating_vector(b: int, m: int, s: int, alpha: int) -> GeneratingVector:
    """Cached CBC vector for rules that don't bring their own."""
    return search_generating_vector(s, m, FieldBase(b), alpha=alpha)


@lru_cache(maxsize=128)
def _scrambled_rule(gv: GeneratingVector, alpha: int) -> ScrambledRule:
    """The point generator of a vector, so that every rule and draw on it
    shares one point set and one copy of its stream digits (PackedDigits in
    base 2, uint8 otherwise)."""
    return ScrambledRule(gv.base.b, gv.m, plr_points(gv).coords, alpha)


def _keys(base, index) -> np.ndarray:
    """The key schedule for K sets with blake2b keys base: shape (K, R),
    entry [k, r] the counter-based PRF of base[k] at counter index[r].  One
    PRF call spreads the keys of all K sets."""
    base = np.asarray(base, dtype=np.uint64)
    return mix64_array(np.asarray(index, dtype=np.uint64)[None, :] ^ base[:, None])


def rule_keys(seed: int, u, index) -> np.ndarray:
    """One uint64 key per entry of the index array: (seed, u) gets a single
    blake2b key, and entry i is the PRF of that key at counter index[i].
    Distinct indices give distinct keys."""
    return _keys([derive_seed(seed, "rule", u)], np.atleast_1d(index))[0]


def _shape(spec: RuleSpec) -> tuple:
    return (spec.kind, spec.n, len(spec.u), spec.alpha, spec.b, spec.gv)


class _Group(tuple):
    """Rule specs checked to share one shape; a slice of a group is a group."""

    def __getitem__(self, key):
        out = super().__getitem__(key)
        return _Group(out) if isinstance(key, slice) else out


def _group(specs) -> _Group:
    """specs as a group of one shape, or a ValueError.  A group passes as it
    is, so the shapes are checked once, where the specs enter the keyed path,
    and not again for each chunk drawn from them."""
    if isinstance(specs, _Group):
        return specs
    specs = _Group(specs)
    first = _shape(specs[0])
    if any(_shape(other) != first for other in specs[1:]):
        raise ValueError("rules drawn together must share kind, n, |u|, alpha, b and vector")
    return specs


def _draw(specs, index) -> np.ndarray:
    """Point arrays of shape (K*R, n, |u|) for K specs of one shape; row
    k*R + r is randomization index[r] of specs[k]."""
    index = np.atleast_1d(index)
    spec = specs[0]
    d = len(spec.u)
    if d == 0:
        return np.empty((len(specs) * len(index), spec.n, 0))
    keys = _keys([other.key for other in specs], index).reshape(-1)
    if spec.kind == MONTE_CARLO or spec.n == 1:
        # an n = 1 scrambled rule is the Owen scramble of one point, which is
        # a uniform draw: take its 53 bits per coordinate in one PRF call
        return counters_uniform(keys, spec.n * d).reshape(len(keys), spec.n, d)
    return _scrambled_rule(spec.vector, spec.alpha).points(keys)


def _block_means(specs, g, pts: np.ndarray) -> np.ndarray:
    """Means of shape (K, r) of K rules whose r point sets each fill
    consecutive blocks of pts.  g(sets, x) is called once, with the K
    coordinate sets and their points x of shape (K, r*n, |u|), and must
    return the (K, r*n) values.  Each row of r*n values is reduced per point
    set, so a mean does not depend on the sets or point sets drawn with it."""
    K, n, d = len(specs), specs[0].n, len(specs[0].u)
    r = len(pts) // K
    vals = np.asarray(g([spec.u for spec in specs], pts.reshape(K, r * n, d)), dtype=np.float64)
    if vals.shape != (K, r * n):
        raise ValueError(f"group integrand returned shape {vals.shape} for {K} sets of "
                         f"{r * n} points; expected {(K, r * n)}")
    return vals.reshape(K, r, n).mean(axis=2)


def _run(specs, g, index, draw) -> np.ndarray:
    """Means of shape (K, R): rule specs[k] on the group integrand g under
    index[r].

    The work streams over chunks of the (set, index) grid, sets first: each
    chunk is drawn by draw(specs, index), integrated by one call of g and
    reduced before the next.  A chunk holds as many whole sets as fit
    CHUNK_BYTES of points, and a set that alone overflows it is split along
    its indices.  Each spec derives its key and looks up its vector once
    (RuleSpec.key, RuleSpec.vector), whatever its chunks."""
    index = np.atleast_1d(index)
    R = len(index)
    row_bytes = 8 * specs[0].n * len(specs[0].u)  # one float64 point set
    out = np.empty((len(specs), R))
    for sets in key_chunks(len(specs), R * row_bytes):
        # only a chunk of one set can overflow, and only it splits its index;
        # a chunk's points are a temporary, freed before the next is drawn
        for rows in key_chunks(R, row_bytes):
            out[sets, rows] = _block_means(specs[sets], g, draw(specs[sets], index[rows]))
    return out


def rule_points(spec: RuleSpec, index=0) -> np.ndarray:
    """The randomized point array of a rule, in full.

    A scalar index gives shape (n, |u|); an index array gives (R, n, |u|)
    whose row i equals rule_points(spec, index[i]).
    """
    pts = _draw([spec], index)
    return pts[0] if np.ndim(index) == 0 else pts


def rule_points_seeds(specs, seeds) -> np.ndarray:
    """The point sets of K rules of one shape under R master seeds, drawn
    together, in full: shape (K*R, n, |u|), row k*R + r equal to
    rule_points(specs[k], seeds[r])."""
    return _draw(_group(specs), seeds)


def run_rule_batch(spec: RuleSpec, g, reps) -> np.ndarray:
    """Estimates for the randomizations `reps` of one rule on the pointwise
    integrand g, which maps (N, |u|) points to N values (or a scalar), drawn
    by rule_points one chunk of reps at a time: the one-set case of
    run_rule_seeds."""
    def group(_, x):
        return np.broadcast_to(np.asarray(g(x[0]), dtype=np.float64), x.shape[1:2])[None]

    return _run([spec], group, reps, lambda _, index: rule_points(spec, index))[0]


def run_rule_seeds(specs, g, seeds) -> np.ndarray:
    """Estimates of K rules of one shape under R master seeds: shape (K, R),
    entry [k, r] the mean of rule specs[k], randomized by seeds[r], on its
    integrand.

    g is one integrand for the whole group.  It is called as g(sets, x) on
    each chunk: sets holds the chunk's K' coordinate tuples (RuleSpec.u) and
    x their points, shape (K', r*n, |u|), the r point sets of set k filling
    x[k] in seed order.  It returns the (K', r*n) values, row k those of set
    k; any other shape is a ValueError.  Each chunk of rules is drawn by one
    rule_points_seeds call and integrated by one call of g."""
    return _run(_group(specs), g, seeds, rule_points_seeds)


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
