"""Weight families over finite coordinate sets and their derived scalars.

A weight model assigns a nonnegative importance gamma_u to every finite set
of coordinate indices, with gamma of the empty set fixed to 1.  The
product-type families (product, finite-product) both have the form
gamma_u = Gamma_{|u|} prod_{j in u} gamma_j and differ only in their order
factors Gamma_k; explicit and finite-intersection weights are finite tables.
The scalars derived here (decay exponent, weighted power sums) drive the
sample-allocation planner.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations
from typing import Callable, Mapping, Sequence

CoordSet = frozenset


@dataclass(frozen=True)
class Truncation:
    """Caps for enumerations over infinitely many coordinate sets."""

    max_index: int = 1000
    max_order: int = 6


def esym(vals: Sequence[float], kmax: int) -> list[float]:
    """Elementary symmetric sums e_0..e_kmax of a float sequence."""
    es = [0.0] * (kmax + 1)
    es[0] = 1.0
    for g in vals:
        for k in range(min(kmax, len(vals)), 0, -1):
            es[k] += es[k - 1] * g
    return es


def downward_closure(Q) -> set[CoordSet]:
    """Every subset of every set in Q, the empty set included."""
    out = {frozenset()}
    for q in Q:
        if q in out:
            continue  # out is downward closed, so it holds q's subsets too
        items = sorted(q)
        for k in range(1, len(items) + 1):
            out.update(frozenset(c) for c in combinations(items, k))
    return out


def _check_exponent(exponent: float):
    if not 0 < exponent <= 1:
        raise ValueError("exponent must be in (0, 1]")


class WeightModel:
    """Common query surface for all weight variants."""

    declared_decay: float | None = None

    def gamma(self, u) -> float:
        raise NotImplementedError

    def decay(self) -> float:
        """Analytic decay exponent, if one is known, else the declared one."""
        if self.declared_decay is not None:
            return self.declared_decay
        raise ValueError(
            f"{type(self).__name__} has no analytic decay; declare one at construction"
        )

    def weighted_power_sum(self, exponent: float, truncation: Truncation = Truncation()) -> float:
        """sum over nonempty u of gamma_u^exponent, within the truncation box."""
        raise NotImplementedError

    def support_closure(self) -> set[CoordSet]:
        raise ValueError(f"{type(self).__name__} has infinite support")

    def has_finite_support(self) -> bool:
        return False

    def descriptor(self) -> dict:
        """JSON-serializable summary for plan files and study sidecars."""
        return {"variant": type(self).__name__}


def _check_decreasing(seq: Callable[[int], float], upto: int = 50):
    prev = None
    for j in range(1, upto + 1):
        g = seq(j)
        if g < 0:
            raise ValueError(f"negative singleton weight at j={j}")
        if prev is not None and g > prev + 1e-15:
            raise ValueError("singleton weights must be nonincreasing in the index")
        prev = g


class _ProductFamily(WeightModel):
    """gamma_u = Gamma_{|u|} prod_{j in u} gamma_j for a nonincreasing
    singleton sequence gamma_seq.  Subclasses supply the order factors
    Gamma_k (Gamma_0 = 1); order is the largest |u| whose factor may be
    nonzero."""

    gamma_seq: Callable[[int], float]
    order = math.inf
    _variant = "product"

    def order_factor(self, k: int) -> float:
        return 1.0

    def gamma(self, u) -> float:
        u = frozenset(u)
        out = self.order_factor(len(u))
        for j in u:
            out *= self.gamma_seq(j)
        return out

    def _power_sum(self, exponent: float, truncation: Truncation) -> float:
        """sum over nonempty u in the truncation box of gamma_u^exponent, from
        the elementary symmetric sums of the gamma_j^exponent."""
        gs = [self.gamma_seq(j) for j in range(1, truncation.max_index + 1)]
        kmax = min(self.order, truncation.max_order)
        es = esym([g**exponent if g > 0 else 0.0 for g in gs], kmax)
        return sum(self.order_factor(k) ** exponent * es[k] for k in range(1, kmax + 1))

    def weighted_power_sum(self, exponent: float, truncation: Truncation = Truncation()) -> float:
        _check_exponent(exponent)
        return self._power_sum(exponent, truncation)

    def descriptor(self) -> dict:
        d = {"variant": self._variant}
        if self.order < math.inf:
            d["order"] = self.order
        params = getattr(self, "_poly_params", None)
        if params is not None:
            d["decay"], d["scale"] = params
        return d


@dataclass(frozen=True)
class ProductWeights(_ProductFamily):
    """gamma_u = prod_{j in u} gamma_j for a nonincreasing singleton sequence."""

    gamma_seq: Callable[[int], float]
    declared_decay: float | None = None

    def __post_init__(self):
        _check_decreasing(self.gamma_seq)

    @classmethod
    def polynomial(cls, a: float, c: float = 1.0) -> "ProductWeights":
        """gamma_j = c * j^{-a}; decay exponent is a."""
        if not (a > 0 and c >= 0):  # written so that NaN fails too
            raise ValueError(f"need a > 0 and c >= 0, got a = {a}, c = {c}")
        w = cls(lambda j, _a=a, _c=c: _c * j ** (-_a), declared_decay=a)
        object.__setattr__(w, "_poly_params", (a, c))
        return w

    def weighted_power_sum(self, exponent: float, truncation: Truncation = Truncation()) -> float:
        """The shared sum; warns when the full sum looks divergent at this
        exponent e: when the local decay exponent of the singletons at J =
        max_index >= 2, e * log2(gamma_{J//2} / gamma_J), is at most 1 (for
        polynomial weights c j^-a it is a * e at even J)."""
        _check_exponent(exponent)
        J = truncation.max_index
        last = self.gamma_seq(J)
        if J > 1 and last > 0 and exponent * math.log2(self.gamma_seq(J // 2) / last) <= 1 + 1e-9:
            warnings.warn("weighted power sum looks divergent at this exponent", RuntimeWarning)
        return self._power_sum(exponent, truncation)


@dataclass(frozen=True)
class FiniteProductWeights(_ProductFamily):
    """Product weights truncated to sets of size at most `order`."""

    # field() without a default, so the base's math.inf is not taken as one
    order: int = field()
    gamma_seq: Callable[[int], float]
    declared_decay: float | None = None
    _variant = "finite-product"

    def __post_init__(self):
        if self.order < 1:
            raise ValueError("order must be >= 1")
        _check_decreasing(self.gamma_seq)

    @classmethod
    def polynomial(cls, order: int, a: float, c: float = 1.0) -> "FiniteProductWeights":
        w = cls(order, lambda j, _a=a, _c=c: _c * j ** (-_a), declared_decay=a)
        object.__setattr__(w, "_poly_params", (a, c))
        return w

    def order_factor(self, k: int) -> float:
        return 1.0 if k <= self.order else 0.0


def intersection_degree(support: Mapping[CoordSet, float]) -> int:
    """Smallest rho such that every positive set meets at most 1+rho positive sets.

    The sets that u meets are the union, over its coordinates j, of the sets
    holding j, so each count reads a coordinate index instead of
    intersecting all pairs."""
    pos = [u for u, g in support.items() if g > 0 and u]
    holding: dict[int, list[int]] = {}
    for i, u in enumerate(pos):
        for j in u:
            holding.setdefault(j, []).append(i)
    worst = max((len(set().union(*(holding[j] for j in u))) for u in pos), default=0)
    return max(0, worst - 1)


class _FiniteSupportMixin:
    """Shared queries for weights given by an explicit finite table."""

    table: Mapping[CoordSet, float]

    def gamma(self, u) -> float:
        u = frozenset(u)
        if not u:
            return 1.0
        return self.table.get(u, 0.0)

    def has_finite_support(self) -> bool:
        return True

    def support_closure(self) -> set[CoordSet]:
        """The downward closure of the positive sets, built once per object;
        the planner, the bias bound and bank_from_weights share it, so it
        must not be modified."""
        return self._closure

    @cached_property
    def _closure(self) -> set[CoordSet]:
        return downward_closure(u for u, g in self.table.items() if g > 0)

    def weighted_power_sum(self, exponent: float, truncation: Truncation = Truncation()) -> float:
        _check_exponent(exponent)
        total = 0.0
        for u, g in sorted(self.table.items(), key=lambda kv: (len(kv[0]), sorted(kv[0]))):
            if not u or g <= 0:
                continue
            if len(u) > truncation.max_order or max(u) > truncation.max_index:
                continue
            total += g**exponent
        return total

    def _normalize_table(self):
        """Freeze the keys, drop the empty set (its weight is 1 by
        convention) and reject negative weights."""
        table = {frozenset(u): float(g) for u, g in self.table.items() if frozenset(u)}
        object.__setattr__(self, "table", table)
        for u, g in table.items():
            if g < 0:
                raise ValueError(f"negative weight for {sorted(u)}")

    def _validate_monotone(self):
        # subset monotonicity of positivity
        for u, g in self.table.items():
            if g <= 0:
                continue
            items = sorted(u)
            for k in range(1, len(items)):
                for sub in combinations(items, k):
                    if self.gamma(frozenset(sub)) <= 0:
                        raise ValueError(
                            f"positivity not downward monotone: {sorted(u)} > 0 but {list(sub)} = 0"
                        )

    def _support(self) -> dict:
        """The table as {"i,j,...": gamma}, by order and then lexicographically."""
        return {",".join(map(str, sorted(u))): g
                for u, g in sorted(self.table.items(), key=lambda kv: (len(kv[0]), sorted(kv[0])))}


@dataclass(frozen=True)
class ExplicitWeights(_FiniteSupportMixin, WeightModel):
    """Finite map u -> gamma_u with implied zeros elsewhere."""

    table: Mapping[CoordSet, float]

    def __post_init__(self):
        self._normalize_table()
        self._validate_monotone()

    declared_decay = math.inf

    def descriptor(self) -> dict:
        return {"variant": "explicit", "support": self._support()}


@dataclass(frozen=True)
class FiniteIntersectionWeights(_FiniteSupportMixin, WeightModel):
    """Finite-order weights whose positive sets pairwise overlap only rarely.

    The intersection-degree bound is checked at construction.  A declared
    decay exponent may be supplied when the table is a truncation of an
    infinite family.
    """

    table: Mapping[CoordSet, float]
    rho: int = 1
    declared_decay: float | None = None

    def __post_init__(self):
        self._normalize_table()
        self._validate_monotone()
        actual = intersection_degree(self.table)
        if actual > self.rho:
            raise ValueError(f"intersection degree {actual} exceeds declared bound {self.rho}")

    def decay(self) -> float:
        return self.declared_decay if self.declared_decay is not None else math.inf

    def descriptor(self) -> dict:
        return {
            "variant": "finite-intersection",
            "rho": self.rho,
            "declared_decay": self.declared_decay,
            "support": self._support(),
        }


def disjoint_pair_weights(a: float, count: int) -> FiniteIntersectionWeights:
    """Pairs {2j-1, 2j} with gamma = j^-a, singletons matching, j = 1..count.

    Each pair overlaps only itself and its two singletons, so the
    intersection degree is 2; the decay exponent is a.
    """
    table: dict[CoordSet, float] = {}
    for j in range(1, count + 1):
        g = float(j) ** (-a)
        lo, hi = 2 * j - 1, 2 * j
        table[frozenset([lo, hi])] = g
        table[frozenset([lo])] = g
        table[frozenset([hi])] = g
    return FiniteIntersectionWeights(table, rho=2, declared_decay=a)
