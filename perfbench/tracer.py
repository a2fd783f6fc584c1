"""Per-layer spans and counters for a traced benchmark run.

The tracer wraps named cdquad functions from the outside: it replaces each
target at its definition site, then rebinds every alias that a cdquad module
namespace or class still holds (modules import `derive_seed`, `plr_points`
and others by name).  Installation fails if a named target no longer exists
or if an unwrapped original is still reachable afterwards, so a refactor
breaks the traced run instead of reporting zero calls.

For each phase ("setup", "study") and target it records the call count, the
self time (the span minus the spans of traced functions it called) and one
work counter where the target has a natural unit of work.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import resource
import sys
import time
from pathlib import Path

MODULES = ("prf", "gfpoly", "lattice", "scramble", "quadrature", "decomp",
           "weights", "cdalg", "harness", "cli")


def _out_size(args, out):
    return int(out.size)


def _points(args, out):
    return int(out.n)


def _seed_points(args, out):
    return int(out.shape[0] * out.shape[1])


def _active_sets(args, out):
    return len(out.allocations)


def _written_bytes(args, out):
    path = Path(args[1])
    meta = path.with_suffix(path.suffix + ".meta.json")
    return path.stat().st_size + meta.stat().st_size


# label -> (module, attribute path, work counter or None); a "*." path names
# a method on every class of the module that defines it
TARGETS = {
    "prf.derive_seed": ("prf", "derive_seed", None),
    "prf.mix64_array": ("prf", "mix64_array", _out_size),
    "gfpoly.is_irreducible": ("gfpoly", "is_irreducible", None),
    "lattice.irreducible_modulus": ("lattice", "irreducible_modulus", None),
    "lattice.search_generating_vector": ("lattice", "search_generating_vector", None),
    "lattice.plr_points": ("lattice", "plr_points", _points),
    "scramble.numerators_to_digits": ("scramble", "numerators_to_digits", None),
    "scramble.scramble_digit_matrix": ("scramble", "scramble_digit_matrix", _out_size),
    "scramble.interlace_digit_matrices": ("scramble", "interlace_digit_matrices", None),
    "scramble.digits_to_floats": ("scramble", "digits_to_floats", None),
    "quadrature.default_generating_vector": ("quadrature", "default_generating_vector", None),
    "quadrature.rule_points": ("quadrature", "rule_points", None),
    "quadrature.rule_points_seeds": ("quadrature", "rule_points_seeds", _seed_points),
    "quadrature.run_rule_seeds": ("quadrature", "run_rule_seeds", None),
    "quadrature.run_rule_batch": ("quadrature", "run_rule_batch", None),
    "decomp.anchored_component": ("decomp", "anchored_component", None),
    "decomp.bias_squared": ("decomp", "bias_squared", None),
    "weights.weighted_power_sum": ("weights", "*.weighted_power_sum", None),
    "cdalg.plan_build": ("cdalg", "plan_build", _active_sets),
    "cdalg.cd_estimate_many": ("cdalg", "cd_estimate_many", None),
    "harness.run_convergence_study": ("harness", "run_convergence_study", None),
    "harness.run_variance_study": ("harness", "run_variance_study", None),
    "harness.StudyResult.write": ("harness", "StudyResult.write", _written_bytes),
    "cli.main": ("cli", "main", None),
}

#: the peak-RSS rise inside this target is recorded as well
RSS_TARGET = "scramble.scramble_digit_matrix"
#: lru caches whose hit and miss counts are read at the end of the run
CACHES = ("quadrature.default_generating_vector", "lattice.irreducible_modulus")


class TraceError(RuntimeError):
    """The traced program no longer matches the tracer's targets."""


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    def __init__(self):
        self.phase = "setup"
        # phase -> label -> [calls, self_s, work count, rss rise in MB]
        self.stats: dict[str, dict[str, list]] = {}
        self._stack = [0.0]  # time covered by child spans, per open span
        self._caches: dict[str, object] = {}

    def _record(self, label: str) -> list:
        return self.stats.setdefault(self.phase, {}).setdefault(label, [0, 0.0, 0, 0.0])

    def _wrap(self, label, fn, counter, track_rss):
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            rss0 = _maxrss_mb() if track_rss else 0.0
            stack.append(0.0)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                stack[-1] += dt
                rec = self._record(label)
                rec[0] += 1
                rec[1] += dt - child
            if counter is not None:
                rec[2] += counter(args, out)
            if track_rss:
                rec[3] += _maxrss_mb() - rss0
            return out

        functools.update_wrapper(traced, fn)
        return traced

    def install(self):
        """Wrap every target and rebind all of its aliases; raise TraceError
        if a target is missing or an original stays reachable."""
        mods = {name: importlib.import_module(f"cdquad.{name}") for name in MODULES}
        wrapped: dict[int, tuple] = {}
        for label, (mod_name, path, counter) in TARGETS.items():
            found = _resolve(mods[mod_name], path)
            if not found:
                raise TraceError(f"trace target cdquad.{mod_name}.{path} no longer exists")
            for owner, attr, fn in found:
                w = self._wrap(label, fn, counter, label == RSS_TARGET)
                wrapped[id(fn)] = (fn, w)
                if label in CACHES:
                    self._caches[label] = fn
        for owner, attr, value in _bindings():
            hit = wrapped.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(owner, attr, hit[1])
        stale = [f"{getattr(owner, '__qualname__', owner.__name__)}.{attr}"
                 for owner, attr, value in _bindings()
                 if id(value) in wrapped and wrapped[id(value)][0] is value]
        stale += [f"default argument of {fn.__module__}.{fn.__qualname__}"
                  for _, _, fn in _bindings() if inspect.isfunction(fn)
                  for v in list(fn.__defaults__ or ()) + list((fn.__kwdefaults__ or {}).values())
                  if id(v) in wrapped and wrapped[id(v)][0] is v]
        if stale:
            raise TraceError(f"unwrapped originals still bound: {sorted(stale)}")

    def report(self) -> dict:
        """Per-phase stats plus the cache counters of CACHES."""
        phases = {
            phase: {label: {"calls": r[0], "self_s": r[1], "count": r[2], "rss_rise_mb": r[3]}
                    for label, r in recs.items()}
            for phase, recs in self.stats.items()
        }
        caches = {}
        for label, fn in self._caches.items():
            info = fn.cache_info()
            caches[label] = {"hits": info.hits, "misses": info.misses}
        return {"phases": phases, "caches": caches}


def _resolve(mod, path: str) -> list:
    """(owner, attribute, function) for an attribute path of a module."""
    if path.startswith("*."):
        attr = path[2:]
        return [(cls, attr, vars(cls)[attr])
                for cls in vars(mod).values()
                if inspect.isclass(cls) and cls.__module__ == mod.__name__
                and attr in vars(cls)]
    owner = mod
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
    if owner is None or attr not in vars(owner):
        return []
    return [(owner, attr, vars(owner)[attr])]


def _cdquad_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if name == "cdquad" or name.startswith("cdquad.")]


def _bindings():
    """(owner, attribute, value) for every name in a cdquad module namespace
    and in the dict of every class those modules define."""
    out = []
    for mod in _cdquad_modules():
        for attr, value in list(vars(mod).items()):
            out.append((mod, attr, value))
            if inspect.isclass(value) and value.__module__ == mod.__name__:
                out.extend((value, a, v) for a, v in list(vars(value).items()))
    return out
