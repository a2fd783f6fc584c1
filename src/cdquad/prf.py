"""Counter-based pseudorandom primitives shared by the randomized modules.

Everything here is a pure function of its integer inputs, so any pipeline
built on top is replayable bit-exactly on any platform.  The 64-bit mixer is
a splitmix64-style finalizer; seeds for named subcomponents are derived
through blake2b so callers never have to do seed bookkeeping.
"""

from __future__ import annotations

import hashlib

import numpy as np

_GAMMA = 0x9E3779B97F4A7C15
_M1 = 0xBF58476D1CE4E5B9
_M2 = 0x94D049BB133111EB


def mix64_array(x: np.ndarray) -> np.ndarray:
    """The splitmix64 finalizer applied to every word of a uint64 array
    (wraparound arithmetic); the input is never written."""
    return _mix64_inplace(np.array(x, dtype=np.uint64))[()]  # a numpy scalar for 0-d input


def _mix64_inplace(z: np.ndarray) -> np.ndarray:
    """mix64_array run in place on a uint64 ndarray the caller owns (a fresh
    temporary), which it returns.  In-place ufuncs on an ndarray wrap
    silently, 0-d arrays included; only numpy scalars warn on overflow."""
    z += np.uint64(_GAMMA)
    for shift, mult in ((30, _M1), (27, _M2), (31, None)):
        z ^= z >> np.uint64(shift)
        if mult is not None:
            z *= np.uint64(mult)
    return z


def derive_seed(master: int, *tokens) -> int:
    """Derive an independent 64-bit stream key from a master seed and tokens.

    The master seed must lie in [0, 2^64).  Tokens may be ints, strings, or
    iterables of ints (coordinate sets).  Distinct token tuples give
    statistically independent keys.
    """
    master = int(master)
    if not 0 <= master < 2**64:
        raise ValueError(f"seed must be an integer in [0, 2^64), got {master}")
    # the message is hashed in one call: the same bytes as one update per
    # token, so the same key
    msg = master.to_bytes(8, "little")
    for t in tokens:
        if isinstance(t, str):
            msg += b"s" + t.encode()
        elif isinstance(t, (int, np.integer)):
            msg += b"i" + int(t).to_bytes(16, "little", signed=True)
        else:
            items = sorted(map(int, t))
            msg += b"f" + len(items).to_bytes(4, "little")
            for v in items:
                msg += v.to_bytes(8, "little", signed=True)
    return int.from_bytes(hashlib.blake2b(msg, digest_size=8).digest(), "little")


def counters_uniform(key, n: int) -> np.ndarray:
    """n iid uniforms in [0, 1) per key, from counter values 0..n-1.

    key is an int or a uint64 array of shape K; the result has shape K + (n,).
    """
    ctr = np.arange(n, dtype=np.uint64)
    bits = mix64_array(ctr ^ np.asarray(key, dtype=np.uint64)[..., None])
    # keep 53 bits so the conversion to float64 is exact
    return (bits >> np.uint64(11)).astype(np.float64) * (2.0 ** -53)
