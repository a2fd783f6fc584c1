"""Exact arithmetic over prime fields F_b on integer encodings.

A polynomial c_0 + c_1 x + ... + c_d x^d over F_b is the integer
sum_i c_i b^i: its base-b digits are its coefficients, and its degree d is
the one with b^d <= k < b^(d+1).  Every function here takes and returns
such integer encodings (or digit tuples); there are no polynomial objects.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


@dataclass(frozen=True)
class FieldBase:
    """The prime base b of the field F_b."""

    b: int

    def __post_init__(self):
        if not _is_prime(self.b):
            raise ValueError(f"base must be prime, got {self.b}")


def _coeffs(k: int, b: int) -> list[int]:
    """Coefficients of the polynomial that k encodes, lowest degree first,
    without trailing zeros (none for the zero polynomial)."""
    if k < 0:
        raise ValueError("polynomial encodings are nonnegative")
    cs = []
    while k:
        k, c = divmod(k, b)
        cs.append(c)
    return cs


def _encode(cs, b: int) -> int:
    """Encoding sum_i cs[i] b^i of coefficients lowest degree first."""
    k = 0
    for c in reversed(cs):
        k = k * b + c
    return k


def _divmod(num: list[int], den: list[int], b: int) -> tuple[list[int], list[int]]:
    """Quotient and remainder coefficients of num / den over F_b, den with a
    nonzero leading coefficient."""
    rem = list(num)
    dd = len(den) - 1
    lead_inv = pow(den[-1], b - 2, b)
    quo = [0] * max(0, len(rem) - dd)
    for i in range(len(rem) - 1, dd - 1, -1):
        if rem[i]:
            c = rem[i] * lead_inv % b
            quo[i - dd] = c
            for j, dc in enumerate(den):
                rem[i - dd + j] = (rem[i - dd + j] - c * dc) % b
    return quo, rem[:dd]


@lru_cache(maxsize=None)
def is_irreducible(p: int, b: int) -> bool:
    """Whether p is irreducible over F_b, by trial division against all monic
    polynomials of degree <= deg(p)/2.

    Deterministic and exhaustive; intended for the desk-scale degrees used
    by the modulus table.  Cached, so validating the same modulus again (every
    GeneratingVector does) costs a lookup.
    """
    cs = _coeffs(p, b)
    d = len(cs) - 1
    if d < 1:
        raise ValueError("irreducibility is undefined for constants")
    for deg in range(1, d // 2 + 1):
        for cand in range(b**deg, 2 * b**deg):  # the monic ones of degree deg
            if not any(_divmod(cs, _coeffs(cand, b), b)[1]):
                return False
    return True


def poly_mulmod(a: int, c: int, p: int, b: int) -> int:
    """Encoding of a(x) c(x) mod p(x) over F_b; p nonzero."""
    x, y = _coeffs(a, b), _coeffs(c, b)
    prod = [0] * (len(x) + len(y) - 1) if x and y else []
    for i, xi in enumerate(x):
        if xi:
            for j, yj in enumerate(y):
                prod[i + j] = (prod[i + j] + xi * yj) % b
    return _encode(_divmod(prod, _coeffs(p, b), b)[1], b)


def laurent_digits(num: int, den: int, m: int, b: int) -> tuple[int, ...]:
    """First m digits t_1..t_m of the formal Laurent expansion
    num/den = sum_l t_l x^-l over F_b.

    Terms with nonnegative powers of x are discarded.  Computed by one long
    division: num * x^m = Q*den + R gives t_l = Q_{m-l}.
    """
    if den == 0:
        raise ZeroDivisionError("zero denominator")
    if m < 0:
        raise ValueError("m must be nonnegative")
    quo, _ = _divmod([0] * m + _coeffs(num, b), _coeffs(den, b), b)
    return tuple(quo[m - l] if m - l < len(quo) else 0 for l in range(1, m + 1))
