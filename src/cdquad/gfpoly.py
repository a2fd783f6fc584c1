"""Exact polynomial arithmetic over prime fields F_b and formal Laurent division.

Polynomials are stored lowest-degree-first as tuples of small ints reduced
mod b, with the zero polynomial represented by the empty tuple.  All values
are immutable; every operation is pure.
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


@dataclass(frozen=True)
class PolyGF:
    """A polynomial over F_b, coefficients lowest degree first."""

    base: FieldBase
    coeffs: tuple[int, ...]

    def __post_init__(self):
        b = self.base.b
        cs = tuple(int(c) % b for c in self.coeffs)
        n = len(cs)
        while n and cs[n - 1] == 0:
            n -= 1
        object.__setattr__(self, "coeffs", cs[:n])

    @property
    def degree(self) -> int:
        """Degree, with -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other: "PolyGF") -> "PolyGF":
        _check_base(self, other)
        b = self.base.b
        n = max(len(self.coeffs), len(other.coeffs))
        a = list(self.coeffs) + [0] * (n - len(self.coeffs))
        for i, c in enumerate(other.coeffs):
            a[i] = (a[i] + c) % b
        return PolyGF(self.base, tuple(a))

    def __sub__(self, other: "PolyGF") -> "PolyGF":
        _check_base(self, other)
        b = self.base.b
        n = max(len(self.coeffs), len(other.coeffs))
        a = list(self.coeffs) + [0] * (n - len(self.coeffs))
        for i, c in enumerate(other.coeffs):
            a[i] = (a[i] - c) % b
        return PolyGF(self.base, tuple(a))

    def __mul__(self, other: "PolyGF") -> "PolyGF":
        _check_base(self, other)
        if self.is_zero() or other.is_zero():
            return PolyGF(self.base, ())
        b = self.base.b
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, ci in enumerate(self.coeffs):
            if ci == 0:
                continue
            for j, cj in enumerate(other.coeffs):
                out[i + j] = (out[i + j] + ci * cj) % b
        return PolyGF(self.base, tuple(out))

    def __divmod__(self, other: "PolyGF") -> tuple["PolyGF", "PolyGF"]:
        _check_base(self, other)
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        b = self.base.b
        rem = list(self.coeffs)
        dd = other.degree
        lead_inv = pow(other.coeffs[-1], b - 2, b) if b > 2 else 1
        quo = [0] * max(0, len(rem) - dd)
        for i in range(len(rem) - 1, dd - 1, -1):
            c = rem[i] % b
            if c == 0:
                continue
            q = (c * lead_inv) % b
            quo[i - dd] = q
            for j, oc in enumerate(other.coeffs):
                rem[i - dd + j] = (rem[i - dd + j] - q * oc) % b
        return PolyGF(self.base, tuple(quo)), PolyGF(self.base, tuple(rem))

    def __mod__(self, other: "PolyGF") -> "PolyGF":
        return divmod(self, other)[1]

    def __floordiv__(self, other: "PolyGF") -> "PolyGF":
        return divmod(self, other)[0]

    def encode(self) -> int:
        """Integer encoding sum_i c_i * b^i (injective; used for tie-breaks)."""
        b = self.base.b
        v = 0
        for c in reversed(self.coeffs):
            v = v * b + c
        return v

    def __repr__(self):
        if not self.coeffs:
            return "PolyGF(0)"
        terms = [
            f"{c}" if i == 0 else ("x" if c == 1 and i == 1 else f"{c if c != 1 else ''}x^{i}" if i > 1 else f"{c}x")
            for i, c in enumerate(self.coeffs)
            if c
        ]
        return f"PolyGF({' + '.join(terms)} over F_{self.base.b})"


@dataclass(frozen=True)
class DigitString:
    """Digits t_1..t_m of a truncated base-b expansion sum t_l b^-l."""

    base: FieldBase
    digits: tuple[int, ...]

    def __post_init__(self):
        b = self.base.b
        for d in self.digits:
            if not 0 <= d < b:
                raise ValueError(f"digit {d} out of range for base {b}")

    @property
    def m(self) -> int:
        return len(self.digits)


def _check_base(a: PolyGF, c: PolyGF):
    if a.base != c.base:
        raise ValueError("polynomials over different bases")


def poly_from_int(k: int, base: FieldBase) -> PolyGF:
    """Polynomial whose coefficients are the base-b digits of k."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    b = base.b
    cs = []
    while k:
        cs.append(k % b)
        k //= b
    return PolyGF(base, tuple(cs))


@lru_cache(maxsize=None)
def is_irreducible(p: PolyGF) -> bool:
    """Trial division against all monic polynomials of degree <= deg(p)/2.

    Deterministic and exhaustive; intended for the desk-scale degrees used
    by the modulus table.  Cached, so validating the same modulus again (every
    GeneratingVector does) costs a lookup.
    """
    d = p.degree
    if d < 1:
        raise ValueError("irreducibility is undefined for constants")
    if d == 1:
        return True
    base = p.base
    b = base.b
    for deg in range(1, d // 2 + 1):
        # monic candidates: low coefficients run over all b^deg values
        for low in range(b**deg):
            cand = poly_from_int(low + b**deg, base)
            if (p % cand).is_zero():
                return False
    return True


def laurent_digits(num: PolyGF, den: PolyGF, m: int) -> DigitString:
    """First m digits of the formal Laurent expansion num/den = sum t_l x^-l.

    Terms with nonnegative powers of x are discarded.  Computed by one long
    division: num * x^m = Q*den + R gives t_l = Q_{m-l}.
    """
    _check_base(num, den)
    if den.is_zero():
        raise ZeroDivisionError("zero denominator")
    if m < 0:
        raise ValueError("m must be nonnegative")
    shifted = PolyGF(num.base, (0,) * m + num.coeffs)
    quo, _ = divmod(shifted, den)
    qc = quo.coeffs
    digits = tuple(qc[m - l] if 0 <= m - l < len(qc) else 0 for l in range(1, m + 1))
    return DigitString(num.base, digits)

