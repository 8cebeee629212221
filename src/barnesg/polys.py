"""Exact rational arithmetic for Bernoulli numbers and the two polynomial
families q_n(tau) and P_n(z;tau) that drive the double gamma correction series.

Every family is constructible by at least two independent routes (direct
convolution vs. recursion, plus a Bernoulli-polynomial form for P_n), and the
routes keep separate memo tables so cross-route equality tests stay meaningful.

All arithmetic in this module is exact; nothing is ever rounded except in the
two evaluation helpers that map polynomials into complex working precision.
"""

from __future__ import annotations

import threading
from fractions import Fraction
from math import comb

from .errors import ConsistencyError

# Exact signed rational: always lowest terms, denominator > 0.
Rational = Fraction

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"expected an exact rational, got {type(x).__name__}")


class RationalPolynomial:
    """Dense univariate polynomial with Fraction coefficients.

    Coefficient k multiplies the k-th power of the variable. Trailing zeros
    are trimmed so equality is plain structural equality; the zero polynomial
    has an empty coefficient tuple and degree -1.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [_as_fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("RationalPolynomial is immutable")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other):
        if isinstance(other, RationalPolynomial):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self == RationalPolynomial([other])
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = RationalPolynomial([other])
        if not isinstance(other, RationalPolynomial):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return RationalPolynomial(out)

    __radd__ = __add__

    def __neg__(self):
        return RationalPolynomial([-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other if isinstance(other, RationalPolynomial)
                       else RationalPolynomial([-_as_fraction(other)]))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = _as_fraction(other)
            return RationalPolynomial([c * a for a in self.coeffs])
        if not isinstance(other, RationalPolynomial):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return RationalPolynomial()
        out = [_ZERO] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    if cb:
                        out[i + j] += ca * cb
        return RationalPolynomial(out)

    __rmul__ = __mul__

    def coeff(self, k: int) -> Fraction:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else _ZERO

    def times_var_power(self, k: int) -> "RationalPolynomial":
        if self.is_zero():
            return self
        return RationalPolynomial((_ZERO,) * k + self.coeffs)

    def divide_by_var(self) -> "RationalPolynomial":
        """Exact division by the variable; the constant term must vanish."""
        if self.is_zero():
            return self
        if self.coeffs[0] != 0:
            raise ConsistencyError(
                f"polynomial division by the variable leaves remainder {self.coeffs[0]}")
        return RationalPolynomial(self.coeffs[1:])

    def substitute_neg(self) -> "RationalPolynomial":
        """p(x) -> p(-x)."""
        return RationalPolynomial(
            [c if k % 2 == 0 else -c for k, c in enumerate(self.coeffs)])

    def reversed_padded(self, length: int) -> "RationalPolynomial":
        """Coefficient reversal after padding to `length` entries.

        Realizes x^(length-1) * p(1/x) for deg p <= length-1.
        """
        if len(self.coeffs) > length:
            raise ValueError("padding length shorter than the polynomial")
        padded = list(self.coeffs) + [_ZERO] * (length - len(self.coeffs))
        return RationalPolynomial(padded[::-1])

    def to_strings(self) -> list[str]:
        return [str(c) for c in self.coeffs]

    @classmethod
    def from_strings(cls, items) -> "RationalPolynomial":
        return cls([Fraction(s) for s in items])

    def __repr__(self):
        return f"RationalPolynomial({[str(c) for c in self.coeffs]})"


class BivariatePolynomial:
    """Polynomial in z whose coefficients are RationalPolynomials in tau.

    Stored z-major: entry k is the tau-polynomial multiplying z^k.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [c if isinstance(c, RationalPolynomial) else RationalPolynomial(c)
              for c in coeffs]
        while cs and cs[-1].is_zero():
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("BivariatePolynomial is immutable")

    @property
    def degree_z(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other):
        if isinstance(other, BivariatePolynomial):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other):
        if not isinstance(other, BivariatePolynomial):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return BivariatePolynomial(out)

    def __neg__(self):
        return BivariatePolynomial([-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, RationalPolynomial)):
            return BivariatePolynomial([c * other for c in self.coeffs])
        if not isinstance(other, BivariatePolynomial):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return BivariatePolynomial()
        out = [RationalPolynomial()] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            for j, cb in enumerate(b):
                out[i + j] = out[i + j] + ca * cb
        return BivariatePolynomial(out)

    __rmul__ = __mul__

    def z_coeff(self, k: int) -> RationalPolynomial:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else RationalPolynomial()

    def times_z_power(self, k: int) -> "BivariatePolynomial":
        if self.is_zero():
            return self
        return BivariatePolynomial((RationalPolynomial(),) * k + self.coeffs)

    def divide_by_tau(self) -> "BivariatePolynomial":
        """Exact division of every z-coefficient by tau."""
        return BivariatePolynomial([c.divide_by_var() for c in self.coeffs])

    def to_strings(self) -> list[list[str]]:
        return [c.to_strings() for c in self.coeffs]

    @classmethod
    def from_strings(cls, items) -> "BivariatePolynomial":
        return cls([RationalPolynomial.from_strings(row) for row in items])

    def __repr__(self):
        return f"BivariatePolynomial({self.to_strings()})"


_BIV_ONE = BivariatePolynomial([RationalPolynomial([1])])


class _MemoList:
    """Append-only memo table; growth is serialized, reads are lock-free."""

    def __init__(self, build_next):
        self._items: list = []
        self._lock = threading.Lock()
        self._build_next = build_next

    def get(self, n: int):
        items = self._items
        if n < len(items):
            return items[n]
        with self._lock:
            while n >= len(self._items):
                self._items.append(self._build_next(len(self._items), self._items))
        return self._items[n]


def _next_bernoulli(n: int, table: list) -> Fraction:
    # sum_{k=0}^{n} C(n+1,k) B_k = 0 for n >= 1, solved for B_n.
    if n == 0:
        return _ONE
    if n % 2 == 1 and n > 1:
        return _ZERO
    s = _ZERO
    for k in range(n):
        if table[k]:
            s += comb(n + 1, k) * table[k]
    return -s / (n + 1)


_BERNOULLI = _MemoList(_next_bernoulli)


def bernoulli_number(n: int) -> Fraction:
    """Bernoulli number B_n (B_1 = -1/2 convention), exact."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return _BERNOULLI.get(n)


def bernoulli_polynomial(n: int) -> RationalPolynomial:
    """Bernoulli polynomial B_n(x) = sum_k C(n,k) B_{n-k} x^k, exact."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return RationalPolynomial(
        [comb(n, k) * bernoulli_number(n - k) for k in range(n + 1)])


def _next_q(n: int, table: list) -> RationalPolynomial:
    # Direct convolution q_n(tau) = sum_k C(n,k) B_k B_{n-k} tau^k.
    return RationalPolynomial(
        [comb(n, k) * bernoulli_number(k) * bernoulli_number(n - k)
         for k in range(n + 1)])


_Q_DIRECT = _MemoList(_next_q)


def q_poly(n: int) -> RationalPolynomial:
    """q_n(tau) by the direct Bernoulli convolution."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return _Q_DIRECT.get(n)


def _weight_poly(k: int) -> RationalPolynomial:
    # ((1+tau)^(k+2) - 1 - tau^(k+2)) / ((k+1)(k+2)); divisible by tau with
    # zero constant term, which is what makes the recursions' tau-division exact.
    denom = Fraction(1, (k + 1) * (k + 2))
    coeffs = [_ZERO] * (k + 3)
    for j in range(k + 3):
        coeffs[j] = comb(k + 2, j) * denom
    coeffs[0] -= denom
    coeffs[k + 2] -= denom
    return RationalPolynomial(coeffs)


def _next_q_recursive(n: int, table: list) -> RationalPolynomial:
    if n == 0:
        return RationalPolynomial([1])
    s = RationalPolynomial()
    for k in range(1, n + 1):
        s = s + comb(n, k) * _weight_poly(k) * table[n - k]
    return -s.divide_by_var()


_Q_RECURSIVE = _MemoList(_next_q_recursive)


def q_poly_recursive(n: int) -> RationalPolynomial:
    """q_n(tau) by the convolution-inverse recursion starting from q_0 = 1.

    The division by tau is performed as an exact coefficient shift; a nonzero
    remainder raises ConsistencyError.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    return _Q_RECURSIVE.get(n)


def _next_p(n: int, table: list) -> BivariatePolynomial:
    # index shift: table[i] holds P_{i+1}
    n = n + 1
    return BivariatePolynomial(
        [comb(n + 2, k + 2) * q_poly(n - k) for k in range(1, n + 1)])


_P_DIRECT = _MemoList(_next_p)


def p_poly(n: int) -> BivariatePolynomial:
    """P_n(z;tau) = sum_{k=1}^{n} C(n+2,k+2) q_{n-k}(tau) z^(k-1)."""
    if n < 1:
        raise ValueError("n must be positive")
    return _P_DIRECT.get(n - 1)


def _next_p_recursive(idx: int, table: list) -> BivariatePolynomial:
    n = idx + 1
    if n == 1:
        return _BIV_ONE
    s = BivariatePolynomial()
    for k in range(1, n):
        w = _weight_poly(k) * Fraction((k + 1) * (k + 2),
                                       (n - k + 1) * (n - k + 2))
        s = s + (table[n - k - 1] * (comb(n + 2, k + 2) * w))
    zpow = _BIV_ONE.times_z_power(n - 1)
    return zpow - s.divide_by_tau()


_P_RECURSIVE = _MemoList(_next_p_recursive)


def p_poly_recursive(n: int) -> BivariatePolynomial:
    """P_n(z;tau) by the recursion starting from P_1 = 1 (exact tau-division).

    The engine builds from ``p_poly``; this route stays as the independent
    reference the tests compare it against, and the benchmark traces it.
    """
    if n < 1:
        raise ValueError("n must be positive")
    return _P_RECURSIVE.get(n - 1)


def _b_tilde(k: int) -> RationalPolynomial:
    # z^-3 (B_k(z) - B_k(0) - B_k'(0) z - B_k''(0) z^2/2): drop the three
    # lowest Bernoulli-polynomial coefficients and shift down.
    if k < 3:
        raise ValueError("defined for k >= 3")
    return RationalPolynomial(bernoulli_polynomial(k).coeffs[3:])


def p_poly_alt(n: int) -> BivariatePolynomial:
    """P_n(z;tau) via the truncated-Bernoulli-polynomial form."""
    if n < 1:
        raise ValueError("n must be positive")
    out = BivariatePolynomial()
    for k in range(1, n + 1):
        scale = comb(n + 2, k + 2) * bernoulli_number(n - k)
        if scale == 0:
            continue
        tau_mono = RationalPolynomial([_ZERO] * (n - k) + [scale])
        zpoly = _b_tilde(k + 2)
        out = out + BivariatePolynomial([c * tau_mono for c in zpoly.coeffs])
    return out


def eval_rational_poly(p: RationalPolynomial, x: complex) -> complex:
    """Horner evaluation; each coefficient is rounded to binary64 once."""
    acc = 0j
    for c in reversed(p.coeffs):
        acc = acc * x + float(c)
    return acc


def eval_bivariate(p: BivariatePolynomial, z: complex, tau: complex) -> complex:
    """Horner in z over Horner-in-tau coefficient values."""
    acc = 0j
    for c in reversed(p.coeffs):
        acc = acc * z + eval_rational_poly(c, tau)
    return acc
