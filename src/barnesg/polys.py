"""Exact Bernoulli numbers and the two polynomial families q_n(tau) and
P_n(z;tau) that drive the double gamma correction series.

A polynomial is a tuple of Fractions, lowest power first, with trailing
zeros trimmed, so the zero polynomial is () and equality is tuple equality.
P_n(z;tau) is z-major: entry k is the tau-polynomial multiplying z^k.

q_terms is the one builder of the closed forms: q_poly, p_poly and
``barnesg polys`` read its exact (numerator, denominator) pairs as
Fractions, and the engine rounds each pair to binary64 as num / den. The
references q_poly_recursive, p_poly_recursive and p_poly_alt build the same
families by independent routes (recursion, and a Bernoulli-polynomial form
for P_n) that never call q_terms, in memo tables of their own, so the
tests' cross-route equalities stay meaningful. Nothing here is rounded.
"""

from __future__ import annotations

import threading
from fractions import Fraction
from math import comb

from .errors import ConsistencyError, DomainError, check_index

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _index(n, lowest: int) -> int:
    n = check_index(n, "n")
    if n < lowest:
        raise DomainError(f"n must be >= {lowest}")
    return n


# The reference routes' arithmetic on trimmed coefficient tuples.

def _trim(cs) -> tuple:
    cs = list(cs)
    while cs and not cs[-1]:
        cs.pop()
    return tuple(cs)


def _add(a: tuple, b: tuple) -> tuple:
    if len(a) < len(b):
        a, b = b, a
    return _trim([x + y for x, y in zip(a, b)] + list(a[len(b):]))


def _mul(a: tuple, b: tuple) -> tuple:
    if not a or not b:
        return ()
    out = [_ZERO] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
    return _trim(out)


def _scale(c, a: tuple) -> tuple:
    return _trim([c * x for x in a])


def _div_by_var(a: tuple) -> tuple:
    """Exact division by the variable; the constant term must vanish."""
    if a and a[0]:
        raise ConsistencyError(
            f"polynomial division by the variable leaves remainder {a[0]}")
    return a[1:]


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
    return _BERNOULLI.get(_index(n, 0))


def bernoulli_polynomial(n: int) -> tuple[Fraction, ...]:
    """Bernoulli polynomial B_n(x) = sum_k C(n,k) B_{n-k} x^k, exact."""
    n = _index(n, 0)
    return tuple(comb(n, k) * bernoulli_number(n - k) for k in range(n + 1))


def q_terms(n: int, scale: int = 1) -> tuple[tuple[int, int], ...]:
    """The coefficients of scale * q_n(tau), q_n = sum_i C(n,i) B_i B_(n-i)
    tau^i, as exact (numerator, denominator) pairs, trailing zeros trimmed.

    The pairs are not in lowest terms. Each rounds correctly to binary64 as
    one quotient of integers, num / den, so that float has the bits of
    float() of the exact rational.
    """
    n = _index(n, 0)
    terms = []
    for i in range(n + 1):
        a, b = _BERNOULLI.get(i), _BERNOULLI.get(n - i)
        terms.append((scale * comb(n, i) * a.numerator * b.numerator,
                      a.denominator * b.denominator))
    while not terms[-1][0]:
        terms.pop()
    return tuple(terms)


def _fractions(terms) -> tuple[Fraction, ...]:
    return tuple(Fraction(num, den) for num, den in terms)


_Q_DIRECT = _MemoList(lambda n, table: _fractions(q_terms(n)))


def q_poly(n: int) -> tuple[Fraction, ...]:
    """q_n(tau) by the direct Bernoulli convolution."""
    return _Q_DIRECT.get(_index(n, 0))


def _weight_poly(k: int) -> tuple[Fraction, ...]:
    # ((1+tau)^(k+2) - 1 - tau^(k+2)) / ((k+1)(k+2)); divisible by tau with
    # zero constant term, which is what makes the recursions' tau-division exact.
    denom = Fraction(1, (k + 1) * (k + 2))
    return (_ZERO,) + tuple(comb(k + 2, j) * denom for j in range(1, k + 2))


def _next_q_recursive(n: int, table: list) -> tuple[Fraction, ...]:
    # q_n = -tau^-1 sum_{k=1}^{n} C(n,k) w_k(tau) q_(n-k), from q_0 = 1
    if n == 0:
        return (_ONE,)
    s = ()
    for k in range(1, n + 1):
        s = _add(s, _mul(_scale(comb(n, k), _weight_poly(k)), table[n - k]))
    return _scale(-1, _div_by_var(s))


_Q_RECURSIVE = _MemoList(_next_q_recursive)


def q_poly_recursive(n: int) -> tuple[Fraction, ...]:
    """q_n(tau) by the convolution-inverse recursion starting from q_0 = 1.

    The division by tau is performed as an exact coefficient shift; a nonzero
    remainder raises ConsistencyError.
    """
    return _Q_RECURSIVE.get(_index(n, 0))


# table[i] holds P_(i+1)
_P_DIRECT = _MemoList(lambda i, table: tuple(
    _fractions(q_terms(i + 1 - k, comb(i + 3, k + 2)))
    for k in range(1, i + 2)))


def p_poly(n: int) -> tuple[tuple[Fraction, ...], ...]:
    """P_n(z;tau) = sum_{k=1}^{n} C(n+2,k+2) q_{n-k}(tau) z^(k-1)."""
    return _P_DIRECT.get(_index(n, 1) - 1)


def _next_p_recursive(idx: int, table: list) -> tuple[tuple[Fraction, ...], ...]:
    # table[i] holds P_(i+1); P_n = z^(n-1) - tau^-1 sum_{k=1}^{n-1}
    # C(n+2,k+2) w_k(tau) (k+1)(k+2) / ((n-k+1)(n-k+2)) P_(n-k)
    n = idx + 1
    s = [()] * (n - 1)
    for k in range(1, n):
        w = _scale(Fraction(comb(n + 2, k + 2) * (k + 1) * (k + 2),
                            (n - k + 1) * (n - k + 2)), _weight_poly(k))
        for i, c in enumerate(table[n - k - 1]):
            s[i] = _add(s[i], _mul(c, w))
    return tuple(_scale(-1, _div_by_var(c)) for c in s) + ((_ONE,),)


_P_RECURSIVE = _MemoList(_next_p_recursive)


def p_poly_recursive(n: int) -> tuple[tuple[Fraction, ...], ...]:
    """P_n(z;tau) by the recursion starting from P_1 = 1 (exact tau-division).

    The independent reference for p_poly in the tests, and a span the
    benchmark traces.
    """
    return _P_RECURSIVE.get(_index(n, 1) - 1)


def _b_tilde(k: int) -> tuple[Fraction, ...]:
    # z^-3 (B_k(z) - B_k(0) - B_k'(0) z - B_k''(0) z^2/2): drop the three
    # lowest Bernoulli-polynomial coefficients and shift down.
    if k < 3:
        raise DomainError("defined for k >= 3")
    return bernoulli_polynomial(k)[3:]


def p_poly_alt(n: int) -> tuple[tuple[Fraction, ...], ...]:
    """P_n(z;tau) via the truncated-Bernoulli-polynomial form."""
    n = _index(n, 1)
    rows = [()] * n
    for k in range(1, n + 1):
        scale = comb(n + 2, k + 2) * bernoulli_number(n - k)
        if scale == 0:
            continue
        for i, c in enumerate(_b_tilde(k + 2)):
            rows[i] = _add(rows[i], _trim([_ZERO] * (n - k) + [c * scale]))
    return _trim(rows)
