"""Complex-argument building blocks: log Gamma, polygamma, q-Pochhammer,
complete elliptic integrals, and a double-exponential quadrature engine.

All functions are pure and safe for unrestricted concurrent use.
"""

from __future__ import annotations

import cmath
import math
from typing import Callable, NamedTuple

from . import backend
from ._record import Record, set_field
from .backend import _N_CAP
from .errors import CapacityError, ConvergenceError, DomainError, check_index

_EPS = 2.220446049250313e-16


def check_finite(w: complex, what: str) -> complex:
    w = complex(w)
    if not cmath.isfinite(w):
        raise DomainError(f"{what} must be finite, got {w}")
    return w


def log_gamma(z: complex) -> complex:
    """Principal-branch log Gamma, analytic on C minus (-inf, 0].

    Relative error a few ulp for |z| up to 1e6; raises PoleError at
    nonpositive integers.
    """
    return backend.loggamma(z)


def polygamma(k: int, z: complex) -> complex:
    """psi^(k)(z) for k = 0..12 (k = 0 is the digamma function)."""
    return backend.polygamma(check_index(k, "polygamma order"), z)


def q_pochhammer(a: complex, q: complex) -> complex:
    """(a; q)_infinity = prod_{n>=0} (1 - a q^n) for finite a and |q| < 1;
    DomainError otherwise, and when the product overflows binary64.
    CapacityError, before any factor, when the product needs more than
    _N_CAP factors."""
    a = check_finite(a, "a")
    q = check_finite(q, "q")
    aq = abs(q)
    if aq >= 1.0:
        raise DomainError("q-Pochhammer requires |q| < 1")
    # factors become exactly 1 once |a q^n| drops below the roundoff of 1,
    # after log(|a|/eps) / -log|q| of them
    aa = abs(a)
    if (aa >= _EPS and aq
            and math.log(aa) - math.log(_EPS) > -math.log(aq) * _N_CAP):
        raise CapacityError(
            f"q-Pochhammer product would exceed {_N_CAP} factors")
    prod = 1.0 + 0j
    term = a
    while abs(term) >= _EPS:
        prod *= (1.0 - term)
        term *= q
    if not cmath.isfinite(prod):
        raise DomainError(f"q-Pochhammer product ({a}; {q}) overflows binary64")
    return prod


# factors of _log_q_product with |e^(2 pi i u)| >= e^_BIG are summed in
# closed form (the neglected log(1 - e^(-2 pi i u)) is below 2^-60 a
# factor); factors with |e^(2 pi i u)| < e^-_SMALL (< 2^-53) are left out
_BIG = 42.0
_SMALL = 37.0
_TWO_PI = 2.0 * math.pi


def _turns(num: int, den: int) -> float:
    # num/den mod 1 in [-1/2, 1/2), den a power of two: exact integer
    # arithmetic, one rounding
    r = num % den
    if 2 * r >= den:
        r -= den
    return r / den


def _log_q_product(alpha: complex, beta: complex) -> tuple[complex, float]:
    """sum_{n>=0} log(1 - e^(2 pi i (alpha + n beta))) modulo 2 pi i, the log
    of (e^(2 pi i alpha); e^(2 pi i beta))_infinity, for finite alpha and
    Im beta > 0; and a bound on its roundoff and truncation.

    The product is never formed, so |e^(2 pi i alpha)| = e^(-2 pi Im alpha)
    may be far past binary64. The factors that large are summed in closed
    form, sum (2 pi i u_n + i pi), and the phase of every factor is reduced
    mod 1 in integer arithmetic, so a large n |Re beta| costs no bits of it.
    CapacityError, before any factor, past _N_CAP factors.
    """
    ya, yb = alpha.imag, beta.imag
    # u_n = alpha + n beta has |e^(2 pi i u_n)| = e^(-2 pi (ya + n yb)):
    # factors n < k are large, factors n >= end are left out
    last = (_SMALL / _TWO_PI - ya) / yb
    if not last < _N_CAP:
        raise CapacityError(
            f"q-Pochhammer product would exceed {_N_CAP} factors")
    end = max(0, math.floor(last) + 1)
    k = min(end, max(0, math.floor((-_BIG / _TWO_PI - ya) / yb) + 1))
    pa, da = alpha.real.as_integer_ratio()
    pb, db = beta.real.as_integer_ratio()
    den = max(da, db, 2)
    pa *= den // da
    pb *= den // db
    tri = k * (k - 1) // 2
    # closed form: sum_{n<k} 2 pi i u_n + i pi, with the phase mod 2 pi
    big = _TWO_PI * (k * ya + tri * yb)
    re = [-big]
    im = [_TWO_PI * _turns(k * pa + tri * pb + k * (den // 2), den)]
    # five roundings, in units of 2^-52: a half unit of each product
    # (times 2 pi), and of the sum, 2 pi and big
    err = math.pi * (abs(k * ya) + tri * yb) + 1.5 * abs(big)
    for n in range(k, end):
        x = _turns(pa + n * pb, den)
        y = ya + n * yb
        if y >= 0.0:
            d = backend._one_minus_exp2pi(complex(x, y))
            t = cmath.log(d)
        else:  # 1 - e = -e (1 - 1/e)
            d = backend._one_minus_exp2pi(complex(-x, -y))
            t = cmath.log(d) + complex(-_TWO_PI * y, _TWO_PI * x + math.pi)
        re.append(t.real)
        im.append(t.imag)
        # the term's own rounding, and that of u_n (2 ulps of |y|, one of
        # the unit phase) times |d term/du|: 2 pi |e|/|d| at y >= 0,
        # 2 pi/|d| past it
        err += abs(t) + (_TWO_PI * (2.0 * abs(y) + 1.0) / abs(d)
                         * (math.exp(-_TWO_PI * y) if y >= 0.0 else 1.0))
    # left-out terms: below 2 e^-_BIG at n = k - 1 and 2 e^-_SMALL at end,
    # each run geometric in |q| = e^(-2 pi yb)
    left_out = (2.0 * (math.exp(-_BIG) + math.exp(-_SMALL))
                / -math.expm1(-_TWO_PI * yb))
    return (complex(math.fsum(re), math.fsum(im)),
            _EPS * err + left_out)


class EllipticKE(NamedTuple):
    K: float
    E: float
    K_prime: float


def _agm_ke(k: float) -> tuple[float, float]:
    # Arithmetic-geometric mean with the c-sequence (A&S 17.6):
    # K = pi/(2 a_N), E = K (1 - sum 2^(n-1) c_n^2).
    a = 1.0
    b = math.sqrt(1.0 - k * k)
    c = k
    csum = 0.5 * c * c
    pow2 = 0.5
    for _ in range(60):
        if abs(c) <= _EPS * a:
            break
        a, b, c = 0.5 * (a + b), math.sqrt(a * b), 0.5 * (a - b)
        pow2 *= 2.0
        csum += pow2 * c * c
    K = math.pi / (2.0 * a)
    return K, K * (1.0 - csum)


def elliptic_ke(k: float) -> EllipticKE:
    """Complete elliptic integrals K(k), E(k) and K' = K(sqrt(1-k^2)).

    Modulus convention (not parameter m = k^2); k must lie in (0, 1).
    """
    if not 0.0 < k < 1.0:
        raise DomainError("elliptic modulus must lie in (0, 1)")
    K, E = _agm_ke(k)
    Kp, _ = _agm_ke(math.sqrt(1.0 - k * k))
    return EllipticKE(K, E, Kp)


# x = exp(c sinh t) maps R onto (0, inf); |c sinh t| is capped so x stays
# inside the double range.
_SINH_CAP = 695.0
_C = 0.5 * math.pi
# the finest level integrate_semiaxis may refine to: _level_sum at
# h = 2^-level evaluates at most t = 0 and t = j h for
# 1 <= |j| <= asinh(_SINH_CAP/_C)/h, 2 asinh(_SINH_CAP/_C) 2^level + 1
# nodes, which pass _N_CAP after level 16
_MAX_LEVEL = math.floor(
    math.log2((_N_CAP - 1) / (2.0 * math.asinh(_SINH_CAP / _C))))


class QuadratureSpec(Record):
    """Target absolute error and refinement cap for integrate_semiaxis.
    DomainError for a target that is not finite or below 10x unit
    roundoff, or a max_level below 1; CapacityError, before any node is
    evaluated, for a max_level past _MAX_LEVEL, whose finest level would
    evaluate more than _N_CAP nodes."""

    __slots__ = ("target", "max_level")

    def __init__(self, target: float = 1e-11, max_level: int = 11):
        if not math.isfinite(target):
            raise DomainError(f"quadrature target must be finite, got {target}")
        if target < 10.0 * _EPS:
            raise DomainError(
                "quadrature target below 10x unit roundoff is not attainable")
        max_level = check_index(max_level, "max_level")
        if max_level < 1:
            raise DomainError("max_level must be positive")
        if max_level > _MAX_LEVEL:
            raise CapacityError(
                f"quadrature level {max_level} would exceed {_N_CAP} nodes "
                f"(max_level <= {_MAX_LEVEL})")
        set_field(self, "target", target)
        set_field(self, "max_level", max_level)


def _level_sum(f: Callable[[float], complex], h: float, target: float) -> complex:
    total = f(1.0) * _C * 1.0  # t = 0: x = 1, weight c*cosh(0)*x = c
    tiny = 0.125 * target * h
    for direction in (1.0, -1.0):
        small = 0
        j = 1
        while True:
            t = direction * j * h
            s = _C * math.sinh(t)
            if abs(s) > _SINH_CAP:
                break
            x = math.exp(s)
            w = _C * math.cosh(t) * x
            term = w * f(x)
            total += term
            if abs(term) < tiny:
                small += 1
                if small >= 2 and j > 3:
                    break
            else:
                small = 0
            j += 1
    return total * h


def integrate_semiaxis(f: Callable[[float], complex],
                       spec: QuadratureSpec = QuadratureSpec()) -> complex:
    """Integral of f over (0, inf) by the exp-sinh double-exponential rule.

    The integrand must be analytic on the open half-line, decay exponentially
    at infinity, and have a finite limit at 0+ (it is never evaluated at 0).
    Levels double the node density until two successive levels agree within
    spec.target; exceeding spec.max_level raises ConvergenceError.
    """
    prev: complex | None = None
    h = 1.0
    for _ in range(spec.max_level + 1):
        cur = _level_sum(f, h, spec.target)
        if prev is not None and abs(cur - prev) <= spec.target:
            return cur
        prev = cur
        h *= 0.5
    raise ConvergenceError(
        f"semiaxis quadrature did not reach {spec.target} within "
        f"{spec.max_level} refinements")
