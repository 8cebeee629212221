"""Complex-argument building blocks: log Gamma, polygamma, q-Pochhammer,
complete elliptic integrals, and a double-exponential quadrature engine.

All functions are pure and safe for unrestricted concurrent use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

from . import backend
from .errors import ConvergenceError, DomainError

_EPS = 2.220446049250313e-16


def log_gamma(z: complex) -> complex:
    """Principal-branch log Gamma, analytic on C minus (-inf, 0].

    Relative error a few ulp for |z| up to 1e6; raises PoleError at
    nonpositive integers.
    """
    return backend.loggamma(z)


def log_gamma_stirling(z: complex) -> complex:
    """Second, algorithmically independent log Gamma route (shift + Binet).

    Exists so the primary route has an in-package cross-check.
    """
    return backend.loggamma_stirling(z)


def polygamma(k: int, z: complex) -> complex:
    """psi^(k)(z) for k = 0..12 (k = 0 is the digamma function)."""
    if k == 0:
        return backend.digamma(z)
    if k == 1:
        return backend.trigamma(z)
    return backend.polygamma(k, z)


def q_pochhammer(a: complex, q: complex) -> complex:
    """(a; q)_infinity = prod_{n>=0} (1 - a q^n) for |q| < 1."""
    a = complex(a)
    q = complex(q)
    if abs(q) >= 1.0:
        raise DomainError("q-Pochhammer requires |q| < 1")
    prod = 1.0 + 0j
    term = a
    # factors become exactly 1 once |a q^n| drops below the roundoff of 1
    while abs(term) >= _EPS:
        prod *= (1.0 - term)
        term *= q
    return prod


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


@dataclass(frozen=True)
class QuadratureSpec:
    """Target absolute error and refinement cap for integrate_semiaxis."""

    target: float = 1e-11
    max_level: int = 11

    def __post_init__(self):
        if self.target < 10.0 * _EPS:
            raise DomainError(
                "quadrature target below 10x unit roundoff is not attainable")
        if self.max_level < 1:
            raise DomainError("max_level must be positive")


# x = exp(c sinh t) maps R onto (0, inf); |c sinh t| is capped so x stays
# inside the double range.
_SINH_CAP = 695.0
_C = 0.5 * math.pi


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
