"""Double gamma engine.

``log_double_gamma`` evaluates the canonical logarithm of G(z;tau) as the
term-wise log of the truncated Gamma-product

    ln G_N = -ln tau - lgG(z) + a~ z/tau + b~ z^2/(2 tau^2)
             + sum_{m=1}^{N} [lgG(m tau) - lgG(z+m tau) + z psi(m tau)
                              + (z^2/2) psi'(m tau)]

plus the order-M correction

    z^3 sum_{k=1}^{M} (-tau)^(-k-1) P_k(z;-tau) / (k(k+1)(k+2)) N^(-k),

with P_k evaluated from the exact polynomial tables. The term-wise sum fixes
a specific branch ("canonical logarithm"); it is never reduced mod 2 pi i,
and identity tests always compare multiplicatively or modulo 2 pi i.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

from . import backend
from ._laurent import Laurent
from .backend import LN_2PI
from .errors import (
    ArgumentConditionError,
    CapacityError,
    ConsistencyError,
    DomainError,
    LatticeZeroError,
    SectorError,
)
from .kernels import QuadratureSpec, integrate_semiaxis, log_gamma
from .modular import (_cut_distance, check_finite, check_off_cut, default_m,
                      modular_forms_cached)
from .polys import eval_rational_poly, p_poly, q_poly

_N_CAP = 1_000_000
# error target of the automatic truncation
_TARGET = 1e-12


@dataclass(frozen=True)
class ComputeParams:
    """Truncation controls: product length N, correction order M, and the
    Euler-Maclaurin length m_cd behind a_tilde / b_tilde."""

    N: int
    M: int = 12
    m_cd: int | None = None

    def __post_init__(self):
        if self.N < 1:
            raise DomainError("N must be positive")
        if not 1 <= self.M <= 16:
            raise DomainError("M must be in 1..16")
        if self.m_cd is not None and self.m_cd < 1:
            raise DomainError("m_cd must be positive")


@dataclass(frozen=True)
class EvalResult:
    """Canonical log, value = exp(log), an a-posteriori error estimate, and
    the truncations actually used."""

    log_value: complex
    value: complex
    error_estimate: float
    params_used: ComputeParams

    def to_json_dict(self) -> dict:
        return {
            "log": {"re": self.log_value.real, "im": self.log_value.imag},
            "value": {"re": self.value.real, "im": self.value.imag},
            "err_est": self.error_estimate,
            "N": self.params_used.N,
            "M": self.params_used.M,
        }


@dataclass(frozen=True)
class AsymptoticCoeffs:
    """Coefficients of the large-z expansion of ln G(z;tau):
    (a2 z^2 + a1 z + a0) ln z + b2 z^2 + b1 z + b0 + sum tail[n] z^-n."""

    a0: complex
    a1: complex
    a2: complex
    b0: complex
    b1: complex
    b2: complex
    tail: tuple[complex, ...]
    tau: complex


def _safe_exp(w: complex) -> complex:
    try:
        return cmath.exp(w)
    except OverflowError:
        return complex(math.inf, math.inf)


def lattice_distance(z: complex, tau: complex) -> float:
    """Exact distance from z to the whole zero set {-m tau - n : m, n >= 0}.

    Row m is the distance from z + m tau to {0, -1, -2, ...}. It is at least
    |Im(z + m tau)| and at least Re(z + m tau), so only the rows where both
    are below the best distance so far can improve on it. Row 0 is at least
    |Im z| and Re z, so that window starts at m = 1; tau off the cut bounds
    it above, and it shrinks as the best distance does. Raises
    CapacityError, before scanning, when the first window spans more than
    _N_CAP rows; choose_params refuses every such input as well.
    """
    z = check_finite(z, "z")
    tau = check_off_cut(tau)
    best = math.inf
    m = stop = 0
    while m <= stop:
        w = z + m * tau
        d = abs(w + max(0, round(-w.real)))
        if d < best:
            best = d
            stop = math.inf
            if tau.imag:
                stop = max((best - z.imag) / tau.imag, (-best - z.imag) / tau.imag)
            if tau.real > 0.0:
                stop = min(stop, (best - z.real) / tau.real)
            stop += 1.0  # a row of slack for the rounding of the bound
            if stop > _N_CAP:
                raise CapacityError(
                    f"zero-lattice scan would exceed {_N_CAP} multiples of tau")
        m += 1
    return best


# An lru_cache function rather than a plain table: the benchmark reports its
# cache_info().
@functools.lru_cache(maxsize=64)
def _p_rounded(k: int) -> tuple[tuple[float, ...], ...]:
    # z-major coefficient matrix of P_k from the exact tables, each rational
    # rounded to binary64 once (same rounding eval_bivariate would apply).
    # The direct convolution is the cheapest exact route to build cold.
    return tuple(tuple(float(c) for c in row.coeffs)
                 for row in p_poly(k).coeffs)


def _eval_p(coeffs, z: complex, tau: complex) -> complex:
    acc = 0j
    for row in reversed(coeffs):
        v = 0j
        for c in reversed(row):
            v = v * tau + c
        acc = acc * z + v
    return acc


def _correction(z: complex, tau: complex, N: int, M: int) -> tuple[complex, float]:
    """Correction series value and the magnitude of its last term."""
    z3 = z * z * z
    inv_neg_tau = -1.0 / tau
    pw = inv_neg_tau * inv_neg_tau      # (-tau)^(-k-1) at k = 1
    invN = 1.0 / N
    npow = invN
    acc = 0j
    last = 0.0
    for k in range(1, M + 1):
        pk = _eval_p(_p_rounded(k), z, -tau)
        term = z3 * pw * pk / (k * (k + 1) * (k + 2)) * npow
        acc += term
        last = abs(term)
        pw *= inv_neg_tau
        npow *= invN
    return acc, last


def _error_heuristic(z: complex, tau: complex, N: int, last_term: float) -> float:
    # geometric-tail heuristic scaled by N; the series ratio is ~ |z/(N tau)|
    r = abs(z) / (N * abs(tau))
    if r == 0.0:
        return 0.0
    if r >= 1.0:
        return math.inf
    return last_term * N / (1.0 / r - 1.0)


def _disk_clears_cut(N: int, tau: complex, z: complex) -> bool:
    # validity condition: the disk |w - N tau| <= 2|z| must miss (-inf, 0].
    return _cut_distance(N * tau) > 2.0 * abs(z)


def choose_params(z: complex, tau: complex) -> ComputeParams:
    """Pick (N, M, m_cd) adaptively: M = 12, N floor 64 scaled by |z|/|tau|,
    then doubled until the error heuristic meets 1e-12 (cap 10^6)."""
    tau = check_off_cut(tau)
    z = check_finite(z, "z")
    N = max(64, math.ceil(8.0 * (2.0 + abs(z)) / abs(tau)))
    M = 12
    while True:
        if N > _N_CAP:
            raise CapacityError(f"product truncation exceeded {_N_CAP}")
        if _disk_clears_cut(N, tau, z):
            _, last = _correction(z, tau, N, M)
            if _error_heuristic(z, tau, N, last) <= _TARGET:
                break
        N *= 2
    return ComputeParams(N=N, M=M, m_cd=default_m(tau))


def log_double_gamma(z: complex, tau: complex,
                     params: ComputeParams | None = None) -> EvalResult:
    """Canonical log of G(z;tau); raises LatticeZeroError at zeros of G,
    whether or not the product with the given N would reach them."""
    tau = check_off_cut(tau)
    z = check_finite(z, "z")
    tol = 1e-12 * (1.0 + abs(z))
    if lattice_distance(z, tau) <= tol:
        raise LatticeZeroError(
            f"G({z};{tau}) = 0 on the zero lattice; no finite logarithm")
    if params is None:
        params = choose_params(z, tau)
    m_cd = params.m_cd if params.m_cd is not None else default_m(tau)
    mf = modular_forms_cached(tau, m_cd)
    corr, last = _correction(z, tau, params.N, params.M)
    log_val = (-cmath.log(tau) - log_gamma(z)
               + mf.a_tilde * z / tau
               + mf.b_tilde * z * z / (2.0 * tau * tau)
               + backend.gn_sum(z, tau, params.N)
               + corr)
    return EvalResult(
        log_value=log_val,
        value=_safe_exp(log_val),
        error_estimate=_error_heuristic(z, tau, params.N, last),
        params_used=params,
    )


def double_gamma_value(z: complex, tau: complex,
                       params: ComputeParams | None = None) -> complex:
    """G(z;tau) everywhere, returning exactly 0 on the zero lattice."""
    try:
        return log_double_gamma(z, tau, params).value
    except LatticeZeroError:
        return 0j


def asymptotic_coeffs(tau: complex, n_tail: int = 0,
                      params: ComputeParams | None = None) -> AsymptoticCoeffs:
    """Closed-form a/b coefficients plus n_tail inverse-power tail terms."""
    tau = check_off_cut(tau)
    if n_tail < 0:
        raise DomainError("n_tail must be nonnegative")
    ln_tau = cmath.log(tau)
    inv = 1.0 / tau
    tail = []
    for n in range(1, n_tail + 1):
        qv = eval_rational_poly(q_poly(n + 2), tau)
        sign = 1.0 if (n + 1) % 2 == 0 else -1.0
        tail.append(sign * qv / (tau * n * (n + 1) * (n + 2)))
    return AsymptoticCoeffs(
        a0=tau / 12.0 + 0.25 + inv / 12.0,
        a1=-0.5 * (1.0 + inv),
        a2=0.5 * inv,
        b0=b0_of_tau(tau, params),
        b1=0.5 * ((inv + 1.0) * (1.0 + ln_tau) + LN_2PI),
        b2=-(1.5 + ln_tau) / (2.0 * tau),
        tail=tuple(tail),
        tau=tau,
    )


def _sector_gap(theta: float, cut_angle: float) -> float:
    d = math.fmod(theta - cut_angle, 2.0 * math.pi)
    if d > math.pi:
        d -= 2.0 * math.pi
    elif d < -math.pi:
        d += 2.0 * math.pi
    return abs(d)


def log_double_gamma_asymptotic(z: complex, tau: complex, n_tail: int = 8,
                                coeffs: AsymptoticCoeffs | None = None) -> complex:
    """Large-z expansion of ln G; principal log z, so the result matches the
    canonical logarithm only modulo 2 pi i (compare on exp).

    z must stay 0.2 rad away from the two zero-cone directions pi and
    arg(-tau); violations raise SectorError.
    """
    tau = check_off_cut(tau)
    z = check_finite(z, "z")
    if z == 0:
        raise SectorError("z = 0 is outside every admissible sector")
    theta = cmath.phase(z)
    if (_sector_gap(theta, math.pi) < 0.2
            or _sector_gap(theta, cmath.phase(-tau)) < 0.2):
        raise SectorError(
            f"arg z = {theta:.3f} is within 0.2 rad of the zero cone")
    if coeffs is None or coeffs.tau != tau or len(coeffs.tail) < n_tail:
        coeffs = asymptotic_coeffs(tau, n_tail)
    ln_z = cmath.log(z)
    acc = ((coeffs.a2 * z * z + coeffs.a1 * z + coeffs.a0) * ln_z
           + coeffs.b2 * z * z + coeffs.b1 * z + coeffs.b0)
    zp = 1.0 / z
    for n in range(n_tail):
        acc += coeffs.tail[n] * zp
        zp /= z
    return acc


def b0_of_tau(tau: complex, params: ComputeParams | None = None) -> complex:
    """Constant term of the large-z expansion, from the closed form
    b0 = (1/3){ln[G(1/2;tau)^2 G(tau;2tau)] - (1+tau)/2 ln 2pi
               - a0(tau) ln(tau^3/2) - ln 2} with canonical engine logs."""
    tau = check_off_cut(tau)
    lg_half = log_double_gamma(0.5, tau, params).log_value
    lg_tt = log_double_gamma(tau, 2.0 * tau, params).log_value
    a0 = tau / 12.0 + 0.25 + 1.0 / (12.0 * tau)
    ln2 = math.log(2.0)
    return (2.0 * lg_half + lg_tt
            - 0.5 * (1.0 + tau) * LN_2PI
            - a0 * (3.0 * cmath.log(tau) - ln2)
            - ln2) / 3.0


def gamma2(z: complex, w1: complex, w2: complex,
           params: ComputeParams | None = None) -> EvalResult:
    """Symmetric double gamma via
    Gamma_2(z;w1,w2) = (2pi)^(z/(2w1)) w2^(-z^2/(2w1w2)+z(w1+w2)/(2w1w2)-1)
                       / G(z/w1; w2/w1), principal powers.

    Valid under |arg w1 - arg w2| < pi with both arguments in (-pi, pi).
    """
    z = complex(z)
    w1 = complex(w1)
    w2 = complex(w2)
    for name, w in (("w1", w1), ("w2", w2)):
        if w == 0 or (w.imag == 0.0 and w.real < 0.0):
            raise ArgumentConditionError(
                f"arg {name} must lie in (-pi, pi); got {w}")
    if abs(cmath.phase(w1) - cmath.phase(w2)) >= math.pi:
        raise ArgumentConditionError(
            "|arg w1 - arg w2| < pi is required for the symmetric form")
    inner = log_double_gamma(z / w1, w2 / w1, params)
    p = -z * z / (2.0 * w1 * w2) + z * (w1 + w2) / (2.0 * w1 * w2) - 1.0
    log_val = (z / (2.0 * w1) * LN_2PI + p * cmath.log(w2) - inner.log_value)
    return EvalResult(
        log_value=log_val,
        value=_safe_exp(log_val),
        error_estimate=inner.error_estimate,
        params_used=inner.params_used,
    )


def log_G_integrand(z: complex, tau: complex):
    """Integrand of the semi-axis representation of ln G, with a
    cancellation-safe series branch below x_c (the bracket is a difference of
    1/x^2-singular pieces with a finite limit at 0)."""
    z = complex(z)
    tau = complex(tau)
    cutoff = 0.25 / max(1.0, abs(tau), abs(z))
    e_t = Laurent.exp_series(-tau)
    e_z = Laurent.exp_series(-z)
    e_1 = Laurent.exp_series(-1.0)
    s_x = Laurent.s_series(1.0)
    s_tx = Laurent.s_series(tau)
    c0 = (z - 1.0) * (z / (2.0 * tau) - 1.0)
    bracket = ((e_t - e_z) * s_x * s_tx
               - (e_t * s_tx).scaled(z)
               + e_t.scaled(c0)
               + e_1 * s_x)
    series = bracket.shifted(-1)
    scale = series.regular_scale() + 1.0
    if series.singular_part_size() > 1e-9 * scale:
        raise ConsistencyError(
            "singular coefficients of the ln G integrand failed to cancel")

    def f(x: float) -> complex:
        if x < cutoff:
            return series.eval_regular(x)
        sx = 1.0 / -math.expm1(-x)
        stx = 1.0 / (1.0 - cmath.exp(-tau * x))
        etx = cmath.exp(-tau * x)
        return ((etx - cmath.exp(-z * x)) * sx * stx
                - z * etx * stx + c0 * etx + math.exp(-x) * sx) / x

    return f


def log_G_via_integral(z: complex, tau: complex,
                       spec: QuadratureSpec = QuadratureSpec()) -> complex:
    """ln G(z;tau) by semi-axis quadrature (Re z > 0, Re tau > 0).

    Returns a real-analytic branch; it agrees with the canonical engine log
    modulo 2 pi i, so comparisons belong on exp.
    """
    z = complex(z)
    tau = complex(tau)
    if z.real <= 0.0 or tau.real <= 0.0:
        raise DomainError("the integral form requires Re z > 0 and Re tau > 0")
    return integrate_semiaxis(log_G_integrand(z, tau), spec)
