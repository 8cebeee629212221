"""Gamma modular forms C(tau), D(tau) and the derived constants a, b,
a_tilde, b_tilde, each computable by independent routes:

* ``modular_forms_em``        - Euler-Maclaurin partial sums with polygamma
                                corrections through psi^(7) / psi^(8);
* ``C_via_integral`` / ``D_via_integral`` - semi-axis integral forms;
* ``C_via_logG_derivative`` / ``D_via_logG_derivative`` - finite differences
                                of the double gamma canonical log;
* ``d_reflection_residual``   - the elliptic-integral reflection of D.

The Euler-Maclaurin route is evaluated in a regrouped form: the partial psi
sum and the log Gamma(m tau) term cancel to O(1) analytically, so the
regrouping substitutes the Stirling expansions and cancels the large pieces
symbolically. Plain binary64 summation of the raw formula would otherwise
cap the accuracy near 1e-12 for m ~ 1000; the regrouped form stays at a few
ulp. Both groupings are the same formula, including all displayed
correction terms, so the m-convergence order is unchanged.
The engine reads its limit m -> inf (``_modular_forms_inf``); an explicit
m runs ``modular_forms_em``, the paper's route and the limit's check.
"""

from __future__ import annotations

import cmath
import functools
import math
from . import backend
from ._laurent import Laurent
from ._record import Record, set_field
from .backend import (_MAX_ARG, EULER_GAMMA, LN_2PI, _binet, _cut_distance,
                      _psi_tail, phase)
from .errors import (CapacityError, ConsistencyError, DomainError,
                     PreconditionError, check_index)
from .kernels import (_N_CAP, QuadratureSpec, check_finite, elliptic_ke,
                      integrate_semiaxis, log_gamma, polygamma)

_PI2_6 = math.pi * math.pi / 6.0


class ModularForms(Record):
    """C, D and the exponent constants at a fixed tau.

    a, b, a_tilde, b_tilde are filled from C and D by construction:
    a = -gamma tau + (tau/2) log(2 pi tau) + log(tau)/2 - tau C,
    b = -pi^2 tau^2/6 - tau log tau - tau^2 D,
    a_tilde = a + gamma tau, b_tilde = b + pi^2 tau^2/6.
    """

    __slots__ = ("C", "D", "a", "b", "a_tilde", "b_tilde", "tau", "m_used",
                 "error_estimate")

    def __init__(self, C: complex, D: complex, a: complex, b: complex,
                 a_tilde: complex, b_tilde: complex, tau: complex,
                 m_used: int, error_estimate: float):
        set_field(self, "C", C)
        set_field(self, "D", D)
        set_field(self, "a", a)
        set_field(self, "b", b)
        set_field(self, "a_tilde", a_tilde)
        set_field(self, "b_tilde", b_tilde)
        set_field(self, "tau", tau)
        set_field(self, "m_used", m_used)
        set_field(self, "error_estimate", error_estimate)

    def to_json_dict(self) -> dict:
        c = lambda v: {"re": v.real, "im": v.imag}  # noqa: E731
        return {
            "tau": c(self.tau),
            "C": c(self.C),
            "D": c(self.D),
            "a": c(self.a),
            "b": c(self.b),
            "a_tilde": c(self.a_tilde),
            "b_tilde": c(self.b_tilde),
            "m_used": self.m_used,
            "error_estimate": self.error_estimate,
        }


def check_off_cut(tau: complex, what: str = "tau") -> complex:
    tau = check_finite(tau, what)
    if tau.imag == 0.0 and tau.real <= 0.0:
        raise DomainError(f"{what} must lie off the cut (-inf, 0], got {tau}")
    return tau


def default_m(tau: complex) -> int:
    """Euler-Maclaurin length keeping |m tau| >= 64, and at Re tau < 0 also
    m |Im tau| >= 8, where the error of the sums grows as Im tau shrinks;
    CapacityError when that takes more than _N_CAP terms."""
    m = 64.0 / abs(tau)
    if tau.real < 0.0 and tau.imag:
        m = max(m, 8.0 / abs(tau.imag))
    if m > _N_CAP:
        raise CapacityError(f"Euler-Maclaurin length exceeded {_N_CAP}")
    return max(64, math.ceil(m))


def _odd_powers(tau: complex) -> tuple[complex, complex, complex]:
    """(tau^3, tau^5, tau^7); DomainError when tau^7 overflows binary64."""
    try:
        t3 = tau ** 3
        t5 = t3 * tau * tau
        t7 = t5 * tau * tau
        if not cmath.isfinite(t7):
            raise OverflowError
    except OverflowError:
        raise DomainError(f"tau^7 overflows binary64 at tau = {tau}") from None
    return t3, t5, t7


def modular_forms_em(tau: complex, m: int | None = None) -> ModularForms:
    """C(tau) and D(tau) by the Euler-Maclaurin route with m terms.

    Requires tau off (-inf, 0] and m tau at distance >= 1 from the cut;
    raises CapacityError, before summing, when m exceeds _N_CAP, and
    DomainError, before any kernel call, when tau^7 overflows. The
    error_estimate field is the magnitude of the last included correction
    term (heuristic, not a certified bound).
    """
    tau = check_off_cut(tau)
    m = default_m(tau) if m is None else check_index(m, "m")
    if m < 1:
        raise PreconditionError("m must be a positive integer")
    if m > _N_CAP:
        raise CapacityError(f"Euler-Maclaurin length exceeded {_N_CAP}")
    w = m * tau
    if _cut_distance(w) < 1.0:
        raise PreconditionError(
            f"m tau = {w} is within distance 1 of the cut; increase m")

    arg_tau = abs(phase(tau))
    ln_tau = cmath.log(tau)
    ln_m = math.log(m)

    t3, t5, t7 = _odd_powers(tau)
    psi_w, psi1_w = backend.psi_pair(w)
    last_c = t7 / 1209600.0 * polygamma(7, w)
    last_d = t7 / 1209600.0 * polygamma(8, w)
    corr_c = (-tau / 12.0 * psi1_w
              + t3 / 720.0 * polygamma(3, w)
              - t5 / 30240.0 * polygamma(5, w)
              + last_c)
    corr_d = (-tau / 12.0 * polygamma(2, w)
              + t3 / 720.0 * polygamma(4, w)
              - t5 / 30240.0 * polygamma(6, w)
              + last_d)

    k0 = _head(tau)
    regroup = arg_tau <= _MAX_ARG and m >= max(k0, 8)

    if regroup:
        psi_small, psi1_small, s0, s1, h1, h2 = backend.cd_sums(tau, m, k0)
        # sum psi(k tau) and -log Gamma(m tau)/tau with the Stirling pieces
        # cancelled symbolically; lgamma(k0) is the only explicit factorial.
        C = (psi_small - math.lgamma(k0) - k0 * ln_tau
             - 0.5 * ln_m + 0.5 * LN_2PI
             + _binet(complex(m)) - _binet(w) / tau
             + (ln_m + ln_tau) / (2.0 * tau)
             - h1 / (2.0 * tau) - s0
             + 0.5 * psi_w + corr_c)
        # psi(m tau) = log m + log tau - 1/(2 m tau) - S(m tau)
        D = (psi1_small + h1 / tau + h2 / (2.0 * tau * tau) + s1
             + 0.5 * psi1_w
             - (ln_m + ln_tau) / tau + 1.0 / (2.0 * m * tau * tau)
             + _psi_tail(w) / tau
             + corr_d)
    else:
        psi_small, psi1_small, _, _, _, _ = backend.cd_sums(tau, m, m)
        lg_w = log_gamma(w)
        C = (psi_small + 0.5 * psi_w
             - (lg_w - 0.5 * LN_2PI) / tau + corr_c)
        D = (psi1_small + 0.5 * psi1_w - psi_w / tau + corr_d)

    return _forms(tau, ln_tau, C, D, m, max(abs(last_c), abs(last_d)))


def _forms(tau: complex, ln_tau: complex, C: complex, D: complex,
           m: int | None, error_estimate: float) -> ModularForms:
    a = (-EULER_GAMMA * tau + 0.5 * tau * (LN_2PI + ln_tau)
         + 0.5 * ln_tau - tau * C)
    b = -_PI2_6 * tau * tau - tau * ln_tau - tau * tau * D
    # The tilde constants strip the lone transcendental constants from a and
    # b: a_tilde = a + gamma tau = (tau/2) log(2 pi tau) + log(tau)/2 - tau C,
    # b_tilde = b + pi^2 tau^2/6 = -tau log tau - tau^2 D. The sign on the
    # gamma shift is forced by G(1;tau) = 1 and the classical tau = 1 limit.
    return ModularForms(
        C=C, D=D, a=a, b=b,
        a_tilde=a + EULER_GAMMA * tau,
        b_tilde=b + _PI2_6 * tau * tau,
        tau=tau, m_used=m, error_estimate=error_estimate,
    )


def _head(tau: complex) -> int:
    """k0, the first k whose psi(k tau), psi'(k tau) come from Bernoulli
    tails: |k0 tau| >= 8, or 16 past |arg tau| = pi/2, as modular_forms_em
    regroups, and |k0 Im tau| >= 8 past 3pi/4. Never past default_m."""
    arg_tau = abs(phase(tau))
    if arg_tau > _MAX_ARG:
        return math.ceil(8.0 / abs(tau.imag))
    radius = 8.0 if arg_tau <= 0.5 * math.pi else 16.0
    return max(1, math.ceil(radius / abs(tau)))


def _modular_forms_inf(tau: complex) -> ModularForms:
    """C(tau) and D(tau) at m = inf, where modular_forms_em's log m terms
    cancel and H_(m-1) - log m -> gamma leaves psi(k0), k0 = _head(tau):

      C = sum_{k<k0} psi(k tau) - lgG(k0) - k0 ln tau + ln(2 pi)/2
          + ln(tau)/2 + (ln tau + psi(k0))/(2 tau) - sum_{k>=k0} S(k tau),
      D = sum_{k<k0} psi'(k tau) - (psi(k0) + ln tau)/tau
          + zeta(2, k0)/(2 tau^2) + sum_{k>=k0} S'(k tau).

    C's head sums psi(k tau) - log(k tau), the logs cancelling lgG(k0) +
    (k0 - 1) ln tau term by term. Refused, before any kernel call, where
    modular_forms_em(tau) is. m_used is None, and error_estimate the
    roundoff scale 2^-52 |lgG(k0) + k0 ln tau| (heuristic)."""
    tau = check_off_cut(tau)
    w = default_m(tau) * tau
    _odd_powers(tau)
    if not -w.real - abs(w.imag) <= _N_CAP:   # as polygamma(k, w) refuses
        raise CapacityError(
            f"polygamma shift at m tau = {w} would exceed {_N_CAP} steps")
    k0 = _head(tau)
    ln_tau = cmath.log(tau)
    ps, ps1 = backend._head_sums(tau, k0)
    head = backend._exact_sum([t - cmath.log(k * tau)
                               for k, t in enumerate(ps, start=1)])
    psi1_small = backend._exact_sum(ps1)
    s0, s1 = backend._hurwitz_tails(tau, k0)
    psi_k0 = backend._psi_pair_right(complex(k0))[0].real
    C = (head + 0.5 * (LN_2PI - ln_tau) + (ln_tau + psi_k0) / (2.0 * tau)
         - s0)
    D = (psi1_small - (psi_k0 + ln_tau) / tau
         + backend._zeta_row(k0, 2)[2] / (2.0 * (k0 * tau) ** 2) + s1)
    return _forms(tau, ln_tau, C, D, None,
                  2.0 ** -52 * abs(math.lgamma(k0) + k0 * ln_tau))


@functools.lru_cache(maxsize=512)
def modular_forms_cached(tau: complex, m: int | None) -> ModularForms:
    """Memoized modular_forms_em(tau, m), or _modular_forms_inf(tau) for m
    None (the engine hits the same tau repeatedly)."""
    if m is None:
        return _modular_forms_inf(tau)
    return modular_forms_em(tau, m)


# --------------------------------------------------------------- integrals

def _semiaxis_series(tau: complex) -> tuple[Laurent, ...]:
    """exp(-tau x), exp(-x), S(x) and S(tau x), S(y) = 1/(1 - e^-y), as
    Laurent series in x: the pieces of the semi-axis integrands."""
    return (Laurent.exp_series(-tau), Laurent.exp_series(-1.0),
            Laurent.s_series(1.0), Laurent.s_series(tau))


def _s_tau_x(tau: complex, x: float) -> complex:
    """S(tau x) = 1/(1 - e^(-tau x)) at a node x of a semi-axis integrand's
    large-x branch. DomainError where 1 - e^(-tau x) rounds to 0, as it
    does at |tau x| below about 2^-53: binary64 cannot resolve the pole
    there."""
    d = 1.0 - cmath.exp(-tau * x)
    if d == 0:
        raise DomainError(f"the integrand's 1 - exp(-tau x) rounds to 0 "
                          f"at tau = {tau}, x = {x}")
    return 1.0 / d


def _small_x_branch(series: Laurent, what: str, tol: float, cutoff: float,
                    large):
    """The integrand x -> series' regular part by Horner for x < cutoff,
    large(x) from there on. The x^-2 and x^-1 coefficients of series must
    cancel; their residue is pure rounding noise, checked against tol
    times the regular scale (plus 1) and dropped."""
    scale = series.regular_scale() + 1.0
    if series.singular_part_size() > tol * scale:
        raise ConsistencyError(
            f"singular coefficients of the {what} integrand failed to cancel")

    def f(x: float) -> complex:
        if x < cutoff:
            return series.eval_regular(x)
        return large(x)

    return f


def c_integrand(tau: complex):
    """Integrand of the C(tau) integral with a cancellation-safe x < x_c branch."""
    tau = complex(tau)
    e_t, e_1, s_x, s_tx = _semiaxis_series(tau)
    bracket = (s_x + Laurent.one().scaled(1.0 - 0.5 * tau)) * e_1

    def large(x: float) -> complex:
        sx = 1.0 / -math.expm1(-x)
        stx = _s_tau_x(tau, x)
        ex = math.exp(-x)
        return (cmath.exp(-tau * x) * sx * stx
                - ex / (tau * x) * (sx + 1.0 - 0.5 * tau))

    series = e_t * s_x * s_tx - bracket.shifted(-1).scaled(1.0 / tau)
    return _small_x_branch(series, "C", 1e-10, 0.25 / max(1.0, abs(tau)),
                           large)


def d_integrand(tau: complex):
    """Integrand of the D(tau) integral with a cancellation-safe x < x_c branch."""
    tau = complex(tau)
    e_t, e_1, s_x, s_tx = _semiaxis_series(tau)

    def large(x: float) -> complex:
        sx = 1.0 / -math.expm1(-x)
        stx = _s_tau_x(tau, x)
        return x * cmath.exp(-tau * x) * sx * stx - math.exp(-x) / (tau * x)

    series = (e_t * s_x * s_tx).shifted(1) - e_1.shifted(-1).scaled(1.0 / tau)
    return _small_x_branch(series, "D", 1e-10, 0.25 / max(1.0, abs(tau)),
                           large)


def C_via_integral(tau: complex, spec: QuadratureSpec = QuadratureSpec()) -> complex:
    """C(tau) from its semi-axis integral representation (Re tau > 0)."""
    tau = check_finite(tau, "tau")
    if tau.real <= 0.0:
        raise DomainError("the C integral requires Re tau > 0")
    return LN_2PI / (2.0 * tau) - integrate_semiaxis(c_integrand(tau), spec)


def D_via_integral(tau: complex, spec: QuadratureSpec = QuadratureSpec()) -> complex:
    """D(tau) from its semi-axis integral representation (Re tau > 0)."""
    tau = check_finite(tau, "tau")
    if tau.real <= 0.0:
        raise DomainError("the D integral requires Re tau > 0")
    return integrate_semiaxis(d_integrand(tau), spec)


# ----------------------------------------------------- derivative routes

def _canonical_log_stencil(tau: complex, h: float):
    # Five engine logs at tau + j h, shared params so truncation bias cancels
    # in the differences.
    from . import engine

    params = engine.choose_params(tau, tau)
    vals = {}
    for j in (-2, -1, 0, 1, 2):
        vals[j] = engine.log_double_gamma(tau + j * h, tau, params).log_value
    return vals


def C_via_logG_derivative(tau: complex) -> complex:
    """C(tau) from the first z-derivative of the canonical log at z = tau.

    Fourth-order central differences with step 1e-3 * max(1, |tau|).
    """
    tau = check_off_cut(tau)
    h = 1e-3 * max(1.0, abs(tau))
    v = _canonical_log_stencil(tau, h)
    d1 = (-v[2] + 8.0 * v[1] - 8.0 * v[-1] + v[-2]) / (12.0 * h)
    return (-(tau - 1.0) / (2.0 * tau) * cmath.log(tau)
            + 0.5 * LN_2PI - d1)


def D_via_logG_derivative(tau: complex) -> complex:
    """D(tau) from the second z-derivative of the canonical log at z = tau."""
    tau = check_off_cut(tau)
    h = 1e-3 * max(1.0, abs(tau))
    v = _canonical_log_stencil(tau, h)
    d2 = (-v[2] + 16.0 * v[1] - 30.0 * v[0] + 16.0 * v[-1] - v[-2]) / (12.0 * h * h)
    return -cmath.log(tau) / tau - d2


def d_reflection_residual(k: float) -> float:
    """|D(tau) + D(-tau) - RHS| for tau = i K'/K built from modulus k.

    RHS = pi^2/6 (1/tau^2 - 1) - pi i / tau + 2 E K - (2/3) K^2 (1 + k'^2).
    """
    if not 0.0 < k < 1.0:
        raise DomainError("modulus must lie in (0, 1)")
    K, E, Kp = elliptic_ke(k)
    tau = 1j * Kp / K
    d_plus = modular_forms_em(tau).D
    d_minus = modular_forms_em(-tau).D
    kp2 = 1.0 - k * k
    rhs = (_PI2_6 * (1.0 / (tau * tau) - 1.0)
           - 1j * math.pi / tau
           + 2.0 * E * K
           - (2.0 / 3.0) * K * K * (1.0 + kp2))
    return abs(d_plus + d_minus - rhs)
