"""Double gamma engine.

``log_double_gamma`` evaluates the canonical logarithm of G(z;tau) as the
term-wise log of the Gamma-product

    ln G = -ln tau - lgG(z) + a~ z/tau + b~ z^2/(2 tau^2)
           + sum_{m>=1} [lgG(m tau) - lgG(z+m tau) + z psi(m tau)
                         + (z^2/2) psi'(m tau)].

With explicit ComputeParams it sums the first N terms (backend.gn_sum) and
adds the order-M correction for the rest,

    z^3 sum_{k=1}^{M} (-tau)^(-k-1) P_k(z;-tau) / (k(k+1)(k+2)) N^(-k),

with P_k's coefficients built from the exact Bernoulli numbers in integer
arithmetic, each rounded to binary64 once. The correction sums the
coefficients of _coefficients, the one evaluator that the plan reads too.
An automatic evaluation at |arg tau| <= 3pi/4 that
takes the product sums every term instead, the limit N -> inf that the
correction approximates: the direct terms below
gn_sum's switch point and its swapped series from there on
(backend._gn_parts), with no correction. a~ and b~ come from the modular
forms C and D at m = inf, or at an explicit Euler-Maclaurin length m_cd.
The term-wise sum fixes a specific branch ("canonical logarithm"); it is
never reduced mod 2 pi i, and
identity tests always compare multiplicatively or modulo 2 pi i. Automatic
evaluations may take one of three other routes: the large-z expansion
("asymptotic"), the expansion at z + n tau carried back by n shift
equations, for a large z inside the zero cone ("shifted"), or, at
|arg tau| > 3pi/4, the reflection identity ("reflection"); their logs match
the canonical one only modulo 2 pi i.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math

from . import backend
from ._laurent import Laurent
from ._record import Record, set_field
from .backend import LN_2PI, _cut_distance, phase
from .errors import (
    ArgumentConditionError,
    CapacityError,
    DomainError,
    LatticeZeroError,
    SectorError,
    check_index,
)
from .kernels import (_N_CAP, QuadratureSpec, _log_q_product, check_finite,
                      integrate_semiaxis, log_gamma)
from .modular import (_head, _s_tau_x, _semiaxis_series, _small_x_branch,
                      check_off_cut, default_m, modular_forms_cached)
from .polys import q_terms

# error target of the automatic truncation, per unit of 1 + |z|: the
# binary64 resolution of a result of that size
_TARGET = 2.0 ** -52
# the automatic large-z route (_asymptotic_route): the most tail terms it
# sums, and the tail it keeps per tau (two more, for the omitted terms)
_TAIL_MAX = 16
_TAIL_LEN = _TAIL_MAX + 2
# the most tail terms asymptotic_coeffs builds: the coefficients of
# q_(n_tail+2) are rounded to binary64 (_q_rounded), and past n_tail = 257
# the largest of them overflows it
_TAIL_CAP = 257
# margin in rad the expansion keeps from the zero cone
_CONE_MARGIN = 0.2
# largest e^(-2 pi s) the route accepts (2 pi s >= ln(1/_TARGET), s >= 5.74);
# on a seeded grid the error of the terms beyond all orders stayed below
# 0.03 e^(-2 pi s) |log G|
_BEYOND_MAX = _TARGET
# product floor N0 past which building the coefficients for a fresh tau
# (b0_of_tau's two engine calls, ~1.9 ms) costs less than a product of N0
# terms (~12 us a term at a fresh tau with N0 in [200, 300), CPU time on a
# shared 2-CPU x86-64 machine); measured, the route wins 18 of 19 fresh points
# with N0 in [200, 300) and 21 of 29 in [100, 200)
_N0_CROSSOVER = 200
# the reflection route (_reflection_route) leaves to the product every z
# whose 1 - z (1 - conj z at Im tau > 0) lies within this of a zero of the
# inner G. Measured on a
# seeded grid (Im tau/|tau| in [1e-3, 0.6]): at distance d from such a point
# the route is off by at most about 1.1e-16/d, the product by 1e-13 to 1e-8
# whatever d; at d = 1e-4 the route's worst (1.2e-12) is below the
# product's worst where Im tau/|tau| >= 0.03 (3.6e-12)
_REFLECT_RADIUS = 1e-4
# the shifted route (_shifted_route): the most tau steps it takes, the
# factor c of its roundoff term c 2^-52 (sizes of the summed terms), and
# the largest error estimate it returns (the product answers past it).
# Against mpmath's barnesg at tau = 1 (110 seeded points in the zero cone,
# |z| in [20, 2000], n up to 1 883) the route's error stayed below
# 1.8 2^-52 |log G|, and below the estimate by a factor 1.5 at c = 2.5
_SHIFT_MAX = 2000
_SHIFT_ROUNDOFF = 2.5
_SHIFT_ERR_MAX = 1e-9
# an automatic evaluation at |arg tau| <= 3pi/4 runs no plan; it plans up
# front only where choose_params can refuse, past this product floor N0 or
# this |z|, so that reading params_used later never raises. Over seeded
# draws at |arg tau| <= 3pi/4 and |z| <= _PLAN_Z the least N0 refused under
# _N_CAP was 250 438 (at |tau| < 5e-4), and with N0 <= _PLAN_N0 the least
# |z| refused was 1.09e28 (at |tau| ~ 1e24, where the rows of P_k overflow
# binary64). Past _PLAN_N0 the product sums at least N0/4 direct terms, so
# the plan costs little there
_PLAN_N0 = _N_CAP // 10
_PLAN_Z = 1e20
# tau whose expansion coefficients _coeffs_memo keeps: more than the 21 a
# run_suite meets, at about 1 KB an entry
_COEFFS_MEMO = 64


class ComputeParams(Record):
    """Truncation controls: product length N, correction order M, and the
    Euler-Maclaurin length m_cd behind a_tilde / b_tilde (None, as in every
    plan of choose_params: C and D at m = inf)."""

    __slots__ = ("N", "M", "m_cd")

    def __init__(self, N: int, M: int = 12, m_cd: int | None = None):
        N, M = check_index(N, "N"), check_index(M, "M")
        if m_cd is not None:
            m_cd = check_index(m_cd, "m_cd")
        if N < 1:
            raise DomainError("N must be positive")
        if not 1 <= M <= 16:
            raise DomainError("M must be in 1..16")
        if m_cd is not None and m_cd < 1:
            raise DomainError("m_cd must be positive")
        set_field(self, "N", N)
        set_field(self, "M", M)
        set_field(self, "m_cd", m_cd)


class EvalResult(Record):
    """Canonical log, value = exp(log), an a-posteriori error estimate, the
    truncations planned, and the route that ran: "product" (the Gamma
    product), "asymptotic" (the large-z expansion), "shifted" (the
    expansion at z + n tau and n shift equations, for a large z inside the
    zero cone) or "reflection" (the paper's reflection identity, at
    |arg tau| > 3pi/4). The last three are taken by automatic evaluations
    only, and their log_value matches the canonical log only modulo
    2 pi i. On every automatic route params_used is choose_params' plan,
    the one an explicit call would run; the automatic product at
    |arg tau| <= 3pi/4 sums every term instead of N and a correction, so
    its log is not bit-identical to log_double_gamma(z, tau, params_used),
    and its error_estimate is the cut of its series, not the correction
    bound at the plan.

    An automatic result that ran no plan keeps its (z, tau) and plans on
    the first read of params_used, which every comparison, hash, repr,
    pickle, copy and to_json_dict makes: they see the same plan either
    way."""

    __slots__ = ("log_value", "value", "error_estimate", "_plan", "route")
    _fields = ("log_value", "value", "error_estimate", "params_used", "route")

    def __init__(self, log_value: complex, value: complex,
                 error_estimate: float, params_used: ComputeParams,
                 route: str = "product"):
        set_field(self, "log_value", log_value)
        set_field(self, "value", value)
        set_field(self, "error_estimate", error_estimate)
        set_field(self, "_plan", params_used)
        set_field(self, "route", route)

    @property
    def params_used(self) -> ComputeParams:
        plan = self._plan
        if type(plan) is tuple:
            # the (z, tau) of an automatic result (_result): planned now,
            # through the name this module binds, and kept. Concurrent
            # first reads may both plan, and get the same bits
            plan = choose_params(*plan)
            set_field(self, "_plan", plan)
        return plan

    def to_json_dict(self) -> dict:
        return {
            "log": {"re": self.log_value.real, "im": self.log_value.imag},
            "value": {"re": self.value.real, "im": self.value.imag},
            "err_est": self.error_estimate,
            "N": self.params_used.N,
            "M": self.params_used.M,
        }


class AsymptoticCoeffs(Record):
    """Coefficients of the large-z expansion of ln G(z;tau):
    (a2 z^2 + a1 z + a0) ln z + b2 z^2 + b1 z + b0 + sum tail[n] z^-n,
    and b0_error, the error estimate of b0 (the only coefficient computed
    by engine evaluations)."""

    __slots__ = ("a0", "a1", "a2", "b0", "b1", "b2", "tail", "tau",
                 "b0_error")

    def __init__(self, a0: complex, a1: complex, a2: complex, b0: complex,
                 b1: complex, b2: complex, tail: tuple[complex, ...],
                 tau: complex, b0_error: float = 0.0):
        set_field(self, "a0", a0)
        set_field(self, "a1", a1)
        set_field(self, "a2", a2)
        set_field(self, "b0", b0)
        set_field(self, "b1", b1)
        set_field(self, "b2", b2)
        set_field(self, "tail", tail)
        set_field(self, "tau", tau)
        set_field(self, "b0_error", b0_error)


def _safe_exp(w: complex) -> complex:
    try:
        return cmath.exp(w)
    except OverflowError:
        return complex(math.inf, math.inf)


def _row_distance(z: complex, tau: complex, m: int) -> float:
    # distance from z + m tau to the nearest of 0, -1, -2, ...
    w = z + m * tau
    try:
        return abs(w + max(0, round(-w.real)))
    except OverflowError:
        raise DomainError(
            f"z + m tau overflows binary64 at m = {m}") from None


def _rows_within(z: complex, tau: complex, r: float) -> range:
    """The rows m >= 1 whose z + m tau can come within r of {0, -1, -2, ...}:
    those with |Im(z + m tau)| <= r and Re(z + m tau) <= r, plus a row of
    slack at each end for the rounding of the bounds. tau off the cut bounds
    them. Raises CapacityError when they span more than _N_CAP rows."""
    lo, hi = 1.0, math.inf
    if tau.imag:
        a = (-r - z.imag) / tau.imag
        b = (r - z.imag) / tau.imag
        if a > b:
            a, b = b, a
        if a > lo:
            lo = a
        hi = b
    elif abs(z.imag) > r:
        return range(0)
    if tau.real:
        c = (r - z.real) / tau.real
        if tau.real > 0.0:
            if c < hi:
                hi = c
        elif c > lo:
            lo = c
    if hi + 1.0 < lo:
        return range(0)
    if not hi - lo <= _N_CAP:
        raise CapacityError(
            f"zero-lattice window would exceed {_N_CAP} multiples of tau")
    return range(max(1, math.floor(lo) - 1), math.ceil(hi) + 2)


def lattice_distance(z: complex, tau: complex) -> float:
    """Exact distance from z to the whole zero set {-m tau - n : m, n >= 0}.

    Row m is the distance from z + m tau to {0, -1, -2, ...}. After row 0
    only the rows _rows_within the best distance so far can improve on it,
    and that window shrinks as the best distance does. Raises CapacityError
    when a window spans more than _N_CAP rows, DomainError when a row
    overflows binary64.
    """
    z = check_finite(z, "z")
    tau = check_off_cut(tau)
    best = _row_distance(z, tau, 0)
    m = 1
    while best:  # at 0, z is a zero of G and nothing is nearer
        rows = _rows_within(z, tau, best)
        for m in range(max(m, rows.start), rows.stop):
            d = _row_distance(z, tau, m)
            if d < best:  # re-derive the window at the new best
                best = d
                break
        else:
            break  # no row of the window improves on best
        m += 1
    return best


def _zero_within(z: complex, tau: complex, tol: float) -> bool:
    """Whether a zero -m tau - n of G lies within tol of z: row 0, then the
    rows _rows_within tol. Raises as _rows_within and _row_distance do."""
    if _row_distance(z, tau, 0) <= tol:
        return True
    for m in _rows_within(z, tau, tol):
        if _row_distance(z, tau, m) <= tol:
            return True
    return False


# An lru_cache function rather than a plain table: the benchmark reports its
# cache_info().
@functools.lru_cache(maxsize=64)
def _p_rounded(k: int) -> tuple[tuple[float, ...], ...]:
    # z-major coefficient matrix of P_k = sum_j C(k+2,j+2) q_(k-j) z^(j-1),
    # j = 1..k: float() of each coefficient of p_poly(k), with its length
    return tuple(tuple(num / den
                       for num, den in q_terms(k - j, math.comb(k + 2, j + 2)))
                 for j in range(1, k + 1))


def _coefficients(z: complex, tau: complex):
    """Yield the N-free correction coefficients a_k = z^3 (-tau)^(-k-1)
    P_k(z;-tau) / (k(k+1)(k+2)) for k = 1, 2, ..., with P_k(z;-tau) by
    Horner in z over its rows, the coefficient of each power of z at -tau
    by Horner in -tau. The rows are built once per k and stored whole in
    p_rows, a field of tau's backend.tau_memo record. The k-th correction
    term at N is a_k N^(-k). Lazy: no order past the last one read is
    built. The plan, the correction and its error bound all read this one
    evaluator."""
    z3 = z * z * z
    t = -tau
    inv_neg_tau = -1.0 / tau
    pw = inv_neg_tau * inv_neg_tau      # (-tau)^(-k-1) at k = 1
    p_rows = backend.tau_memo(tau).p_rows
    for k in itertools.count(1):
        rows = p_rows.get(k)
        if rows is None:
            rows = []
            for row in _p_rounded(k):
                v = 0j
                for c in reversed(row):
                    v = v * t + c
                rows.append(v)
            p_rows[k] = rows
        pk = 0j
        for v in reversed(rows):
            pk = pk * z + v
        yield z3 * pw * pk / (k * (k + 1) * (k + 2))
        pw *= inv_neg_tau


def _error_bound(last: float, prev: float, N: int, M: int, az: float,
                 atau: float) -> float:
    """Truncation error of the correction after order M at N, where
    last = |a_M| and prev = |a_(M-1)| (read only when M > 1), az = |z|,
    atau = |tau|: the geometric tail |a_k| N^(1-k) |z| / (N|tau| - |z|) of
    the series in z/(N tau) past the term a_k N^(-k), the larger at k = M
    and M - 1. Order M - 1 counts because a small |P_M(z;-tau)| (a z near
    one of its zeros, or the odd orders at small |z|, whose terms run far
    below their neighbours') reads a small last term with a large error.
    Needs N|tau| > |z|."""
    bound = last * N ** (1 - M)
    if M > 1:
        bound = max(bound, prev * N ** (2 - M))
    return bound * az / (N * atau - az)


def _correction(z: complex, tau: complex, N: int,
                M: int) -> tuple[complex, float]:
    """The order-M correction sum_{k<=M} a_k N^(-k) at z, by Horner in 1/N
    over the first M orders of _coefficients, and its _error_bound from
    |a_M| and |a_(M-1)| of the same pass, the bits the plan read."""
    a = list(itertools.islice(_coefficients(z, tau), M))
    inv_n = 1.0 / N
    corr = 0j
    for ak in reversed(a):
        corr = corr * inv_n + ak
    return corr * inv_n, _error_bound(abs(a[M - 1]), abs(a[M - 2]), N, M,
                                      abs(z), abs(tau))


def _n_floor(z: complex, tau: complex) -> int:
    """Least N a plan may use: N0 = ceil(8(2+|z|)/|tau|), which is never below
    gn_sum's switch point (backend._switch_point: at |arg tau| <= 3pi/4 the
    cut distance is at least |tau|/sqrt(2)), and the least N
    whose disk |w - N tau| <= 2|z| misses the cut (-inf, 0]: N|tau| > 2|z|
    when Re tau >= 0, N|Im tau| > 2|z| otherwise. At Re tau < 0 also
    N |Im tau| >= 6.5, so the terms in |q|^N = e^(-2 pi N |Im tau|), which
    lie beyond every order of the correction, stay below 2^-52.
    DomainError when the floor overflows binary64, CapacityError past
    _N_CAP."""
    az = abs(z)
    scale = 8.0 * (2.0 + az)
    if math.isinf(scale):
        raise DomainError(f"|z| = {az} overflows binary64 in the N floor")
    floor = scale / abs(tau)
    if tau.real < 0.0:
        floor = max(floor, 6.5 / abs(tau.imag))
    cut = 2.0 * az / _cut_distance(tau)
    if not max(floor, cut) <= _N_CAP:
        raise CapacityError(f"product truncation exceeded {_N_CAP}")
    return max(math.ceil(floor), math.floor(cut) + 1)


def _plan(z: complex, tau: complex, orders) -> ComputeParams:
    """The least (N, M), M in orders (ascending), at which _error_bound
    meets the target: N = _n_floor with the first M that passes there, else
    the least N at which any order passes, with the first M that passes
    there. m_cd is None. Refusals as choose_params'.

    The bound decreases in N at every order, so that least N is bracketed
    by doubling from N0 and found by bisection. No order past the first M
    that passes at N0 is built.
    """
    tau = check_off_cut(tau)
    z = check_finite(z, "z")
    n0 = _n_floor(z, tau)
    default_m(tau)   # the modular forms' refusal, which the plan keeps
    az, atau = abs(z), abs(tau)
    target = _TARGET * (1.0 + az)
    coeffs = _coefficients(z, tau)
    mags = []   # mags[k - 1] = |a_k|; at M = 1, mags[M - 2] is not used
    for M in orders:
        while len(mags) < M:
            mags.append(abs(next(coeffs)))
        if _error_bound(mags[M - 1], mags[M - 2], n0, M, az, atau) <= target:
            return ComputeParams(N=n0, M=M)

    def first_order(N: int) -> int | None:
        return next((M for M in orders
                     if _error_bound(mags[M - 1], mags[M - 2], N, M, az, atau)
                     <= target), None)

    def passes(N: int) -> bool:  # past the cap, to stop the search there
        return N > _N_CAP or first_order(N) is not None

    lo, hi = n0, 2 * n0
    while not passes(hi):
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if passes(mid):
            hi = mid
        else:
            lo = mid
    if hi > _N_CAP:
        raise CapacityError(f"product truncation exceeded {_N_CAP}")
    return ComputeParams(N=hi, M=first_order(hi))


def choose_params(z: complex, tau: complex) -> ComputeParams:
    """Plan (N, M, m_cd) in closed form, with no trial evaluation.

    N starts at the floor N0 = ceil(8(2+|z|)/|tau|), raised where needed so
    that the disk |w - N tau| <= 2|z| misses the cut, and at Re tau < 0 to
    at least 6.5/|Im tau| (_n_floor). At N0 the plan takes
    the least M <= 16 whose error bound, over orders M and M - 1, meets the
    target 2^-52 (1 + |z|), the binary64 resolution of the result; only
    when no M does is N raised, to the least N any M reaches.
    m_cd is None. CapacityError when N would exceed _N_CAP, or where
    default_m(tau) refuses, as the modular forms do.
    """
    return _plan(z, tau, range(1, 17))


def log_double_gamma(z: complex, tau: complex,
                     params: ComputeParams | None = None) -> EvalResult:
    """Canonical log of G(z;tau); raises LatticeZeroError at zeros of G,
    whether or not the product with the given N would reach them.

    With params None the routes are chosen from (z, tau) alone. At
    |arg tau| > 3pi/4, where gn_sum never regroups, the reflection identity
    runs instead (route "reflection", _reflection_route), except where
    1 - z (1 - conj z at Im tau > 0) lies within _REFLECT_RADIUS of a zero
    of its inner G; the product at choose_params' N and M answers there.
    Elsewhere, where the large-z expansion passes _asymptotic_route's
    accuracy tests, the expansion runs instead: at z (route "asymptotic"),
    or, for a z inside the zero cone, at z + n tau, carried back by n shift
    equations (route "shifted"). On these routes the log matches the
    canonical log only modulo 2 pi i. Otherwise the product sums every
    term, with no N and no correction: the direct terms and S(m_switch) of
    backend._gn_parts, added with the prefactor pieces in one exact sum
    (backend._exact_sum), with the cut of that series,
    (_SERIES_EPS + (K - 2) _BINET_EPS) |z|, as the error estimate, and C
    and D at m = inf. So params_used is the plan an explicit call would
    run, but the log is not bit-identical to
    log_double_gamma(z, tau, r.params_used).

    At |arg tau| <= 3pi/4 no automatic route runs a plan, so none is made
    up front: the result plans when params_used is first read. The
    exceptions are points where choose_params can refuse (an N0 past
    _PLAN_N0 or a |z| past _PLAN_Z), which plan before the routes as the
    far sector does, so that every refusal comes from the call and reading
    params_used never raises. _n_floor's DomainError for an overflowing
    |z| comes at once; a CapacityError from _n_floor, default_m or the plan
    waits for the zero test.

    Explicit params always run the product at their N and M, its pieces
    summed exactly as the automatic product's, with the correction's
    error bound as the estimate, and raise CapacityError before summing
    when N exceeds _N_CAP or N |tau| <= |z|.

    Every route yields a log and its error estimate, and _result builds the
    EvalResult from them, with choose_params' plan, made or deferred, as
    params_used on an automatic route; a log that is not finite in
    binary64 raises DomainError.
    """
    tau = check_off_cut(tau)
    z = check_finite(z, "z")
    auto = params is None
    far = abs(phase(tau)) > backend._MAX_ARG  # gn_sum never regroups
    refused = None
    if auto:
        # before the zero test, so an overflowing |z| is refused at once; a
        # refusal for capacity waits for it, since a zero needs no terms.
        # The plan runs here only where it is run (the far sector's product)
        # or can refuse; elsewhere the result plans when params_used is read
        try:
            n0 = _n_floor(z, tau)
            default_m(tau)   # where the modular forms refuse
            plan = (choose_params(z, tau)
                    if far or n0 > _PLAN_N0 or abs(z) > _PLAN_Z else (z, tau))
        except CapacityError as exc:
            refused = exc
    if _zero_within(z, tau, 1e-12 * (1.0 + abs(z))):
        raise LatticeZeroError(
            f"G({z};{tau}) = 0 on the zero lattice; no finite logarithm")
    if refused is not None:
        raise refused
    if auto:
        found = (_reflection_route(z, tau) if far
                 else _asymptotic_route(z, tau, n0))
        if found is not None:
            return _result(found[0], found[1], plan, found[2])
        if far:
            params = plan
    else:
        if not abs(z) < params.N * abs(tau):
            # the correction series in z/(N tau) diverges: refuse before
            # summing
            raise CapacityError(
                f"N = {params.N} is too small for |z|/|tau| = "
                f"{abs(z) / abs(tau):.6g}; the product needs N |tau| > |z|")
        if params.N > _N_CAP:
            raise CapacityError(
                f"product truncation N = {params.N} exceeds {_N_CAP}")
    mf = modular_forms_cached(tau, None if auto else params.m_cd)
    lt, lg = -cmath.log(tau), log_gamma(z)
    at = mf.a_tilde * z / tau
    bt = mf.b_tilde * z * z / (2.0 * tau * tau)
    if auto and not far:
        # the product to N = inf, which the correction approximates: its
        # direct terms and S(m_switch), with no S(N + 1) and no correction
        terms, error = backend._gn_parts(z, tau)
    else:
        corr, error = _correction(z, tau, params.N, params.M)
        terms = (backend.gn_sum(z, tau, params.N), corr)
    # The pieces can cancel by an order of magnitude (at (4+i, 0.5+0.2i)
    # the b~ piece is 41 and the sum 47 for a log of 6.3), so they are
    # summed exactly rounded, with no rounding at ulp of the larger first;
    # NaN, refused below, where that sum meets inf - inf or overflows
    log_val = backend._exact_sum((lt, -lg, at, bt, *terms))
    if far:
        # gn_sum and the modular forms' sums (k < m_cd, or k0) never
        # regroup here, and the roundoff of their n direct terms, each about
        # |n tau| in size, grows as n^2: on a seeded grid of automatic and
        # doubled plans it stayed below 1.7 2^-52 N^2 |tau|
        n = max(params.N, params.m_cd or _head(tau))
        error += 4.0 * _TARGET * n * n * abs(tau)
    return _result(log_val, error, plan if auto else params)


def _result(log_val: complex, error: float, plan: ComputeParams | tuple,
            route: str = "product") -> EvalResult:
    """The EvalResult of every evaluation, whatever its route: a log that
    left binary64 on the way is refused with DomainError, not returned as
    exact; value is its exponential. plan is the ComputeParams reported as
    params_used, or the (z, tau) of an automatic evaluation that ran none,
    which the result plans from when params_used is first read."""
    if not cmath.isfinite(log_val):
        raise DomainError(f"log G is not finite in binary64: {log_val}")
    return EvalResult(log_val, _safe_exp(log_val), error, plan, route)


def double_gamma_value(z: complex, tau: complex,
                       params: ComputeParams | None = None) -> complex:
    """G(z;tau) everywhere, returning exactly 0 on the zero lattice."""
    try:
        return log_double_gamma(z, tau, params).value
    except LatticeZeroError:
        return 0j


@functools.lru_cache(maxsize=64)
def _q_rounded(n: int) -> tuple[float, ...]:
    # float() of each coefficient of q_poly(n), with its length
    return tuple(num / den for num, den in q_terms(n))


def _tail(tau: complex, n_tail: int) -> tuple[complex, ...]:
    """The inverse-power coefficients tail[n - 1] of z^-n, n = 1..n_tail:
    (-1)^(n+1) q_(n+2)(tau) / (tau n(n+1)(n+2))."""
    tail = []
    for n in range(1, n_tail + 1):
        qv = 0j
        for c in reversed(_q_rounded(n + 2)):
            qv = qv * tau + c
        sign = 1.0 if (n + 1) % 2 == 0 else -1.0
        tail.append(sign * qv / (tau * n * (n + 1) * (n + 2)))
    return tuple(tail)


def asymptotic_coeffs(tau: complex, n_tail: int = 0) -> AsymptoticCoeffs:
    """Closed-form a/b coefficients plus n_tail inverse-power tail terms:
    tau's memoized ones (_coeffs), their tail cut to n_tail terms, or
    built longer past _TAIL_LEN. DomainError for an n_tail outside
    0.._TAIL_CAP, before any work, and for a tail term that is not finite
    in binary64."""
    tau = check_off_cut(tau)
    n_tail = _check_tail(n_tail)
    c = _coeffs(tau)
    tail = c.tail[:n_tail] if n_tail <= _TAIL_LEN else _tail(tau, n_tail)
    if not all(map(cmath.isfinite, tail)):
        raise DomainError(
            f"the tail of {n_tail} terms at tau = {tau} is not finite in "
            "binary64")
    return AsymptoticCoeffs(c.a0, c.a1, c.a2, c.b0, c.b1, c.b2, tail, tau,
                            c.b0_error)


def _check_tail(n_tail: int) -> int:
    n_tail = check_index(n_tail, "n_tail")
    if not 0 <= n_tail <= _TAIL_CAP:
        raise DomainError(f"n_tail must be in 0..{_TAIL_CAP}, got {n_tail}")
    return n_tail


def _coeffs(tau: complex) -> AsymptoticCoeffs:
    """tau's AsymptoticCoeffs with _TAIL_LEN tail terms, from _coeffs_memo."""
    return _coeffs_memo(backend.tau_bits(tau), tau)


@functools.lru_cache(maxsize=_COEFFS_MEMO)
def _coeffs_memo(tau_bits: bytes, tau: complex) -> AsymptoticCoeffs:
    # tau's bits in the key, as in backend.tau_memo, keep 0.0 and -0.0
    # apart, which tau alone compares equal. The same thread contract:
    # deterministic values stored whole; a concurrent miss computes the
    # same bits twice. b0 is the closed form of b0_of_tau, with its own
    # rounding of a0, and its error is its share of the estimates of its
    # two engine calls
    half = log_double_gamma(0.5, tau)
    tt = log_double_gamma(tau, 2.0 * tau)
    ln_tau = cmath.log(tau)
    inv = 1.0 / tau
    ln2 = math.log(2.0)
    b0 = (2.0 * half.log_value + tt.log_value
          - 0.5 * (1.0 + tau) * LN_2PI
          - (tau / 12.0 + 0.25 + 1.0 / (12.0 * tau)) * (3.0 * ln_tau - ln2)
          - ln2) / 3.0
    return AsymptoticCoeffs(
        a0=tau / 12.0 + 0.25 + inv / 12.0,
        a1=-0.5 * (1.0 + inv),
        a2=0.5 * inv,
        b0=b0,
        b1=0.5 * ((inv + 1.0) * (1.0 + ln_tau) + LN_2PI),
        b2=-(1.5 + ln_tau) / (2.0 * tau),
        tail=_tail(tau, _TAIL_LEN),
        tau=tau,
        b0_error=(2.0 * half.error_estimate + tt.error_estimate) / 3.0,
    )


def _sector_gap(theta: float, cut_angle: float) -> float:
    d = math.fmod(theta - cut_angle, 2.0 * math.pi)
    if d > math.pi:
        d -= 2.0 * math.pi
    elif d < -math.pi:
        d += 2.0 * math.pi
    return abs(d)


def _outside_cone(z: complex, tau: complex) -> bool:
    """Whether arg z lies at least _CONE_MARGIN rad outside the zero cone,
    the closed sector from arg(-tau) to pi taken the short way, which holds
    the zeros -m tau - n. False at z = 0."""
    if z == 0:
        return False
    # the cone is the arc of half-width (pi - |a|)/2 about the bisector of
    # a = arg(-tau) and pi; a != 0 since tau is off the cut
    a = phase(-tau)
    half = 0.5 * (math.pi - abs(a))
    return (_sector_gap(phase(z), math.copysign(math.pi - half, a))
            >= half + _CONE_MARGIN)


def _beyond_all_orders(z: complex, tau: complex) -> float:
    """e^(-2 pi s), the size of the terms the expansion leaves out at every
    order (those in e^(2 pi i z) and e^(2 pi i z/tau)): s is the least of
    |Im z| where Re z < 0 and |Im(z/tau)| where Re(z/tau) < 0, and 0 is
    returned when neither half-plane holds z."""
    s = math.inf
    if z.real < 0.0:
        s = abs(z.imag)
    w = z / tau
    if w.real < 0.0:
        s = min(s, abs(w.imag))
    return math.exp(-2.0 * math.pi * s)


def _tail_order(tail: tuple[complex, ...], az: float,
                target: float) -> tuple[int, float] | None:
    """The least n_tail <= _TAIL_MAX at which the first two omitted terms,
    |tail[n_tail]| |z|^-(n_tail+1) and the next, both meet target, with the
    larger of the two; None when none does. Two terms, since a tail
    coefficient can vanish (the odd ones at tau = 1) and read a small
    omitted term with a large error."""
    inv = 1.0 / az
    mags = []
    p = inv
    for c in tail:
        mags.append(abs(c) * p)
        p *= inv
    for n in range(_TAIL_MAX + 1):
        omitted = max(mags[n], mags[n + 1])
        if omitted <= target:
            return n, omitted
    return None


def _asymptotic_route(z: complex, tau: complex, n0: int | None = None
                      ) -> tuple[complex, float, str] | None:
    """(log G, error estimate, route) at an automatic evaluation at
    |arg tau| <= 3pi/4 (the reflection route takes the rest) where a
    large-z route passes its accuracy tests; else None. Both routes need z
    _past_crossover. Then a z _outside_cone takes the expansion at z
    (route "asymptotic", _expansion) and a z inside it takes the expansion
    at z + n tau (route "shifted", _shifted_route). Both depend on
    (z, tau) alone, never on what the memo holds, so a call returns the
    same bits whatever ran before it. log_double_gamma's _result builds the
    EvalResult. n0, when given, is _n_floor(z, tau), already taken by the
    caller.
    """
    if not _past_crossover(z, tau, n0):
        return None
    if not _outside_cone(z, tau):
        return _shifted_route(z, tau)
    found = _expansion(z, tau)
    return None if found is None else (*found, "asymptotic")


def _past_crossover(z: complex, tau: complex, n0: int | None = None) -> bool:
    """Whether the large-z expansion may answer at z, as far as |z| goes:

    * |z| > 1 and |z/tau| > 1, so the calls inside b0_of_tau, at (1/2, tau)
      and (tau, 2 tau), never reach it: the large-z routes cannot recurse;
    * the product floor N0 is past _N0_CROSSOVER, where building the
      coefficients for a fresh tau costs less than the product (an N0
      past _N_CAP is past it too); n0 is that floor when the caller has
      taken it.
    """
    az = abs(z)
    if not min(az, az / abs(tau)) > 1.0:
        return False
    try:
        return (_n_floor(z, tau) if n0 is None else n0) > _N0_CROSSOVER
    except CapacityError:
        return True


def _expansion(z: complex, tau: complex) -> tuple[complex, float] | None:
    """(log G, error estimate) by the large-z expansion at a z
    _outside_cone, or None unless:

    * the terms beyond all orders, e^(-2 pi s), are at most _BEYOND_MAX;
    * some n_tail <= _TAIL_MAX meets the target _TARGET (1 + |z|).

    The error estimate is the truncation (the omitted terms of
    _tail_order), plus e^(-2 pi s) |log G|, plus b0's share of the error
    estimates of its two engine calls.
    """
    az = abs(z)
    beyond = _beyond_all_orders(z, tau)
    if beyond > _BEYOND_MAX:
        return None
    coeffs = _coeffs(tau)
    order = _tail_order(coeffs.tail, az, _TARGET * (1.0 + az))
    if order is None:
        return None
    n_tail, omitted = order
    # a log that is not finite is returned as it is: the shifted route
    # declines on it, and _result refuses it at z
    log_val = _expansion_sum(z, coeffs, n_tail)
    return log_val, omitted + beyond * abs(log_val) + coeffs.b0_error


def _shift_steps(z: complex, tau: complex, limit: int) -> int | None:
    """The least n < limit at which w = z + n tau is _outside_cone and its
    terms beyond all orders are at most _BEYOND_MAX, for a z inside the
    cone (with its margin); None when there is none below limit.

    Along t -> z + t tau, arg w turns monotonically towards arg tau, which
    lies outside the cone (and its margin) when |arg tau| <= 3pi/4, so w
    leaves the cone once, at the crossing t0 with one of its two edges
    widened by _CONE_MARGIN. The beyond-all-orders test is a union of
    half-lines in t, cut at Re w = 0, Im w = +-S and Re(w/tau) = 0
    (Im(w/tau) does not move), with e^(-2 pi S) = _BEYOND_MAX. So the least
    n is the first integer past t0 or past one of those cuts beyond t0 at
    which both tests pass: at most five candidates, each tested once.
    """
    a = phase(-tau)
    s = math.copysign(1.0, a)
    t0 = math.inf
    for edge in (-s * (math.pi - _CONE_MARGIN), a - s * _CONE_MARGIN):
        d = cmath.rect(1.0, -edge)          # rotates the edge onto +1
        den = (tau * d).imag
        if den:
            t = -(z * d).imag / den
            if 0.0 <= t < t0 and ((z + t * tau) * d).real > 0.0:
                t0 = t
    if t0 == math.inf:  # z on the cone's widened edge, up to rounding
        return None
    big_s = -math.log(_BEYOND_MAX) / (2.0 * math.pi)
    cuts = [t0, -(z / tau).real]
    if tau.real:
        cuts.append(-z.real / tau.real)
    if tau.imag:
        cuts += ((big_s - z.imag) / tau.imag, (-big_s - z.imag) / tau.imag)
    for t in sorted(c for c in cuts if c >= t0):
        n = math.floor(t) + 1
        if not n < limit:
            return None
        w = z + n * tau
        if (_outside_cone(w, tau)
                and _beyond_all_orders(w, tau) <= _BEYOND_MAX):
            return n
    return None


def _shifted_route(z: complex,
                   tau: complex) -> tuple[complex, float, str] | None:
    """(log G, error estimate, "shifted") for a z inside the zero cone, by
    the paper's second shift equation G(u+tau) = (2pi)^((tau-1)/2)
    tau^(1/2-u) Gamma(u) G(u) applied n times:

        log G(z) = log G(w) - sum_{j<n} [(tau-1)/2 ln 2pi
                                         + (1/2 - u_j) ln tau + lgG(u_j)],

    u_j = z + j tau, w = z + n tau, with log G(w) by the large-z
    expansion (_expansion). n is _shift_steps' least, in tau steps only:
    steps of +1 would also reach the outside of the cone, but in thin
    cones they leave the result off the canonical branch by 2 pi i k.
    None, for the product, when n passes _SHIFT_MAX, when w is not
    _past_crossover or fails _expansion's tests, or when the error
    estimate passes _SHIFT_ERR_MAX. Past the crossover n stayed below the
    product floor _n_floor(z, tau) at every point of a seeded grid, so no
    plan's N, never below that floor, bounds it.

    The error estimate is the expansion's plus the roundoff of the steps,
    _SHIFT_ROUNDOFF 2^-52 times the sizes of the summed terms and of
    log G(w).
    """
    n = _shift_steps(z, tau, _SHIFT_MAX + 1)
    if n is None:
        return None
    w = z + n * tau
    found = _expansion(w, tau) if _past_crossover(w, tau) else None
    if found is None:
        return None
    log_w, error = found
    ln_tau = cmath.log(tau)
    step = 0.5 * (tau - 1.0) * LN_2PI
    # summed exactly rounded (backend._exact_sum): a running sum of n
    # terms loses about n ulps of the result, which at n = 700 was 100
    # times the error of the lgG terms themselves
    terms = [log_w, -n * step]
    size = abs(log_w) + n * abs(step)
    for j in range(n):
        u = z + j * tau
        lg = log_gamma(u)
        pw = (0.5 - u) * ln_tau
        terms += (-lg, -pw)
        size += abs(lg) + abs(pw)
    error += _SHIFT_ROUNDOFF * _TARGET * size
    if not error <= _SHIFT_ERR_MAX:
        return None
    return backend._exact_sum(terms), error, "shifted"


def _reflection_route(z: complex,
                      tau: complex) -> tuple[complex, float, str] | None:
    """(log G, error estimate, "reflection") at |arg tau| > 3pi/4 by the
    reflection identity
    -2 pi i t G(1/2+u;t) G(1/2-u;-t) = (-e^(2 pi i u);q)_inf / (q;q)_inf,
    q = e^(2 pi i t), at an automatic evaluation; None, for the product,
    where it is 0/0.

    With t = -tau (Im tau < 0) and y = 1 - z,
        log G(z;tau) = L(y) - L(t) - log(-2 pi i t) - log G(y;t),
    where L(a) = log (e^(2 pi i a); q)_inf; at Im tau > 0 the same runs at
    (conj z, conj tau), since G(z;tau) = conj G(conj z; conj tau). Re t > 0
    and |arg t| < pi/4, so the inner automatic evaluation never comes here:
    the route cannot recurse. Where y lies within _REFLECT_RADIUS of a zero
    of G(.;t), both sides of the identity vanish (every positive integer z
    is such a point), and the product answers.

    The route depends on (z, tau) alone. Its log matches the canonical log
    only modulo 2 pi i. The error estimate is the inner evaluation's, plus
    the bounds of the two q-products, plus the roundoff of the inner
    product and of the sum of the four logs. log_double_gamma's _result
    builds the EvalResult.
    """
    upper = tau.imag > 0.0
    if upper:
        z, tau = z.conjugate(), tau.conjugate()
    t = -tau
    y = 1.0 - z
    if _zero_within(y, t, _REFLECT_RADIUS):
        return None
    inner = log_double_gamma(y, t)
    lp, err_p = _log_q_product(y, t)
    lq, err_q = _log_q_product(t, t)
    lt = cmath.log(-2j * math.pi * t)
    log_val = lp - lq - lt - inner.log_value
    # the roundoff of the inner product (measured below 5.7 2^-52 N at
    # tau = 1; its estimate counts truncation only) and of the three sums.
    # The plan's N read here is the package's only read of an automatic
    # params_used, so this route alone plans the inner evaluation; it is
    # kept for the estimate's bits until the error budget (roundoff from
    # the sizes of the summed terms) replaces it
    roundoff = _TARGET * (8.0 * inner.params_used.N
                          + 1.5 * (abs(lp) + abs(lq) + abs(lt)
                                   + abs(inner.log_value)))
    if upper:
        log_val = log_val.conjugate()
    return log_val, inner.error_estimate + err_p + err_q + roundoff, "reflection"


def log_double_gamma_asymptotic(z: complex, tau: complex, n_tail: int = 8,
                                coeffs: AsymptoticCoeffs | None = None) -> complex:
    """Large-z expansion of ln G; principal log z, so the result matches the
    canonical logarithm only modulo 2 pi i (compare on exp).

    z must stay 0.2 rad away from the zero cone, the closed sector from
    arg(-tau) to pi taken the short way, which holds the zeros
    -m tau - n; violations raise SectorError. Without usable coeffs, those
    of asymptotic_coeffs(tau, n_tail) are used. DomainError, before any
    work, for an n_tail outside
    0.._TAIL_CAP, and for a result that is not finite in binary64 (a |z|
    so large that z^2 ln z overflows, or so small that z^-n_tail does).
    """
    tau = check_off_cut(tau)
    z = check_finite(z, "z")
    n_tail = _check_tail(n_tail)
    if z == 0:
        raise SectorError("z = 0 is outside every admissible sector")
    if not _outside_cone(z, tau):
        raise SectorError(f"arg z = {phase(z):.3f} is within "
                          f"{_CONE_MARGIN} rad of the zero cone")
    if coeffs is None or coeffs.tau != tau or len(coeffs.tail) < n_tail:
        coeffs = asymptotic_coeffs(tau, n_tail)
    log_val = _expansion_sum(z, coeffs, n_tail)
    if not cmath.isfinite(log_val):
        raise DomainError(f"the expansion at z = {z} is not finite in "
                          f"binary64: {log_val}")
    return log_val


def _expansion_sum(z: complex, coeffs: AsymptoticCoeffs,
                   n_tail: int) -> complex:
    # the expansion with n_tail terms of coeffs' tail, at a z != 0
    ln_z = cmath.log(z)
    acc = ((coeffs.a2 * z * z + coeffs.a1 * z + coeffs.a0) * ln_z
           + coeffs.b2 * z * z + coeffs.b1 * z + coeffs.b0)
    zp = 1.0 / z
    for n in range(n_tail):
        acc += coeffs.tail[n] * zp
        zp /= z
    return acc


def b0_of_tau(tau: complex) -> complex:
    """Constant term of the large-z expansion, from the closed form
    b0 = (1/3){ln[G(1/2;tau)^2 G(tau;2tau)] - (1+tau)/2 ln 2pi
               - a0(tau) ln(tau^3/2) - ln 2} with canonical engine logs.

    Computed once per tau, with the rest of the expansion's coefficients:
    the b0 of tau's record in _coeffs_memo, a bounded map keyed by the
    bits of tau (the last _COEFFS_MEMO tau)."""
    return _coeffs(check_off_cut(tau)).b0


def gamma2(z: complex, w1: complex, w2: complex,
           params: ComputeParams | None = None) -> EvalResult:
    """Symmetric double gamma via
    Gamma_2(z;w1,w2) = (2pi)^(z/(2w1)) w2^(-z^2/(2w1w2)+z(w1+w2)/(2w1w2)-1)
                       / G(z/w1; w2/w1), principal powers.

    Valid under |arg w1 - arg w2| < pi with both arguments in (-pi, pi).
    The error estimate, route and params_used are those of the inner
    evaluation at (z/w1, w2/w1); an automatic one plans only when
    params_used is read.
    """
    z = complex(z)
    w1 = complex(w1)
    w2 = complex(w2)
    for name, w in (("w1", w1), ("w2", w2)):
        if w == 0 or (w.imag == 0.0 and w.real < 0.0):
            raise ArgumentConditionError(
                f"arg {name} must lie in (-pi, pi); got {w}")
    if abs(phase(w1) - phase(w2)) >= math.pi:
        raise ArgumentConditionError(
            "|arg w1 - arg w2| < pi is required for the symmetric form")
    inner = log_double_gamma(z / w1, w2 / w1, params)
    p = -z * z / (2.0 * w1 * w2) + z * (w1 + w2) / (2.0 * w1 * w2) - 1.0
    log_val = (z / (2.0 * w1) * LN_2PI + p * cmath.log(w2) - inner.log_value)
    # the inner plan, passed on unread
    return _result(log_val, inner.error_estimate, inner._plan, inner.route)


def log_G_integrand(z: complex, tau: complex):
    """Integrand of the semi-axis representation of ln G, with a
    cancellation-safe series branch below x_c (the bracket is a difference of
    1/x^2-singular pieces with a finite limit at 0)."""
    z = complex(z)
    tau = complex(tau)
    e_t, e_1, s_x, s_tx = _semiaxis_series(tau)
    e_z = Laurent.exp_series(-z)
    c0 = (z - 1.0) * (z / (2.0 * tau) - 1.0)
    bracket = ((e_t - e_z) * s_x * s_tx
               - (e_t * s_tx).scaled(z)
               + e_t.scaled(c0)
               + e_1 * s_x)

    def large(x: float) -> complex:
        sx = 1.0 / -math.expm1(-x)
        stx = _s_tau_x(tau, x)
        etx = cmath.exp(-tau * x)
        return ((etx - cmath.exp(-z * x)) * sx * stx
                - z * etx * stx + c0 * etx + math.exp(-x) * sx) / x

    return _small_x_branch(bracket.shifted(-1), "ln G", 1e-9,
                           0.25 / max(1.0, abs(tau), abs(z)), large)


def log_G_via_integral(z: complex, tau: complex,
                       spec: QuadratureSpec = QuadratureSpec()) -> complex:
    """ln G(z;tau) by semi-axis quadrature (Re z > 0, Re tau > 0).

    Returns a real-analytic branch; it agrees with the canonical engine log
    modulo 2 pi i, so comparisons belong on exp.
    """
    z = check_finite(z, "z")
    tau = check_finite(tau, "tau")
    if z.real <= 0.0 or tau.real <= 0.0:
        raise DomainError("the integral form requires Re z > 0 and Re tau > 0")
    return integrate_semiaxis(log_G_integrand(z, tau), spec)
