"""Kernel-layer checks: log Gamma routes, polygamma, the Bernoulli tails and
the modular-form partial sums, q-Pochhammer, elliptic integrals, and the
semi-axis quadrature engine."""

import cmath
import functools
import gc
import math
import random
import time

import mpmath as mp
import numpy as np
import pytest
from conftest import clear_memos

from barnesg import backend
from barnesg.errors import CapacityError, ConvergenceError, DomainError, PoleError
from barnesg.kernels import (
    QuadratureSpec,
    elliptic_ke,
    integrate_semiaxis,
    log_gamma,
    polygamma,
    q_pochhammer,
)
from barnesg.modular import default_m, modular_forms_em

EULER_GAMMA = 0.5772156649015328606065120900824024


# ---------------------------------------------------------------- log_gamma

def test_log_gamma_trivial_values():
    assert abs(log_gamma(1.0)) < 1e-15
    assert abs(log_gamma(0.5) - math.log(math.sqrt(math.pi))) < 1e-15


def test_log_gamma_against_mpmath_on_a_grid():
    # an independent reference at 40 digits, on a seeded grid that keeps
    # 0.1 off the cut
    with mp.workdps(40):
        rng = random.Random(7)
        for z in [3 + 4j] + [complex(rng.uniform(-12, 12), rng.uniform(-12, 12))
                             for _ in range(60)]:
            if abs(z.imag) < 0.1 and z.real < 0.5:
                continue
            ref = complex(mp.loggamma(mp.mpc(z.real, z.imag)))
            assert abs(log_gamma(z) - ref) <= 1e-12 * (1 + abs(ref)), z


def test_log_gamma_against_mpmath_branch():
    # branch-correct analytic continuation in all quadrants
    mp.mp.dps = 30
    pts = [2.5, 0.1 + 0.1j, -1.5 + 0.2j, -1.5 - 0.2j, -7.3 + 4j, 10 - 3j,
           -0.5 + 8j, 1e5 + 3e4j, -20.25, 0.5 - 14j]
    for z in pts:
        z = complex(z)
        ref = mp.loggamma(mp.mpc(z.real, z.imag))
        ref = complex(float(mp.re(ref)), float(mp.im(ref)))
        assert abs(log_gamma(z) - ref) <= 1e-13 * (1 + abs(ref)), z


def test_log_gamma_recurrence():
    rng = random.Random(11)
    for _ in range(100):
        r = rng.uniform(0.2, 50.0)
        phi = rng.uniform(-math.pi / 2 + 0.05, math.pi / 2 - 0.05)
        z = cmath.rect(r, phi)  # Re z > 0
        lhs = log_gamma(z + 1) - log_gamma(z) - cmath.log(z)
        assert abs(lhs) <= 1e-12 * (1 + abs(log_gamma(z + 1)))


def test_log_gamma_reflection():
    rng = random.Random(13)
    n = 0
    while n < 50:
        z = complex(rng.uniform(-4, 5), rng.uniform(-5, 5))
        if abs(z.real - round(z.real)) < 0.1 and abs(z.imag) < 0.1:
            continue
        n += 1
        lhs = cmath.exp(log_gamma(z)) * cmath.exp(log_gamma(1 - z))
        rhs = math.pi / cmath.sin(math.pi * z)
        assert abs(lhs - rhs) <= 1e-10 * abs(rhs), z


def test_lanczos_series_bit_identical_to_its_term_by_term_form():
    # _loggamma_right takes z - 1.0 once and reads (k, c_k) from a table:
    # the bits of the series written out as c_0 + sum_k c_k / (z - 1.0 + k)
    rng = random.Random(31)
    for _ in range(3000):
        z = complex(rng.uniform(0.5, 60.0), rng.uniform(-60.0, 60.0))
        a = backend._LANCZOS_C[0]
        for k in range(1, 15):
            a += backend._LANCZOS_C[k] / (z - 1.0 + k)
        t = z + (backend._LANCZOS_G - 0.5)
        ref = (backend._HALF_LN_2PI + (z - 0.5) * cmath.log(t) - t
               + cmath.log(a))
        assert repr(backend._loggamma_right(z)) == repr(ref), z


def test_log_gamma_pole():
    with pytest.raises(PoleError):
        log_gamma(0.0)
    with pytest.raises(PoleError):
        log_gamma(-3.0)


# ---------------------------------------------------------------- polygamma

def test_polygamma_spot_values():
    assert abs(polygamma(0, 1.0) + EULER_GAMMA) < 1e-14
    assert abs(polygamma(1, 1.0) - math.pi ** 2 / 6) < 1e-14


def test_polygamma_finite_difference_oracle():
    # psi^(3) must match central differences of psi^(2)
    z = 2.5 + 1j
    h = 1e-4
    fd = (polygamma(2, z + h) - polygamma(2, z - h)) / (2 * h)
    v = polygamma(3, z)
    assert abs(v - fd) <= 1e-6 * abs(v)


@pytest.mark.parametrize("k", range(10))
def test_polygamma_recurrence(k):
    rng = random.Random(100 + k)
    for _ in range(25):
        r = rng.uniform(0.3, 50.0)
        phi = rng.uniform(-math.pi / 2 + 0.05, math.pi / 2 - 0.05)
        z = cmath.rect(r, phi)
        lhs = polygamma(k, z + 1) - polygamma(k, z)
        rhs = (-1) ** k * math.factorial(k) * z ** (-k - 1)
        assert abs(lhs - rhs) <= 1e-11 * (1 + abs(polygamma(k, z + 1))), (k, z)


def test_polygamma_against_mpmath():
    mp.mp.dps = 30
    rng = random.Random(5)
    for k in range(13):
        for _ in range(10):
            z = complex(rng.uniform(0.3, 10), rng.uniform(-5, 5))
            ref = mp.polygamma(k, mp.mpc(z.real, z.imag))
            ref = complex(float(mp.re(ref)), float(mp.im(ref)))
            assert abs(polygamma(k, z) - ref) <= 1e-12 * (1 + abs(ref)), (k, z)


def _mp_psi(k, w):
    # psi^(k)(w) in mpmath, evaluated at Re >= 1/2 only (mpmath shifts a
    # left-half-plane argument step by step): left of that by the reflection
    # psi^(k)(w) = (-1)^k psi^(k)(1 - w) - pi^(k+1) cot^(k)(pi w). Its last
    # term is dropped for k >= 2, where every caller has Im w >= 30 and it
    # is below 1e-60 of psi^(k)(w).
    if w.real >= 0.5:
        return mp.psi(k, w)
    v = (-1) ** k * mp.psi(k, 1 - w)
    if k == 0:
        return v - mp.pi * mp.cot(mp.pi * w)
    if k == 1:
        return v + (mp.pi / mp.sin(mp.pi * w)) ** 2
    assert w.imag >= 30
    return v


def test_reflection_branches_far_left_of_zero():
    # the reflection branches of digamma and trigamma take e^{2 pi i z} at
    # z - round(Re z); unreduced, it lost up to 2e-13 at Re z ~ -300
    rng = random.Random(2024)
    with mp.workdps(40):
        n = 0
        while n < 3000:
            w = complex(rng.uniform(-300.0, 0.4), rng.uniform(-3.0, 3.0))
            if abs(w - min(0, round(w.real))) <= 0.3:
                continue
            n += 1
            mw = mp.mpc(w.real, w.imag)
            for k in (0, 1):
                ref = complex(_mp_psi(k, mw))
                assert abs(polygamma(k, w) - ref) <= 4e-15 * max(1.0, abs(ref)), (k, w)


_KERNELS = [backend.loggamma, backend.digamma,
            backend.trigamma] + [functools.partial(polygamma, k) for k in range(2, 13)]


def test_kernels_at_non_finite_inputs():
    # Re z = -inf on the real axis once raised a raw OverflowError from the
    # pole test's math.floor; every such input gives NaN or a finite limit
    nf = (math.inf, -math.inf, math.nan)
    for x in nf + (1.0, -1.5):
        for y in (0.0, -0.0, 1.0) + nf:
            for i, f in enumerate(_KERNELS):
                v = f(complex(x, y))
                assert cmath.isnan(v) or cmath.isfinite(v), (i, x, y, v)


def test_kernels_within_rounding_of_a_pole():
    # the reflections divide by, or take the log of, 1 - e^{2 pi i z}, and
    # polygamma's shift takes w^-(k+1): where these round to 0 the kernels
    # raise PoleError, never a raw ZeroDivisionError or ValueError
    for n in range(6):
        for d in (1e-300, 1e-200, 1e-17):
            for z in (complex(-n, d), complex(-n, -d)):
                for i, f in enumerate(_KERNELS):
                    try:
                        v = f(z)
                    except PoleError:
                        continue
                    assert cmath.isfinite(v), (i, z, v)


def test_polygamma_pole_and_order():
    with pytest.raises(PoleError):
        polygamma(2, -1.0)
    with pytest.raises(DomainError):
        polygamma(13, 1.0)


def test_polygamma_refuses_long_shifts_at_once():
    # psi^(k), k >= 2, shifts z right until |arg w| <= 3pi/4, which took
    # O(-Re z) steps and never ended where w + 1 == w or Re z = -inf: past
    # _N_CAP steps a finite z is refused and a non-finite one gives NaN
    finite = (-1e17 + 1j, -1e17 - 1j, -2e6 + 1j, -1e300 + 5j, -1.5e6 - 0.2e6j)
    infinite = (complex(-math.inf, 1.0), complex(-math.inf, -1.0),
                complex(-math.inf, math.nan))
    # gc is held off around each timed call: a full collection (30-60 ms)
    # the tests before it left due could otherwise land in the window
    for k in range(2, 13):
        for z in finite + infinite:
            gc.disable()
            try:
                t0 = time.process_time()
                if cmath.isfinite(z):
                    with pytest.raises(CapacityError):
                        polygamma(k, z)
                else:
                    assert cmath.isnan(polygamma(k, z)), (k, z)
                dt = time.process_time() - t0
            finally:
                gc.enable()
            assert dt < 0.01, (k, z)


def test_polygamma_far_left_against_mpmath():
    # a shift of 1e4 steps, still under the cap, at the kernel tolerance
    z = -1e4 + 1j
    with mp.workdps(30):
        for k in range(2, 13):
            ref = complex(mp.polygamma(k, mp.mpc(z.real, z.imag)))
            assert abs(polygamma(k, z) - ref) <= 1e-12 * abs(ref), k


# ------------------------------------------------------- the psi/psi' pair

def _digamma_reference(z):
    # digamma as its own kernel computed it before psi_pair: a pole test,
    # conjugation, reflection through cot(pi z) and a shift to |w| >= 8
    z = complex(z)
    if backend._is_nonpositive_integer(z):
        raise PoleError(f"digamma pole at {z}")
    if z.imag < 0.0:
        return _digamma_reference(z.conjugate()).conjugate()
    if z.real < 0.5:
        e = backend._exp2pi(z)
        try:
            return _digamma_reference(1.0 - z) - math.pi * (1j + 2j / (e - 1.0))
        except ZeroDivisionError:  # within rounding of a pole, as psi_pair
            raise PoleError(f"digamma: sin(pi z) rounds to 0 at {z}") from None
    shift = 0j
    w = z
    while abs(w) < 8.0:
        shift += 1.0 / w
        w += 1.0
    return cmath.log(w) - 0.5 / w - backend._psi_tail(w) - shift


def _trigamma_reference(z):
    # trigamma as its own kernel computed it before psi_pair: reflection
    # through 1/sin^2(pi z) and a shift to |w| >= 10
    z = complex(z)
    if backend._is_nonpositive_integer(z):
        raise PoleError(f"trigamma pole at {z}")
    if z.imag < 0.0:
        return _trigamma_reference(z.conjugate()).conjugate()
    if z.real < 0.5:
        e = backend._exp2pi(z)
        try:
            inv_sin2 = -4.0 * e / ((1.0 - e) * (1.0 - e))
        except ZeroDivisionError:
            raise PoleError(f"trigamma: sin(pi z) rounds to 0 at {z}") from None
        return math.pi * math.pi * inv_sin2 - _trigamma_reference(1.0 - z)
    shift = 0j
    w = z
    while abs(w) < 10.0:
        shift += 1.0 / (w * w)
        w += 1.0
    iw = 1.0 / w
    return iw + 0.5 * iw * iw + backend._psi1_tail(w) + shift


def _outcome(f, *args):
    # the repr of the value, or PoleError: at the poles, and within rounding
    # of one, where 1 - e^{2 pi i z} rounds to 0 in the reflection; any
    # other exception fails the test
    try:
        return repr(f(*args))
    except PoleError as exc:
        return type(exc).__name__


def test_psi_pair_bit_identical_to_the_separate_kernels():
    rng = random.Random(31)
    pts = [complex(rng.uniform(-300.0, 20.0), rng.uniform(-30.0, 30.0))
           for _ in range(2000)]
    pts += [complex(rng.uniform(-6.0, 6.0), rng.uniform(-1.0, 1.0))
            for _ in range(1000)]
    pts += [complex(rng.uniform(-6.0, 6.0), y) for y in (0.0, -0.0)
            for _ in range(100)]
    # poles and the points around them, the half-plane edge, non-finite
    pts += [complex(-n, y) for n in range(4) for y in (0.0, -0.0, 1e-300, -1e-300)]
    pts += [complex(x, y) for x in (0.5, 0.5 - 2 ** -53, 1e300, -1e300)
            for y in (0.0, -0.0, 2.0, -2.0)]
    nf = (math.inf, -math.inf, math.nan)
    pts += [complex(x, y) for x in nf + (1.0, -1.5) for y in nf + (1.0, 0.0)]
    for z in pts:
        ps, ps1 = _outcome(_digamma_reference, z), _outcome(_trigamma_reference, z)
        failed = ps == "PoleError"
        pair = _outcome(backend.psi_pair, z)
        assert pair == (ps if failed else f"({ps}, {ps1})"), z
        assert (_outcome(backend.digamma, z), _outcome(backend.trigamma, z)) == (ps, ps1), z
        assert (_outcome(polygamma, 0, z), _outcome(polygamma, 1, z)) == (ps, ps1), z


# --------------------------------------------------------- Bernoulli tails

# arguments of the tails' w: every branch that calls a tail keeps
# |arg w| <= 3pi/4, and past pi/2 it keeps |w| >= 16
_TAIL_ARGS = (0.0, 1.0, 2.0, 0.75 * math.pi)


def _tail_radii(series, r_min):
    # |w| just below and just above each limit of the tail's counts (the
    # limits are on |w^-2|), and fixed radii, from r_min up
    radii = [8.0, 16.0, 1e3, 1e8]
    for lim in series.limits:
        r = lim ** -0.5
        radii += [r * (1 - 1e-9), r * (1 + 1e-9)]
    return sorted(r for r in radii if r >= r_min)


def _tail_points(series, r_min):
    for th in _TAIL_ARGS:
        for r in _tail_radii(series, r_min if th <= math.pi / 2 else max(r_min, 16.0)):
            w = cmath.rect(r, th)
            yield w, mp.mpc(w.real, w.imag)


def test_tails_at_the_limits_of_their_counts():
    # J(w), S(w) and S'(w) themselves to a few ulp, at 60 digits since the
    # references cancel ~2 log10|w| digits, and log Gamma, psi and psi'
    # there within the kernel tolerances
    def rel(got, ref):
        ref = complex(ref)
        return abs(got - ref) / abs(ref)

    with mp.workdps(60):
        for w, mw in _tail_points(backend._BINET, 8.0):
            lg = mp.loggamma(mw)
            j = lg - (mw - 0.5) * mp.log(mw) + mw - mp.log(2 * mp.pi) / 2
            assert rel(backend._binet(w), j) <= 2e-15, w
            assert abs(log_gamma(w) - complex(lg)) <= 1e-13 * (1 + abs(lg)), w
        for w, mw in _tail_points(backend._PSI_TAIL, 8.0):
            psi = _mp_psi(0, mw)
            assert rel(backend._psi_tail(w), mp.log(mw) - 1 / (2 * mw) - psi) <= 2e-15, w
            assert rel(polygamma(0, w), psi) <= 1e-12, w
        for w, mw in _tail_points(backend._PSI1_TAIL, 10.0):
            psi1 = _mp_psi(1, mw)
            assert rel(backend._psi1_tail(w), psi1 - 1 / mw - 1 / (2 * mw * mw)) <= 2e-15, w
            assert rel(polygamma(1, w), psi1) <= 1e-12, w
    with mp.workdps(30):
        for k, series in backend._POLYGAMMA_TAIL.items():
            # polygamma's own shift rule: |w| >= 8 + 2k, and four times that
            # left of Re w = 1/2
            radius = 8.0 + 2 * k
            for w, mw in _tail_points(series, radius):
                if w.real < 0.5 and abs(w) < 4 * radius:
                    continue
                assert rel(polygamma(k, w), _mp_psi(k, mw)) <= 1e-12, (k, w)


def _cd_sums_termwise(tau, m, k0):
    # cd_sums summed term by term: the psi and psi' tails at every k tau,
    # the direct part, h1 and h2, each sum exactly rounded (math.fsum)
    def csum(terms):
        return complex(math.fsum(t.real for t in terms),
                       math.fsum(t.imag for t in terms))

    direct = range(1, min(k0, m))
    tail = range(k0, m)
    return (csum([backend.digamma(k * tau) for k in direct]),
            csum([backend.trigamma(k * tau) for k in direct]),
            csum([backend._psi_tail(k * tau) for k in tail]),
            csum([backend._psi1_tail(k * tau) for k in tail]),
            math.fsum(1.0 / k for k in tail),
            math.fsum(1.0 / (k * k) for k in tail))


@pytest.mark.parametrize("k0", [1, 3, 8, 27, 54])
def test_cd_sums_against_termwise_sums(k0):
    # |k0 tau| at 1-3 times the radius that modular_forms_em gives k0
    # (8, or 16 past |arg tau| = pi/2), as its callers keep it
    for th in (0.0, -0.7, 1.3, -1.9, 0.75 * math.pi):
        radius = 8.0 if abs(th) <= math.pi / 2 else 16.0
        for f in (1.0, 1.7, 3.0):
            tau = cmath.rect(f * radius / k0, th)
            for m in (k0, k0 + 1, k0 + 7, 300, 2000):
                got = backend.cd_sums(tau, m, k0)
                ref = _cd_sums_termwise(tau, m, k0)
                for i, (g, r) in enumerate(zip(got, ref)):
                    tol = 2e-15 if i in (2, 3) else 1e-15
                    assert abs(g - r) <= tol * abs(r), (k0, tau, m, i)


@pytest.mark.parametrize("k0, m", [(1, 2), (1, 64), (3, 300), (7, 1024),
                                   (27, 2000), (1, 2000)])
def test_power_sums_memo_holds_the_exact_sums(k0, m):
    # the power sums H_s = sum_{k0<=k<m} k^-s that cd_sums' tails and h2
    # read, held by the Hurwitz rows' map: k0^s H_s = row_k0[s] -
    # (k0/m)^s row_m[s], as cd_sums takes them (m >= 2 k0 here), cold and
    # then warm, within 2 units of 2^-52 of the exact sums
    backend._zeta_rows.clear()
    ks = [float(k) for k in range(k0, m)]
    for _ in range(2):  # cold, then warm
        top = 2 * len(backend._B2K) + 1
        rk, rm = backend._zeta_row(k0, top), backend._zeta_row(m, top)
        for s in range(2, top + 1):
            got = (rk[s] - (k0 / m) ** s * rm[s]) / k0 ** s
            ref = math.fsum(k ** -s for k in ks)
            assert abs(got - ref) <= 2.0 * 2.0 ** -52 * ref, (k0, m, s)
        assert sorted(backend._zeta_rows) == sorted({k0, m})


def test_cd_sums_same_bits_with_the_power_sums_memo_cold_or_warm():
    # a tau and its conjugate share the (k0, m) that modular_forms_em sets,
    # and so the Hurwitz rows of k0 and m that hold their power sums;
    # cd_sums at either returns the bits of a cold call whichever runs first
    rng = random.Random(18)
    for _ in range(12):
        r = 0.3 * 10 ** rng.uniform(0.0, 1.0)
        th = rng.uniform(-0.75, 0.75) * math.pi
        taus = (cmath.rect(r, th), cmath.rect(r, -th))
        k0 = math.ceil((8.0 if abs(th) <= math.pi / 2 else 16.0) / r)
        m = default_m(taus[0])
        assert default_m(taus[1]) == m
        cold = {}
        for tau in taus:
            clear_memos()
            cold[tau] = repr(backend.cd_sums(tau, m, k0))
        for first, second in (taus, taus[::-1]):
            backend._zeta_rows.clear()
            assert repr(backend.cd_sums(first, m, k0)) == cold[first]
            rows = {a: bytes(row) for a, row in backend._zeta_rows.items()}
            assert sorted(rows) == sorted({k0, m}), (first, m, k0)
            assert repr(backend.cd_sums(first, m, k0)) == cold[first]
            assert repr(backend.cd_sums(second, m, k0)) == cold[second]
            # the second tau read the rows the first built, and added none
            assert {a: bytes(row) for a, row in
                    backend._zeta_rows.items()} == rows, (first, second)


# modular_forms_em's (tau, C, D) before the tails were summed from power
# sums, at seeded tau with |tau| in [0.3, 3] and |arg tau| <= 3pi/4
_MODULAR_FORMS_BEFORE = (
    ((1.0868973165518248-1.4965552985455215j), (0.8353495411120337+0.2913632826505657j), (-0.5285476741362974+0.5229445896152732j)),
    ((0.5227970540802906-0.2567632297867323j), (0.2565883634578731-0.8203624544005167j), (3.1340830220518847+4.228288730867049j)),
    ((1.6568062551357576+0.10478172513141633j), (0.5972263967892242-0.00523833213448392j), (0.3767734302608778-0.08582848516236403j)),
    ((0.7222692014099493-0.7522905429419249j), (0.9974147214478812-0.17424455731125837j), (-0.3444785386282031+1.7882568568223163j)),
    ((-0.1511598364672142+0.7851028283334147j), (2.4475950718065387-0.6760899857893832j), (-3.3858576210172404+0.4404088847441032j)),
    ((0.3027258700299398-0.14924890837424867j), (-1.1309124510643704-2.1723647493025346j), (9.564407521975147+12.18144960203607j)),
    ((0.02499893947974855+0.6675739009727123j), (2.5746128695644455+0.083266656301619j), (-4.455326667765425-0.9913611444852258j)),
    ((-0.6730432252002051+0.8592695316359438j), (1.8163593818976518-1.6985445355156825j), (-1.8407965679540297+1.3446713315699967j)),
    ((0.290313669284158+0.26931161765053524j), (0.4505699340146598+2.3522178964940097j), (1.0917062898667935-11.399561982601691j)),
    ((0.24002148875923024-0.231957191878087j), (0.22743191413240982-3.1966026952847764j), (0.9742769482289118+15.91173883703325j)),
    ((0.7511356308586297+0.4063362948918744j), (0.6524880779979625+0.3571173503571474j), (1.1515894997657523-2.143663051913999j)),
    ((-0.07675001864248882-0.325150174614159j), (6.0695877234226066-0.9140145529586671j), (-14.417887219743779-4.97499679203968j)),
)


def test_modular_forms_em_unchanged_by_the_power_sums():
    for tau, C, D in _MODULAR_FORMS_BEFORE:
        mf = modular_forms_em(tau)
        assert abs(mf.C - C) <= 1e-15 * abs(C), tau
        assert abs(mf.D - D) <= 1e-15 * abs(D), tau


# ------------------------------------------------------------- q-Pochhammer

def test_q_pochhammer_trivial():
    assert q_pochhammer(0.0, 0.3 + 0.2j) == 1
    a = 0.25 + 0.1j
    assert q_pochhammer(a, 0.0) == 1 - a


def test_q_pochhammer_euler_value():
    # (1/2; 1/2)_inf by direct partial products to machine convergence
    prod, f = 1.0, 0.5
    while f > 1e-18:
        prod *= 1 - f
        f *= 0.5
    v = q_pochhammer(0.5, 0.5)
    assert abs(v - prod) < 1e-14
    assert abs(v - 0.2887880950866) < 1e-12


def test_q_pochhammer_domain():
    with pytest.raises(DomainError):
        q_pochhammer(0.5, 1.0)
    with pytest.raises(DomainError):
        q_pochhammer(0.5, -1.2 + 0.3j)
    for a, q in ((1.0, math.nan), (math.inf, 0.5), (complex(0.5, math.nan), 0.3)):
        with pytest.raises(DomainError):
            q_pochhammer(a, q)
    # finite inputs whose product overflows binary64 (~1 050 factors)
    with pytest.raises(DomainError):
        q_pochhammer(1e300, 0.5)


def test_q_pochhammer_refuses_over_the_cap_at_once():
    # about 3.5e8 factors before they round to 1: refused before the first
    t0 = time.perf_counter()
    with pytest.raises(CapacityError):
        q_pochhammer(0.5, 0.9999999)
    assert time.perf_counter() - t0 < 0.1
    # 35 000 factors, well under the cap, still run to the end; the
    # reference is log (a;q)_inf = -sum_k a^k / (k (1 - q^k))
    v = q_pochhammer(0.5, 0.999)
    with mp.workdps(30):
        a, q = mp.mpf(0.5), mp.mpf(0.999)
        ref = mp.exp(-mp.fsum(a ** k / (k * (1 - q ** k)) for k in range(1, 120)))
    assert abs(v - complex(ref)) <= 1e-9 * abs(v)


# ----------------------------------------------------------------- elliptic

def test_elliptic_small_k_limit():
    ke = elliptic_ke(1e-9)
    assert abs(ke.K - math.pi / 2) < 1e-12
    assert abs(ke.E - math.pi / 2) < 1e-12


def test_elliptic_self_dual_point():
    ke = elliptic_ke(1 / math.sqrt(2))
    assert abs(ke.K - ke.K_prime) < 1e-13 * ke.K


def test_elliptic_against_quadrature():
    # defining integrals on [0, pi/2] by high-order Gauss-Legendre
    k = 0.8
    nodes, weights = np.polynomial.legendre.leggauss(200)
    th = 0.25 * math.pi * (nodes + 1)
    w = 0.25 * math.pi * weights
    s2 = np.sin(th) ** 2
    K_ref = float(np.sum(w / np.sqrt(1 - k * k * s2)))
    E_ref = float(np.sum(w * np.sqrt(1 - k * k * s2)))
    ke = elliptic_ke(k)
    assert abs(ke.K - K_ref) <= 1e-11 * K_ref
    assert abs(ke.E - E_ref) <= 1e-11 * E_ref


@pytest.mark.parametrize("k", [0.1 * i for i in range(1, 10)])
def test_elliptic_legendre_relation(k):
    K, E, Kp = elliptic_ke(k)
    kp = math.sqrt(1 - k * k)
    _, Ep, _ = elliptic_ke(kp)
    assert abs(E * Kp + Ep * K - K * Kp - math.pi / 2) < 1e-11


def test_elliptic_domain():
    with pytest.raises(DomainError):
        elliptic_ke(0.0)
    with pytest.raises(DomainError):
        elliptic_ke(1.0)


# --------------------------------------------------------------- quadrature

def test_quadrature_exponential():
    v = integrate_semiaxis(lambda x: cmath.exp(-x))
    assert abs(v - 1) < 1e-11


def test_quadrature_zeta_integral():
    v = integrate_semiaxis(lambda x: x * math.exp(-x) / -math.expm1(-x))
    assert abs(v - math.pi ** 2 / 6) < 1e-11


def test_quadrature_complex_decay():
    v = integrate_semiaxis(lambda x: cmath.exp(-(2 + 1j) * x))
    assert abs(v - 1 / (2 + 1j)) < 1e-11


def test_quadrature_nonconvergence():
    # violates the exponential-decay precondition; levels never agree
    spec = QuadratureSpec(target=1e-11, max_level=4)
    with pytest.raises(ConvergenceError):
        integrate_semiaxis(lambda x: math.cos(x) * x / (1 + x * x), spec)


def test_quadrature_stops_when_the_differences_stop_falling(monkeypatch):
    # at a target below the integrand's roundoff the level differences fall
    # to 2.8e-14 at level 7 and rise to 1.5e-13 at level 8: the refusal
    # comes there, after 9 level sums, not after all 17 up to max_level
    from barnesg import engine, kernels

    calls = []
    level_sum = kernels._level_sum

    def counted(f, h, target):
        calls.append(h)
        return level_sum(f, h, target)

    monkeypatch.setattr(kernels, "_level_sum", counted)
    with pytest.raises(ConvergenceError, match="stopped converging at level 8"):
        engine.log_G_via_integral(5 + 3j, 0.2 + 0.1j, QuadratureSpec(2.3e-15, 16))
    assert calls == [2.0 ** -level for level in range(9)]


def test_quadrature_spec_validation():
    with pytest.raises(DomainError):
        QuadratureSpec(target=1e-16)
    with pytest.raises(DomainError):
        QuadratureSpec(target=1e-10, max_level=0)
