"""Engine checks: truncated-product evaluation, convergence order, large-z
asymptotics, b0 identities, the symmetric form, and the integral oracle."""

import cmath
import collections
import functools
import importlib
import itertools
import json
import math
import pkgutil
import random
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from conftest import clear_memos

import barnesg
from barnesg import backend, engine, polys
from barnesg.engine import (
    ComputeParams,
    EvalResult,
    asymptotic_coeffs,
    b0_of_tau,
    choose_params,
    double_gamma_value,
    gamma2,
    lattice_distance,
    log_G_via_integral,
    log_double_gamma,
    log_double_gamma_asymptotic,
)
from barnesg.errors import (
    ArgumentConditionError,
    CapacityError,
    DomainError,
    LatticeZeroError,
    SectorError,
)
from barnesg.kernels import log_gamma

SQRT2 = math.sqrt(2)
SQRT3 = math.sqrt(3)
LN_2PI = math.log(2 * math.pi)


def _random_tau(rng):
    # |tau - 2| <= 1.5 keeps Re tau >= 0.5, always off the cut
    while True:
        t = complex(2 + rng.uniform(-1.5, 1.5), rng.uniform(-1.0, 1.0))
        if abs(t - 2) <= 1.5:
            return t


def _closed_form_g_tau_tau(tau):
    return cmath.exp(0.5 * (tau - 1) * LN_2PI - 0.5 * cmath.log(tau))


# ------------------------------------------------------------- normalization

def test_normalization_random_tau():
    rng = random.Random(17)
    for _ in range(20):
        tau = _random_tau(rng)
        assert abs(double_gamma_value(1.0, tau) - 1) <= 1e-10


def test_closed_form_g_tau_tau():
    rng = random.Random(19)
    for _ in range(20):
        tau = _random_tau(rng)
        v = double_gamma_value(tau, tau)
        cf = _closed_form_g_tau_tau(tau)
        assert abs(v - cf) <= 1e-9 * abs(cf)


def test_functional_equations_random_grid():
    rng = random.Random(23)
    checked = 0
    while checked < 50:
        z = complex(rng.uniform(0.2, 3.0), rng.uniform(-1.0, 1.0))
        tau = complex(rng.uniform(0.5, 2.0), rng.uniform(0.0, 1.0))
        if min(lattice_distance(z, tau), lattice_distance(z + 1, tau),
               lattice_distance(z + tau, tau)) < 0.1:
            continue
        if abs(z / tau - round((z / tau).real)) < 0.1 and (z / tau).real < 0.5:
            continue
        checked += 1
        g0 = double_gamma_value(z, tau)
        r1 = double_gamma_value(z + 1, tau) / (cmath.exp(log_gamma(z / tau)) * g0)
        pref = cmath.exp(0.5 * (tau - 1) * LN_2PI
                         + (0.5 - z) * cmath.log(tau) + log_gamma(z))
        r2 = double_gamma_value(z + tau, tau) / (pref * g0)
        assert abs(r1 - 1) <= 1e-9, (z, tau)
        assert abs(r2 - 1) <= 1e-9, (z, tau)


def test_headline_values():
    p = ComputeParams(N=1000, M=10, m_cd=1000)
    r1 = log_double_gamma(1.0, SQRT3, p)
    assert abs(r1.value - 1) <= 1e-12
    r2 = log_double_gamma(SQRT3, SQRT3, p)
    ref = 1.4889283353650864545337314811487
    assert abs(r2.value - ref) <= 1e-12 * ref


def test_against_classical_barnes_g():
    # at tau = 1 the function reduces to the classical Barnes G; mpmath's
    # implementation is a fully independent oracle, including left of 0
    import mpmath as mp
    mp.mp.dps = 25
    rng = random.Random(3)
    pts = [complex(rng.uniform(0.3, 4.0), rng.uniform(-2.0, 2.0))
           for _ in range(15)]
    pts += [-0.5 + 0j, -1.5 + 0.5j, -2.5 - 0.3j]
    for z in pts:
        ref = mp.barnesg(mp.mpc(z.real, z.imag))
        ref = complex(float(mp.re(ref)), float(mp.im(ref)))
        v = double_gamma_value(z, 1.0)
        assert abs(v - ref) <= 1e-12 * (1 + abs(ref)), z


def test_shift_example_gamma_value():
    # G(2;3) = Gamma(1/3) G(1;3) = Gamma(1/3) by the z+1 shift at z = 1
    v = double_gamma_value(2.0, 3.0)
    assert abs(v - cmath.exp(log_gamma(1.0 / 3.0))) <= 1e-10


# ------------------------------------------------------------ lattice zeros

def test_lattice_zero_values():
    assert double_gamma_value(0.0, 1 + 1j) == 0
    assert double_gamma_value(-1 - SQRT2, SQRT2) == 0
    assert double_gamma_value(-3.0, 2.5) == 0


def test_lattice_zero_log_raises():
    with pytest.raises(LatticeZeroError):
        log_double_gamma(0.0, 1 + 1j)
    with pytest.raises(LatticeZeroError):
        log_double_gamma(-2 - 2 * SQRT2, SQRT2)


def test_domain_error_on_cut():
    with pytest.raises(DomainError):
        log_double_gamma(1.0, -1.0)
    with pytest.raises(DomainError):
        double_gamma_value(1.0, 0.0)
    with pytest.raises(DomainError):
        lattice_distance(1.0, 0.0)
    # non-finite z or tau is outside the domain too
    nan, inf = math.nan, math.inf
    for z, tau in ((nan, 1.0), (inf, 1.0), (complex(1.0, nan), 1.0),
                   (1.0, nan), (1.0, inf), (1.0, complex(1.0, -inf))):
        for f in (log_double_gamma, double_gamma_value, choose_params,
                  lattice_distance, log_double_gamma_asymptotic):
            with pytest.raises(DomainError):
                f(z, tau)
    # z + m tau overflowing binary64 is outside the domain, not a raw
    # OverflowError
    for f in (lattice_distance, log_double_gamma):
        with pytest.raises(DomainError):
            f(-1e308 - 0.3j, -1e308 + 0.1j)
    # and so is a |z| whose N floor 8(2+|z|)/|tau| overflows
    for f in (choose_params, log_double_gamma):
        with pytest.raises(DomainError):
            f(1e308, 1.0)


def test_lattice_distance():
    assert lattice_distance(0.0, 1 + 1j) == 0
    assert abs(lattice_distance(-1 - 1j - 1, 1 + 1j)) < 1e-15
    assert lattice_distance(5 + 5j, 1.3) > 5
    # every z + m tau lies right of 0: the nearest zero is 0 itself
    assert lattice_distance(1e6, 1.0) == 1e6
    # exact against a brute-force minimum over m <= 4000 on a seeded grid:
    # general, real, small-Im and Re < 0 tau; a third of the points are a
    # planted zero -m tau - n (m up to 300) moved by up to 0.3 in each part
    rng = random.Random(41)
    ms = np.arange(4001)
    for i in range(1200):
        sign = rng.choice((-1, 1))
        tau = (complex(rng.uniform(-2, 2), sign * rng.uniform(0.1, 2)),
               complex(rng.uniform(0.05, 3), 0),
               complex(rng.uniform(-2, 2), sign * rng.uniform(0.005, 0.05)),
               complex(rng.uniform(-2, -0.1), sign * rng.uniform(0.1, 1)))[i % 4]
        if i % 3 == 0:
            z = (-rng.randrange(301) * tau - rng.randrange(20)
                 + complex(rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3)))
        else:
            z = complex(rng.uniform(-8, 8), rng.uniform(-8, 8))
        w = z + ms * tau
        # np.hypot is the C hypot behind abs(complex), so the rows match
        # the scan's bit for bit
        rows = np.hypot(w.real + np.maximum(0.0, np.rint(-w.real)), w.imag)
        d = lattice_distance(z, tau)
        assert d == rows.min(), (z, tau)
        # the zero test is the same question asked within r
        for r in (1e-12 * (1 + abs(z)), 0.1):
            assert engine._zero_within(z, tau, r) == (d <= r), (z, tau, r)


def test_lattice_zero_far_up_the_lattice():
    # with Re tau < 0 the track z + m tau re-approaches the negative reals at
    # large m; the zero -1000 tau - 1999 must still be detected
    tau = -2 + 0.001j
    z = -1000 * tau - 1999
    assert lattice_distance(z, tau) == 0
    assert double_gamma_value(z, tau, ComputeParams(N=2000, M=8)) == 0
    assert lattice_distance(z + 0.05, tau) == pytest.approx(0.05, rel=1e-9)
    # the zero -100 tau at -2i is found by the zero test, whatever N is
    with pytest.raises(LatticeZeroError):
        log_double_gamma(-2j, -1 + 0.02j)
    assert double_gamma_value(-2j, -1 + 0.02j) == 0
    # zeros whose N floor is over the cap are still zeros, not CapacityError:
    # row 0, a row far up the lattice, and a real tau with the zero at row 2
    for z, tau in ((-2e5, 1.0), (-2e5 * (1 + 1j), 1 + 1j),
                   (-3e5 * (2 + 0.5j) - 7, 2 + 0.5j), (-2e5 / 3, 1 / 3)):
        with pytest.raises(LatticeZeroError):
            log_double_gamma(z, tau)
        assert double_gamma_value(z, tau) == 0


def test_one_zero_test_with_explicit_params():
    # a zero found within tol needs no scan of the full-distance window
    t0 = time.perf_counter()
    with pytest.raises(LatticeZeroError):
        log_double_gamma(-2e5, 1.0, ComputeParams(N=64))
    assert time.perf_counter() - t0 < 0.1
    # the zero at m = 100 lies past N = 64 and its window is over the cap:
    # refused, never a finite log
    with pytest.raises(CapacityError):
        log_double_gamma(-2e6 - 100 / 3, 1 / 3, ComputeParams(N=64))
    # far from every zero, an over-cap full-distance window no longer
    # refuses; the product with N = 100 cannot converge there (|z| >= N|tau|),
    # so it is refused before any summing
    t0 = time.perf_counter()
    with pytest.raises(CapacityError):
        log_double_gamma(-200.5 + 0.5j, 1e-4, ComputeParams(N=100))
    assert time.perf_counter() - t0 < 0.1


def test_functional_equation_near_cut_tau():
    # tau just above the cut forces the all-direct summation path
    tau = -1 + 0.5j
    z = 0.8 + 0.3j
    g0 = double_gamma_value(z, tau)
    r1 = double_gamma_value(z + 1, tau) / (cmath.exp(log_gamma(z / tau)) * g0)
    assert abs(r1 - 1) <= 1e-9


# ------------------------------------------------------------ choose_params

def _bound(z, tau, N, M):
    # the plan's error bound: orders M and M - 1 at N
    a = list(itertools.islice(engine._coefficients(z, tau), M))
    return engine._error_bound(abs(a[M - 1]), abs(a[M - 2]), N, M, abs(z),
                               abs(tau))


def test_choose_params_floor():
    # the plan: N at or past the floor N0 and clear of the cut, the
    # bound over orders M and M - 1 within the target, and M the least
    # order for which both are at that N
    for z, tau in ((1.0, 1.0), (1.5 + 0.5j, 2.0), (SQRT3, SQRT3),
                   (2 + 1j, 1 + 1j), (0.3 + 2j, 0.7 - 0.4j), (5.0, 1.0),
                   (20 + 5j, 1.5), (4 - 1j, -0.5 + 1.2j),
                   (100.0, 0.1),             # no order meets it at N0
                   (10 + 10j, -1 + 0.05j),   # the disk condition sets N
                   (0.0619, 2.0)):           # order 7 reads 1000x low
        p = choose_params(z, tau)
        assert p.N >= math.ceil(8 * (2 + abs(z)) / abs(tau)), (z, tau)
        c = p.N * tau
        assert (abs(c) if c.real >= 0 else abs(c.imag)) > 2 * abs(z), (z, tau)
        target = 2.0 ** -52 * (1 + abs(z))

        def meets(N, M):  # orders M and M - 1
            return _bound(z, tau, N, M) <= target * (1 + 1e-9)

        assert meets(p.N, p.M), (z, tau)
        for M in range(1, p.M):
            assert not meets(p.N, M), (z, tau, M)
        if p.N > engine._n_floor(z, tau):
            # past the floor only when no order meets the target there
            for M in range(1, 17):
                assert not meets(p.N - 1, M), (z, tau, M)


def test_choose_params_count():
    assert choose_params(1.5 + 0.5j, 2.0).N <= 32


@functools.cache
def _reference_points():
    # (z, tau, reference log) with the reference at N = 2^14, M = 16, which
    # shares its first N terms bit for bit with any smaller N; every third
    # |z| is drawn from [0.01, 0.3], where the odd correction terms run far
    # below the even ones
    rng = random.Random(13)
    points = [(0.0619, 2.0)]
    while len(points) < 25:
        r = 10 ** rng.uniform(-2, -0.5) if len(points) % 3 == 0 else rng.uniform(0, 6)
        z = cmath.rect(r, rng.uniform(-math.pi, math.pi))
        tau = cmath.rect(rng.uniform(0.3, 3), rng.uniform(-0.75, 0.75) * math.pi)
        if lattice_distance(z, tau) >= 1e-3:
            points.append((z, tau))
    return [(z, tau, log_double_gamma(z, tau, ComputeParams(N=2 ** 14, M=16)).log_value)
            for z, tau in points]


def test_auto_truncation_matches_reference():
    # the automatic plan to 8 ulps of max(1, |log G|); at (0.0619, 2) a plan
    # on the last term alone takes M = 7 and is 12 ulps off
    for z, tau, ref in _reference_points():
        got = log_double_gamma(z, tau).log_value
        assert abs(got - ref) <= 8 * 2.0 ** -52 * max(1.0, abs(ref)), (z, tau)


def test_error_estimate_covers_the_error():
    # at (0.0619, 2) order 7's term runs ~1000x below order 6's, so the last
    # term alone reads 1e-17 against an error of 9e-15
    z, tau, ref = _reference_points()[0]
    r = log_double_gamma(z, tau, ComputeParams(N=9, M=7))
    assert r.error_estimate >= abs(r.log_value - ref)
    # explicit N in [N0, 3 N0] and any M: where the error is above the
    # roundoff (8 ulps), the estimate is not more than 4x below it
    rng = random.Random(14)
    for z, tau, ref in _reference_points():
        n0 = engine._n_floor(z, tau)
        for _ in range(10):
            p = ComputeParams(N=rng.randint(n0, 3 * n0), M=rng.randint(1, 16))
            r = log_double_gamma(z, tau, p)
            err = abs(r.log_value - ref)
            if err > 8 * 2.0 ** -52 * max(1.0, abs(ref)):
                assert 4 * r.error_estimate >= err, (z, tau, p)


def test_choose_params_scaling():
    p = choose_params(100.0, 0.1)
    assert p.N >= 8160


def test_choose_params_disk_condition_near_cut():
    tau = -1 + 0.05j  # nearly on the cut; only |tau| enters the floor formula
    z = 10 + 10j
    p = choose_params(z, tau)
    c = p.N * tau
    dist = abs(c) if c.real >= 0 else abs(c.imag)
    assert dist > 2 * abs(z)


def test_params_validation():
    with pytest.raises(DomainError):
        ComputeParams(N=0)
    with pytest.raises(DomainError):
        ComputeParams(N=10, M=17)


# ------------------------------------------------------- convergence order

def test_truncation_convergence_order():
    z, tau = 2 + 1j, SQRT2
    ref = log_double_gamma(z, tau, ComputeParams(N=2 ** 14, M=12, m_cd=256))
    floor = 20 * 2.22e-16 * (1 + abs(ref.log_value))
    for M in (2, 4, 6):
        errs = []
        for N in (32, 64, 128, 256):
            v = log_double_gamma(z, tau, ComputeParams(N=N, M=M, m_cd=256))
            errs.append((N, abs(v.log_value - ref.log_value)))
        pts = [(math.log(n), math.log(e)) for n, e in errs if e > floor]
        assert len(pts) >= 2, f"M={M}: too few points above the noise floor"
        n = len(pts)
        sx = sum(p[0] for p in pts)
        sy = sum(p[1] for p in pts)
        sxx = sum(p[0] * p[0] for p in pts)
        sxy = sum(p[0] * p[1] for p in pts)
        slope = (n * sxy - sx * sy) / (n * sxx - sx * sx)
        assert slope <= -(M + 0.8), f"M={M}: slope {slope}"


def test_determinism():
    p = ComputeParams(N=500, M=8, m_cd=128)
    a = log_double_gamma(1.7 + 0.3j, 1.1 + 0.2j, p).log_value
    b = log_double_gamma(1.7 + 0.3j, 1.1 + 0.2j, p).log_value
    assert a == b  # bit-identical


# ------------------------------------------------------------ per-tau memos

def _log1p_tail(u):
    # log(1 + u) - u + u^2/2 by 88 terms of its series: |u| <= 1/2 here
    s = 0j
    for k in range(90, 2, -1):
        s = s * u + (1.0 if k % 2 else -1.0) / k
    return s * u * u * u


def _switch(z, tau, N):
    # gn_sum's switch point: N + 1 (every term direct) past |arg tau| = 3pi/4
    if abs(cmath.phase(tau)) > backend._MAX_ARG:
        return N + 1
    return backend._switch_point(z, tau)


def _gn_sum_unmemoized(z, tau, N):
    # gn_sum term by term, with every kernel called per term: below the
    # switch point the kernels, from it on r_m in its regrouped Stirling
    # form, every intermediate the size of r_m itself (|w| >= 16,
    # |z/w| <= 1/2):
    #   r_m = z^3/(2 w^2) - (z+w-1/2) g(z/w) - [J(z+w) - J(w)]
    #         - z S(w) + (z^2/2) S'(w),  g(u) = log(1+u) - u + u^2/2
    z2h = 0.5 * z * z
    m_switch = _switch(z, tau, N)
    sr = cr = si = ci = 0.0
    for m in range(1, N + 1):
        w = m * tau
        if m < m_switch:
            t = (backend.loggamma(w) - backend.loggamma(z + w)
                 + z * backend.digamma(w) + z2h * backend.trigamma(w))
        else:
            t = (0.5 * z * z * z * (1.0 / (w * w))
                 - (z + w - 0.5) * _log1p_tail(z / w)
                 - (backend._binet(z + w) - backend._binet(w))
                 - z * backend._psi_tail(w)
                 + z2h * backend._psi1_tail(w))
        sr, cr = backend._neumaier_add(sr, cr, t.real)
        si, ci = backend._neumaier_add(si, ci, t.imag)
    return complex(sr + cr, si + ci)


def _assert_gn_sum(z, tau, N, value):
    # value against the term-by-term sum: bit for bit where every term is
    # direct (N below the switch point, or |arg tau| > 3pi/4), else within
    # a few units of 2^-52 max(1, |sum|), the swapped stable sum's rounding
    ref = _gn_sum_unmemoized(z, tau, N)
    if N < _switch(z, tau, N):
        assert repr(value) == repr(ref), (z, tau, N)
    else:
        assert abs(value - ref) <= 4 * 2.0 ** -52 * max(1.0, abs(ref)), \
            (z, tau, N, value, ref)


def _fresh_tau(rng):
    # a tau no other test uses, so its memo tables start cold
    return complex(rng.uniform(0.5, 2.5), rng.uniform(0.05, 1.5))


# (z, tau) covering both branches, a z-dependent switch point (|z| > 8),
# the all-direct sector |arg tau| > 3pi/4 and N beyond the cached m
_MEMO_CASES = ((1.3 + 0.4j, 1.1 + 0.4j, 300), (11.0 - 3.0j, 0.9 + 0.2j, 400),
               (0.4 + 0.7j, -1.2 + 0.5j, 150), (2.0 + 1.0j, SQRT2, 1100))


def test_gn_sum_memo_cold_and_warm_bit_identical():
    # the first use of a tau fills the memos and the later ones read them:
    # the same bits, within a few ulps of the term-by-term sum
    rng = random.Random(5)
    for z, tau, N in _MEMO_CASES:
        tau = tau + 1e-9 * _fresh_tau(rng)   # unseen bits, same region
        cold = repr(backend.gn_sum(z, tau, N))
        for _ in range(2):
            assert repr(backend.gn_sum(z, tau, N)) == cold, (z, tau, N)
        _assert_gn_sum(z, tau, N, backend.gn_sum(z, tau, N))


def test_gn_sum_prefix_property_with_warm_memo():
    # bit for bit up to the switch point. Past it each truncation has the
    # bits of its first call, whichever truncation ran before it at that
    # tau, and shares the first m_switch - 1 terms and S(m_switch)
    rng = random.Random(6)
    for z, tau, N in _MEMO_CASES:
        t = tau + 1e-9 * _fresh_tau(rng)
        seen = {}
        for order in ((N // 3, N, N // 3), (N, N // 3, N)):
            clear_memos()
            for n in order:
                got = repr(backend.gn_sum(z, t, n))
                assert seen.setdefault(n, got) == got, (z, t, n, order)
        for n in (N // 3, N):
            _assert_gn_sum(z, t, n, complex(seen[n]))
        ms = _switch(z, t, N)
        assert repr(backend.gn_sum(z, t, ms - 1)) == \
            repr(_gn_sum_unmemoized(z, t, ms - 1)), (z, t)


def test_gn_sum_memo_interleaved_with_eviction():
    # eleven tau (more than the memo keeps) and z values taking different
    # switch points and series classes, in a shuffled order: every result
    # has the bits of its first call, whether its tau was cold, warm or
    # evicted, and is within a few ulps of the term-by-term sum
    rng = random.Random(7)
    taus = [_fresh_tau(rng) for _ in range(11)]
    zs = (0.3 + 0.2j, 1.7 - 0.6j, 9.0 + 2.0j, -2.5 + 1.5j)
    jobs = [(z, t) for z in zs for t in taus] * 2
    rng.shuffle(jobs)
    first = {}
    for z, t in jobs:
        got = repr(backend.gn_sum(z, t, 90))
        if (z, t) not in first:
            first[z, t] = got
            _assert_gn_sum(z, t, 90, complex(got))
        assert got == first[z, t], (z, t)


def test_gn_sum_bits_independent_of_the_series_memos():
    # the swapped stable sum reads three memos: the coefficient sets
    # (_series), the Hurwitz rows and the per-k constants. Warm, evicted by
    # 32 other tau (64 sets, with tau's direct table), or with the Hurwitz
    # rows dropped, every result has the bits of a call on cleared memos
    rng = random.Random(23)
    cases = [(z, tau + 1e-9 * _fresh_tau(rng), N) for z, tau, N in _MEMO_CASES]
    cold = {}
    for case in cases:
        clear_memos()
        cold[case] = repr(backend.gn_sum(*case))
    for case in cases * 2:
        assert repr(backend.gn_sum(*case)) == cold[case], case
    for case in cases:
        for _ in range(32):
            backend.gn_sum(0.7 + 0.2j, _fresh_tau(rng), 60)
        assert repr(backend.gn_sum(*case)) == cold[case], case
        backend._zeta_rows.clear()
        assert repr(backend.gn_sum(*case)) == cold[case], case


def test_gn_sum_short_and_long_z_series_in_either_order():
    # at one (tau, N) a small |z| takes a short z-series and a large one a
    # long series, each from its own class of coefficients; whichever runs
    # first, each has the bits of its call on cleared memos
    for tau in (1.1 + 0.4j, -0.6 + 0.9j, 2.0 + 0.0j):
        N = 120
        zs = (0.05 - 0.02j, 3.9 + 3.5j, 9.5 - 2.0j)
        cold = {}
        for z in zs:
            clear_memos()
            cold[z] = repr(backend.gn_sum(z, tau, N))
        for order in (zs, zs[::-1]):
            clear_memos()
            for z in order:
                assert repr(backend.gn_sum(z, tau, N)) == cold[z], (z, tau)
        # the first two read a short and a long set, each keyed by its own
        # switch point (both move with |z|), both held
        misses = backend._series.cache_info().misses
        lengths = []
        for z in zs[:2]:
            a = _switch(z, tau, N)
            e = min(math.frexp(abs(z) / (a * abs(tau)))[1], -1)
            lengths.append(len(backend._series(backend.tau_bits(tau), tau,
                                               a, e)))
        lengths.sort()
        assert backend._series.cache_info().misses == misses
        assert 3 * lengths[0] < lengths[1], lengths


_GN_GRID = json.loads((Path(__file__).parent / "data" / "gn_sum_grid.json")
                      .read_text())["rows"]


def _grid_row(row):
    return complex(*row["z"]), complex(*row["tau"]), row["N"]


def test_gn_sum_stable_range_against_the_frozen_mpmath_grid():
    # every row of tests/data/gn_sum_grid.json: the stable range
    # gn_sum(N) - gn_sum(m_switch - 1), which share their first
    # m_switch - 1 terms bit for bit, against mpmath at 30 digits, within
    # 2^-52 of max(1, |gn_sum|)
    assert len(_GN_GRID) >= 40
    for row in _GN_GRID:
        z, tau, N = _grid_row(row)
        ms = _switch(z, tau, N)
        assert ms <= N, row
        full = backend.gn_sum(z, tau, N)
        got = full - backend.gn_sum(z, tau, ms - 1)
        ref = complex(float(row["S"][0]), float(row["S"][1]))
        assert abs(got - ref) <= 2.0 ** -52 * max(1.0, abs(full)), (row, got)


def test_gn_sum_grid_rederived_live():
    # the two shortest rows again from the generator, so the file cannot
    # drift from it
    import make_gn_sum_grid
    rows = sorted(_GN_GRID, key=lambda r: r["N"] - _switch(*_grid_row(r)))[:2]
    for row in rows:
        z, tau, N = _grid_row(row)
        assert make_gn_sum_grid.m_switch(z, tau) == _switch(z, tau, N)
        assert make_gn_sum_grid.stable_range(z, tau, N) == row["S"], row


def _series_value(z, tau, a):
    # S(a) from its coefficient set, as _gn_parts sums it
    e = min(math.frexp(abs(z) / (a * abs(tau)))[1], -1)
    h = 0j
    for c in backend._series(backend.tau_bits(tau), tau, a, e):
        h = h * z + c
    return z * z * z * h


def test_gn_sum_series_at_the_sector_edge_against_mpmath():
    # S(a) at the switch point a, where z + m tau comes nearest the cut:
    # S(a) - S(a + 20) against its 20 terms from mpmath at 30 digits,
    # within 4 units of 2^-52 max(|z|, |S(a)|, |S(a + 20)|) (the series'
    # cut is below 2^-56 |z|, its roundoff a few ulps of each S; 2.95 was
    # the worst seen over 280 such draws). Seeded draws in both
    # sectors, half with z pointed at the cut, then a fixed point in the
    # mid sector where starting at a = 21, 4.8 from the cut, misses by
    # 47 units: there a = 28 keeps z + m tau 8.7 from it
    import mpmath as mp

    def miss(z, tau, a):
        with mp.workdps(30):
            mz, mt = mp.mpc(z), mp.mpc(tau)
            ref = complex(mp.fsum(
                mp.loggamma(m * mt) - mp.loggamma(mz + m * mt)
                + mz * mp.digamma(m * mt) + mz * mz / 2 * mp.psi(1, m * mt)
                for m in range(a, a + 20)))
        sa, sb = _series_value(z, tau, a), _series_value(z, tau, a + 20)
        return abs(sa - sb - ref) / (2.0 ** -52 * max(abs(z), abs(sa), abs(sb)))

    rng = random.Random(29)
    for i in range(40):
        if i % 2:
            arg = rng.uniform(0.5 * math.pi + 0.01, 0.75 * math.pi)
        else:
            arg = rng.uniform(0.0, 0.5 * math.pi)
        tau = cmath.rect(10.0 ** rng.uniform(-0.4, 0.4),
                         arg * rng.choice((-1.0, 1.0)))
        z = cmath.rect(10.0 ** rng.uniform(-1.0, 1.2),
                       rng.uniform(-math.pi, math.pi))
        if i % 4 < 2:   # pointed at the cut, from m tau, within 0.5 rad
            if tau.real >= 0.0:
                toward = -tau / abs(tau)
            else:
                toward = complex(0.0, -math.copysign(1.0, tau.imag))
            z = abs(z) * toward * cmath.rect(1.0, rng.uniform(-0.5, 0.5))
        units = miss(z, tau, backend._switch_point(z, tau))
        assert units <= 4.0, (z, tau, units)
    z, tau = cmath.rect(7.68, -2.0), cmath.rect(0.79, 2.352)
    assert backend._switch_point(z, tau) == 28
    assert miss(z, tau, 28) <= 4.0
    assert miss(z, tau, 21) > 40.0


def test_fresh_tau_evaluation_computes_each_k_tau_once(monkeypatch):
    # cd_sums' direct k < k0 fill the table the product reads, so one
    # product evaluation at a fresh tau, at choose_params' plan, takes psi
    # and psi' at each k tau once; modular_forms_em's own line at m_cd tau
    # is the only repeat
    calls = collections.Counter()
    pair = backend.psi_pair

    def counted(w):
        calls[w] += 1
        return pair(w)

    monkeypatch.setattr(backend, "psi_pair", counted)
    rng = random.Random(13)
    z = 0.7 + 0.3j
    # a regrouped tau (k0 < gn_sum's switch point) and an all-direct one
    for tau in (1.1 + 0.4j, -1.2 + 0.5j):
        tau = tau + 1e-9 * _fresh_tau(rng)
        calls.clear()
        r = log_double_gamma(z, tau, choose_params(z, tau))
        N, m_cd = r.params_used.N, r.params_used.m_cd
        if abs(cmath.phase(tau)) <= backend._MAX_ARG:
            n_direct = backend._switch_point(z, tau) - 1
        else:
            n_direct = N
        per_k = collections.Counter()
        for w, c in calls.items():
            k = round((w / tau).real)
            assert w == k * tau, (tau, w)
            per_k[k] += c
        assert set(range(1, n_direct + 1)) <= set(per_k), tau
        assert per_k[m_cd] <= 2, tau
        assert all(c == 1 for k, c in per_k.items() if k != m_cd), tau


def test_cd_sums_and_gn_sum_share_the_direct_table_in_either_order():
    # whichever of the two fills the direct table first, both return the
    # bits of a call on a cold table
    rng = random.Random(14)
    for z, tau, N in _MEMO_CASES:
        tau = tau + 1e-9 * _fresh_tau(rng)
        m = engine.default_m(tau)
        if abs(cmath.phase(tau)) <= backend._MAX_ARG:
            k0 = math.ceil((8.0 if abs(cmath.phase(tau)) <= math.pi / 2 else 16.0)
                           / abs(tau))
        else:
            k0 = m
        run = {"cd": lambda: repr(backend.cd_sums(tau, m, k0)),
               "gn": lambda: repr(backend.gn_sum(z, tau, N))}
        cold = {}
        for which, f in run.items():
            backend._tau_memo.cache_clear()
            cold[which] = f()
        for order in (("cd", "gn"), ("gn", "cd")):
            backend._tau_memo.cache_clear()
            for which in order:
                assert run[which]() == cold[which], (z, tau, order)


def _coefficients_unmemoized(z, tau, M):
    # the correction coefficients a_1..a_M with P_k(z;-tau) by the
    # bivariate Horner
    def eval_p(coeffs, z, t):
        acc = 0j
        for row in reversed(coeffs):
            v = 0j
            for c in reversed(row):
                v = v * t + c
            acc = acc * z + v
        return acc

    z3 = z * z * z
    inv_neg_tau = -1.0 / tau
    pw = inv_neg_tau * inv_neg_tau
    a = []
    for k in range(1, M + 1):
        pk = eval_p(engine._p_rounded(k), z, -tau)
        a.append(z3 * pw * pk / (k * (k + 1) * (k + 2)))
        pw *= inv_neg_tau
    return a


def test_correction_memo_bit_identical():
    rng = random.Random(8)
    for _ in range(12):
        tau = _fresh_tau(rng)
        for z, M in ((1.5 + 0.5j, 12), (-3.0 + 2.0j, 16), (0.7 - 0.1j, 5)):
            ref = repr(_coefficients_unmemoized(z, tau, M))
            for _ in range(2):
                a = itertools.islice(engine._coefficients(z, tau), M)
                assert repr(list(a)) == ref


def test_memo_bounds():
    # twenty fresh tau, each summed past the cached m; every other one in
    # the all-direct sector, so the direct table fills up to its bound
    rng = random.Random(9)
    taus = []
    for i in range(20):
        tau = _fresh_tau(rng)
        if i % 2:
            tau = complex(-tau.real - 1.0, 0.3 * tau.imag)
        taus.append(tau)
        backend.gn_sum(0.5 + 0.5j, tau, 1100)
        list(itertools.islice(engine._coefficients(1.0 + 1.0j, tau), 16))
        assert backend._tau_memo.cache_info().currsize <= 8
    assert backend._tau_memo.cache_info().currsize == 8
    # the entries of the last 8 tau, read back (cache hits, so none evicted)
    memo = [backend.tau_memo(t) for t in taus[-8:]]
    assert backend._tau_memo.cache_info().currsize == 8
    for field, max_key in (("direct", backend._MEMO_M), ("p_rows", 16)):
        tables = [getattr(entry, field) for entry in memo]
        assert max(max(t, default=0) for t in tables) == max_key
        assert all(1 <= m <= max_key for t in tables for m in t)
    # z of 40 series classes at one tau and N, each with its own set for
    # S(m_switch) and S(N + 1): the series LRU keeps its last 64 sets
    tau = _fresh_tau(rng)
    for k in range(40):
        backend.gn_sum(cmath.rect(7.9 * 0.5 ** k, k), tau, 60)
    info = backend._series.cache_info()
    assert info.currsize == info.maxsize == 64
    # the Hurwitz rows: at most _ZETA_KEYS, the map emptied when full
    for a in range(1, backend._ZETA_KEYS + 40):
        backend._zeta_row(a, 4)
        assert len(backend._zeta_rows) <= backend._ZETA_KEYS


def test_memo_entry_filled_and_evicted_whole():
    # an automatic product evaluation fills the direct table of its tau's
    # entry and runs no plan: its P_k rows stay empty until params_used is
    # read, which plans and fills them; an explicit evaluation at that plan
    # finds the entry and its rows and rebuilds none; 8 further tau evict
    # the entry, and with it every field at once
    assert backend.TauEntry.__slots__ == ("direct", "p_rows", "coeffs")
    rng = random.Random(10)
    tau = _fresh_tau(rng)
    r = log_double_gamma(9.0 + 2.0j, tau)   # both gn_sum branches
    entry = backend.tau_memo(tau)
    assert entry.direct and entry.p_rows == {}
    plan = r.params_used
    rows = dict(entry.p_rows)
    assert rows
    assert plan == choose_params(9.0 + 2.0j, tau)
    misses = backend._tau_memo.cache_info().misses
    log_double_gamma(9.0 + 2.0j, tau, plan)
    assert backend._tau_memo.cache_info().misses == misses
    assert entry.p_rows.keys() == rows.keys()
    assert all(entry.p_rows[k] is v for k, v in rows.items())
    assert entry.coeffs is None          # the product route builds none
    misses = backend._tau_memo.cache_info().misses
    assert backend.tau_memo(tau) is entry
    for _ in range(8):
        log_double_gamma(9.0 + 2.0j, _fresh_tau(rng))
    assert backend._tau_memo.cache_info().misses == misses + 8
    fresh = backend.tau_memo(tau)
    assert backend._tau_memo.cache_info().misses == misses + 9
    assert fresh is not entry
    assert (fresh.direct, fresh.p_rows, fresh.coeffs) == ({}, {}, None)


def test_clear_memos_reaches_every_lru_cache():
    # every function of the package with a cache_clear, found by walking
    # its modules, is emptied by clear_memos, and so are the Hurwitz rows:
    # a new memo cannot escape the cold/warm bit-identity tests
    memos = {}
    for info in pkgutil.iter_modules(barnesg.__path__):
        module = importlib.import_module(f"barnesg.{info.name}")
        for value in vars(module).values():
            if callable(getattr(value, "cache_clear", None)):
                memos[id(value)] = value
    assert len(memos) >= 8
    cleared = set()
    try:
        for key, memo in memos.items():
            memo.cache_clear = functools.partial(cleared.add, key)
        clear_memos()
    finally:
        for memo in memos.values():
            del memo.cache_clear
    missed = [memo.__qualname__ for key, memo in memos.items()
              if key not in cleared]
    assert not missed, missed
    backend._zeta_row(3, 4)
    clear_memos()
    assert not backend._zeta_rows


def test_zeta_row_shift_identity():
    # row_a[p] = sum_{a<=n<b} (a/n)^p + (a/b)^p row_b[p], the head summed
    # exactly, at rows of small and large a, to 8 units of 2^-52 relative
    for a in (1, 2, 8, 27, 57, 300, 1025, 16385):
        row_a = backend._zeta_row(a, 40)
        for b in (a + 1, a + 7, 2 * a + 3, a + 50):
            row_b = backend._zeta_row(b, 40)
            for p in range(2, 41):
                head = math.fsum((a / n) ** p for n in range(a, b))
                want = head + (a / b) ** p * row_b[p]
                units = abs(row_a[p] - want) / (2.0 ** -52 * row_a[p])
                assert units <= 8.0, (a, b, p, units)


def test_gn_sum_against_the_term_by_term_kernels_on_a_grid():
    # the swapped stable sum against the kernels called per term, over
    # Re tau > 0, Re tau < 0 with |arg tau| <= 3pi/4 (both branches) and
    # |arg tau| > 3pi/4 (all direct, bit for bit), with z taking several
    # switch points and series classes
    rng = random.Random(21)
    for i in range(36):
        sector = (rng.uniform(-1.4, 1.4), rng.uniform(1.7, 2.3),
                  rng.uniform(2.45, 3.0))[i % 3]
        tau = cmath.rect(rng.uniform(0.4, 2.5),
                         rng.choice((-1.0, 1.0)) * sector)
        z = complex(rng.uniform(-4.0, 9.0), rng.uniform(-4.0, 4.0))
        N = rng.randrange(20, 160)
        _assert_gn_sum(z, tau, N, backend.gn_sum(z, tau, N))


# ---------------------------------------------------------- correction

def test_table_rows_are_the_evaluator_bit_for_bit(capsys):
    # no table-only path: with no flag row k is the automatic
    # log_double_gamma(z_k, tau), as in eval; with a flag it is
    # log_double_gamma(z_k, tau, plan) at the one explicit plan
    from barnesg.cli import main
    start, stop, count, tau = 0.5 + 0.1j, 3.5 + 1.2j, 40, 1.1 + 0.35j
    zs = [start + (stop - start) * (k / (count - 1)) for k in range(count)]
    for extra, params in (((), None),
                          (("--N", "70", "--M", "9"),
                           ComputeParams(N=70, M=9))):
        assert main(["table", f"--grid={start}:{stop}:{count}",
                     f"--tau={tau}", *extra]) == 0
        rows = json.loads(capsys.readouterr().out)
        for k, z in enumerate(zs):
            r = log_double_gamma(z, tau, params)
            assert complex(rows[k]["log"]["re"], rows[k]["log"]["im"]) \
                == r.log_value, k
            assert rows[k]["err_est"] == r.error_estimate, k


def test_slot_cold_or_warm_same_bits():
    # each point reads the bits of a cold tau entry (its p_rows slot
    # empty) whether its (tau, N, M) was cold, warm from other points at
    # its (N, M), or run after another N or another M
    rng = random.Random(23)
    for _ in range(6):
        tau = _fresh_tau(rng)
        zs = [complex(rng.uniform(-2.0, 3.0), rng.uniform(-2.0, 2.0))
              for _ in range(4)]
        n0 = max(engine._n_floor(z, tau) for z in zs)
        for M in range(1, 17):
            plans = (ComputeParams(N=n0 + M, M=M, m_cd=64),
                     ComputeParams(N=n0 + M + 1, M=M, m_cd=64),
                     ComputeParams(N=n0 + M, M=17 - M, m_cd=64))
            cold = {}
            for z in zs:
                for p in plans:
                    backend._tau_memo.cache_clear()
                    cold[z, p] = repr(log_double_gamma(z, tau, p))
            for z in zs:
                for p in (plans[0], plans[0], plans[1], plans[0], plans[2],
                          plans[0]):
                    assert repr(log_double_gamma(z, tau, p)) == cold[z, p], \
                        (z, tau, p)


def test_slot_replaced_never_grows():
    # 10 000 distinct explicit (N, M) at one tau grow no table of tau's
    # entry (its p_rows slot included) past its first size; 1 000 distinct
    # N for gn_sum grow none either, and keep at most 64 coefficient sets
    tau = 0.9 + 0.45j
    z = 1.2 + 0.3j
    log_double_gamma(z, tau, ComputeParams(N=40, M=16, m_cd=64))
    entry = backend.tau_memo(tau)

    def sizes():
        return len(entry.direct), len(entry.p_rows)

    before = sizes()
    for N in range(40, 10040):
        engine._correction(z, tau, N, 1 + N % 16)
    assert backend.tau_memo(tau) is entry
    assert sizes() == before
    for N in range(40, 1040):
        backend.gn_sum(z, tau, N)
    assert sizes() == before
    assert backend._series.cache_info().currsize <= 64


def _exact_correction_terms(z, tau, N):
    # a_k N^(-k), k = 1..16, in exact complex rationals (re, im) from the
    # Fraction coefficients of polys.p_poly, which share no rounded row
    # with the evaluator
    def mul(a, b):
        return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])

    t = (-tau[0], -tau[1])
    d = t[0] * t[0] + t[1] * t[1]
    inv = (t[0] / d, -t[1] / d)
    z3 = mul(mul(z, z), z)
    pw = mul(inv, inv)
    terms = []
    for k in range(1, 17):
        pk = (Fraction(0), Fraction(0))
        for row in reversed(polys.p_poly(k)):
            v = (Fraction(0), Fraction(0))
            for c in reversed(row):
                v = mul(v, t)
                v = (v[0] + c, v[1])
            pk = mul(pk, z)
            pk = (pk[0] + v[0], pk[1] + v[1])
        a = mul(mul(z3, pw), pk)
        s = Fraction(1, k * (k + 1) * (k + 2) * N ** k)
        terms.append((a[0] * s, a[1] * s))
        pw = mul(pw, inv)
    return terms


def test_correction_against_exact_rationals():
    # at dyadic (z, tau), exact in binary64, the float correction lies
    # within a few ulps of sum |a_k N^(-k)| of the exact sum, M = 1..16
    rng = random.Random(24)
    for _ in range(24):
        z = (Fraction(rng.randint(-48, 64), 16), Fraction(rng.randint(-48, 48), 16))
        tau = (Fraction(rng.randint(-40, 48), 16), Fraction(rng.randint(1, 40), 16)
               * rng.choice((-1, 1)))
        zf = complex(float(z[0]), float(z[1]))
        tf = complex(float(tau[0]), float(tau[1]))
        n0 = engine._n_floor(zf, tf)
        N = n0 + rng.randrange(0, n0)
        terms = _exact_correction_terms(z, tau, N)
        for M in range(1, 17):
            re = sum(a[0] for a in terms[:M])
            im = sum(a[1] for a in terms[:M])
            scale = sum(abs(complex(float(a[0]), float(a[1])))
                        for a in terms[:M])
            got = engine._correction(zf, tf, N, M)[0]
            err = abs(complex(float(Fraction(got.real) - re),
                              float(Fraction(got.imag) - im)))
            assert err <= 6.0 * 2.0 ** -52 * scale, (zf, tf, N, M)


def test_correction_bound_has_the_plans_bits():
    # the correction's error bound is _error_bound over |a_M| and
    # |a_(M-1)| as _coefficients yields them to the plan, bit for bit, at
    # seeded (z, tau, N) in both half-planes of tau and M = 1..16
    rng = random.Random(25)
    for _ in range(40):
        tau = cmath.rect(rng.uniform(0.3, 3.0), rng.uniform(-2.3, 2.3))
        z = complex(rng.uniform(-6.0, 8.0), rng.uniform(-5.0, 5.0))
        N = engine._n_floor(z, tau) + rng.randrange(0, 50)
        a = list(itertools.islice(engine._coefficients(z, tau), 16))
        for M in range(1, 17):
            bound = engine._error_bound(abs(a[M - 1]), abs(a[M - 2]), N, M,
                                        abs(z), abs(tau))
            assert engine._correction(z, tau, N, M)[1] == bound, (z, tau, N, M)


# ----------------------------------------------------------- asymptotics

def test_asymptotic_coeffs_closed_forms():
    c = asymptotic_coeffs(1.0)
    assert abs(c.a0 - 5.0 / 12.0) < 1e-15
    assert abs(c.a1 + 1.0) < 1e-15
    assert abs(c.a2 - 0.5) < 1e-15
    c2 = asymptotic_coeffs(2.0)
    assert abs(c2.b2 - (-(1.5 + math.log(2)) / 4.0)) < 1e-15


def test_asymptotic_tail_sign_convention():
    # tail[1] = + q_3(tau) / (6 tau); q_3 = -tau(1+tau)/4
    tau = SQRT2
    c = asymptotic_coeffs(tau, 2)
    q3 = -tau * (1 + tau) / 4
    assert abs(c.tail[0] - q3 / (6 * tau)) < 1e-14


def _product(z, tau):
    # the product at the automatic plan: independent of the large-z route,
    # which automatic evaluations may take
    return log_double_gamma(z, tau, choose_params(z, tau))


def test_asymptotic_api_refuses_what_binary64_cannot_hold():
    # _TAIL_CAP is the last n_tail whose q_(n_tail + 2) coefficients are
    # finite in binary64 (its refusals past it: test_benchmark_names.py)
    assert all(map(math.isfinite, engine._q_rounded(engine._TAIL_CAP + 2)))
    with pytest.raises(OverflowError):
        engine._q_rounded(engine._TAIL_CAP + 3)
    with pytest.raises(DomainError, match="n_tail must be in 0..257"):
        asymptotic_coeffs(1.0, engine._TAIL_CAP + 1)
    # a finite z whose expansion leaves binary64 (z^2 ln z overflows, or
    # z^-n does), and a tail with terms past binary64 (two of the 257 at
    # tau = 1), are refused rather than returned
    for z in (1e154, 1e160, 1e-200):
        with pytest.raises(DomainError, match="not finite"):
            log_double_gamma_asymptotic(z, 1.0)
    with pytest.raises(DomainError, match="not finite"):
        asymptotic_coeffs(1.0, 257)


def test_large_z_routes_pass_a_non_finite_expansion_on(monkeypatch):
    # a non-finite expansion does not raise inside the automatic routes:
    # the shifted route declines on it, to the product, and the route at z
    # returns it for log_double_gamma's _result to refuse
    assert engine._shifted_route(-300 + 40j, 1.0 + 0.2j) is not None
    assert log_double_gamma(300.0 + 40.0j, 1.0 + 0.2j).route == "asymptotic"
    monkeypatch.setattr(engine, "_expansion_sum",
                        lambda z, coeffs, n_tail: complex(math.nan, math.nan))
    assert engine._shifted_route(-300 + 40j, 1.0 + 0.2j) is None
    with pytest.raises(DomainError, match="not finite in binary64"):
        log_double_gamma(300.0 + 40.0j, 1.0 + 0.2j)


def test_asymptotic_agreement_large_z():
    co = asymptotic_coeffs(SQRT2, 8)
    le = _product(40.0, SQRT2).log_value
    la = log_double_gamma_asymptotic(40.0, SQRT2, 8, co)
    assert abs(cmath.exp(la - le) - 1) <= 1e-9
    co_t = asymptotic_coeffs(1 + 1j, 8)
    le = _product(30 + 30j, 1 + 1j).log_value
    la = log_double_gamma_asymptotic(30 + 30j, 1 + 1j, 8, co_t)
    assert abs(cmath.exp(la - le) - 1) <= 1e-8


def test_asymptotic_agreement_ray_grid():
    # rays 0 and pi/4 with |z| in {20, 40, 80}: within 1e-8 everywhere and
    # improving with |z| until the binary64 floor of the stored logs
    tau = 1 + 1j
    co = asymptotic_coeffs(tau, 8)
    eps = 2.220446049250313e-16
    for ray in (0.0, math.pi / 4):
        prev = None
        for r in (20.0, 40.0, 80.0):
            z = cmath.rect(r, ray)
            le = _product(z, tau).log_value
            la = log_double_gamma_asymptotic(z, tau, 8, co)
            err = abs(cmath.exp(la - le) - 1)
            assert err <= 1e-8, (ray, r)
            floor = 100 * eps * (1 + abs(le))
            if prev is not None:
                assert err < prev or err <= floor, (ray, r, err, prev)
            prev = max(err, floor)


def test_asymptotic_error_order_without_tail():
    # with n_tail = 0 the error is O(1/z): doubling z about halves it
    errs = []
    for z in (50.0, 100.0):
        le = _product(z, 1.0).log_value
        la = log_double_gamma_asymptotic(z, 1.0, 0)
        errs.append(abs(cmath.exp(la - le) - 1))
    ratio = errs[0] / errs[1]
    assert 1.6 <= ratio <= 2.4


def test_sector_violation():
    with pytest.raises(SectorError):
        log_double_gamma_asymptotic(-40.0 + 0.1j, SQRT2, 4)
    with pytest.raises(SectorError):
        # along arg(-tau) for tau = 1+1i: angle -3pi/4
        log_double_gamma_asymptotic(cmath.rect(40, -3 * math.pi / 4), 1 + 1j, 4)
    # inside the cone between arg(-tau) and pi, which holds the zeros
    for z, tau in ((-50.5 - 49.7j, 1j), (-60.3 - 20.1j, 1 + 1j)):
        with pytest.raises(SectorError):
            log_double_gamma_asymptotic(z, tau, 8)


# ------------------------------------------------- the automatic large-z route

_EPS = 2.0 ** -52
# the automatic product sums every term, an explicit plan N terms and the
# correction: they agree to this many units of 2^-52 max(1, |log G|). Over
# the 4 944 product points of scatter seeds 7 and 9 (i < 3000) the worst
# was 8.23 against the plan and 7.28 against N = 2^14, M = 16
_AUTO_ULPS = 12


def _auto_ulps(r, p):
    # the distance of two results' logs in units of 2^-52 max(1, |log G|)
    return abs(r.log_value - p.log_value) / (
        _EPS * max(1.0, abs(p.log_value)))


def test_asymptotic_route_agrees_with_product():
    # seeded grid, |z| in [20, 1e4] with every arg (points inside the zero
    # cone, which take the shifted route, included), |arg tau| <= 3pi/4; the
    # product reference is skipped past N = 40 000 terms for time, and two
    # fixed points reach |z| = 1e4
    rng = random.Random(11)
    pts = [(cmath.rect(1e4, 0.3), 6 + 2j), (cmath.rect(1e4, -2.0), 5 - 3j)]
    for _ in range(60):
        tau = cmath.rect(0.5 * 6.0 ** rng.random(),
                         0.75 * math.pi * (2 * rng.random() - 1))
        z = cmath.rect(20.0 * 500.0 ** rng.random(),
                       math.pi * (2 * rng.random() - 1))
        pts.append((z, tau))
    routes = []
    for z, tau in pts:
        plan = choose_params(z, tau)
        if plan.N > 40000:
            continue
        r = log_double_gamma(z, tau)
        p = log_double_gamma(z, tau, plan)
        assert r.params_used == plan and p.route == "product"
        routes.append(r.route)
        if r.route == "product":
            assert _auto_ulps(r, p) <= _AUTO_ULPS, (z, tau)
            continue
        # the same branch (no 2 pi i k offset), to 1e-13 relative
        scale = max(1.0, abs(p.log_value))
        err = abs(r.log_value - p.log_value)
        assert err <= 1e-13 * scale, (z, tau, err)
        # the estimate covers the error past 16 ulps of the log, the
        # roundoff of the two routes that neither estimate counts
        assert err <= r.error_estimate + 16 * _EPS * scale, (z, tau)
        assert r.value == engine._safe_exp(r.log_value)
    assert routes.count("asymptotic") >= 25 and routes.count("product") >= 4
    assert routes.count("shifted") >= 6


def test_auto_product_builds_one_series_set_and_no_correction():
    # at a fresh tau the automatic product sums every term: one coefficient
    # set, for S(m_switch), none for S(N + 1), and no correction, so no
    # row of any P_k is built
    tau = _fresh_tau(random.Random(31))
    misses = backend._series.cache_info().misses
    r = log_double_gamma(9.0 + 2.0j, tau)
    assert r.route == "product"
    assert backend._series.cache_info().misses == misses + 1
    assert backend.tau_memo(tau).p_rows == {}


def test_auto_product_agrees_with_explicit_plans_on_a_grid():
    # seeded: |z| <= 6 (plans through both gn_sum branches) and |z| in
    # [20, 200], tau with |tau| in [0.3, 3] and |arg tau| <= 3pi/4 (the
    # Re tau < 0 mid sector included); at every point the product answers,
    # the automatic log is within _AUTO_ULPS of the explicit evaluation at
    # its plan and at N = 2^14, M = 16 (7.26 was the worst seen here)
    rng = random.Random(39)
    ref = ComputeParams(N=2 ** 14, M=16)
    seen = []
    for i in range(480):
        tau = cmath.rect(0.3 * 10.0 ** rng.random(),
                         0.75 * math.pi * (2 * rng.random() - 1))
        r = (6.0 * math.sqrt(rng.random()) if i % 3
             else 20.0 * 10.0 ** rng.random())
        z = cmath.rect(r, math.pi * (2 * rng.random() - 1))
        if lattice_distance(z, tau) < 0.1:
            continue
        auto = log_double_gamma(z, tau)
        if auto.route != "product":
            continue
        for params in (auto.params_used, ref):
            p = log_double_gamma(z, tau, params)
            assert _auto_ulps(auto, p) <= _AUTO_ULPS, (z, tau, params)
        seen.append((z, tau))
    assert len(seen) >= 300
    assert sum(tau.real < 0 for _, tau in seen) >= 80
    assert sum(abs(z) >= 20 for z, _ in seen) >= 25
    assert max(abs(z) for z, _ in seen) >= 150


def test_auto_product_sum_against_mpmath():
    # backend._gn_parts' sum of every r_m against mpmath at 30 digits: 400
    # terms summed directly, plus the float correction for m > 400 at
    # M = 16 (its bound is below 1e-23 at these points). The tolerance is
    # 2^-52 times the sizes of the summed pieces: the direct terms'
    # lgG(m tau) and lgG(z + m tau) below the switch point, and the
    # result; 0.19 of it was the worst seen
    import mpmath as mp
    for z, tau in ((1.5 + 0.5j, 2.0), (9 + 2j, 0.7 + 0.4j),
                   (-3 + 4j, -0.5 + 1.2j)):
        with mp.workdps(30):
            zz, tt = mp.mpc(z), mp.mpc(tau)
            total = mp.mpc(0)
            for m in range(1, 401):
                w = m * tt
                total += (mp.loggamma(w) - mp.loggamma(zz + w)
                          + zz * mp.digamma(w) + zz * zz / 2 * mp.psi(1, w))
        corr, bound = engine._correction(z, tau, 400, 16)
        assert bound < 1e-23
        ref = complex(total) + corr
        sr, cr, si, ci, _ = backend._gn_parts(z, tau)
        got = complex(sr + cr, si + ci)
        size = abs(ref) + sum(abs(log_gamma(m * tau)) + abs(log_gamma(z + m * tau))
                              for m in range(1, backend._switch_point(z, tau)))
        assert abs(got - ref) <= _EPS * size, (z, tau, abs(got - ref))


def test_asymptotic_route_falls_back_to_the_product():
    # each point passes every condition of the route but the one
    # named; where the product answers, its log and estimate are pinned
    cases = (
        ((-20 + 5j, 0.5 + 0.5j), "e^(-2 pi s) above the target, s = 5",
         "(825.9654838033229-347.35109499403745j)", "1.1086294590171045e-15"),
        ((80 + 30j, -1.0 + 0.35j), "|arg tau| > 3pi/4", None, None),
        ((25 + 5j, 2.0), "N0 at the crossover or below",
         "(139.16020470622294+90.13296151359009j)", "1.3489218003407198e-15"),
    )
    for (z, tau), why, log_value, estimate in cases:
        r = log_double_gamma(z, tau)
        if abs(cmath.phase(tau)) > backend._MAX_ARG:
            # there the reflection route answers instead of the product
            assert r.route == "reflection", why
            continue
        p = log_double_gamma(z, tau, choose_params(z, tau))
        assert r.route == "product", why
        assert (repr(r.log_value), repr(r.error_estimate)) == \
            (log_value, estimate), why
        assert _auto_ulps(r, p) <= _AUTO_ULPS, why
    # inside the zero cone the shifted route answers instead
    for z, tau in ((-50.5 - 49.7j, 1j), (-60.3 - 20.1j, 1 + 1j)):
        assert not engine._outside_cone(z, tau)
        assert log_double_gamma(z, tau).route == "shifted"
    beyond = engine._beyond_all_orders(-20 + 5j, 0.5 + 0.5j)
    assert beyond == math.exp(-10 * math.pi) > engine._BEYOND_MAX
    assert engine._outside_cone(-20 + 5j, 0.5 + 0.5j)
    assert engine._n_floor(-20 + 5j, 0.5 + 0.5j) > engine._N0_CROSSOVER
    assert engine._n_floor(25 + 5j, 2.0) <= engine._N0_CROSSOVER
    assert engine._outside_cone(80 + 30j, -1.0 + 0.35j)
    assert engine._n_floor(80 + 30j, -1.0 + 0.35j) > engine._N0_CROSSOVER
    # explicit params always run the product, where the route would not
    z, tau = 300 + 100j, 1.5
    assert log_double_gamma(z, tau).route == "asymptotic"
    r = log_double_gamma(z, tau, ComputeParams(N=4000, M=12))
    assert r.route == "product" and r.params_used.N == 4000


def test_shifted_route_declines_to_the_product(monkeypatch):
    # inside the zero cone, each point fails the one condition of the
    # shifted route named, and the product answers: with the pinned log and
    # estimate, and within _AUTO_ULPS of the explicit plan
    cases = (
        ((-100.3 - 8.1j, 0.04 + 0.006j), "n over _SHIFT_MAX",
         "(829552.142739214-228378.60072439528j)", "5.847733752183523e-15"),
        ((-900 + 30j, 1.0), "error estimate over _SHIFT_ERR_MAX",
         "(2233722.3702669423+1116923.868108511j)", "5.0768843102804386e-14"),
        ((-300 + 2j, 1.0), "w = z + n tau at the crossover or below",
         "(192186.78053409207+139477.33550782714j)", "1.6653715439607044e-14"),
    )
    for (z, tau), why, log_value, estimate in cases:
        assert not engine._outside_cone(z, tau), why
        plan = choose_params(z, tau)
        r = log_double_gamma(z, tau)
        p = log_double_gamma(z, tau, plan)
        assert r.route == "product", why
        assert (repr(r.log_value), repr(r.error_estimate)) == \
            (log_value, estimate), why
        assert _auto_ulps(r, p) <= _AUTO_ULPS, why
    # with the other gates lifted, each case passes all but its own
    monkeypatch.setattr(engine, "_SHIFT_ERR_MAX", math.inf)
    z, tau = cases[0][0]
    assert engine._shift_steps(z, tau, 10 ** 9) > engine._SHIFT_MAX
    monkeypatch.setattr(engine, "_SHIFT_MAX", 10 ** 9)
    assert engine._shifted_route(z, tau)[1] <= 1e-9
    z, tau = cases[1][0]
    assert engine._shift_steps(z, tau, 10 ** 9) <= 2000
    assert engine._shifted_route(z, tau)[1] > 1e-9
    z, tau = cases[2][0]
    n = engine._shift_steps(z, tau, 10 ** 9)
    assert engine._n_floor(z + n * tau, tau) <= engine._N0_CROSSOVER


def test_shift_steps_stay_below_the_floor():
    # a point reaches _shifted_route only past the crossover; on a seeded
    # grid of in-cone points there (|z| in [1, 1e4], |tau| in [0.05, 50],
    # |arg tau| in [1e-6, 3pi/4]) every shift count is below the product
    # floor N0, so no plan's N would bound it
    rng = random.Random(41)
    seen = shifted = 0
    for _ in range(8000):
        arg = 0.75 * math.pi * (1e-6 / (0.75 * math.pi)) ** rng.random()
        tau = cmath.rect(0.05 * 1000.0 ** rng.random(),
                         rng.choice((-1.0, 1.0)) * arg)
        a = cmath.phase(-tau)
        z = cmath.rect(10.0 ** (4.0 * rng.random()),
                       a + (math.copysign(math.pi, a) - a) * rng.random())
        if engine._outside_cone(z, tau) or not engine._past_crossover(z, tau):
            continue
        try:
            n0 = engine._n_floor(z, tau)
        except CapacityError:    # refused before any route
            continue
        seen += 1
        n = engine._shift_steps(z, tau, engine._SHIFT_MAX + 1)
        if n is not None:
            shifted += 1
            assert n < n0, (z, tau, n, n0)
    assert seen >= 2000 and shifted >= 1000, (seen, shifted)


def test_large_z_decline_builds_no_coefficients():
    # scatter_point(7, 208): past the crossover, outside the cone and
    # clear of the terms beyond all orders, but no tail order meets the
    # target at |z| = 5.77. From cold memos the expansion declines before
    # it pays for tau's coefficients and their b0, and the product answers
    z = 5.595398535319003 + 1.4260983602279425j
    tau = 0.2991297704611933 - 0.05826283386858516j
    assert engine._past_crossover(z, tau) and engine._outside_cone(z, tau)
    assert engine._beyond_all_orders(z, tau) <= engine._BEYOND_MAX
    target = engine._TARGET * (1.0 + abs(z))
    assert engine._tail_order(engine._tail(tau, engine._TAIL_LEN), abs(z),
                              target) is None
    clear_memos()
    assert log_double_gamma(z, tau).route == "product"
    assert backend.tau_memo(tau).coeffs is None
    assert engine._b0_memo.cache_info().currsize == 0


def test_shift_steps_is_the_least_n():
    # against a scan of n = 1, 2, ... with the route's own tests at w
    rng = random.Random(29)
    found = 0
    for _ in range(40):
        tau = cmath.rect(0.3 * 10.0 ** rng.random(),
                         0.75 * math.pi * (2 * rng.random() - 1))
        a = cmath.phase(-tau)
        # arg z inside the cone, or within its margin of an edge
        theta = a + (math.copysign(math.pi, a) - a + math.copysign(0.4, a)) \
            * rng.random() - math.copysign(0.2, a)
        z = cmath.rect(20.0 * 10.0 ** rng.random(), theta)
        if engine._outside_cone(z, tau):
            continue
        n = engine._shift_steps(z, tau, 3000)
        scan = next((k for k in range(1, 3000)
                     if engine._outside_cone(z + k * tau, tau)
                     and engine._beyond_all_orders(z + k * tau, tau)
                     <= engine._BEYOND_MAX), None)
        assert n == scan, (z, tau)
        found += n is not None
    assert found >= 20


def test_shifted_route_against_mpmath_barnesg():
    # at tau = 1, G is the classical Barnes G; seeded points inside the zero
    # cone, |arg z - pi| < 0.19 and |z| in [20, 1000], that the shifted
    # route takes, against mpmath at 40 digits, modulo 2 pi i
    import mpmath as mp
    rng = random.Random(31)
    units = []
    with mp.workdps(40):
        two_pi = 2 * mp.pi
        for _ in range(60):
            z = cmath.rect(20.0 * 50.0 ** rng.random(),
                           math.pi + rng.uniform(-0.19, 0.19))
            if engine._zero_within(z, 1.0, 0.1):
                continue
            found = engine._asymptotic_route(z, 1.0)
            if found is None:
                continue
            log_val, est, route = found
            assert route == "shifted", z
            ref = mp.log(mp.barnesg(mp.mpc(z.real, z.imag)))
            d = mp.mpc(log_val.real, log_val.imag) - ref
            d -= 1j * two_pi * mp.nint(d.imag / two_pi)
            err = float(abs(d))
            scale = _EPS * max(1.0, float(abs(ref)))
            assert err <= est, (z, err, est)
            assert err <= 4 * scale, (z, err / scale)
            units.append(err / scale)
    assert len(units) >= 25, len(units)
    assert sorted(units)[len(units) // 2] <= 1.0


def test_shifted_route_memos_cold_and_warm_bit_identical():
    # the route reads tau_memo (its expansion coefficients) and _b0_memo:
    # cold, with one of them warm, and warm, it returns the same bits
    for z, tau in ((-50.5 - 49.7j, 1j), (-60.3 - 20.1j, 1 + 1j),
                   (-150.3 - 40.3j, 0.07 + 0.03j)):
        clear_memos()
        cold = log_double_gamma(z, tau)
        assert cold.route == "shifted"
        warm = log_double_gamma(z, tau)
        backend._tau_memo.cache_clear()             # b0 still held
        b0_warm = log_double_gamma(z, tau)
        engine._b0_memo.cache_clear()               # coefficients held
        coeffs_warm = log_double_gamma(z, tau)
        for r in (warm, b0_warm, coeffs_warm):
            assert (repr(r.log_value), repr(r.error_estimate)) == \
                (repr(cold.log_value), repr(cold.error_estimate))

def test_asymptotic_route_speed():
    # a cold tau: the coefficients, b0 with them, are built inside the call
    clear_memos()
    t0 = time.perf_counter()
    r = log_double_gamma(1e4, 1.0)
    dt = time.perf_counter() - t0
    assert r.route == "asymptotic" and dt < 0.05, dt
    assert r.params_used == choose_params(1e4, 1.0)


def test_b0_of_tau_never_reaches_the_expansion(monkeypatch):
    def refuse(*args):
        raise AssertionError("b0_of_tau reached a large-z route")

    taus = (1.0, 0.01, 0.02 + 0.03j, 0.05j, 1e-3 + 2e-3j, 3 - 1j, 40 + 10j,
            -0.6 + 0.7j, -0.015 - 0.02j)
    for tau in taus:
        engine._memo_coeffs(tau)    # b0 is built through the product
    monkeypatch.setattr(engine, "log_double_gamma_asymptotic", refuse)
    monkeypatch.setattr(engine, "_shifted_route", refuse)
    engine._b0_memo.cache_clear()   # so b0_of_tau runs its engine calls
    for tau in taus:                # again, with tau's coefficients held
        b0_of_tau(tau)
        assert log_double_gamma(0.5, tau).route == "product"
        assert log_double_gamma(tau, 2 * tau).route == "product"


def test_asymptotic_coeffs_memoized_whole(monkeypatch):
    tau = 1.3 + 0.4j + 1e-9 * _fresh_tau(random.Random(12))
    z = 400 - 50j
    first = log_double_gamma(z, tau)
    assert first.route == "asymptotic"
    entry = backend.tau_memo(tau)
    coeffs = entry.coeffs
    assert len(coeffs.tail) == engine._TAIL_LEN and coeffs.tau == tau
    ref = asymptotic_coeffs(tau, 8)
    assert repr(coeffs.tail[:8]) == repr(ref.tail)
    assert repr(coeffs.b0) == repr(ref.b0) == repr(b0_of_tau(tau))
    assert 0.0 < coeffs.b0_error == ref.b0_error
    # later calls at tau, through the route or not, reuse the entry: no b0
    # is built again, and the route returns the same bits
    monkeypatch.setattr(engine, "_b0", None)
    assert repr(log_double_gamma(z, tau).log_value) == repr(first.log_value)
    la = log_double_gamma_asymptotic(-300 + 500j, tau, 8)
    assert repr(la) == repr(log_double_gamma_asymptotic(-300 + 500j, tau, 8, ref))
    assert entry.coeffs is coeffs


# ------------------------------------------------------------------- b0

def test_b0_memo_cold_and_warm_bit_identical():
    # b0_of_tau and asymptotic_coeffs each from a cleared memo, then warm
    for tau in (1.0, SQRT2, 1 + 1j, 0.3 - 0.8j, -0.7 + 0.9j):
        engine._b0_memo.cache_clear()
        cold_b0 = repr(b0_of_tau(tau))
        engine._b0_memo.cache_clear()
        cold = asymptotic_coeffs(tau, 8)
        assert engine._b0_memo.cache_info().misses == 1
        assert repr(b0_of_tau(tau)) == cold_b0 == repr(cold.b0)
        warm = asymptotic_coeffs(tau, 8)
        assert repr(warm) == repr(cold)
        assert engine._b0_memo.cache_info()[:2] == (2, 1)   # hits, misses


def test_b0_memo_keeps_signed_zeros_apart():
    engine._b0_memo.cache_clear()
    b0_of_tau(complex(2.0, 0.0))
    b0_of_tau(complex(2.0, -0.0))
    info = engine._b0_memo.cache_info()
    assert (info.hits, info.misses, info.currsize) == (0, 2, 2)


def test_b0_memo_stays_within_its_bound():
    engine._b0_memo.cache_clear()
    n = engine._B0_MEMO + 8
    for k in range(n):
        b0_of_tau(complex(1.5, 0.02 + 0.01 * k))
    info = engine._b0_memo.cache_info()
    assert info.maxsize == engine._B0_MEMO
    assert (info.misses, info.currsize) == (n, engine._B0_MEMO)


def test_b0_at_one_glaisher():
    A = 1.282427129  # Glaisher-Kinkelin constant (paper-quoted digits)
    ref = 1.0 / 12.0 - math.log(A) - 0.5 * LN_2PI
    assert abs(b0_of_tau(1.0) - ref) <= 1e-7


def test_b0_inversion_identity():
    # b0(1/tau) = b0(tau) + ln(tau)/(12 tau) (1 + 15 tau + tau^2)
    for tau in (2.0, SQRT2, 1 + 1j):
        lhs = b0_of_tau(1.0 / tau)
        rhs = b0_of_tau(tau) + cmath.log(tau) / (12 * tau) * (1 + 15 * tau + tau * tau)
        assert abs(lhs - rhs) <= 1e-7, tau


def test_b0_shift_decomposition_identity():
    # b0(tau) = b0(1+tau) + b0(1+1/tau) + ln(2 pi (1+tau)^3)/2
    #           - (17 + 1/(tau(1+tau))) ln(tau)/12.
    # The ln(tau) coefficient carries the 1/12 of its companion identity;
    # equivalently it equals 1 + a0((1+tau)/tau), confirmed numerically to
    # machine precision over real and complex tau.
    for tau in (2.0, SQRT2, 1 + 1j):
        lhs = b0_of_tau(tau)
        rhs = (b0_of_tau(1 + tau) + b0_of_tau(1 + 1.0 / tau)
               + 0.5 * cmath.log(2 * math.pi * (1 + tau) ** 3)
               - (17 + 1.0 / (tau * (1 + tau))) * cmath.log(tau) / 12.0)
        assert abs(lhs - rhs) <= 1e-7, tau


def _a0(t):
    return t / 12.0 + 0.25 + 1.0 / (12.0 * t)


@pytest.mark.parametrize("pq", [(2, 1), (1, 2), (2, 3)])
@pytest.mark.parametrize("tau", [2.0, SQRT2, 1 + 1j])
def test_b0_rational_scaling_identity(tau, pq):
    p, q = pq
    lhs = b0_of_tau(p * tau / q)
    s = 0j
    for i in range(p):
        for j in range(q):
            s += log_double_gamma((1 + i) / p + j * tau / q, tau).log_value
    rhs = (p * q * (b0_of_tau(tau) + _a0(tau) * cmath.log(tau))
           - _a0(p * tau / q) * cmath.log(p * tau)
           + (p - 1 + (q - 1) * (p * (tau + 1) + 1)) * 0.25 * LN_2PI
           + 0.5 * math.log(q) - s)
    assert abs(lhs - rhs) <= 1e-7, (tau, p, q)


def test_b0_double_integral_identity():
    # 32x32 tensor Gauss-Legendre of the canonical log over the unit cell
    tau = 2.0
    nodes, weights = np.polynomial.legendre.leggauss(32)
    xs = 0.5 * (nodes + 1)
    ws = 0.5 * weights
    params = choose_params(1 + tau, tau)
    total = 0j
    for wy, y in zip(ws, xs):
        for wx, x in zip(ws, xs):
            total += wx * wy * log_double_gamma(x + tau * y, tau, params).log_value
    rhs = b0_of_tau(tau) + _a0(tau) * math.log(tau) + (tau + 1) / 4 * LN_2PI
    assert abs(total - rhs) <= 1e-6


# ------------------------------------------------------------------ gamma2

def test_gamma2_normalization():
    w2 = 2.5 + 0.5j
    r = gamma2(1.0, 1.0, w2)
    assert abs(r.value - cmath.sqrt(2 * math.pi / w2)) <= 1e-9 * abs(r.value)


def test_gamma2_symmetry():
    z, tau = 1.3 + 0.2j, 1.5 + 0.5j
    v1 = gamma2(z, 1.0, tau).value
    v2 = gamma2(z, tau, 1.0).value
    assert abs(v1 - v2) <= 1e-9 * abs(v1)


def test_gamma2_functional_equations():
    z, w1, w2 = 1.1 + 0.3j, 1.0, 1.4 + 0.6j
    base = gamma2(z, w1, w2).value
    lhs = gamma2(z + w1, w1, w2).value
    rhs = (math.sqrt(2 * math.pi)
           * cmath.exp((0.5 - z / w2) * cmath.log(w2) - log_gamma(z / w2)) * base)
    assert abs(lhs / rhs - 1) <= 1e-9
    lhs = gamma2(z + w2, w1, w2).value
    rhs = (math.sqrt(2 * math.pi)
           * cmath.exp((0.5 - z / w1) * cmath.log(w1) - log_gamma(z / w1)) * base)
    assert abs(lhs / rhs - 1) <= 1e-9


def test_gamma2_argument_condition():
    with pytest.raises(ArgumentConditionError):
        gamma2(1.0, cmath.rect(1, 2.5), cmath.rect(1, -2.5))
    with pytest.raises(ArgumentConditionError):
        gamma2(1.0, -1.0, 1.0)  # arg w1 not inside (-pi, pi)


def test_gamma2_passes_the_inner_plan_on_unread(monkeypatch):
    # at |arg tau| <= 3pi/4 the automatic inner evaluation runs no plan,
    # and gamma2 forces none: the plan is made once, on the first read
    calls = []

    def counting(*args):
        calls.append(args)
        return choose_params(*args)

    monkeypatch.setattr(engine, "choose_params", counting)
    z, tau = 1.3 + 0.2j, 1.5 + 0.5j
    r = gamma2(z, 1.0, tau)
    assert calls == []
    assert r.params_used == choose_params(z, tau)
    assert calls == [(z, tau)]
    assert r.params_used is r.params_used and len(calls) == 1


# ---------------------------------------------------------- integral oracle

@pytest.mark.parametrize("z,tau", [(1.0, 2.0), (SQRT3, SQRT3), (2.5, 1.3)])
def test_log_g_integral_examples(z, tau):
    li = log_G_via_integral(z, tau)
    le = log_double_gamma(z, tau).log_value
    assert abs(cmath.exp(li - le) - 1) <= 1e-9
    if (z, tau) == (SQRT3, SQRT3):
        assert abs(cmath.exp(li) - 1.4889283353650864545) <= 1e-9


def test_log_g_integral_random():
    rng = random.Random(31)
    done = 0
    while done < 10:
        z = complex(rng.uniform(0.3, 2.5), rng.uniform(-0.8, 0.8))
        tau = complex(rng.uniform(0.5, 2.0), rng.uniform(-0.7, 0.7))
        if lattice_distance(z, tau) < 0.1:
            continue
        done += 1
        li = log_G_via_integral(z, tau)
        le = log_double_gamma(z, tau).log_value
        assert abs(cmath.exp(li - le) - 1) <= 1e-9, (z, tau)


def test_log_g_integral_domain():
    with pytest.raises(DomainError):
        log_G_via_integral(-1.0 + 1j, 2.0)
    with pytest.raises(DomainError):
        log_G_via_integral(1.0, -0.3 + 1j)


# ------------------------------------------------------------ result object

def test_eval_result_consistency_and_json():
    r = log_double_gamma(1.2, 1 + 1j)
    assert abs(r.value - cmath.exp(r.log_value)) <= 1e-14 * abs(r.value)
    d = r.to_json_dict()
    payload = json.loads(json.dumps(d))
    assert set(payload) == {"log", "value", "err_est", "N", "M"}
    assert payload["N"] == r.params_used.N
    rebuilt = EvalResult(
        log_value=complex(payload["log"]["re"], payload["log"]["im"]),
        value=complex(payload["value"]["re"], payload["value"]["im"]),
        error_estimate=payload["err_est"],
        params_used=ComputeParams(N=payload["N"], M=payload["M"]),
    )
    assert rebuilt.log_value == r.log_value


def test_capacity_error():
    with pytest.raises(CapacityError):
        choose_params(5e4, 1e-2)
    with pytest.raises(CapacityError):   # the N floor overflows binary64
        choose_params(1.5, 1e-310)
    # refused at once, before any scan over multiples of tau
    for z, tau, limit in ((1e7, 1.0, 1.0), (1e8, 1.0, 1.0),
                          (1.5 + 0.5j, 1e-6, 1.0), (1.5 + 0.5j, 1e-7, 0.1),
                          (1.5 + 0.5j, 1e-9, 1.0)):
        t0 = time.perf_counter()
        with pytest.raises(CapacityError):
            log_double_gamma(z, tau)
        assert time.perf_counter() - t0 < limit, (z, tau)
    # the default Euler-Maclaurin length 64/|tau| = 6.4e9 is over the cap
    t0 = time.perf_counter()
    with pytest.raises(CapacityError):
        log_double_gamma(1.5 + 0.5j, 1e-8, ComputeParams(N=100))
    assert time.perf_counter() - t0 < 0.1
    # N = 536000 meets the target, but the default m_cd = 2133334 is over
    # the cap: refused by choose_params rather than by modular_forms_em later
    for f in (choose_params, log_double_gamma):
        with pytest.raises(CapacityError):
            f(0.01, 3e-5)


def test_plan_refused_past_the_floor():
    # the floor N0 = 506 171 is under the cap, but no order M <= 16 meets
    # the target at any N up to it: the plan's search in N refuses late,
    # and the automatic evaluation with it, each at once
    z = -0.7152648042482597 - 2.931138379937469j
    tau = 7.806583590968538e-05 - 1.391201519815768e-05j
    assert engine._n_floor(z, tau) == 506171 < engine._N_CAP
    for f in (choose_params, log_double_gamma):
        t0 = time.perf_counter()
        with pytest.raises(CapacityError, match="truncation exceeded"):
            f(z, tau)
        assert time.perf_counter() - t0 < 0.1, f


def test_plan_never_refused_inside_the_deferred_band():
    # an automatic evaluation at |arg tau| <= 3pi/4 plans up front only past
    # N0 > _PLAN_N0 or |z| > _PLAN_Z, where choose_params can refuse; below
    # both its plan is deferred to the first read of params_used, which
    # must never raise. Seeded draws, log-uniform in |tau| and |z|
    rng = random.Random(2701)
    planned = 0
    for k in range(24_000):
        if k < 20_000:
            at, az = 10 ** rng.uniform(-6, math.log10(3)), 10 ** rng.uniform(-3, 2)
        else:   # large |tau|, with the |z| that N0 <= _PLAN_N0 allows
            at = 10 ** rng.uniform(0, 16)
            az = 10 ** rng.uniform(-3, math.log10(engine._PLAN_N0 * at / 8))
        tau = cmath.rect(at, rng.uniform(-0.75, 0.75) * math.pi)
        z = cmath.rect(az, rng.uniform(-1.0, 1.0) * math.pi)
        try:
            n0 = engine._n_floor(z, tau)
        except CapacityError:   # N0 past _N_CAP
            continue
        if n0 <= engine._PLAN_N0 and az <= engine._PLAN_Z:
            choose_params(z, tau)   # raises CapacityError on a refusal
            planned += 1
    assert planned >= 15_000


def test_plan_refused_at_a_huge_z_before_any_work():
    # N0 is small, but the rows of P_k overflow binary64 at |tau| ~ 1e24,
    # so no order meets the target and the plan refuses: the automatic
    # evaluation plans up front there (|z| > _PLAN_Z) and refuses with it
    z, tau = 1e28 + 1e28j, 1e24 + 1e24j
    assert engine._n_floor(z, tau) == 80000 <= engine._PLAN_N0
    assert abs(z) > engine._PLAN_Z
    for f in (choose_params, log_double_gamma):
        with pytest.raises(CapacityError, match="truncation exceeded"):
            f(z, tau)


def test_value_overflow_is_inf():
    # ln G ~ 2000 at z = 40: exp overflows, the log stays finite and exact
    r = log_double_gamma(40.0, SQRT2)
    assert cmath.isfinite(r.log_value)
    assert r.log_value.real > 700
    assert math.isinf(abs(r.value))
    # json round-trips the infinity (Python's non-strict JSON)
    payload = json.loads(json.dumps(r.to_json_dict()))
    assert math.isinf(payload["value"]["re"])
