"""Engine checks: truncated-product evaluation, convergence order, large-z
asymptotics, b0 identities, the symmetric form, and the integral oracle."""

import cmath
import json
import math
import random
import time

import numpy as np
import pytest

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
        assert lattice_distance(z, tau) == rows.min(), (z, tau)


def test_lattice_zero_far_up_the_lattice():
    # with Re tau < 0 the track z + m tau re-approaches the negative reals at
    # large m; the zero -1000 tau - 1999 must still be detected
    tau = -2 + 0.001j
    z = -1000 * tau - 1999
    assert lattice_distance(z, tau) == 0
    assert double_gamma_value(z, tau, ComputeParams(N=2000, M=8)) == 0
    assert lattice_distance(z + 0.05, tau) == pytest.approx(0.05, rel=1e-9)
    # the zero -100 tau at -2i lies beyond the automatic N floor of 64
    with pytest.raises(LatticeZeroError):
        log_double_gamma(-2j, -1 + 0.02j)
    assert double_gamma_value(-2j, -1 + 0.02j) == 0


def test_functional_equation_near_cut_tau():
    # tau just above the cut forces the all-direct summation path
    tau = -1 + 0.5j
    z = 0.8 + 0.3j
    g0 = double_gamma_value(z, tau)
    r1 = double_gamma_value(z + 1, tau) / (cmath.exp(log_gamma(z / tau)) * g0)
    assert abs(r1 - 1) <= 1e-9


# ------------------------------------------------------------ choose_params

def test_choose_params_floor():
    p = choose_params(1.0, 1.0)
    assert p.N >= 64 and p.M == 12


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


def test_asymptotic_agreement_large_z():
    co = asymptotic_coeffs(SQRT2, 8)
    le = log_double_gamma(40.0, SQRT2).log_value
    la = log_double_gamma_asymptotic(40.0, SQRT2, 8, co)
    assert abs(cmath.exp(la - le) - 1) <= 1e-9
    co_t = asymptotic_coeffs(1 + 1j, 8)
    le = log_double_gamma(30 + 30j, 1 + 1j).log_value
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
            le = log_double_gamma(z, tau).log_value
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
        le = log_double_gamma(z, 1.0).log_value
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


# ------------------------------------------------------------------- b0

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
    # refused at once, before any scan over multiples of tau
    for z, tau in ((1e7, 1.0), (1e8, 1.0), (1.5 + 0.5j, 1e-6), (1.5 + 0.5j, 1e-9)):
        t0 = time.perf_counter()
        with pytest.raises(CapacityError):
            log_double_gamma(z, tau)
        assert time.perf_counter() - t0 < 1.0, (z, tau)


def test_value_overflow_is_inf():
    # ln G ~ 2000 at z = 40: exp overflows, the log stays finite and exact
    r = log_double_gamma(40.0, SQRT2)
    assert cmath.isfinite(r.log_value)
    assert r.log_value.real > 700
    assert math.isinf(abs(r.value))
    # json round-trips the infinity (Python's non-strict JSON)
    payload = json.loads(json.dumps(r.to_json_dict()))
    assert math.isinf(payload["value"]["re"])
