"""Kernel-layer checks: log Gamma routes, polygamma, q-Pochhammer, elliptic
integrals, and the semi-axis quadrature engine."""

import cmath
import math
import random
import time

import mpmath as mp
import numpy as np
import pytest

from barnesg.errors import CapacityError, ConvergenceError, DomainError, PoleError
from barnesg.kernels import (
    QuadratureSpec,
    elliptic_ke,
    integrate_semiaxis,
    log_gamma,
    log_gamma_stirling,
    polygamma,
    q_pochhammer,
)

EULER_GAMMA = 0.5772156649015328606065120900824024


# ---------------------------------------------------------------- log_gamma

def test_log_gamma_trivial_values():
    assert abs(log_gamma(1.0)) < 1e-15
    assert abs(log_gamma(0.5) - math.log(math.sqrt(math.pi))) < 1e-15


def test_log_gamma_two_routes_agree():
    # the primary (rational-approximation) and Stirling-shift routes are
    # algorithmically independent
    v1 = log_gamma(3 + 4j)
    v2 = log_gamma_stirling(3 + 4j)
    assert abs(v1 - v2) <= 1e-12 * (1 + abs(v1))
    rng = random.Random(7)
    for _ in range(60):
        z = complex(rng.uniform(-12, 12), rng.uniform(-12, 12))
        if abs(z.imag) < 0.1 and z.real < 0.5:
            continue
        a, b = log_gamma(z), log_gamma_stirling(z)
        assert abs(a - b) <= 1e-12 * (1 + abs(a)), z


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


def test_polygamma_pole_and_order():
    with pytest.raises(PoleError):
        polygamma(2, -1.0)
    with pytest.raises(DomainError):
        polygamma(13, 1.0)


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


def test_quadrature_spec_validation():
    with pytest.raises(DomainError):
        QuadratureSpec(target=1e-16)
    with pytest.raises(DomainError):
        QuadratureSpec(target=1e-10, max_level=0)
