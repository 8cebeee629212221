"""Route-agreement and convergence checks for the gamma modular forms."""

import cmath
import json
import math
import time

import pytest

from barnesg import backend
from barnesg.engine import ComputeParams, log_double_gamma
from barnesg.errors import CapacityError, DomainError, PreconditionError
from barnesg.kernels import QuadratureSpec, integrate_semiaxis
from barnesg.modular import (
    C_via_integral,
    C_via_logG_derivative,
    D_via_integral,
    D_via_logG_derivative,
    c_integrand,
    d_integrand,
    d_reflection_residual,
    default_m,
    modular_forms_em,
)

SQRT3 = math.sqrt(3)
TAU_GRID = [1.0, 2.0, 0.5, SQRT3, 1 + 1j, 3 - 2j]


def _fit_slope(ms, ds, floor):
    pts = [(math.log(m), math.log(d)) for m, d in zip(ms, ds) if d > floor]
    if len(pts) < 2:
        return None, len(pts)
    n = len(pts)
    sx = sum(p[0] for p in pts)
    sy = sum(p[1] for p in pts)
    sxx = sum(p[0] * p[0] for p in pts)
    sxy = sum(p[0] * p[1] for p in pts)
    return (n * sxy - sx * sy) / (n * sxx - sx * sx), n


# ------------------------------------------------------------ EM structure

def test_em_constants_by_construction():
    tau = 1.3 + 0.4j
    mf = modular_forms_em(tau)
    g = 0.5772156649015328606065120900824024
    ln2pi = math.log(2 * math.pi)
    a = -g * tau + 0.5 * tau * (ln2pi + cmath.log(tau)) + 0.5 * cmath.log(tau) - tau * mf.C
    b = (-math.pi ** 2 / 6) * tau * tau - tau * cmath.log(tau) - tau * tau * mf.D
    assert abs(mf.a - a) < 1e-14 * (1 + abs(a))
    assert abs(mf.b - b) < 1e-14 * (1 + abs(b))
    assert abs(mf.a_tilde - (a + g * tau)) < 1e-14 * (1 + abs(a))
    assert abs(mf.b_tilde - (b + math.pi ** 2 / 6 * tau * tau)) < 1e-14 * (1 + abs(b))


def test_em_known_tau1_values():
    # C(1) = 1/2 and D(1) = 1 + gamma follow from the tau = 1 limit of the
    # defining sums; frozen after checking with 40-digit brute-force sums.
    mf = modular_forms_em(1.0, 400)
    assert abs(mf.C - 0.5) < 1e-13
    assert abs(mf.D - 1.5772156649015328606) < 1e-13


def test_em_domain_and_precondition():
    with pytest.raises(DomainError):
        modular_forms_em(-2.0)
    with pytest.raises(PreconditionError):
        modular_forms_em(0.001 + 0.0001j, 10)  # m tau too close to the cut
    with pytest.raises(PreconditionError):
        modular_forms_em(1.0, 0)


def test_default_m():
    assert default_m(1.0) == 64
    assert default_m(0.25) == 256
    # at Re tau < 0 also m |Im tau| >= 8
    assert default_m(-1 + 0.01j) == 800
    assert default_m(-1 - 0.003j) == 2667
    assert default_m(-0.5 + 1.2j) == 64


def test_em_length_cap():
    # refused before summing, whether m is given or the default 64/|tau|
    for tau, m in ((1e-7, None), (1e-310, None), (1.0, 10 ** 6 + 1)):
        t0 = time.perf_counter()
        with pytest.raises(CapacityError):
            modular_forms_em(tau, m)
        assert time.perf_counter() - t0 < 0.1, (tau, m)
    with pytest.raises(CapacityError):
        default_m(1e-7)


# -------------------------------------------------------- route agreement

@pytest.mark.parametrize("tau", TAU_GRID)
def test_em_vs_integral_routes(tau):
    if complex(tau).real <= 0:
        pytest.skip("integral route needs Re tau > 0")
    mf = modular_forms_em(tau, 400)
    ci = C_via_integral(tau)
    di = D_via_integral(tau)
    assert abs(mf.C - ci) <= 1e-8 * (1 + abs(mf.C))
    assert abs(mf.D - di) <= 1e-8 * (1 + abs(mf.D))


@pytest.mark.parametrize("tau", TAU_GRID)
def test_em_vs_derivative_routes(tau):
    mf = modular_forms_em(tau, 400)
    cd = C_via_logG_derivative(tau)
    dd = D_via_logG_derivative(tau)
    assert abs(mf.C - cd) <= 1e-7 * (1 + abs(mf.C))
    assert abs(mf.D - dd) <= 1e-6 * (1 + abs(mf.D))


def test_specific_route_examples():
    # tighter spot tolerances at well-conditioned points
    assert abs(modular_forms_em(1.0, 400).C - C_via_logG_derivative(1.0)) < 1e-8
    assert abs(modular_forms_em(1 + 1j, 400).C - C_via_logG_derivative(1 + 1j)) < 1e-8
    assert abs(modular_forms_em(2.0, 400).D - D_via_integral(2.0)) < 1e-9
    assert abs(modular_forms_em(1.0, 400).D - D_via_logG_derivative(1.0)) < 1e-7
    assert abs(modular_forms_em(5.0, 400).D - D_via_integral(5.0)) < 1e-9


def test_integral_route_smoke_half_vs_two():
    c_half = C_via_integral(0.5)
    c_two = C_via_integral(2.0)
    assert cmath.isfinite(c_half) and cmath.isfinite(c_two)


def test_d_integrand_cross_module():
    # quadrature of the D integrand at tau = 2 equals the EM value
    v = integrate_semiaxis(d_integrand(2.0), QuadratureSpec(1e-11))
    assert abs(v - modular_forms_em(2.0, 400).D) <= 1e-9


# --------------------------------------------------- small-x series branch

@pytest.mark.parametrize("tau", [2.0, 1 + 0.5j, 0.7])
def test_integrand_series_matches_direct(tau):
    # the series branch and the direct expression must agree at x = 1/4
    for build in (c_integrand, d_integrand):
        f = build(tau)
        x = 0.25
        direct_sx = 1.0 / -math.expm1(-x)
        direct_stx = 1.0 / (1.0 - cmath.exp(-tau * x))
        if build is c_integrand:
            direct = (cmath.exp(-tau * x) * direct_sx * direct_stx
                      - math.exp(-x) / (tau * x) * (direct_sx + 1 - 0.5 * tau))
        else:
            direct = (x * cmath.exp(-tau * x) * direct_sx * direct_stx
                      - math.exp(-x) / (tau * x))
        assert abs(f(1e-3) - f(1.001e-3)) < 1e-6  # smooth near the branch
        series_val = f(1e-9)  # deep series region: finite limit exists
        assert cmath.isfinite(series_val)
        assert abs(f(x) - direct) <= 1e-12 * (1 + abs(direct))


def test_series_limit_at_zero():
    # analytic limits: f_C(0+) and f_D(0+) from the series must match a
    # one-sided extrapolation of the direct branch
    tau = 1.7
    for build in (c_integrand, d_integrand):
        f = build(tau)
        v0 = f(1e-10)
        v1, v2 = f(0.30), f(0.25)  # direct branch (cutoff < 0.25)
        extrap = v2 + (v2 - v1) * (0.25 / 0.05)
        assert abs(v0 - extrap) < 0.05 * (1 + abs(v0))


# ------------------------------------------------------------ m-convergence

def test_m_convergence_orders():
    tau = math.sqrt(2)
    ms = [8, 10, 12, 16, 20, 24, 32, 48, 64]
    dc, dd = [], []
    for m in ms:
        f1 = modular_forms_em(tau, m)
        f2 = modular_forms_em(tau, 2 * m)
        dc.append(abs(f1.C - f2.C))
        dd.append(abs(f1.D - f2.D))
    sc, nc = _fit_slope(ms, dc, 5e-14)
    sd, nd = _fit_slope(ms, dd, 5e-15)
    assert nc >= 2 and sc <= -8.0, (sc, nc)
    assert nd >= 2 and sd <= -9.0, (sd, nd)


def test_error_estimate_tracks_m():
    e1 = modular_forms_em(math.sqrt(2), 16).error_estimate
    e2 = modular_forms_em(math.sqrt(2), 64).error_estimate
    assert e2 < e1


# ------------------------------------------------------------ D reflection

@pytest.mark.parametrize("k", [0.2, 0.4, 1 / math.sqrt(2), 0.8])
def test_d_reflection_grid(k):
    assert d_reflection_residual(k) < 1e-6


def test_d_reflection_examples():
    assert d_reflection_residual(1 / math.sqrt(2)) < 1e-7
    assert d_reflection_residual(0.3) < 1e-7
    assert d_reflection_residual(0.9) < 1e-6


def test_d_reflection_domain():
    with pytest.raises(DomainError):
        d_reflection_residual(1.5)


# ------------------------------------------------------------ serialization

def test_modular_forms_json_round_trip():
    mf = modular_forms_em(1 + 1j, 128)
    d = mf.to_json_dict()
    s = json.dumps(d)
    back = json.loads(s)
    assert back["m_used"] == 128
    for key in ("C", "D", "a", "b", "a_tilde", "b_tilde", "tau"):
        assert set(back[key]) == {"re", "im"}
    assert back["C"]["re"] == mf.C.real


# tau whose tau^7 (the last Euler-Maclaurin correction) overflows binary64:
# from |tau| ~ 1.8e44, and past ~6e102 tau ** 3 itself raises OverflowError
_HUGE_TAUS = (2e44, 1e45, 1e103, 1e200, -1e200 + 1j, 1e300j, -1e45 + 1j)


def test_huge_tau_refused_at_once():
    # once NaN reported with error_estimate ~1e-135, or a raw OverflowError;
    # -1e45 + 1j also sent polygamma's shift into an endless loop
    for tau in _HUGE_TAUS:
        for f in (modular_forms_em, lambda t: log_double_gamma(1.5 + 0.5j, t)):
            t0 = time.process_time()
            with pytest.raises(DomainError):
                f(tau)
            assert time.process_time() - t0 < 0.1, tau


def test_tau_1e40_unchanged():
    # below the overflow the same bits as before the refusal existed
    r = log_double_gamma(1.5 + 0.5j, 1e40)
    assert repr(r.log_value) == "(46.285888207351285+46.01703289860553j)"
    assert repr(r.error_estimate) == "2.3314128502267156e-17"
    mf = modular_forms_em(1e40)
    assert (repr(mf.C), repr(mf.D)) == ("(-45.13276332667626+0j)",
                                        "(-9.15261880548603e-39+0j)")


def test_non_finite_log_refused(monkeypatch):
    # a log that leaves binary64 is refused, never returned as exact: on
    # the explicit plan's gn_sum, and on the automatic product's sum of
    # every term, also where math.fsum meets inf - inf or overflows
    z, tau = 1.5 + 0.5j, 1.3 + 0.2j
    monkeypatch.setattr(backend, "gn_sum", lambda z, tau, N: complex(math.inf, 0.0))
    with pytest.raises(DomainError):
        log_double_gamma(z, tau, ComputeParams(N=64))
    for parts in ((math.inf, 0.0, 0.0, 0.0, 0.0),
                  (math.inf, -math.inf, 0.0, 0.0, 0.0),
                  (1e308, 1e308, 0.0, 0.0, 0.0)):
        monkeypatch.setattr(backend, "_gn_parts", lambda z, tau, p=parts: p)
        with pytest.raises(DomainError):
            log_double_gamma(z, tau)
