"""The reflection route at |arg tau| > 3pi/4: its log-space q-product, a
seeded near-cut grid against exact values and the functional equations,
its product fallback near the 0/0 points, and its determinism."""

import cmath
import math
import random

import mpmath as mp
import pytest
from conftest import clear_memos

from barnesg import backend, engine
from barnesg.engine import choose_params, log_double_gamma
from barnesg.errors import CapacityError
from barnesg.kernels import _log_q_product, log_gamma, q_pochhammer

LN_2PI = math.log(2 * math.pi)


def _mod_2pi_i(d):
    return abs(complex(d.real, math.remainder(d.imag, 2 * math.pi)))


def _mp_log_q_product(alpha, beta):
    with mp.workdps(40):
        a = mp.exp(2j * mp.pi * mp.mpc(alpha))
        q = mp.exp(2j * mp.pi * mp.mpc(beta))
        return complex(mp.log(mp.qp(a, q)))


# --------------------------------------------------------- log q-product

@pytest.mark.parametrize("alpha, beta", [
    (0.3 + 0.2j, 1 + 1j),
    (0.3 - 0.2j, 0.5 + 0.3j),
    (0.37 - 3j, 0.2 + 0.4j),
    (5.3 - 10j, 1.7 + 0.05j),
    (-7.3 - 30j, 0.4 + 0.2j),
    (1e-9 + 1e-9j, 0.8 + 0.6j),     # the first factor near its zero
])
def test_log_q_product_against_mpmath(alpha, beta):
    got, err = _log_q_product(alpha, beta)
    assert _mod_2pi_i(got - _mp_log_q_product(alpha, beta)) <= err, (alpha, beta)


def test_log_q_product_where_the_product_overflows():
    # |e^(2 pi i alpha)| = e^(400 pi): q_pochhammer cannot form the product
    alpha, beta = 0.3 - 200j, 0.4 + 0.3j
    got, err = _log_q_product(alpha, beta)
    ref = _mp_log_q_product(alpha, beta)
    assert abs(ref) > 1e5
    assert _mod_2pi_i(got - ref) <= err <= 1e-9


def test_log_q_product_matches_q_pochhammer():
    rng = random.Random(3)
    for _ in range(20):
        alpha = complex(rng.uniform(-2, 2), rng.uniform(-1, 1))
        beta = complex(rng.uniform(-1, 1), rng.uniform(0.1, 1))
        got, err = _log_q_product(alpha, beta)
        ref = q_pochhammer(cmath.exp(2j * math.pi * alpha),
                           cmath.exp(2j * math.pi * beta))
        assert abs(cmath.exp(got) / ref - 1) <= 1e-12, (alpha, beta)


def test_log_q_product_refuses_past_the_cap_at_once():
    with pytest.raises(CapacityError):
        _log_q_product(0.3 + 0.1j, 0.5 + 1e-7j)


# ------------------------------------------------------ the near-cut grid

def _near_cut_taus():
    # |arg tau| > 3pi/4, both signs of Im tau, Im tau/|tau| in [1e-3, 0.6],
    # log-uniform in each of 14 equal bins
    rng = random.Random(16)
    taus = []
    width = math.log10(600) / 14
    for i in range(14):
        s = 10 ** (-3 + (i + rng.random()) * width)
        r = 10 ** rng.uniform(math.log10(0.7), math.log10(2.5))
        sign = 1 if i % 2 == 0 else -1
        taus.append(cmath.rect(r, sign * (math.pi - math.asin(s))))
    return taus


def _exact_log_g(m, k, tau):
    # log G(k + m tau; tau), m >= 1, k >= 0, from G(1) = 1 through
    # G(z + tau) = (2 pi)^((tau-1)/2) tau^(1/2-z) Gamma(z) G(z) and
    # G(z + 1) = Gamma(z/tau) G(z), at 30 digits
    with mp.workdps(30):
        t = mp.mpc(tau)
        acc = mp.mpf(0)
        for j in range(m):
            z = 1 + j * t
            acc += ((t - 1) / 2 * mp.log(2 * mp.pi) + (mp.mpf(1) / 2 - z) * mp.log(t)
                    + mp.loggamma(z))
        acc -= mp.loggamma(m)              # G(m tau) = G(1 + m tau)/Gamma(m)
        for j in range(k):
            acc += mp.loggamma((j + m * t) / t)
        return complex(acc)


def _actual_error(r, ref):
    return abs(cmath.exp(r.log_value - ref) - 1)


def test_near_cut_grid_exact_values_within_the_estimate():
    for tau in _near_cut_taus():
        s = abs(tau.imag) / abs(tau)
        for m, k in ((1, 0), (1, 1), (2, 0), (1, 2)):
            x = k + m * tau
            r = log_double_gamma(x, tau)
            assert r.route == "reflection", (tau, x)
            assert r.params_used == choose_params(x, tau)
            err = _actual_error(r, _exact_log_g(m, k, tau))
            assert err <= r.error_estimate, (tau, x, err, r.error_estimate)
            assert err <= 1e-12, (tau, x, s)


def test_near_cut_grid_functional_equations():
    rng = random.Random(17)
    for tau in _near_cut_taus():
        for _ in range(3):
            while True:
                z = cmath.rect(3 * math.sqrt(rng.random()),
                               rng.uniform(-math.pi, math.pi))
                if engine.lattice_distance(z, tau) >= 0.1:
                    break
            g0, g1, g2 = (log_double_gamma(w, tau) for w in (z, z + 1, z + tau))
            assert {g0.route, g1.route, g2.route} == {"reflection"}, (z, tau)
            r1 = abs(cmath.exp(g1.log_value - log_gamma(z / tau) - g0.log_value) - 1)
            log_pref = (0.5 * (tau - 1) * LN_2PI + (0.5 - z) * cmath.log(tau)
                        + log_gamma(z))
            r2 = abs(cmath.exp(g2.log_value - log_pref - g0.log_value) - 1)
            assert max(r1, r2) <= 1e-12, (z, tau, r1, r2)


def test_near_cut_grid_product_fallback():
    # 1 - conj(x) on the zero lattice of the inner G: the product answers,
    # within its estimate, and to 5e-12 where Im tau/|tau| >= 0.03
    for tau in _near_cut_taus():
        s = abs(tau.imag) / abs(tau)
        for x, ref in ((1.0, 0j), (2.0, log_gamma(1 / tau))):
            if x == 2.0 and s < 0.03:
                continue  # the same product, at the same plan, as at x = 1
            r = log_double_gamma(x, tau)
            assert r.route == "product", (tau, x)
            err = _actual_error(r, ref)
            assert err <= r.error_estimate, (tau, x, err, r.error_estimate)
            if s >= 0.03:
                assert err <= 5e-12, (tau, x, err)


def test_fallback_radius():
    tau = -1.2 + 0.3j
    d = 2 * engine._REFLECT_RADIUS
    assert log_double_gamma(1 + d, tau).route == "reflection"
    assert log_double_gamma(1 + d / 4, tau).route == "product"
    # 1 - conj(x) = -t - 1 with t = -conj(tau): x = 2 - tau lies on the
    # inner lattice as well
    assert log_double_gamma(2 - tau + 1e-6j, tau).route == "product"


def test_minus_one_plus_0_01i_evaluates():
    tau = -1 + 0.01j
    r = log_double_gamma(1, tau)
    assert r.route == "product" and abs(r.value - 1) <= 1e-11
    assert r.params_used.N * tau.imag >= 6.5
    assert r.params_used.m_cd * tau.imag >= 8
    assert log_double_gamma(0.3 + 0.2j, tau).route == "reflection"


def test_reflection_route_large_imaginary_z():
    # |e^(2 pi i w)| = e^(2 pi |Im z|) is far past binary64 at these points
    tau = -1.0 + 0.35j
    for z in (30 - 200j, 80 + 150j, -20 + 120j):
        g0, g1 = log_double_gamma(z, tau), log_double_gamma(z + 1, tau)
        assert g0.route == g1.route == "reflection"
        assert g0.error_estimate <= 1e-9
        r1 = _mod_2pi_i(g1.log_value - log_gamma(z / tau) - g0.log_value)
        assert r1 <= g0.error_estimate + g1.error_estimate + 1e-12, (z, r1)


def test_reflection_route_independent_of_the_memo():
    points = [(0.3 + 0.2j, -1.1 + 0.2j), (30 - 40j, -1.5 - 0.4j),
              (1.0, -2 + 0.1j), (2.5 - 1.1j, -0.9 - 0.02j)]

    def run(order):
        return {p: repr(log_double_gamma(*p)) for p in order}

    clear_memos()
    cold = run(points)
    # again in the reverse order, after other z at each tau and at the
    # inner taus -conj(tau) and -tau, and with the memos full of other taus
    backend._tau_memo.cache_clear()
    for _, tau in points:
        for t in (tau, -tau.conjugate(), -tau):
            log_double_gamma(0.7 + 0.1j, t, choose_params(0.7 + 0.1j, t))
    assert run(points[::-1]) == cold
    for t in (1.1 + 0.2j, 1.5 + 0.4j, 0.9 + 0.02j, 2 - 0.1j):
        log_double_gamma(0.7 + 0.1j, t)
    assert run(points) == cold
