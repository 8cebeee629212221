"""Digits near the poles of Gamma: the reflection of loggamma takes
log(1 - e^{2 pi i z}) without cancellation, and the engine inherits it near
the zeros of G."""

import random

import mpmath as mp

from barnesg import backend
from barnesg.engine import double_gamma_value


def _grid():
    # Re z in [-30, 1/2], Im z log-uniform in [1e-12, 10], both half-planes
    rng = random.Random(2026)
    for _ in range(400):
        z = complex(rng.uniform(-30.0, 0.5), 10.0 ** rng.uniform(-12.0, 1.0))
        yield z if rng.random() < 0.5 else z.conjugate()


def _mp_loggamma(z: complex) -> complex:
    return complex(mp.loggamma(mp.mpc(z.real, z.imag)))


def test_loggamma_reflection_against_mpmath():
    with mp.workdps(40):
        for z in _grid():
            ref = _mp_loggamma(z)
            tol = 2e-15 * max(1.0, abs(ref))
            assert abs(backend.loggamma(z) - ref) <= tol, z


def test_double_gamma_near_its_zeros_against_mpmath():
    # G(z;1) is the Barnes G-function; near its zeros -n the product's
    # lgG(z + m) sit near the poles of Gamma
    with mp.workdps(30):
        for n in range(4):
            for d in (1e-6, 1e-8, 1e-10):
                z = complex(-n, d)
                ref = complex(mp.barnesg(mp.mpc(z.real, z.imag)))
                assert abs(double_gamma_value(z, 1.0) - ref) <= 1e-13 * abs(ref), z
