"""Direct checks of the finite Laurent-series algebra used to build the
cancellation-safe small-x integrand branches."""

import cmath
import math

import pytest

from barnesg._laurent import WIDTH, Laurent


def _eval_full(series, x):
    acc = 0j
    for i, c in enumerate(series.c):
        acc += c * x ** (series.off + i)
    return acc


def test_exp_series_matches_exp():
    a = -1.3 + 0.4j
    s = Laurent.exp_series(a)
    for x in (0.05, 0.2, 0.4):
        assert abs(_eval_full(s, x) - cmath.exp(a * x)) < 1e-14


def test_t_series_matches_direct():
    # T(y) = 1/(1-e^-y) - 1/y; the direct form loses ~eps/|y| digits at
    # small x (the very cancellation the series exists to avoid), so the
    # small-x oracle is high-precision arithmetic
    import mpmath as mp
    mp.mp.dps = 30
    a = 0.9 - 0.2j
    s = Laurent.t_series(a)
    for x in (0.01, 0.1, 0.3):
        y = mp.mpc(a.real, a.imag) * x
        ref = 1 / (1 - mp.e ** (-y)) - 1 / y
        ref = complex(float(mp.re(ref)), float(mp.im(ref)))
        assert abs(_eval_full(s, x) - ref) < 1e-14


def test_s_series_matches_direct():
    a = 1.4 + 0.3j
    s = Laurent.s_series(a)
    assert s.off == -1
    for x in (0.05, 0.2):
        direct = 1.0 / (1.0 - cmath.exp(-a * x))
        assert abs(_eval_full(s, x) - direct) < 1e-13


def test_product_matches_pointwise():
    a, b = -0.8 + 0.1j, 1.2
    p = Laurent.exp_series(a) * Laurent.s_series(b)
    x = 0.1
    direct = cmath.exp(a * x) / (1.0 - cmath.exp(-b * x))
    # truncation error at x = 0.1 is far below the assertion tolerance
    assert abs(_eval_full(p, x) - direct) < 1e-12


def test_addition_alignment():
    one = Laurent.one()
    xm1 = Laurent(-1, [1.0 + 0j])
    s = one + xm1
    assert s.off == -1
    assert abs(_eval_full(s, 0.25) - (1 + 4.0)) < 1e-15


def test_shift_and_scale():
    s = Laurent.exp_series(1.0).shifted(2).scaled(3.0)
    assert abs(_eval_full(s, 0.3) - 3.0 * 0.09 * math.exp(0.3)) < 1e-14


def test_singular_bookkeeping():
    # 1/x - 1/x cancels: the singular residue is exactly zero
    s = Laurent(-1, [1.0 + 0j]) - Laurent(-1, [1.0 + 0j])
    assert s.singular_part_size() == 0.0
    t = Laurent(-2, [1.0 + 0j]).scaled(2.0) + Laurent.one()
    assert t.singular_part_size() == 2.0
    assert t.regular_scale() == 1.0


def test_regular_part_drops_negative_powers():
    s = Laurent(-1, [1.0 + 0j]) + Laurent.one().scaled(5.0)
    assert s.eval_regular(0.5) == 5.0
    coeffs = s.regular_coeffs()
    assert coeffs[0] == 5.0
    assert len(coeffs) == WIDTH - 1


def test_width_truncation_is_stable():
    # multiplying never grows the coefficient window
    s = Laurent.exp_series(2.0)
    for _ in range(4):
        s = s * Laurent.exp_series(-0.5)
    assert len(s.c) == WIDTH
    assert abs(_eval_full(s, 0.1) - math.exp(0.0)) < 1e-12
