"""Exact checks for the Bernoulli machinery and the q_n / P_n families."""

import json
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest

from barnesg import engine
from barnesg.errors import ConsistencyError
from barnesg.polys import (
    BivariatePolynomial,
    RationalPolynomial,
    bernoulli_number,
    bernoulli_polynomial,
    eval_bivariate,
    eval_rational_poly,
    p_poly,
    p_poly_alt,
    p_poly_recursive,
    q_poly,
    q_poly_recursive,
)

F = Fraction


def P(*coeffs):
    return RationalPolynomial(coeffs)


GOLDEN = json.loads((Path(__file__).parent / "data" / "q_golden.json").read_text())


# ---------------------------------------------------------------- Bernoulli

def test_bernoulli_numbers_listed_values():
    assert bernoulli_number(0) == 1
    assert bernoulli_number(1) == F(-1, 2)
    assert bernoulli_number(2) == F(1, 6)
    assert bernoulli_number(4) == F(-1, 30)
    assert bernoulli_number(6) == F(1, 42)
    assert bernoulli_number(8) == F(-1, 30)


def test_bernoulli_odd_vanish():
    assert bernoulli_number(7) == 0
    for m in range(1, 20):
        assert bernoulli_number(2 * m + 1) == 0


def test_bernoulli_polynomials():
    assert bernoulli_polynomial(0) == P(1)
    assert bernoulli_polynomial(1) == P(F(-1, 2), 1)
    assert bernoulli_polynomial(4) == P(F(-1, 30), 0, 1, -2, 1)


# ---------------------------------------------------------------- q family

def test_q_examples():
    assert q_poly(0) == P(1)
    assert q_poly(2) == P(F(1, 6), F(1, 2), F(1, 6))
    assert q_poly(5) == P(0, F(1, 12), 0, 0, F(1, 12))
    assert q_poly_recursive(1) == P(F(-1, 2), F(-1, 2))
    assert q_poly_recursive(3) == P(0, F(-1, 4), F(-1, 4))
    q21 = q_poly_recursive(21)
    assert q21.coeff(1) == F(1222277, 220)
    assert q21.coeff(20) == F(1222277, 220)


def test_q_golden_table():
    for n in range(22):
        expected = RationalPolynomial.from_strings(GOLDEN[f"q{n}"])
        assert q_poly(n) == expected, f"q_{n} differs from the golden table"


@pytest.mark.parametrize("n", range(41))
def test_q_routes_agree(n):
    assert q_poly(n) == q_poly_recursive(n)


@pytest.mark.parametrize("n", range(41))
def test_q_symmetry(n):
    # q_n(tau) = tau^n q_n(1/tau): coefficient reversal padded to length n+1.
    q = q_poly(n)
    assert len(q.coeffs) <= n + 1
    padded = list(q.coeffs) + [F(0)] * (n + 1 - len(q.coeffs))
    assert RationalPolynomial(padded[::-1]) == q


@pytest.mark.parametrize("m", range(1, 16))
def test_q_odd_closed_form(m):
    n = 2 * m + 1
    c = -(F(2 * m + 1, 2)) * bernoulli_number(2 * m)
    expected = RationalPolynomial([0, c] + [F(0)] * (2 * m - 2) + [c])
    assert q_poly(n) == expected


@pytest.mark.parametrize("n", range(31))
def test_q_sum_identity_binomial(n):
    # sum_k C(n,k) q_k(tau) = (-1)^n q_n(-tau)
    lhs = RationalPolynomial()
    for k in range(n + 1):
        lhs = lhs + comb(n, k) * q_poly(k)
    # q_n(-tau): the odd coefficients change sign
    q_neg = RationalPolynomial(
        [c if k % 2 == 0 else -c for k, c in enumerate(q_poly(n).coeffs)])
    rhs = (-1) ** n * q_neg
    assert lhs == rhs


@pytest.mark.parametrize("n", range(31))
def test_q_sum_identity_monomial(n):
    # sum_k C(n+1,k) q_k(tau) = (n+1) B_n tau^n
    lhs = RationalPolynomial()
    for k in range(n + 1):
        lhs = lhs + comb(n + 1, k) * q_poly(k)
    coeffs = [F(0)] * n + [(n + 1) * bernoulli_number(n)]
    assert lhs == RationalPolynomial(coeffs)


def _biv_in_y(tau_polys_by_y_power):
    return BivariatePolynomial(tau_polys_by_y_power)


def _q_scaled_arg(n, mode):
    """(n+1) y q_n(tau*y) or (n+1) y q_n(tau/y) * y^n as (tau,y)-bivariate."""
    q = q_poly(n)
    rows = []
    if mode == "mul":
        # q_n(tau y) = sum_j c_j tau^j y^j; multiply by (n+1) y.
        size = n + 2
        cols = [RationalPolynomial() for _ in range(size)]
        for j, c in enumerate(q.coeffs):
            cols[j + 1] = RationalPolynomial([F(0)] * j + [(n + 1) * c])
        rows = cols
    else:
        # y^n * (n+1) y q_n(tau/y) = (n+1) sum_j c_j tau^j y^(n+1-j)
        size = n + 2
        cols = [RationalPolynomial() for _ in range(size)]
        for j, c in enumerate(q.coeffs):
            cols[n + 1 - j] = cols[n + 1 - j] + RationalPolynomial(
                [F(0)] * j + [(n + 1) * c])
        rows = cols
    return _biv_in_y(rows)


@pytest.mark.parametrize("n", range(21))
def test_q_bernoulli_shift_identities(n):
    # Both summation identities with y kept as a second indeterminate.
    # Identity A: sum_k C(n+1,k+1) (B_{k+1}(y) - B_{k+1}) y^(n-k) q_{n-k}(tau)
    #             = (n+1) y q_n(tau y)
    # Identity B: same weights with (tau/y)^k; compare after clearing y^n.
    lhs_a = BivariatePolynomial()
    lhs_b = BivariatePolynomial()
    for k in range(n + 1):
        w = comb(n + 1, k + 1)
        bp = bernoulli_polynomial(k + 1) - RationalPolynomial([bernoulli_number(k + 1)])
        qk = q_poly(n - k)
        # A: y-polynomial bp(y) * y^(n-k), tau-polynomial w*qk
        ypoly_a = RationalPolynomial([F(0)] * (n - k) + list(bp.coeffs))
        rows_a = [w * qk * c for c in ypoly_a.coeffs]
        lhs_a = lhs_a + _biv_in_y(rows_a)
        # B (pre-clearing): bp(y) y^(n-k) tau^k q_{n-k}(tau)
        tau_part = RationalPolynomial([F(0)] * k + list((w * qk).coeffs))
        rows_b = [tau_part * c for c in ypoly_a.coeffs]
        lhs_b = lhs_b + _biv_in_y(rows_b)
    assert lhs_a == _q_scaled_arg(n, "mul")
    assert lhs_b == _q_scaled_arg(n, "div")


def test_q_generating_function_product():
    # Truncations of sum q_n u^n/n! and (e^u-1)(e^{tau u}-1)/(tau u^2)
    # multiply to 1 + O(u^21) exactly.
    deg = 20
    fact = [F(1)]
    for i in range(1, deg + 3):
        fact.append(fact[-1] * i)
    qs = [q_poly(n) * F(1, fact[n]) for n in range(deg + 1)]
    # v_n(tau) = sum_{b=1}^{n+1} tau^(b-1) / (b! (n+2-b)!)
    vs = []
    for n in range(deg + 1):
        coeffs = [F(1, fact[b] * fact[n + 2 - b]) for b in range(1, n + 2)]
        vs.append(RationalPolynomial(coeffs))
    for n in range(deg + 1):
        prod = RationalPolynomial()
        for k in range(n + 1):
            prod = prod + qs[k] * vs[n - k]
        expected = RationalPolynomial([1]) if n == 0 else RationalPolynomial()
        assert prod == expected, f"u^{n} coefficient of the product is nonzero"


# ---------------------------------------------------------------- P family

def test_p_display_values():
    one = BivariatePolynomial([P(1)])
    assert p_poly(1) == one
    assert p_poly_alt(1) == one
    assert p_poly(2) == BivariatePolynomial([P(-2, -2), P(1)])
    assert p_poly_alt(2) == BivariatePolynomial([P(-2, -2), P(1)])
    assert p_poly_recursive(3) == BivariatePolynomial(
        [P(F(5, 3), 5, F(5, 3)), P(F(-5, 2), F(-5, 2)), P(1)])
    assert p_poly(4) == BivariatePolynomial(
        [P(0, -5, -5), P(F(5, 2), F(15, 2), F(5, 2)), P(-3, -3), P(1)])
    p5 = BivariatePolynomial(
        [P(F(-7, 6), 0, F(35, 6), 0, F(-7, 6)),
         P(0, F(-35, 4), F(-35, 4)),
         P(F(7, 2), F(21, 2), F(7, 2)),
         P(F(-7, 2), F(-7, 2)),
         P(1)])
    assert p_poly_recursive(5) == p5


@pytest.mark.parametrize("n", range(1, 26))
def test_p_routes_agree(n):
    direct = p_poly(n)
    assert direct == p_poly_recursive(n)
    assert direct == p_poly_alt(n)


@pytest.mark.parametrize("n", range(1, 26))
def test_p_monic(n):
    p = p_poly(n)
    assert len(p.coeffs) == n
    assert p.coeffs[n - 1] == RationalPolynomial([1])


@pytest.mark.parametrize("n", range(1, 21))
def test_p_tau_inversion_scaling(n):
    # P_n(z/tau; 1/tau) = tau^(1-n) P_n(z;tau). After clearing tau powers the
    # z^i coefficient must be palindromic when padded to length n-i.
    p = p_poly(n)
    for i in range(n):
        c = p.coeffs[i]
        assert len(c.coeffs) <= n - i
        padded = list(c.coeffs) + [F(0)] * (n - i - len(c.coeffs))
        assert RationalPolynomial(padded[::-1]) == c


def test_recursion_division_guard():
    bad = RationalPolynomial([1, 2])
    with pytest.raises(ConsistencyError):
        bad.divide_by_var()


# ---------------------------------------------------------------- evaluation

def test_eval_rational_poly():
    assert eval_rational_poly(q_poly(0), 2.7 + 1j) == 1
    assert abs(eval_rational_poly(q_poly(2), 1.0) - 5.0 / 6.0) < 1e-15
    b1 = bernoulli_polynomial(1)
    assert abs(eval_rational_poly(b1, 0.5)) < 1e-15


def test_eval_bivariate():
    assert eval_bivariate(p_poly(1), 3.3 - 2j, 0.7 + 0.1j) == 1
    assert abs(eval_bivariate(p_poly(2), 2.0, 0.0)) < 1e-15
    # P_5(1;1) from the closed display: 1 - (84 - 210 + 210 - 42)/12 = -5/2
    assert abs(eval_bivariate(p_poly(5), 1.0, 1.0) - (-2.5)) < 1e-13


# ---------------------------------------------------------------- serialization

def test_serialization_round_trip():
    q5 = q_poly(5)
    assert q5.to_strings() == ["0", "1/12", "0", "0", "1/12"]
    assert RationalPolynomial.from_strings(q5.to_strings()) == q5
    p2 = p_poly(2)
    assert p2.to_strings() == [["-2", "-2"], ["1"]]
    assert BivariatePolynomial.from_strings(p2.to_strings()) == p2


def test_rounded_tables_match_the_exact_polynomials():
    # the integer closed forms behind _p_rounded and _q_rounded, built
    # afresh (past the lru_cache), round each rational coefficient of
    # p_poly / q_poly exactly as float() does, bit for bit and with the
    # same trimmed lengths
    for k in range(1, 17):
        ref = [[float(c) for c in row.coeffs] for row in p_poly(k).coeffs]
        got = engine._p_rounded.__wrapped__(k)
        assert repr(got) == repr(tuple(tuple(row) for row in ref)), k
    for n in range(engine._TAIL_LEN + 3):
        ref = tuple(float(c) for c in q_poly(n).coeffs)
        assert repr(engine._q_rounded.__wrapped__(n)) == repr(ref), n
