"""Exact checks for the Bernoulli machinery and the q_n / P_n families."""

import json
from fractions import Fraction
from itertools import zip_longest
from math import comb
from pathlib import Path

import pytest

from barnesg import engine
from barnesg.errors import ConsistencyError
from barnesg.polys import (
    _div_by_var,
    bernoulli_number,
    bernoulli_polynomial,
    p_poly,
    p_poly_alt,
    p_poly_recursive,
    q_poly,
    q_poly_recursive,
)

F = Fraction


# The exact families are trimmed coefficient tuples, lowest power first; the
# identities below do their own arithmetic on them, apart from the package's.

def trim(cs):
    cs = list(cs)
    while cs and not cs[-1]:
        cs.pop()
    return tuple(cs)


def P(*coeffs):
    return trim(F(c) for c in coeffs)


def add(*polys):
    out = [F(0)] * max(map(len, polys), default=0)
    for p in polys:
        for i, c in enumerate(p):
            out[i] += c
    return trim(out)


def scale(c, p):
    return trim(c * x for x in p)


def mul(a, b):
    out = [F(0)] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return trim(out)


def biv_add(a, b):
    return trim(add(x, y) for x, y in zip_longest(a, b, fillvalue=()))


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
    assert q21[1] == F(1222277, 220)
    assert q21[20] == F(1222277, 220)


@pytest.mark.parametrize("family, n", [
    (q_poly, 7), (q_poly_recursive, 7), (bernoulli_polynomial, 6),
    (p_poly, 6), (p_poly_recursive, 6), (p_poly_alt, 6)])
def test_families_are_trimmed_fraction_tuples(family, n):
    p = family(n)
    rows = p if isinstance(p[0], tuple) else (p,)
    assert type(p) is tuple and rows[-1]
    for row in rows:
        assert type(row) is tuple and row == trim(row)
        assert all(type(c) is Fraction for c in row)


def test_q_golden_table():
    for n in range(22):
        expected = tuple(F(s) for s in GOLDEN[f"q{n}"])
        assert q_poly(n) == expected, f"q_{n} differs from the golden table"


@pytest.mark.parametrize("n", range(41))
def test_q_routes_agree(n):
    assert q_poly(n) == q_poly_recursive(n)


@pytest.mark.parametrize("n", range(41))
def test_q_symmetry(n):
    # q_n(tau) = tau^n q_n(1/tau): coefficient reversal padded to length n+1.
    q = q_poly(n)
    assert len(q) <= n + 1
    padded = list(q) + [F(0)] * (n + 1 - len(q))
    assert trim(padded[::-1]) == q


@pytest.mark.parametrize("m", range(1, 16))
def test_q_odd_closed_form(m):
    n = 2 * m + 1
    c = -(F(2 * m + 1, 2)) * bernoulli_number(2 * m)
    expected = P(0, c, *[0] * (2 * m - 2), c)
    assert q_poly(n) == expected


@pytest.mark.parametrize("n", range(31))
def test_q_sum_identity_binomial(n):
    # sum_k C(n,k) q_k(tau) = (-1)^n q_n(-tau)
    lhs = add(*(scale(comb(n, k), q_poly(k)) for k in range(n + 1)))
    # q_n(-tau): the odd coefficients change sign
    q_neg = tuple(c if k % 2 == 0 else -c for k, c in enumerate(q_poly(n)))
    assert lhs == scale((-1) ** n, q_neg)


@pytest.mark.parametrize("n", range(31))
def test_q_sum_identity_monomial(n):
    # sum_k C(n+1,k) q_k(tau) = (n+1) B_n tau^n
    lhs = add(*(scale(comb(n + 1, k), q_poly(k)) for k in range(n + 1)))
    assert lhs == P(*[0] * n, (n + 1) * bernoulli_number(n))


def _q_scaled_arg(n, mode):
    """(n+1) y q_n(tau*y) or (n+1) y q_n(tau/y) * y^n as a y-major tuple of
    tau-polynomials."""
    rows = [()] * (n + 2)
    for j, c in enumerate(q_poly(n)):
        # "mul": q_n(tau y) = sum_j c_j tau^j y^j, times (n+1) y;
        # "div": y^n (n+1) y q_n(tau/y) = (n+1) sum_j c_j tau^j y^(n+1-j)
        y = j + 1 if mode == "mul" else n + 1 - j
        rows[y] = add(rows[y], P(*[0] * j, (n + 1) * c))
    return trim(rows)


@pytest.mark.parametrize("n", range(21))
def test_q_bernoulli_shift_identities(n):
    # Both summation identities with y kept as a second indeterminate.
    # Identity A: sum_k C(n+1,k+1) (B_{k+1}(y) - B_{k+1}) y^(n-k) q_{n-k}(tau)
    #             = (n+1) y q_n(tau y)
    # Identity B: same weights with (tau/y)^k; compare after clearing y^n.
    lhs_a = lhs_b = ()
    for k in range(n + 1):
        wq = scale(comb(n + 1, k + 1), q_poly(n - k))
        bp = add(bernoulli_polynomial(k + 1), P(-bernoulli_number(k + 1)))
        # A: y-polynomial bp(y) * y^(n-k), tau-polynomial w*qk
        ypoly = (F(0),) * (n - k) + bp
        lhs_a = biv_add(lhs_a, tuple(scale(c, wq) for c in ypoly))
        # B (pre-clearing): bp(y) y^(n-k) tau^k q_{n-k}(tau)
        tau_part = (F(0),) * k + wq
        lhs_b = biv_add(lhs_b, tuple(scale(c, tau_part) for c in ypoly))
    assert lhs_a == _q_scaled_arg(n, "mul")
    assert lhs_b == _q_scaled_arg(n, "div")


def test_q_generating_function_product():
    # Truncations of sum q_n u^n/n! and (e^u-1)(e^{tau u}-1)/(tau u^2)
    # multiply to 1 + O(u^21) exactly.
    deg = 20
    fact = [F(1)]
    for i in range(1, deg + 3):
        fact.append(fact[-1] * i)
    qs = [scale(F(1, fact[n]), q_poly(n)) for n in range(deg + 1)]
    # v_n(tau) = sum_{b=1}^{n+1} tau^(b-1) / (b! (n+2-b)!)
    vs = [P(*(F(1, fact[b] * fact[n + 2 - b]) for b in range(1, n + 2)))
          for n in range(deg + 1)]
    for n in range(deg + 1):
        prod = add(*(mul(qs[k], vs[n - k]) for k in range(n + 1)))
        expected = P(1) if n == 0 else ()
        assert prod == expected, f"u^{n} coefficient of the product is nonzero"


# ---------------------------------------------------------------- P family

def test_p_display_values():
    one = (P(1),)
    assert p_poly(1) == one
    assert p_poly_alt(1) == one
    assert p_poly(2) == (P(-2, -2), P(1))
    assert p_poly_alt(2) == (P(-2, -2), P(1))
    assert p_poly_recursive(3) == (
        P(F(5, 3), 5, F(5, 3)), P(F(-5, 2), F(-5, 2)), P(1))
    assert p_poly(4) == (
        P(0, -5, -5), P(F(5, 2), F(15, 2), F(5, 2)), P(-3, -3), P(1))
    p5 = (P(F(-7, 6), 0, F(35, 6), 0, F(-7, 6)),
          P(0, F(-35, 4), F(-35, 4)),
          P(F(7, 2), F(21, 2), F(7, 2)),
          P(F(-7, 2), F(-7, 2)),
          P(1))
    assert p_poly_recursive(5) == p5


@pytest.mark.parametrize("n", range(1, 26))
def test_p_routes_agree(n):
    direct = p_poly(n)
    assert direct == p_poly_recursive(n)
    assert direct == p_poly_alt(n)


@pytest.mark.parametrize("n", range(1, 26))
def test_p_monic(n):
    p = p_poly(n)
    assert len(p) == n
    assert p[n - 1] == P(1)


@pytest.mark.parametrize("n", range(1, 21))
def test_p_tau_inversion_scaling(n):
    # P_n(z/tau; 1/tau) = tau^(1-n) P_n(z;tau). After clearing tau powers the
    # z^i coefficient must be palindromic when padded to length n-i.
    p = p_poly(n)
    for i in range(n):
        c = p[i]
        assert len(c) <= n - i
        padded = list(c) + [F(0)] * (n - i - len(c))
        assert trim(padded[::-1]) == c


def test_recursion_division_guard():
    with pytest.raises(ConsistencyError):
        _div_by_var(P(1, 2))
    assert _div_by_var(P(0, 2)) == P(2)
    assert _div_by_var(()) == ()


def test_rounded_tables_match_the_exact_polynomials():
    # the engine's tables, built afresh (past the lru_cache), round each
    # rational coefficient exactly as float() does, bit for bit and with the
    # same trimmed lengths: against p_poly / q_poly, which share their
    # builder q_terms, and against the recursive references, which do not
    for k in range(1, 17):
        got = repr(engine._p_rounded.__wrapped__(k))
        for p in (p_poly(k), p_poly_recursive(k)):
            assert got == repr(tuple(tuple(map(float, row)) for row in p)), k
    for n in range(engine._TAIL_LEN + 3):
        got = repr(engine._q_rounded.__wrapped__(n))
        for q in (q_poly(n), q_poly_recursive(n)):
            assert got == repr(tuple(map(float, q))), n
