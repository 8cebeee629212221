"""Acceptance gate: every criterion at its stated tolerance, one printed
PASS/FAIL line each. Run with `pytest tests/test_acceptance.py -v -s`."""

import cmath
import json
import math
import random
import time

from barnesg import cli
from barnesg.engine import (
    ComputeParams,
    b0_of_tau,
    choose_params,
    double_gamma_value,
    lattice_distance,
    log_G_via_integral,
    log_double_gamma,
    log_double_gamma_asymptotic,
    asymptotic_coeffs,
)
from barnesg.identities import run_suite
from barnesg.modular import (
    C_via_integral,
    C_via_logG_derivative,
    D_via_integral,
    D_via_logG_derivative,
    modular_forms_em,
)
from barnesg.polys import (
    bernoulli_number,
    p_poly,
    p_poly_alt,
    p_poly_recursive,
    q_poly,
    q_poly_recursive,
)

SQRT2 = math.sqrt(2)
SQRT3 = math.sqrt(3)
EPS = 2.220446049250313e-16


def _report(n, ok, detail):
    print(f"ACCEPTANCE {n} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {n}: {detail}"


def test_criterion_1_headline_experiment(capsys):
    t0 = time.monotonic()
    code1 = cli.main(["eval", "--z", "1", "--tau", repr(SQRT3),
                      "--N", "1000", "--M", "10", "--m", "1000"])
    out1 = capsys.readouterr().out
    t1 = time.monotonic()
    code2 = cli.main(["eval", "--z", repr(SQRT3), "--tau", repr(SQRT3),
                      "--N", "1000", "--M", "10", "--m", "1000"])
    out2 = capsys.readouterr().out
    t2 = time.monotonic()
    v1 = json.loads(out1)["value"]
    v2 = json.loads(out2)["value"]
    err1 = abs(complex(v1["re"], v1["im"]) - 1)
    ref = 1.4889283353650864545
    rel2 = abs(complex(v2["re"], v2["im"]) - ref) / ref
    ok = (code1 == 0 and code2 == 0 and err1 <= 1e-12 and rel2 <= 1e-12
          and (t1 - t0) <= 2.0 and (t2 - t1) <= 2.0)
    with capsys.disabled():
        _report(1, ok, f"|G(1;s3)-1|={err1:.2e} (<=1e-12), "
                       f"G(s3;s3) rel={rel2:.2e} (13 digits), "
                       f"times {t1-t0:.2f}s/{t2-t1:.2f}s (<=2s)")


def test_criterion_2_closed_form():
    t0 = time.monotonic()
    rng = random.Random(202)
    worst = 0.0
    for _ in range(20):
        while True:
            tau = complex(2 + rng.uniform(-1.5, 1.5), rng.uniform(-1.0, 1.0))
            if abs(tau - 2) <= 1.5:
                break
        v = double_gamma_value(tau, tau)
        cf = cmath.exp(0.5 * (tau - 1) * math.log(2 * math.pi)
                       - 0.5 * cmath.log(tau))
        worst = max(worst, abs(v - cf) / abs(cf))
    dt = time.monotonic() - t0
    _report(2, worst <= 1e-9 and dt <= 10.0,
            f"G(tau;tau) closed form, worst rel={worst:.2e} (<=1e-9), "
            f"{dt:.1f}s (<=10s)")


def test_criterion_3_exact_polynomial_suite():
    t0 = time.monotonic()
    ok = True
    import pathlib
    golden = json.loads((pathlib.Path(__file__).parent / "data"
                         / "q_golden.json").read_text())
    from fractions import Fraction
    from math import comb

    def trim(cs):
        cs = list(cs)
        while cs and not cs[-1]:
            cs.pop()
        return tuple(cs)

    def weighted_sum(weights, polys):
        out = [Fraction(0)] * max(map(len, polys))
        for w, p in zip(weights, polys):
            for i, c in enumerate(p):
                out[i] += w * c
        return trim(out)

    for n in range(22):
        ok &= q_poly(n) == tuple(Fraction(s) for s in golden[f"q{n}"])
    for n in range(41):
        ok &= q_poly(n) == q_poly_recursive(n)
    for n in range(1, 26):
        p = p_poly(n)
        ok &= p == p_poly_recursive(n) and p == p_poly_alt(n)
    # binomial / monomial summation identities
    for n in range(31):
        qs = [q_poly(k) for k in range(n + 1)]
        lhs1 = weighted_sum([comb(n, k) for k in range(n + 1)], qs)
        lhs2 = weighted_sum([comb(n + 1, k) for k in range(n + 1)], qs)
        q_neg = [c if k % 2 == 0 else -c for k, c in enumerate(q_poly(n))]
        ok &= lhs1 == trim((-1) ** n * c for c in q_neg)
        mono = [Fraction(0)] * n + [(n + 1) * bernoulli_number(n)]
        ok &= lhs2 == trim(mono)
    # Bernoulli-shift identities with y indeterminate (n <= 20) and tau
    # inversion of P_n are exercised exactly in test_polys; re-check a slice
    for n in (5, 12, 20):
        p = p_poly(n)
        for i in range(n):
            c = p[i]
            padded = list(c) + [Fraction(0)] * (n - i - len(c))
            ok &= len(c) <= n - i and trim(padded[::-1]) == c
    dt = time.monotonic() - t0
    _report(3, ok and dt <= 5.0,
            f"exact polynomial suite (golden table, dual routes, identities), "
            f"{dt:.1f}s (<=5s)")


def test_criterion_4_convergence_order():
    t0 = time.monotonic()
    z, tau = 2 + 1j, SQRT2
    ref = log_double_gamma(z, tau, ComputeParams(N=2 ** 14, M=12, m_cd=256))
    floor = 20 * EPS * (1 + abs(ref.log_value))
    slopes = {}
    for M in (2, 4, 6):
        pts = []
        for N in (32, 64, 128, 256):
            v = log_double_gamma(z, tau, ComputeParams(N=N, M=M, m_cd=256))
            e = abs(v.log_value - ref.log_value)
            if e > floor:
                pts.append((math.log(N), math.log(e)))
        n = len(pts)
        assert n >= 2, f"M={M}: not enough points above the precision floor"
        sx = sum(p[0] for p in pts)
        sy = sum(p[1] for p in pts)
        sxx = sum(p[0] * p[0] for p in pts)
        sxy = sum(p[0] * p[1] for p in pts)
        slopes[M] = (n * sxy - sx * sy) / (n * sxx - sx * sx)
    dt = time.monotonic() - t0
    ok = all(slopes[M] <= -(M + 0.8) for M in (2, 4, 6)) and dt <= 30.0
    _report(4, ok, "truncation-order slopes "
            + ", ".join(f"M={M}: {slopes[M]:.2f} (<= -{M}.8)" for M in (2, 4, 6))
            + f", {dt:.1f}s (<=30s)")


def test_criterion_5_asymptotic_agreement():
    t0 = time.monotonic()
    tau = 1 + 1j
    co = asymptotic_coeffs(tau, 8)
    errs = {}
    for ray in (0.0, math.pi / 4):
        for r in (40.0, 80.0):
            z = cmath.rect(r, ray)
            # the product at the automatic plan, not the automatic route,
            # which may itself be the expansion
            le = log_double_gamma(z, tau, choose_params(z, tau)).log_value
            la = log_double_gamma_asymptotic(z, tau, 8, co)
            errs[(ray, r)] = (abs(cmath.exp(la - le) - 1), abs(le))
    ok = True
    details = []
    for ray in (0.0, math.pi / 4):
        e40, _ = errs[(ray, 40.0)]
        e80, l80 = errs[(ray, 80.0)]
        ok &= e40 <= 1e-8
        # decrease holds until the binary64 floor of the two stored logs
        ok &= (e80 < e40) or (e80 <= 100 * EPS * (1 + l80))
        details.append(f"ray {ray:.2f}: err40={e40:.1e} err80={e80:.1e}")
    dt = time.monotonic() - t0
    _report(5, ok and dt <= 20.0,
            "; ".join(details) + f" (<=1e-8, decreasing), {dt:.1f}s (<=20s)")


def test_criterion_6_identity_suite():
    t0 = time.monotonic()
    reports = run_suite(0, "default")
    dt = time.monotonic() - t0
    failed = [r.identity_id for r in reports if not r.passed]
    _report(6, not failed and dt <= 180.0,
            f"identity suite: {len(reports)} checks, "
            f"failed={failed or 'none'}, {dt:.1f}s (<=180s)")


def test_criterion_7_modular_route_agreement():
    t0 = time.monotonic()
    ok = True
    details = []
    for tau in (1.0, 2.0, SQRT3, 1 + 1j):
        em = modular_forms_em(tau, 400)
        routes_c = [em.C, C_via_logG_derivative(tau)]
        routes_d = [em.D, D_via_logG_derivative(tau)]
        if complex(tau).real > 0:
            routes_c.append(C_via_integral(tau))
            routes_d.append(D_via_integral(tau))
        dc = max(abs(a - b) for a in routes_c for b in routes_c)
        dd = max(abs(a - b) for a in routes_d for b in routes_d)
        ok &= dc <= 1e-7 and dd <= 1e-6
        details.append(f"tau={tau}: dC={dc:.1e} dD={dd:.1e}")
    dt = time.monotonic() - t0
    _report(7, ok and dt <= 60.0,
            "; ".join(details) + f" (<=1e-7 / 1e-6), {dt:.1f}s (<=60s)")


def test_criterion_8_b0_glaisher():
    A = 1.282427129
    ref = 1.0 / 12.0 - math.log(A) - 0.5 * math.log(2 * math.pi)
    err = abs(b0_of_tau(1.0) - ref)
    _report(8, err <= 1e-7,
            f"b0(1) vs Glaisher-Kinkelin closed form: err={err:.2e} (<=1e-7)")


def test_criterion_9_integral_oracle():
    t0 = time.monotonic()
    rng = random.Random(909)
    worst = 0.0
    done = 0
    while done < 10:
        z = complex(rng.uniform(0.3, 2.5), rng.uniform(-0.8, 0.8))
        tau = complex(rng.uniform(0.5, 2.0), rng.uniform(-0.7, 0.7))
        if lattice_distance(z, tau) < 0.1:
            continue
        done += 1
        li = log_G_via_integral(z, tau)
        le = log_double_gamma(z, tau).log_value
        worst = max(worst, abs(cmath.exp(li - le) - 1))
    dt = time.monotonic() - t0
    _report(9, worst <= 1e-9 and dt <= 60.0,
            f"integral representation vs engine on 10 samples: "
            f"worst={worst:.2e} (<=1e-9), {dt:.1f}s (<=60s)")
