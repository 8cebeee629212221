"""Frozen mpmath values of the gamma modular forms C(tau) and D(tau), for
tests/test_modular.py.

Writes tests/data/cd_grid.json: one row per seeded tau with C and D from
the m -> inf limit of the regrouped Euler-Maclaurin form,

    C = sum_{k<K} psi(k tau) - lgG(K) - K ln tau + ln(2 pi)/2 + ln(tau)/2
        + (ln tau + psi(K))/(2 tau) - sum_j (B_2j/2j) tau^-2j zeta(2j, K),
    D = sum_{k<K} psi'(k tau) - (psi(K) + ln tau)/tau + zeta(2, K)/(2 tau^2)
        + sum_j B_2j tau^(-2j-1) zeta(2j+1, K),

at dps = 34, with a head K four times the library's k0: |k0 tau| >= 8 at
|arg tau| <= pi/2, >= 16 up to 3pi/4, and |k0 Im tau| >= 8 past it. The
Hurwitz values are summed directly, with Euler-Maclaurin past K + 64
(mpmath's zeta(s, a) is wrong at large s and a), and each Bernoulli sum
runs until its terms fall below 10^-40 of the sum. C and D are rounded once
to binary64 (17 significant digits). The rows cover |tau| in [0.2, 5],
both signs of Im tau, the sector |arg tau| <= 3pi/4 and the far sector
past it, with |Im tau|/|tau| down to 1e-2 on both sides of the real axis.
The generator shares no code with barnesg.

Run from the repository root (about three minutes):

    python tests/make_cd_grid.py
"""

import cmath
import json
import math
import random
from pathlib import Path

import mpmath as mp

PATH = Path(__file__).parent / "data" / "cd_grid.json"
DPS = 34
HEAD = 4
DESCRIPTION = ("C(tau) and D(tau) from the m -> inf limit of the regrouped"
               " Euler-Maclaurin form with a head of K = 4 k0 terms of"
               " mpmath's psi and psi', k0 the library's head, and the"
               " Bernoulli tails from Hurwitz values summed directly, at"
               " dps = 34; each rounded once to binary64. Written by"
               " tests/make_cd_grid.py.")


def library_head(tau: complex) -> int:
    """The library's k0 for tau."""
    arg = abs(cmath.phase(tau))
    if arg > 0.75 * math.pi:
        return math.ceil(8.0 / abs(tau.imag))
    return max(1, math.ceil((8.0 if arg <= 0.5 * math.pi else 16.0) / abs(tau)))


def _hurwitz(s: int, a: int):
    """zeta(s, a) = sum_{n>=a} n^-s: the terms below L = a + 64 summed, the
    rest by Euler-Maclaurin at L until its terms fall below 10^-45."""
    L = a + 64
    head = mp.fsum(mp.mpf(n) ** -s for n in range(a, L))
    tail = mp.mpf(L) ** (1 - s) / (s - 1) + mp.mpf(L) ** -s / 2
    for j in range(1, 60):
        t = (mp.bernoulli(2 * j) / mp.factorial(2 * j) * mp.rf(s, 2 * j - 1)
             * mp.mpf(L) ** (1 - s - 2 * j))
        tail += t
        if abs(t) < mp.mpf(10) ** -45 * abs(tail):
            break
    return head + tail


def _psi_pair(w):
    """(psi(w), psi'(w)), by reflection in the left half-plane."""
    if w.real >= 0:
        return mp.psi(0, w), mp.psi(1, w)
    v = 1 - w
    return (mp.psi(0, v) - mp.pi * mp.cot(mp.pi * w),
            -mp.psi(1, v) + (mp.pi / mp.sin(mp.pi * w)) ** 2)


def _tail(tau, K, s_of_j, coeff):
    """sum_j coeff(j) tau^-s zeta(s, K), s = s_of_j(j), to 10^-40 of the
    sum or the least term."""
    total, prev = mp.mpc(0), mp.inf
    for j in range(1, 60):
        s = s_of_j(j)
        t = coeff(j) * tau ** -s * _hurwitz(s, K)
        if abs(t) >= prev:
            break
        total += t
        prev = abs(t)
        if prev < mp.mpf(10) ** -40 * abs(total):
            break
    return total


def c_and_d(tau: complex) -> tuple[list[str], list[str]]:
    """[re, im] of C(tau) and of D(tau), each to 17 digits."""
    K = HEAD * library_head(tau)
    with mp.workdps(DPS):
        t = mp.mpc(tau.real, tau.imag)
        ps = ps1 = mp.mpc(0)
        for k in range(1, K):
            a, b = _psi_pair(k * t)
            ps += a
            ps1 += b
        ln_t = mp.log(t)
        psi_k = mp.psi(0, K)
        C = (ps - mp.loggamma(K) - K * ln_t + mp.log(2 * mp.pi) / 2 + ln_t / 2
             + (ln_t + psi_k) / (2 * t)
             - _tail(t, K, lambda j: 2 * j,
                     lambda j: mp.bernoulli(2 * j) / (2 * j)))
        D = (ps1 - (psi_k + ln_t) / t + _hurwitz(2, K) / (2 * t * t)
             + _tail(t, K, lambda j: 2 * j + 1, lambda j: mp.bernoulli(2 * j)))
        return ([format(float(C.real), ".17g"), format(float(C.imag), ".17g")],
                [format(float(D.real), ".17g"), format(float(D.imag), ".17g")])


def points() -> list[complex]:
    rng = random.Random(3131)
    out = []
    for i in range(240):
        r = 0.2 * 25.0 ** rng.random()              # |tau| in [0.2, 5]
        sign = rng.choice((-1.0, 1.0))
        kind = i % 4
        if kind == 0:   # near the positive axis: |Im tau|/|tau| in [1e-2, 0.1]
            arg = math.asin(10.0 ** rng.uniform(-2.0, -1.0))
        elif kind == 1:  # the sector |arg tau| <= 3pi/4
            arg = rng.uniform(0.0, 0.75 * math.pi)
        else:            # the far sector, |Im tau|/|tau| in [1e-2, sin(pi/4))
            arg = math.pi - math.asin(10.0 ** rng.uniform(-2.0, -0.16))
        out.append(cmath.rect(r, sign * arg))
    return out


def main() -> None:
    rows = []
    for tau in points():
        C, D = c_and_d(tau)
        rows.append({"tau": [tau.real, tau.imag], "C": C, "D": D})
    payload = {"description": DESCRIPTION, "dps": DPS, "rows": rows}
    PATH.write_text(json.dumps(payload, indent=1) + "\n")


if __name__ == "__main__":
    main()
