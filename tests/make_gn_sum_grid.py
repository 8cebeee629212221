"""Frozen mpmath values of gn_sum's stable range, for tests/test_engine.py.

Writes tests/data/gn_sum_grid.json: one row per seeded (z, tau, N) with

    S = sum_{m = m_switch}^{N} r_m(z),
    r_m(z) = lgG(m tau) - lgG(z + m tau) + z psi(m tau) + (z^2/2) psi'(m tau),

where m_switch = ceil(max((8 + |z|)/d(tau), 2|z|/|tau|)) is the first term
gn_sum takes from its swapped stable sum, d(tau) the distance from tau to
the cut (-inf, 0]: |tau| at Re tau >= 0, |Im tau| otherwise. Every term
comes from mpmath at dps = 30, and S is rounded once to binary64 (17
significant digits). The rows cover Re tau > 0, the mid sector
pi/2 < |arg tau| <= 3pi/4 with both signs of Im tau, |z| > 8 and N up to
2^14, and then 12 rows in the mid sector with z pointed at the cut, where
z + m tau comes nearest it. The generator shares no code with barnesg.

Run from the repository root (about four minutes):

    python tests/make_gn_sum_grid.py
"""

import cmath
import json
import math
import random
from pathlib import Path

import mpmath as mp

PATH = Path(__file__).parent / "data" / "gn_sum_grid.json"
DPS = 30
DESCRIPTION = ("S = sum_{m=m_switch}^{N} r_m(z), r_m(z) = lgG(m tau) - lgG(z + m tau)"
               " + z psi(m tau) + (z^2/2) psi'(m tau), m_switch ="
               " ceil(max((8 + |z|)/d(tau), 2|z|/|tau|)), d(tau) = |tau| at"
               " Re tau >= 0, else |Im tau|: every term from mpmath at dps = 30,"
               " S rounded once to binary64. Written by tests/make_gn_sum_grid.py.")


def m_switch(z: complex, tau: complex) -> int:
    d = abs(tau) if tau.real >= 0.0 else abs(tau.imag)
    return math.ceil(max((8.0 + abs(z)) / d, 2.0 * abs(z) / abs(tau)))


def stable_range(z: complex, tau: complex, N: int) -> list[str]:
    """[re, im] of sum_{m_switch <= m <= N} r_m(z), each to 17 digits."""
    with mp.workdps(DPS):
        mz, mt = mp.mpc(z.real, z.imag), mp.mpc(tau.real, tau.imag)
        s = mp.mpc(0)
        for m in range(m_switch(z, tau), N + 1):
            w = m * mt
            s += (mp.loggamma(w) - mp.loggamma(mz + w) + mz * mp.digamma(w)
                  + mz * mz / 2 * mp.psi(1, w))
        return [format(float(s.real), ".17g"), format(float(s.imag), ".17g")]


def points() -> list[tuple[complex, complex, int]]:
    rng = random.Random(2323)
    out = []
    for i in range(40):
        # sectors: Re tau > 0 (either sign of Im tau), and the mid sector
        if i % 2:
            arg = rng.uniform(0.5 * math.pi + 0.02, 0.75 * math.pi)
        else:
            arg = rng.uniform(-0.5 * math.pi, 0.5 * math.pi)
        tau = cmath.rect(10.0 ** rng.uniform(-0.4, 0.4),
                         arg * rng.choice((-1.0, 1.0)))
        # one row in four with |z| > 8, where m_switch = ceil(2|z|/|tau|)
        # at Re tau >= 0
        r = rng.uniform(8.5, 14.0) if i % 4 == 3 else 10.0 ** rng.uniform(-1.5, 0.85)
        z = cmath.rect(r, rng.uniform(-math.pi, math.pi))
        ms = m_switch(z, tau)
        if i in (5, 14, 27):
            N = (2 ** 10, 2 ** 12, 2 ** 14)[(5, 14, 27).index(i)]
        elif i < 4:
            N = ms + 2 + i                 # short ranges, re-derived live
        else:
            N = ms + rng.randrange(1, 120)
        out.append((z, tau, max(N, ms)))
    # the mid sector's edge: z pointed at the cut (straight down from
    # m tau at Im tau > 0, up at Im tau < 0), within 0.5 rad
    rng = random.Random(2929)
    for i in range(12):
        tau = cmath.rect(10.0 ** rng.uniform(-0.4, 0.4),
                         rng.uniform(0.5 * math.pi + 0.02, 0.75 * math.pi)
                         * rng.choice((-1.0, 1.0)))
        toward = -math.copysign(0.5 * math.pi, tau.imag)
        z = cmath.rect(10.0 ** rng.uniform(-1.0, 1.1),
                       toward + rng.uniform(-0.5, 0.5))
        out.append((z, tau, m_switch(z, tau) + rng.randrange(1, 60)))
    return out


def main() -> None:
    rows = [{"z": [z.real, z.imag], "tau": [tau.real, tau.imag], "N": N,
             "S": stable_range(z, tau, N)} for z, tau, N in points()]
    payload = {"description": DESCRIPTION, "dps": DPS, "rows": rows}
    PATH.write_text(json.dumps(payload, indent=1) + "\n")


if __name__ == "__main__":
    main()
