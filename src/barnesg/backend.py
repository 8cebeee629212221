"""Numerical kernels: the hot spots of the package, in plain Python.

* ``loggamma``      - principal branch of log Gamma, analytic on C minus
                      (-inf, 0], via a 15-term rational (Lanczos-type)
                      approximation plus reflection/conjugation.
* ``psi_pair``      - psi and psi' together, by one recurrence shift +
                      Bernoulli asymptotic series, and one reflection in the
                      left half-plane (its e^{2 pi i z} taken at
                      z - round(Re z)); ``digamma``/``trigamma`` are its halves.
* ``gn_sum``        - the truncated-product log sum
                      sum_{m=1..N} [lgG(m tau) - lgG(z+m tau) + z psi(m tau)
                      + z^2/2 psi'(m tau)],
                      evaluated term-wise through a cancellation-free regrouped
                      form once m tau is deep in the Stirling regime; the
                      pieces of each term that depend on m tau alone are
                      memoized per tau (``tau_memo``).
* ``cd_sums``       - the partial psi/psi' sums feeding the gamma modular
                      forms: a small-k direct part, read from and written to
                      the same per-tau table as gn_sum's direct terms, and
                      for the rest the Bernoulli tails summed over k by
                      swapping the two sums, so that each tail order j carries
                      one real power sum sum_k k^-s; no intermediate grows
                      with m. The power sums do not involve tau and are
                      memoized by (k0, m) (``_power_sums``): both are
                      integers rounded up from |tau|, so a stream of fresh
                      tau keeps meeting the same few hundred keys.

At a fresh tau every z-independent kernel value is computed once: the
modular forms run first and fill the direct table for k < k0, and gn_sum
finds those terms warm, since k0 is at most its switch point.

Every Bernoulli-type tail (``_tail``) is a Horner polynomial whose length
is read from a table of limits on its argument, built at import per
coefficient set: the least count whose first omitted term is below 1e-18 of
the first kept one. No term is tested as it is summed.

Everything is deterministic: sums run sequentially in index order with
Neumaier compensation or exactly (``math.fsum``), so repeated calls are
bit-identical.
"""

from __future__ import annotations

import cmath
import functools
import math
import struct
from bisect import bisect_right
from itertools import repeat

from .errors import CapacityError, DomainError, PoleError

EULER_GAMMA = 0.5772156649015328606065120900824024
LN_2PI = math.log(2.0 * math.pi)
_HALF_LN_2PI = 0.5 * LN_2PI
_MAX_ARG = 2.356194490192345  # 3*pi/4, the widest |arg w| of the series
# hard cap on every truncation length: the product length N, the
# Euler-Maclaurin length m, the rows of a zero-lattice window, the factors
# of a q-Pochhammer product and the recurrence shift of polygamma
_N_CAP = 1_000_000

# B_2 .. B_26 as floats (exact fractions rounded once).
_B2K = (
    1.0 / 6.0,
    -1.0 / 30.0,
    1.0 / 42.0,
    -1.0 / 30.0,
    5.0 / 66.0,
    -691.0 / 2730.0,
    7.0 / 6.0,
    -3617.0 / 510.0,
    43867.0 / 798.0,
    -174611.0 / 330.0,
    854513.0 / 138.0,
    -236364091.0 / 2730.0,
    8553103.0 / 6.0,
)


class _Series:
    """A Bernoulli-type tail sum_j c_j x^j with its fixed lengths: horner[i]
    holds c_0 .. c_i, highest first, and is used where
    limits[i - 1] <= |x| < limits[i] (see ``_tail``).

    n terms suffice at |x| when the first omitted term is below 1e-18 of the
    first kept one: |c_n| |x|^n < 1e-18 |c_0|. The least such n is the first
    whose limit exceeds |x| once the limits are made non-decreasing by a
    running maximum."""

    __slots__ = ("limits", "horner")

    def __init__(self, coeffs):
        c = tuple(coeffs)
        limits, top = [], 0.0
        for n in range(1, len(c)):
            top = max(top, (1e-18 * abs(c[0] / c[n])) ** (1.0 / n))
            limits.append(top)
        self.limits = tuple(limits)
        self.horner = tuple(c[n::-1] for n in range(len(c)))


# Binet-series coefficients B_2j / ((2j-1)(2j)).
_BINET = _Series(b / ((2 * j + 1) * (2 * j + 2)) for j, b in enumerate(_B2K))
# psi tail coefficients B_2j / (2j).
_PSI_TAIL = _Series(b / (2 * (j + 1)) for j, b in enumerate(_B2K))
# psi' tail coefficients B_2j.
_PSI1_TAIL = _Series(_B2K)
# psi^(k) tail coefficients B_2j (2j+k-1)! / (2j)!, for k = 2..12.
_POLYGAMMA_TAIL = {
    k: _Series(b * math.factorial(2 * j + k - 1) / math.factorial(2 * j)
               for j, b in enumerate(_B2K, start=1))
    for k in range(2, 13)}
# log(1+u) - u + u^2/2 coefficients (-1)^(k+1) / k, k = 3..22: enough for
# |u| <= 0.109, where _log1p_tail switches to clog1p.
_LOG1P = _Series((-1.0 if k % 2 == 0 else 1.0) / k for k in range(3, 23))

# 15-term rational approximation for Gamma (Godfrey's g = 607/128 set).
_LANCZOS_G = 607.0 / 128.0
_LANCZOS_C = (
    0.99999999999999709182,
    57.156235665862923517,
    -59.597960355475491248,
    14.136097974741747174,
    -0.49191381609762019978,
    0.33994649984811888699e-4,
    0.46523628927048575665e-4,
    -0.98374475304879564677e-4,
    0.15808870322491248884e-3,
    -0.21026444172410488319e-3,
    0.21743961811521264320e-3,
    -0.16431810653676389022e-3,
    0.84418223983852743293e-4,
    -0.26190838401581408670e-4,
    0.36899182659531622704e-5,
)
# (k, c_k), k = 1..14, and g - 1/2: the loop of _loggamma_right reads them
# with no indexing or constant arithmetic per call
_LANCZOS_TERMS = tuple(enumerate(_LANCZOS_C[1:], start=1))
_LANCZOS_SHIFT = _LANCZOS_G - 0.5


def clog1p(u: complex) -> complex:
    """log(1+u), accurate for small |u| (principal branch)."""
    x, y = u.real, u.imag
    re = 0.5 * math.log1p(2.0 * x + x * x + y * y)
    im = math.atan2(y, 1.0 + x)
    return complex(re, im)


def _is_nonpositive_integer(z: complex) -> bool:
    # is_integer is False, not an error, at +-inf and NaN: no poles there
    return z.imag == 0.0 and z.real <= 0.0 and z.real.is_integer()


def _exp2pi(z: complex) -> complex:
    # e^{2 pi i z} at z - round(Re z): the shift is exact and the value has
    # period 1, so a large Re z costs no bits of the phase
    try:
        z -= round(z.real)
    except (OverflowError, ValueError):  # Re z infinite or NaN: no shift
        pass
    return cmath.exp(2j * math.pi * z)


def _one_minus_exp2pi(z: complex) -> complex:
    # 1 - e^{2 pi i z} for Im z >= 0, with x = Re z - round(Re z), y = Im z:
    # 2 sin^2(pi x) - expm1(-2 pi y) cos(2 pi x) - i e^{-2 pi y} sin(2 pi x).
    # The real part is a sum of two nonnegative terms where cos(2 pi x) >= 0
    # and at least 1 elsewhere, so nothing cancels near a pole; it is 0
    # only at x = y = 0, a pole. NaN when Re z is not finite.
    try:
        x = z.real - round(z.real)
    except (OverflowError, ValueError):
        return complex(math.nan, math.nan)
    y = -2.0 * math.pi * z.imag
    s = math.sin(math.pi * x)
    return complex(2.0 * s * s - math.expm1(y) * math.cos(2.0 * math.pi * x),
                   -math.exp(y) * math.sin(2.0 * math.pi * x))


def _logsinpi_upper(z: complex) -> complex:
    # log sin(pi z) branch valid for Im z >= 0 (off the poles): sin(pi z) =
    # (i/2) e^{-i pi z} (1 - e^{2 pi i z}).
    return (complex(-math.log(2.0), 0.5 * math.pi) - 1j * math.pi * z
            + cmath.log(_one_minus_exp2pi(z)))


def _loggamma_right(z: complex) -> complex:
    # Re z >= 0.5 only. z - 1.0 is taken once: (z - 1.0) + k is the same
    # operation, so the same bits, as the series' z - 1.0 + k
    zm1 = z - 1.0
    a = _LANCZOS_C[0]
    for k, c in _LANCZOS_TERMS:
        a += c / (zm1 + k)
    t = z + _LANCZOS_SHIFT
    return (_HALF_LN_2PI + (z - 0.5) * cmath.log(t) - t + cmath.log(a))


def loggamma(z: complex) -> complex:
    """Principal log Gamma: analytic on C minus (-inf, 0], real on (0, inf).

    PoleError at the poles 0, -1, -2, ... alone: left of Re z = 1/2 the
    reflection takes log(1 - e^{2 pi i z}) from a form that keeps its
    digits however near a pole z lies (``_one_minus_exp2pi``)."""
    z = complex(z)
    if _is_nonpositive_integer(z):
        raise PoleError(f"log Gamma pole at {z}")
    if z.imag < 0.0:
        return loggamma(z.conjugate()).conjugate()
    if z.real >= 0.5:
        return _loggamma_right(z)
    return math.log(math.pi) - _logsinpi_upper(z) - _loggamma_right(1.0 - z)


def _tail(series: _Series, p: complex, x: complex, acc: complex) -> complex:
    # acc + p sum_j c_j x^j over the count that |x| selects: the one
    # loop behind every Bernoulli tail, a Horner of fixed length
    s = 0j
    for c in series.horner[bisect_right(series.limits, abs(x))]:
        s = s * x + c
    return acc + p * s


def _binet(w: complex) -> complex:
    # J(w) = sum B_2j / ((2j-1)(2j) w^(2j-1)); caller guarantees |w| >= 8
    # and |arg w| <= 3pi/4 (or much larger |w| near the angle bound).
    iw = 1.0 / w
    return _tail(_BINET, iw, iw * iw, 0j)


def _psi_tail(w: complex) -> complex:
    # S(w) = sum B_2j / (2j w^(2j)), the tail of psi(w) ~ log w - 1/(2w) - S.
    iw2 = 1.0 / (w * w)
    return _tail(_PSI_TAIL, iw2, iw2, 0j)


def _psi1_tail(w: complex) -> complex:
    # S'(w)-type tail: psi'(w) ~ 1/w + 1/(2w^2) + sum B_2j w^(-2j-1).
    iw = 1.0 / w
    iw2 = iw * iw
    return _tail(_PSI1_TAIL, iw2 * iw, iw2, 0j)


def _psi_pair_right(w: complex) -> tuple[complex, complex]:
    # (psi(w), psi'(w)) for Re w >= 1/2 by one recurrence shift: psi's
    # series is taken at the first |w| >= 8 and psi''s at the first
    # |w| >= 10 (|w| grows with each step right of Re w = 0)
    s0 = s1 = 0j
    a = abs(w)
    while a < 8.0:
        s0 += 1.0 / w
        s1 += 1.0 / (w * w)
        w += 1.0
        a = abs(w)
    ps = cmath.log(w) - 0.5 / w - _psi_tail(w) - s0
    while a < 10.0:
        s1 += 1.0 / (w * w)
        w += 1.0
        a = abs(w)
    iw = 1.0 / w
    return ps, iw + 0.5 * iw * iw + _psi1_tail(w) + s1


def psi_pair(z: complex) -> tuple[complex, complex]:
    """(psi(z), psi'(z)) from one pole test, one conjugation into the upper
    half-plane and, left of Re z = 1/2, one reflection through e^{2 pi i z}:
    psi(z) = psi(1-z) - pi cot(pi z), psi'(z) = pi^2/sin^2(pi z) - psi'(1-z).

    PoleError at the poles 0, -1, -2, ..., and also within rounding of one
    (|Im z| below about 6e-18 at Re z = -n), where e^{2 pi i z} rounds to 1
    and the reflection would divide by 0. Nearer a pole than about 1e-154
    off that line, psi' exceeds binary64 and comes back infinite."""
    z = complex(z)
    if _is_nonpositive_integer(z):
        raise PoleError(f"psi pole at {z}")
    lower = z.imag < 0.0
    if lower:
        z = z.conjugate()
    if z.real < 0.5:
        # cot(pi z) = i + 2i/(e - 1) and 1/sin^2(pi z) = -4e/(1 - e)^2 with
        # e = e^{2 pi i z}: neither overflows for Im z >= 0. 1 - z lies in
        # the lower half-plane when Im z > 0, so its pair is conjugated.
        e = _exp2pi(z)
        v = 1.0 - z
        if v.imag < 0.0:
            ps, ps1 = _psi_pair_right(v.conjugate())
            ps, ps1 = ps.conjugate(), ps1.conjugate()
        else:
            ps, ps1 = _psi_pair_right(v)
        try:
            inv_sin2 = -4.0 * e / ((1.0 - e) * (1.0 - e))
            ps = ps - math.pi * (1j + 2j / (e - 1.0))
        except ZeroDivisionError:
            raise PoleError(f"psi: sin(pi z) rounds to 0 at {z}") from None
        ps1 = math.pi * math.pi * inv_sin2 - ps1
    else:
        ps, ps1 = _psi_pair_right(z)
    if lower:
        return ps.conjugate(), ps1.conjugate()
    return ps, ps1


def digamma(z: complex) -> complex:
    """psi(z) = Gamma'(z)/Gamma(z)."""
    return psi_pair(z)[0]


def trigamma(z: complex) -> complex:
    """psi'(z)."""
    return psi_pair(z)[1]


def polygamma(k: int, z: complex) -> complex:
    """psi^(k)(z) for 0 <= k <= 12.

    For k >= 2 the series is reached by shifting z right; where that takes
    more than _N_CAP steps (Re z + Im z < -_N_CAP in the upper half-plane)
    a finite z raises CapacityError before shifting, and a non-finite one
    returns NaN. PoleError at the poles 0, -1, -2, ..., and also where a
    step of the shift lands so near 0 that w^-(k+1) overflows (|Im z|
    below about 1e-308^(1/(k+1)) at Re z = -n); just outside that band the
    value itself exceeds binary64 and comes back infinite."""
    if not 0 <= k <= 12:
        raise DomainError("polygamma order must be in 0..12")
    if k == 0:
        return digamma(z)
    if k == 1:
        return trigamma(z)
    z = complex(z)
    if _is_nonpositive_integer(z):
        raise PoleError(f"polygamma pole at {z}")
    if z.imag < 0.0:
        return polygamma(k, z.conjugate()).conjugate()
    # The shift below runs while Re w < -Im w, so past _N_CAP steps here
    # (forever at Re z = -inf, or where w + 1 == w): refuse before it.
    if not -z.real - z.imag <= _N_CAP:
        if not cmath.isfinite(z):
            return complex(math.nan, math.nan)
        raise CapacityError(
            f"polygamma shift at {z} would exceed {_N_CAP} steps")
    radius = 8.0 + 2.0 * k
    fact_k = math.factorial(k)
    shift = 0j
    w = z
    # Shift right until the Bernoulli series is safe: |w| past the radius and
    # the argument not too close to the cut (wide-angle use needs larger |w|).
    try:
        while abs(w) < radius or (w.real < 0.5 and
                                  not (abs(w) >= 4.0 * radius and
                                       abs(cmath.phase(w)) <= _MAX_ARG)):
            shift += fact_k * w ** (-k - 1)
            w += 1.0
    except (ZeroDivisionError, OverflowError):  # w rounded onto the pole at 0
        raise PoleError(f"polygamma: shift reaches the pole at {z}") from None
    if k % 2 == 0:
        shift = -shift
    # psi^(k)(w) = (-1)^(k-1) [ (k-1)!/w^k + k!/(2 w^(k+1))
    #              + sum_j B_2j (2j+k-1)!/(2j)! w^(-2j-k) ]
    iw = 1.0 / w
    acc = math.factorial(k - 1) * iw ** k + 0.5 * fact_k * iw ** (k + 1)
    acc = _tail(_POLYGAMMA_TAIL[k], iw ** (k + 2), iw * iw, acc)
    if k % 2 == 0:
        acc = -acc
    return acc + shift


def _neumaier_add(s: float, c: float, x: float) -> tuple[float, float]:
    t = s + x
    if abs(s) >= abs(x):
        c += (s - t) + x
    else:
        c += (x - t) + s
    return t, c


_STABLE_RADIUS = 16.0
_MEMO_M = 1024


@functools.lru_cache(maxsize=8)
def _tau_memo(tau_bits: bytes) -> tuple[dict, dict, dict, dict, list]:
    return {}, {}, {}, {}, [None]


def tau_bits(tau: complex) -> bytes:
    """The key of tau in the per-tau memos: its bits, since 0.0 and -0.0
    compare equal but are different inputs."""
    return struct.pack("<2d", tau.real, tau.imag)


def tau_memo(tau: complex) -> tuple[dict, dict, dict, dict, list]:
    """The z-independent work of the evaluations at tau, kept for the last
    8 tau as four tables and a slot: the direct table
    {k: (lgG(w), psi(w), psi'(w))} and the stable one
    {k: (1/w^2, J(w), S(w), S'(w))}, w = k tau, k <= _MEMO_M (apart
    because which branch gn_sum takes at k depends on z), the engine's
    p_rows {k: rows of P_k(z;-tau)}, k <= 16, its
    {len(tail): AsymptoticCoeffs} of the large-z expansion (their b0 is
    read from the engine's own bits-keyed map of 64 tau, _b0_memo, which
    outlives the 8 entries here), and a one-item list holding the
    engine's correction slot: the last (N, M) and the correction at
    (tau, N, M) as a polynomial in z, replaced whole at another (N, M), so
    the entry never grows. gn_sum fills both tables;
    cd_sums fills the direct one for its k < k0, which are also direct
    terms of the product (k0 <= gn_sum's switch point), so the evaluation
    that builds the modular forms first finds them warm.

    Keyed by tau_bits. Threads: lru_cache keeps an entry's lookup
    consistent; the tables and the slot are filled without a lock, with
    deterministic values stored whole and never modified, so a race stores
    the same bits (a concurrent miss may build an entry twice; one is
    kept). Two threads at one tau and different (N, M) may replace each
    other's slot; each reads the slot it built, so neither sees the
    other's values."""
    return _tau_memo(tau_bits(tau))


def _direct_pieces(direct: dict, k: int, w: complex) -> tuple:
    # a missing direct-table entry: lgG, psi and psi' at w = k tau
    p = (loggamma(w), *psi_pair(w))
    if k <= _MEMO_M:
        direct[k] = p
    return p


def _stable_pieces(w: complex) -> tuple:
    # (1/w^2, J(w), S(w), S'(w)): _binet, _psi_tail and _psi1_tail with the
    # powers of 1/w they share taken once and their Horner tails inline,
    # by the same operations in the same order, so the same bits (the
    # 0j + is _tail's acc, which turns a -0.0 part into +0.0)
    iw = 1.0 / w
    iw2 = iw * iw
    inv_w2 = 1.0 / (w * w)
    a = abs(iw2)
    j = s = s1 = 0j
    for c in _BINET.horner[bisect_right(_BINET.limits, a)]:
        j = j * iw2 + c
    for c in _PSI_TAIL.horner[bisect_right(_PSI_TAIL.limits, abs(inv_w2))]:
        s = s * inv_w2 + c
    for c in _PSI1_TAIL.horner[bisect_right(_PSI1_TAIL.limits, a)]:
        s1 = s1 * iw2 + c
    return inv_w2, 0j + iw * j, 0j + inv_w2 * s, 0j + iw2 * iw * s1


def _log1p_tail(u: complex) -> complex:
    # g(u) = log(1+u) - u + u^2/2 = sum_{k>=3} (-1)^(k+1) u^k / k, |u| <= 1/2.
    if abs(u) > 0.109:
        return clog1p(u) - u + 0.5 * u * u
    return _tail(_LOG1P, u * u * u, u, 0j)


def gn_sum(z: complex, tau: complex, N: int) -> complex:
    """sum_{m=1}^{N} [lgG(m tau) - lgG(z + m tau) + z psi(m tau)
    + (z^2/2) psi'(m tau)], sequentially compensated.

    The prefix property matters: for N' < N the first N' terms are computed
    bit-identically, so differences of results at two truncations carry no
    shared-prefix rounding noise. The memoized pieces are the values the
    kernels return, so a warm memo changes no bit either.
    """
    z = complex(z)
    tau = complex(tau)
    z2h = 0.5 * z * z
    z3h = 0.5 * z * z * z
    abs_tau = abs(tau)
    if abs(cmath.phase(tau)) <= _MAX_ARG:
        m_switch = int(math.ceil(max(_STABLE_RADIUS, 2.0 * abs(z)) / abs_tau))
    else:
        m_switch = N + 1
    direct, stable = tau_memo(tau)[:2]
    log1p_limits, log1p_horner = _LOG1P.limits, _LOG1P.horner
    binet_limits, binet_horner = _BINET.limits, _BINET.horner
    sr = cr = si = ci = 0.0
    # the memo lookups, the compensated additions (_neumaier_add) and the
    # stable term with its _log1p_tail and _binet Horners are inlined, by
    # the same operations in the same order, so the same bits: a helper
    # call per term cost a few percent of the sum each
    for m in range(1, N + 1):
        w = m * tau
        if m < m_switch:
            p = direct.get(m)
            if p is None:
                p = _direct_pieces(direct, m, w)
            lg, ps, ps1 = p
            t = lg - loggamma(z + w) + z * ps + z2h * ps1
        else:
            p = stable.get(m)
            if p is None:
                p = _stable_pieces(w)
                if m <= _MEMO_M:
                    stable[m] = p
            # the regrouped r_m with the first two log1p orders cancelled
            # analytically, every intermediate O(|z|^3/|w|^2), the size of
            # r_m itself (|w| >= 16, |z/w| <= 1/2, |arg w| <= 3pi/4):
            #   r_m = z^3/(2 w^2) - (z+w-1/2) g(z/w) - [J(z+w) - J(w)]
            #         - z S(w) + (z^2/2) S'(w),  g(u) = log(1+u) - u + u^2/2
            iw2, jw, sw, s1w = p
            u = z / w
            if abs(u) > 0.109:
                g = clog1p(u) - u + 0.5 * u * u
            else:
                h = 0j
                for c in log1p_horner[bisect_right(log1p_limits, abs(u))]:
                    h = h * u + c
                g = 0j + u * u * u * h
            v = z + w
            iv = 1.0 / v
            x = iv * iv
            h = 0j
            for c in binet_horner[bisect_right(binet_limits, abs(x))]:
                h = h * x + c
            t = (z3h * iw2
                 - (v - 0.5) * g
                 - ((0j + iv * h) - jw)
                 - z * sw
                 + z2h * s1w)
        x = t.real
        s = sr + x
        if abs(sr) >= abs(x):
            cr += (sr - s) + x
        else:
            cr += (x - s) + sr
        sr = s
        x = t.imag
        s = si + x
        if abs(si) >= abs(x):
            ci += (si - s) + x
        else:
            ci += (x - s) + si
        si = s
    return complex(sr + cr, si + ci)


@functools.lru_cache(maxsize=512)
def _power_sums(k0: int, m: int) -> tuple[float, ...]:
    # (H_1, ..., H_27), H_s = sum_{k0<=k<m} k^-s exactly rounded: every
    # order cd_sums' tails can take (see cd_sums for why tau is not in the
    # key). Threads: deterministic values stored whole, as for tau_memo.
    ks = [float(k) for k in range(k0, m)]
    return tuple(math.fsum(map(pow, ks, repeat(-s)))
                 for s in range(1, 2 * len(_B2K) + 2))


def cd_sums(tau: complex, m: int, k0: int):
    """Pieces of sum_{k=1}^{m-1} psi(k tau) and psi'(k tau).

    Returns (psi_small, psi1_small, s0_tail, s1_tail, h1, h2) where the small
    sums run over k < k0 (tau_memo's direct table, filled where missing)
    and for k0 <= k <= m-1:

        s0_tail = sum S(k tau)     [Bernoulli tail of psi]
        s1_tail = sum S'(k tau)    [Bernoulli tail of psi']
        h1      = sum 1/k
        h2      = sum 1/k^2

    so that sum psi(k tau) = psi_small + (m-k0) log tau + lgG(m) - lgG(k0)
    - h1/(2 tau) - s0_tail, with the lgG terms meant to be cancelled
    analytically by the caller, who keeps |k0 tau| in the Stirling regime.

    The tails come from the power sums H_s = sum_{k0<=k<m} k^-s, which are
    memoized by (k0, m) in ``_power_sums`` (512 keys). tau is not in the
    key because the H_s do not involve it. modular_forms_em rounds k0 up
    from |tau| and its sector, and the default m from |tau| (and |Im tau|
    at Re tau < 0), so a stream of tau that never repeats still repeats
    (k0, m), and each repeat pays no power sum. A warm memo changes no
    bit: the stored values are those a cold call computes.
    """
    tau = complex(tau)
    direct = tau_memo(tau)[0]
    ps_r = ps_c = ps_i = ps_ci = 0.0
    p1_r = p1_c = p1_i = p1_ci = 0.0
    # the compensated additions (_neumaier_add) inlined, as in gn_sum
    for k in range(1, min(k0, m)):
        p = direct.get(k)
        if p is None:
            p = _direct_pieces(direct, k, k * tau)
        _, t, t1 = p
        x = t.real
        s = ps_r + x
        if abs(ps_r) >= abs(x):
            ps_c += (ps_r - s) + x
        else:
            ps_c += (x - s) + ps_r
        ps_r = s
        x = t.imag
        s = ps_i + x
        if abs(ps_i) >= abs(x):
            ps_ci += (ps_i - s) + x
        else:
            ps_ci += (x - s) + ps_i
        ps_i = s
        x = t1.real
        s = p1_r + x
        if abs(p1_r) >= abs(x):
            p1_c += (p1_r - s) + x
        else:
            p1_c += (x - s) + p1_r
        p1_r = s
        x = t1.imag
        s = p1_i + x
        if abs(p1_i) >= abs(x):
            p1_ci += (p1_i - s) + x
        else:
            p1_ci += (x - s) + p1_i
        p1_i = s
    psi_small = complex(ps_r + ps_c, ps_i + ps_ci)
    psi1_small = complex(p1_r + p1_c, p1_i + p1_ci)
    if k0 >= m:
        return psi_small, psi1_small, 0j, 0j, 0.0, 0.0
    # The sums over k swapped with the tails' sums over j: with the power
    # sums H_s = sum_{k0<=k<m} k^-s (h[s - 1]),
    #   sum S(k tau)  = sum_j (B_2j/2j) tau^-2j H_2j,
    #   sum S'(k tau) = sum_j B_2j tau^(-2j-1) H_(2j+1).
    # H_(s+2j) <= k0^-2j H_s, so each j-series falls at least as fast as
    # the tail at k0 tau, and takes that tail's count.
    x = 1.0 / (tau * tau)
    ax = abs(x) / (k0 * k0)
    c0 = _PSI_TAIL.horner[bisect_right(_PSI_TAIL.limits, ax)]
    c1 = _PSI1_TAIL.horner[bisect_right(_PSI1_TAIL.limits, ax)]
    h = _power_sums(k0, m)
    s0 = s1 = 0j
    for j, c in enumerate(c0):
        s0 = s0 * x + c * h[2 * (len(c0) - j) - 1]
    for j, c in enumerate(c1):
        s1 = s1 * x + c * h[2 * (len(c1) - j)]
    return psi_small, psi1_small, x * s0, x * s1 / tau, h[0], h[1]


def backend_name() -> str:
    """Name of the kernel implementation: always "pure", the only one there is.

    Kept as a stable name because benchmark result files record it.
    """
    return "pure"
