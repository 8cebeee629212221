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
                      + z^2/2 psi'(m tau)]: term by term from the kernels
                      below its switch point, and from there on, where m tau
                      is deep in the Stirling regime, all at once with the
                      sums swapped: the rest of the sum past a is one
                      polynomial in z per (tau, a), whose coefficients come
                      from Hurwitz zeta values at the integer a (``_series``,
                      ``_zeta_row``), so its cost does not grow with N. The
                      kernel values are memoized per tau (``tau_memo``, one
                      ``TauEntry`` record each), and the coefficient sets
                      in one LRU keyed by (tau, a, e) (``_series``). Its
                      loop is ``_gn_parts``, which with no N sums every
                      term, m >= 1, as the direct terms and S(m_switch)
                      alone: the engine's automatic product.
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
finds those of its direct terms warm (TauEntry says where k0 passes its
switch point).

Every Bernoulli-type tail (``_tail``) is a Horner polynomial whose length
is read from a table of limits on its argument, built at import per
coefficient set: the least count whose first omitted term is below 1e-18 of
the first kept one. No term is tested as it is summed. gn_sum's swapped
series are cut instead by proven bounds on what they leave (``_k_row``,
``_series``), and their tables are built on first use.

Everything is deterministic: sums run sequentially in index order with
Neumaier compensation or exactly (``math.fsum``), so repeated calls are
bit-identical.
"""

from __future__ import annotations

import cmath
import functools
import math
import operator
import struct
from array import array
from bisect import bisect_right
from itertools import accumulate, repeat

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


# Binet-series coefficients b_j = B_2j / ((2j-1)(2j)), j = 1..13.
_BJ = tuple(b / ((2 * j + 1) * (2 * j + 2)) for j, b in enumerate(_B2K))
_BINET = _Series(_BJ)
# psi tail coefficients B_2j / (2j).
_PSI_TAIL = _Series(b / (2 * (j + 1)) for j, b in enumerate(_B2K))
# psi' tail coefficients B_2j.
_PSI1_TAIL = _Series(_B2K)
# psi^(k) tail coefficients B_2j (2j+k-1)! / (2j)!, for k = 2..12.
_POLYGAMMA_TAIL = {
    k: _Series(b * math.factorial(2 * j + k - 1) / math.factorial(2 * j)
               for j, b in enumerate(_B2K, start=1))
    for k in range(2, 13)}

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


# gn_sum regroups its terms from the switch point on, where every z + m tau
# lies at least _CUT_MARGIN from the cut: the radius where lgG's 13 Binet
# terms reach 2^-60 (_switch_point)
_CUT_MARGIN = 8.0
_MEMO_M = 1024
# gn_sum's S(a) (see _series) is cut where a proven bound on the rest falls
# below _SERIES_EPS |z|, and each coefficient's Binet sum where the bounds
# of the terms it leaves out sum below _BINET_EPS |z|. The scaled Hurwitz
# rows the coefficients are built from are kept for up to _ZETA_KEYS
# integers a
_SERIES_EPS = 2.0 ** -56
_BINET_EPS = 2.0 ** -60
_ZETA_KEYS = 512
# Euler-Maclaurin coefficients B_2j / (2j)!, j = 1..13
_EM = tuple(b / math.factorial(2 * j + 2) for j, b in enumerate(_B2K))


def _cut_distance(w: complex) -> float:
    """Distance from w to the cut (-inf, 0]: |w| at Re w >= 0, else
    |Im w|."""
    if w.real >= 0.0:
        return abs(w)
    return abs(w.imag)


def _switch_point(z: complex, tau: complex) -> int:
    """gn_sum's switch point at |arg tau| <= 3pi/4, the first m it regroups:
    a = ceil(max((8 + |z|)/d(tau), 2|z|/|tau|)), d = _cut_distance. From a
    on, every z + m tau lies at least _CUT_MARGIN = 8 from the cut and
    |z/(m tau)| <= 1/2, so R = a|tau| >= 8 + |z| (d <= |tau|) and R >= 2|z|.
    For |z| >= 8 at Re tau >= 0 it is ceil(2|z|/|tau|)."""
    az = abs(z)
    return math.ceil(max((_CUT_MARGIN + az) / _cut_distance(tau),
                         2.0 * az / abs(tau)))


class TauEntry:
    """The z-independent work of the evaluations at one tau (tau_memo):
    * direct: {k: (lgG(w), psi(w), psi'(w))}, w = k tau, k <= _MEMO_M,
      filled by gn_sum for its direct terms, below _switch_point, and by
      cd_sums for its k < k0, so the evaluation that builds the modular
      forms first finds them warm. At Re tau >= 0, k0 = ceil(8/|tau|) is
      at most the switch point. At Re tau < 0, k0 = ceil(16/|tau|) can
      pass it, which at small |z| is about 8/|Im tau|: there cd_sums also
      builds the entries from the switch point to k0 - 1, whose psi and
      psi' the modular forms read and whose lgG no product term reads;
    * p_rows: the engine's {k: rows of P_k(z;-tau)}, k <= 16, filled by
      engine._coefficients for a plan (explicit, or read from an
      automatic result's params_used) and for the correction of an
      explicit one;
    * coeffs: the engine's AsymptoticCoeffs of the large-z expansion, or
      None (their b0 is read from the engine's own bits-keyed map of 64
      tau, _b0_memo, which outlives the 8 entries of tau_memo)."""

    __slots__ = ("direct", "p_rows", "coeffs")

    def __init__(self):
        self.direct = {}
        self.p_rows = {}
        self.coeffs = None


@functools.lru_cache(maxsize=8)
def _tau_memo(tau_bits: bytes) -> TauEntry:
    return TauEntry()


def tau_bits(tau: complex) -> bytes:
    """The key of tau in the per-tau memos: its bits, since 0.0 and -0.0
    compare equal but are different inputs."""
    return struct.pack("<2d", tau.real, tau.imag)


def tau_memo(tau: complex) -> TauEntry:
    """tau's TauEntry, kept for the last 8 tau, keyed by tau_bits.

    Threads: lru_cache keeps an entry's lookup consistent; the tables and
    fields are filled without a lock, with deterministic values stored
    whole and never modified, so a race stores the same bits (a concurrent
    miss may build an entry twice; one is kept)."""
    return _tau_memo(tau_bits(tau))


def _direct_pieces(direct: dict, k: int, w: complex) -> tuple:
    # a missing direct-table entry: lgG, psi and psi' at w = k tau
    p = (loggamma(w), *psi_pair(w))
    if k <= _MEMO_M:
        direct[k] = p
    return p


def _scaled_zeta(a: int, p: int) -> float:
    # a^p T_p(a) = sum_{n>=a} (a/n)^p, p >= 2: the terms below b by
    # math.fsum, the rest by Euler-Maclaurin at b. b reaches 0.8 (p + 26),
    # where the series' terms fall by 0.04 or more each, so that its 13
    # terms reach 2^-60, unless (a/b)^p < 2^-62 comes first. x^-p has
    # derivatives of alternating sign, so the error is below the first
    # term not taken: the series stops at the first term below 2^-60 of
    # the sum, or at the first that does not fall.
    fa = float(a)
    b = max(a, min(math.ceil(0.8 * (p + 26)),
                   math.ceil(fa * 2.0 ** (62.0 / p))))
    head = math.fsum([(fa / n) ** p for n in range(a, b)])
    scale = (fa / b) ** p
    ib = 1.0 / b
    ib2 = ib * ib
    lead = b / (p - 1.0) + 0.5
    floor = 2.0 ** -60 * (head + scale * lead)
    tail, prev = 0.0, math.inf
    r = p * ib                        # (p)_(2j-1) b^(1-2j) at j = 1
    for j, e in enumerate(_EM):
        t = e * r
        at = scale * abs(t)
        if at < floor or at >= prev:
            break
        tail += t
        prev = at
        r *= (p + 2 * j + 1) * (p + 2 * j + 2) * ib2
    return head + scale * (lead + tail)


_zeta_rows: dict = {}


def _zeta_row(a: int, p: int) -> array:
    """row[q] = a^q T_q(a) = sum_{n>=a} (a/n)^q for q = 0 .. p at least:
    the Hurwitz zeta at the integer a, scaled to stay near 1 + a/(q - 1)
    (row[0] and row[1] are unused zeros). Kept in one map of up to
    _ZETA_KEYS rows keyed by a, a row replaced whole by a longer one when
    asked past its end, and the map emptied when full. Each value depends
    on (a, q) alone, so the bits never depend on what the map held.
    Threads: as for tau_memo."""
    row = _zeta_rows.get(a)
    if row is None or len(row) <= p:
        start = array("d", (0.0, 0.0)) if row is None else row
        row = start + array("d", [_scaled_zeta(a, q)
                                  for q in range(len(start), p + 1)])
        if len(_zeta_rows) >= _ZETA_KEYS:
            _zeta_rows.clear()
        _zeta_rows[a] = row
    return row


@functools.lru_cache(maxsize=256)
def _k_row(k: int) -> tuple:
    """(f1, f2, g, |g|, fall, beta) for the z^k coefficient of S(a), k >= 3:
    the same at every (tau, a), built on first use; g, |g| and beta's last
    field are compact arrays. fall is the largest ratio |g_(j+1)| / |g_j|,
    so that each of Binet's terms in c_k is at most fall R^-2 times the one
    before.

    With u = z/w, w = m tau, the z^k coefficient of -lgG(z + w) from
    Stirling's series is w^(1-k) times f1 (from (z + w - 1/2) log(1 + u)),
    plus w^-k times f2, plus w^(1-k-2j) times g_j = (-1)^(k+1) b_j
    C(2j+k-2, k) from Binet's term b_j (w + z)^(1-2j), b_j =
    B_2j/((2j-1)2j), j = 1..13.

    beta = (l, h, B) bounds what these series leave after u^k, summed over
    m >= a, at |u| <= 1/2: as R rho^(k+1) a^k T_k(a) beta(R), R = a|tau|,
    rho = |z|/R, beta(R) = l + h/R + sum_j B_j R^-2j. The log
    term's two series leave at most |w| |u|^(k+1)/(k(k+1)) and
    |u|^(k+1)/(2(k+1)), each over 1 - |u| >= 1/2, and sum to
    R rho^(k+1) a^k T_k(a) times l = 2/(k(k+1)) and h/R, h = 1/(k+1).
    Binet's term j leaves at most B_j R^-2j in the same unit:
    |b_j| C(2j+k-1, k+1) |u|^(k+1) / (1 - q) while the ratio of its
    consecutive terms stays below q = (2j+k)/(2(k+2)) < 1, and else, by
    Cauchy's bound on |u| = 3/4, 3 |b_j| 4^(2j-1) (4/3)^(k+1) |u|^(k+1);
    summed over m it carries R^-2j. _series takes beta at its own R, which
    is at least 8 + |z| from the switch point on."""
    # c0 = C(2j+k-2, k) and c1 = C(2j+k-1, k+1) are carried from j to j + 1
    sign = 1.0 if k % 2 else -1.0
    cauchy = 0.75 * (4.0 / 3.0) ** (k + 1)
    g, size, binet, c0, c1 = [], [], [], 1.0, 1.0
    for j, b in enumerate(_BJ, start=1):
        size.append(abs(b) * c0)
        g.append(sign * size[-1] if b > 0.0 else -sign * size[-1])
        cauchy *= 16.0                           # 3 4^(2j-1) (4/3)^(k+1)
        q = (2 * j + k) / (2.0 * (k + 2))
        binet.append(abs(b) * c1 / (1.0 - q) if q < 1.0 else abs(b) * cauchy)
        c0 *= (2 * j + k - 1) * (2 * j + k) / ((2 * j - 1) * 2 * j)
        c1 *= (2 * j + k) * (2 * j + k + 1) / ((2 * j - 1) * 2 * j)
    return (sign / (k * (k - 1)), sign * 0.5 / k, array("d", g),
            array("d", size), max(map(operator.truediv, size[1:], size)),
            (2.0 / (k * (k + 1)), 1.0 / (k + 1), array("d", binet)))


# keyed by tau's bits as well as tau, as the engine's _b0_memo, so that 0.0
# and -0.0 stay apart
@functools.lru_cache(maxsize=64)
def _series(tau_bits: bytes, tau: complex, a: int,
            e: int) -> tuple[complex, ...]:
    """The coefficients c_K .. c_3, highest first, of
    S(a) = sum_{m>=a} r_m(z) = sum_{k=3}^{K} c_k z^k + rest, good for every
    z with rho = |z|/R < 2^e <= 1/2, R = a|tau| (at least 8 + |z| from the
    switch point on).

    The Taylor series of -lgG(z + m tau) from Stirling's series
    (_k_row), summed over m >= a first: with Y = 1/(a tau) and
    X_p = Y^p a^p T_p(a) = sum_{m>=a} (m tau)^-p (_zeta_row),
      c_k = f1 X_(k-1) + f2 X_k + sum_j g_j X_(k-1+2j),
    that is (-1)^(k+1) [X_(k-1)/(k(k-1)) + X_k/(2k)
                        + sum_j b_j C(2j+k-2, k) X_(k-1+2j)].
    Binet's term j is bounded, at the class' largest rho, by
    |g_j| R^-2j a^(k-1) T_(k-1)(a) 2^(e(k-1)) |z|, and the sum takes j
    while that bound is at least (1 - q) _BINET_EPS |z|, with q = R^-2
    times _k_row's fall: each term left out is at most q times the one
    before, so together they stay below _BINET_EPS |z|, at the actual R
    (near R = 8 they can fall slowly; at q >= 1 every term is taken). K is
    the least count whose rest, at most R rho^(K+1) a^K T_K(a) beta_K(R)
    (_k_row), is below _SERIES_EPS |z| for every rho < 2^e:
    2^(eK) a^K T_K(a) beta_K(R) <= _SERIES_EPS. Each value depends on
    (tau, a, e) alone. Threads: as for tau_memo."""
    y = 1.0 / (a * tau)
    r = a * abs(tau)
    x2 = 1.0 / (r * r)
    # R^-2j, a list: tuple() of an iterator builds by resizing, so the
    # tuples it frees pile up in the interpreter's free list of their size
    r2j = list(accumulate(repeat(x2, len(_BJ)), operator.mul))
    rc = math.ldexp(1.0, e)
    row = _zeta_row(a, 6)
    K, rk = 3, rc * rc * rc
    while True:
        l, h, binet = _k_row(K)[5]
        # beta_K(R): its Binet part, a small share, is summed only once the
        # log part alone passes
        x = rk * row[K] * (l + h / r)
        if x <= _SERIES_EPS and x + rk * row[K] * sum(
                map(operator.mul, binet, r2j)) <= _SERIES_EPS:
            break
        K += 1
        rk *= rc
        if len(row) <= K:
            row = _zeta_row(a, K + 3)
    ys, xs, coeffs = [1.0 + 0j], [], []
    lead = rc * rc / _BINET_EPS       # rc^(k-1) / _BINET_EPS at k = 3
    for k in range(3, K + 1):
        f1, f2, g, size, fall, _ = _k_row(k)
        bound, n, stop = lead * row[k - 1], 0, 1.0 - fall * x2   # 1 - q
        for c in size:
            bound *= x2
            if bound * c < stop:
                break
            n += 1
        top = k + 2 * n                  # X_k and X_(k-1+2n)
        if len(xs) <= top:
            top += 4
            if len(row) <= top:
                row = _zeta_row(a, top)
            more = accumulate(repeat(y, top + 1 - len(ys)), operator.mul,
                              initial=ys[-1])
            next(more)                    # ys[-1] itself
            ys.extend(more)
            n0 = len(xs)
            xs.extend(map(operator.mul, ys[n0:], row[n0:top + 1]))
        c = xs[k - 1] * f1 + xs[k] * f2
        for j in range(n):
            c += g[j] * xs[k + 1 + 2 * j]
        coeffs.append(c)
        lead *= rc
    return tuple(reversed(coeffs))


def gn_sum(z: complex, tau: complex, N: int) -> complex:
    """sum_{m=1}^{N} r_m(z), r_m(z) = lgG(m tau) - lgG(z + m tau)
    + z psi(m tau) + (z^2/2) psi'(m tau), sequentially compensated.

    Below the switch point m_switch = ceil(max((8 + |z|)/d, 2|z|/|tau|)),
    d the distance from tau to the cut (_switch_point), each term is taken
    from the kernels, memoized per tau (tau_memo). From it on, where every
    z + m tau lies at least 8 from the cut and |z/(m tau)| <= 1/2, the
    terms are summed all at once, as S(m_switch) - S(N + 1) with
    S(a) = sum_{m>=a} r_m(z): a polynomial in z whose coefficients come
    from Hurwitz zeta values at a (_series), so the cost does not grow
    with N. A coefficient set serves a class of z: those with
    rho = |z|/(a|tau|) in [2^(e-1), 2^e) for e < -1, and in [1/4, 1/2] for
    e = -1 (rho <= 1/2 here). The last 64 sets built are kept, keyed by
    (tau, a, e), so one set serves every N with m_switch or N + 1 at a. At
    |arg tau| > 3pi/4 every term is direct; at z = 0 every r_m is 0.

    The two S values enter the compensated sum as two more terms. So the
    prefix property holds bit for bit up to m_switch: for N' < N the first
    min(N', m_switch - 1) terms, and S(m_switch) when N' >= m_switch, have
    the same bits, so differences of results at two truncations carry no
    shared-prefix rounding noise. The memoized values are those a cold
    call computes, so a warm memo changes no bit either. The sum is
    _gn_parts' compensated pair, rounded once.
    """
    sr, cr, si, ci, _ = _gn_parts(z, tau, N)
    return complex(sr + cr, si + ci)


def _gn_parts(z: complex, tau: complex, N: int | None = None) -> tuple:
    """(sr, cr, si, ci, cut): the compensated real and imaginary sums of
    gn_sum's terms before their last rounding (gn_sum returns
    complex(sr + cr, si + ci)), and the bound that _series proves on what
    its S values leave, (_SERIES_EPS + (K - 2) _BINET_EPS) |z| for each
    set of K - 2 coefficients.

    N None sums every term, m >= 1, as the direct terms below m_switch
    plus S(m_switch) alone; |arg tau| <= 3pi/4 only, where the terms are
    regrouped from m_switch on. The engine's automatic product reads it.
    """
    z = complex(z)
    tau = complex(tau)
    z2h = 0.5 * z * z
    az = abs(z)
    abs_tau = abs(tau)
    if abs(cmath.phase(tau)) <= _MAX_ARG:
        m_switch = _switch_point(z, tau)
    else:
        m_switch = N + 1
    bits = tau_bits(tau)
    direct = _tau_memo(bits).direct
    sr = cr = si = ci = cut = 0.0
    # the memo lookups and the compensated additions (_neumaier_add) are
    # inlined, by the same operations in the same order, so the same bits:
    # a helper call per term cost a few percent of the sum each
    for m in range(1, m_switch if N is None else min(N + 1, m_switch)):
        w = m * tau
        p = direct.get(m)
        if p is None:
            p = _direct_pieces(direct, m, w)
        lg, ps, ps1 = p
        t = lg - loggamma(z + w) + z * ps + z2h * ps1
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
    if N is None:
        ends = ((m_switch, 1.0),)
    elif N >= m_switch:
        ends = ((m_switch, 1.0), (N + 1, -1.0))
    else:
        ends = ()
    if az and ends:
        z3 = z * z * z
        for a, sign in ends:
            e = min(math.frexp(az / (a * abs_tau))[1], -1)
            coeffs = _series(bits, tau, a, e)
            h = 0j
            for c in coeffs:
                h = h * z + c
            t = sign * (z3 * h)
            sr, cr = _neumaier_add(sr, cr, t.real)
            si, ci = _neumaier_add(si, ci, t.imag)
            cut += (_SERIES_EPS + len(coeffs) * _BINET_EPS) * az
    return sr, cr, si, ci, cut


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
    direct = tau_memo(tau).direct
    ps_r = ps_c = ps_i = ps_ci = 0.0
    p1_r = p1_c = p1_i = p1_ci = 0.0
    for k in range(1, min(k0, m)):
        p = direct.get(k)
        if p is None:
            p = _direct_pieces(direct, k, k * tau)
        _, t, t1 = p
        ps_r, ps_c = _neumaier_add(ps_r, ps_c, t.real)
        ps_i, ps_ci = _neumaier_add(ps_i, ps_ci, t.imag)
        p1_r, p1_c = _neumaier_add(p1_r, p1_c, t1.real)
        p1_i, p1_ci = _neumaier_add(p1_i, p1_ci, t1.imag)
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
