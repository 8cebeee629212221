"""Numerical kernels: the hot spots of the package, in plain Python.

* ``loggamma``      - principal branch of log Gamma, analytic on C minus
                      (-inf, 0], via a 15-term rational (Lanczos-type)
                      approximation plus reflection/conjugation.
* ``digamma``/``trigamma`` - psi and psi' by recurrence shift + Bernoulli
                      asymptotic series, reflection in the left half-plane.
* ``gn_sum``        - the truncated-product log sum
                      sum_{m=1..N} [lgG(m tau) - lgG(z+m tau) + z psi(m tau)
                      + z^2/2 psi'(m tau)],
                      evaluated term-wise through a cancellation-free regrouped
                      form once m tau is deep in the Stirling regime.
* ``cd_sums``       - the partial psi/psi' sums feeding the gamma modular
                      forms, split into a small-k direct part and Bernoulli
                      tail pieces so that no intermediate grows with m.

Everything is deterministic: sums run sequentially in index order with
Neumaier compensation, so repeated calls are bit-identical.
"""

from __future__ import annotations

import cmath
import math

from .errors import DomainError, PoleError

EULER_GAMMA = 0.5772156649015328606065120900824024
LN_2PI = math.log(2.0 * math.pi)
_HALF_LN_2PI = 0.5 * LN_2PI

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

# Binet-series coefficients B_2j / ((2j-1)(2j)).
_BINET = tuple(b / ((2 * j + 1) * (2 * j + 2)) for j, b in enumerate(_B2K))
# psi tail coefficients B_2j / (2j).
_PSI_TAIL = tuple(b / (2 * (j + 1)) for j, b in enumerate(_B2K))

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


def clog1p(u: complex) -> complex:
    """log(1+u), accurate for small |u| (principal branch)."""
    x, y = u.real, u.imag
    re = 0.5 * math.log1p(2.0 * x + x * x + y * y)
    im = math.atan2(y, 1.0 + x)
    return complex(re, im)


def _is_nonpositive_integer(z: complex) -> bool:
    return z.imag == 0.0 and z.real <= 0.0 and z.real == math.floor(z.real)


def _logsinpi_upper(z: complex) -> complex:
    # log sin(pi z) branch valid for Im z >= 0: sin(pi z) =
    # (i/2) e^{-i pi z} (1 - e^{2 pi i z}).
    return (complex(-math.log(2.0), 0.5 * math.pi)
            - 1j * math.pi * z
            + clog1p(-cmath.exp(2j * math.pi * z)))


def _loggamma_right(z: complex) -> complex:
    # Re z >= 0.5 only.
    a = _LANCZOS_C[0]
    for k in range(1, 15):
        a += _LANCZOS_C[k] / (z - 1.0 + k)
    t = z + (_LANCZOS_G - 0.5)
    return (_HALF_LN_2PI + (z - 0.5) * cmath.log(t) - t + cmath.log(a))


def loggamma(z: complex) -> complex:
    """Principal log Gamma: analytic on C minus (-inf, 0], real on (0, inf)."""
    z = complex(z)
    if _is_nonpositive_integer(z):
        raise PoleError(f"log Gamma pole at {z}")
    if z.imag < 0.0:
        return loggamma(z.conjugate()).conjugate()
    if z.real >= 0.5:
        return _loggamma_right(z)
    return math.log(math.pi) - _logsinpi_upper(z) - _loggamma_right(1.0 - z)


def loggamma_stirling(z: complex) -> complex:
    """Independent log Gamma route: recurrence shift + Binet series.

    Same branch convention as ``loggamma``; used as an internal cross-check.
    """
    z = complex(z)
    if _is_nonpositive_integer(z):
        raise PoleError(f"log Gamma pole at {z}")
    if z.imag < 0.0:
        return loggamma_stirling(z.conjugate()).conjugate()
    if z.real < 0.5:
        return (math.log(math.pi) - _logsinpi_upper(z)
                - loggamma_stirling(1.0 - z))
    shift = 0j
    w = z
    while abs(w) < 20.0:
        shift += cmath.log(w)
        w += 1.0
    return _binet(w) + (w - 0.5) * cmath.log(w) - w + _HALF_LN_2PI - shift


def _binet(w: complex) -> complex:
    # J(w) = sum B_2j / ((2j-1)(2j) w^(2j-1)); caller guarantees |w| >= 8
    # and |arg w| <= 3pi/4 (or much larger |w| near the angle bound).
    iw = 1.0 / w
    iw2 = iw * iw
    acc = 0j
    p = iw
    for c in _BINET:
        term = c * p
        acc += term
        if abs(term) < 1e-18 * (abs(acc) + 1e-30):
            break
        p *= iw2
    return acc


def _psi_tail(w: complex) -> complex:
    # S(w) = sum B_2j / (2j w^(2j)), the tail of psi(w) ~ log w - 1/(2w) - S.
    iw2 = 1.0 / (w * w)
    acc = 0j
    p = iw2
    for c in _PSI_TAIL:
        term = c * p
        acc += term
        if abs(term) < 1e-18 * (abs(acc) + 1e-30):
            break
        p *= iw2
    return acc


def _psi1_tail(w: complex) -> complex:
    # S'(w)-type tail: psi'(w) ~ 1/w + 1/(2w^2) + sum B_2j w^(-2j-1).
    iw = 1.0 / w
    iw2 = iw * iw
    acc = 0j
    p = iw2 * iw
    for c in _B2K:
        term = c * p
        acc += term
        if abs(term) < 1e-18 * (abs(acc) + 1e-30):
            break
        p *= iw2
    return acc


def _cot_pi(z: complex) -> complex:
    # cot(pi z) for Im z >= 0 without overflow: i + 2i / (e^{2 pi i z} - 1).
    e = cmath.exp(2j * math.pi * z)
    return 1j + 2j / (e - 1.0)


def digamma(z: complex) -> complex:
    """psi(z) = Gamma'(z)/Gamma(z)."""
    z = complex(z)
    if _is_nonpositive_integer(z):
        raise PoleError(f"digamma pole at {z}")
    if z.imag < 0.0:
        return digamma(z.conjugate()).conjugate()
    if z.real < 0.5:
        return digamma(1.0 - z) - math.pi * _cot_pi(z)
    shift = 0j
    w = z
    while abs(w) < 8.0:
        shift += 1.0 / w
        w += 1.0
    return cmath.log(w) - 0.5 / w - _psi_tail(w) - shift


def trigamma(z: complex) -> complex:
    """psi'(z)."""
    z = complex(z)
    if _is_nonpositive_integer(z):
        raise PoleError(f"trigamma pole at {z}")
    if z.imag < 0.0:
        return trigamma(z.conjugate()).conjugate()
    if z.real < 0.5:
        # psi'(z) + psi'(1-z) = pi^2 / sin^2(pi z); stable sin^2 form for
        # the upper half-plane.
        e = cmath.exp(2j * math.pi * z)
        inv_sin2 = -4.0 * e / ((1.0 - e) * (1.0 - e))
        return math.pi * math.pi * inv_sin2 - trigamma(1.0 - z)
    shift = 0j
    w = z
    while abs(w) < 10.0:
        shift += 1.0 / (w * w)
        w += 1.0
    iw = 1.0 / w
    return iw + 0.5 * iw * iw + _psi1_tail(w) + shift


def polygamma(k: int, z: complex) -> complex:
    """psi^(k)(z) for 0 <= k <= 12."""
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
    radius = 8.0 + 2.0 * k
    fact_k = math.factorial(k)
    shift = 0j
    w = z
    # Shift right until the Bernoulli series is safe: |w| past the radius and
    # the argument not too close to the cut (wide-angle use needs larger |w|).
    while abs(w) < radius or (w.real < 0.5 and
                              not (abs(w) >= 4.0 * radius and
                                   abs(cmath.phase(w)) <= 2.356194490192345)):
        shift += fact_k * w ** (-k - 1)
        w += 1.0
    if k % 2 == 0:
        shift = -shift
    # psi^(k)(w) = (-1)^(k-1) [ (k-1)!/w^k + k!/(2 w^(k+1))
    #              + sum_j B_2j (2j+k-1)!/(2j)! w^(-2j-k) ]
    iw = 1.0 / w
    iw2 = iw * iw
    acc = math.factorial(k - 1) * iw ** k + 0.5 * fact_k * iw ** (k + 1)
    p = iw ** (k + 2)
    for j, b in enumerate(_B2K, start=1):
        coeff = b * math.factorial(2 * j + k - 1) / math.factorial(2 * j)
        term = coeff * p
        acc += term
        if abs(term) < 1e-18 * (abs(acc) + 1e-30):
            break
        p *= iw2
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
_MAX_ARG = 2.356194490192345  # 3*pi/4


def _r_term_direct(z: complex, z2h: complex, w: complex) -> complex:
    return (loggamma(w) - loggamma(z + w)
            + z * digamma(w) + z2h * trigamma(w))


def _log1p_tail(u: complex) -> complex:
    # g(u) = log(1+u) - u + u^2/2 = sum_{k>=3} (-1)^(k+1) u^k / k, |u| <= 1/2.
    au = abs(u)
    if au > 0.109:
        return clog1p(u) - u + 0.5 * u * u
    acc = 0j
    p = u * u * u
    k = 3
    floor = 1e-19 * au * au * au
    while True:
        term = p / k
        acc += term if k % 2 == 1 else -term
        if abs(term) < floor or k > 40:
            return acc
        p *= u
        k += 1


def _r_term_stable(z: complex, z2h: complex, w: complex) -> complex:
    # Regrouped r_m with the first two log1p orders cancelled analytically:
    #   r_m = z^3/(2 w^2) - (z+w-1/2) g(z/w) - [J(z+w) - J(w)]
    #         - z S(w) + (z^2/2) S'(w),
    # so every intermediate is O(|z|^3/|w|^2), the size of r_m itself, and
    # the term evaluates to near-relative accuracy. Requires |w| >= 16,
    # |z/w| <= 1/2, |arg w| <= 3pi/4.
    u = z / w
    iw2 = 1.0 / (w * w)
    return (0.5 * z * z * z * iw2
            - (z + w - 0.5) * _log1p_tail(u)
            - (_binet(z + w) - _binet(w))
            - z * _psi_tail(w)
            + z2h * _psi1_tail(w))


def gn_sum(z: complex, tau: complex, N: int) -> complex:
    """sum_{m=1}^{N} [lgG(m tau) - lgG(z + m tau) + z psi(m tau)
    + (z^2/2) psi'(m tau)], sequentially compensated.

    The prefix property matters: for N' < N the first N' terms are computed
    bit-identically, so differences of results at two truncations carry no
    shared-prefix rounding noise.
    """
    z = complex(z)
    tau = complex(tau)
    z2h = 0.5 * z * z
    abs_tau = abs(tau)
    if abs(cmath.phase(tau)) <= _MAX_ARG:
        m_switch = int(math.ceil(max(_STABLE_RADIUS, 2.0 * abs(z)) / abs_tau))
    else:
        m_switch = N + 1
    sr = cr = si = ci = 0.0
    for m in range(1, N + 1):
        w = m * tau
        if m < m_switch:
            t = _r_term_direct(z, z2h, w)
        else:
            t = _r_term_stable(z, z2h, w)
        sr, cr = _neumaier_add(sr, cr, t.real)
        si, ci = _neumaier_add(si, ci, t.imag)
    return complex(sr + cr, si + ci)


def cd_sums(tau: complex, m: int, k0: int):
    """Pieces of sum_{k=1}^{m-1} psi(k tau) and psi'(k tau).

    Returns (psi_small, psi1_small, s0_tail, s1_tail, h1, h2) where the small
    sums run over k < k0 (direct kernel calls) and for k0 <= k <= m-1:

        s0_tail = sum S(k tau)     [Bernoulli tail of psi]
        s1_tail = sum S'(k tau)    [Bernoulli tail of psi']
        h1      = sum 1/k
        h2      = sum 1/k^2

    so that sum psi(k tau) = psi_small + (m-k0) log tau + lgG(m) - lgG(k0)
    - h1/(2 tau) - s0_tail, with the lgG terms meant to be cancelled
    analytically by the caller.
    """
    tau = complex(tau)
    ps_r = ps_c = ps_i = ps_ci = 0.0
    p1_r = p1_c = p1_i = p1_ci = 0.0
    for k in range(1, min(k0, m)):
        t = digamma(k * tau)
        ps_r, ps_c = _neumaier_add(ps_r, ps_c, t.real)
        ps_i, ps_ci = _neumaier_add(ps_i, ps_ci, t.imag)
        t = trigamma(k * tau)
        p1_r, p1_c = _neumaier_add(p1_r, p1_c, t.real)
        p1_i, p1_ci = _neumaier_add(p1_i, p1_ci, t.imag)
    s0 = 0j
    s1 = 0j
    h1 = 0.0
    h2 = 0.0
    s0r = s0c = s0i = s0ci = 0.0
    s1r = s1c = s1i = s1ci = 0.0
    h1s = h1c = 0.0
    h2s = h2c = 0.0
    for k in range(k0, m):
        w = k * tau
        t = _psi_tail(w)
        s0r, s0c = _neumaier_add(s0r, s0c, t.real)
        s0i, s0ci = _neumaier_add(s0i, s0ci, t.imag)
        t = _psi1_tail(w)
        s1r, s1c = _neumaier_add(s1r, s1c, t.real)
        s1i, s1ci = _neumaier_add(s1i, s1ci, t.imag)
        h1s, h1c = _neumaier_add(h1s, h1c, 1.0 / k)
        h2s, h2c = _neumaier_add(h2s, h2c, 1.0 / (k * k))
    s0 = complex(s0r + s0c, s0i + s0ci)
    s1 = complex(s1r + s1c, s1i + s1ci)
    h1 = h1s + h1c
    h2 = h2s + h2c
    psi_small = complex(ps_r + ps_c, ps_i + ps_ci)
    psi1_small = complex(p1_r + p1_c, p1_i + p1_ci)
    return psi_small, psi1_small, s0, s1, h1, h2


def binet_j(w: complex) -> complex:
    """Binet correction J(w) = lgG(w) - (w-1/2)log w + w - log(2 pi)/2.

    Valid in the Stirling regime (|w| >= 8 away from the cut); exposed for the
    regrouped gamma-modular-form assembly.
    """
    return _binet(complex(w))


def psi_tail(w: complex) -> complex:
    """Bernoulli tail S(w) with psi(w) = log w - 1/(2w) - S(w)."""
    return _psi_tail(complex(w))


def backend_name() -> str:
    """Name of the kernel implementation: always "pure", the only one there is.

    Kept as a stable name because benchmark result files record it.
    """
    return "pure"
