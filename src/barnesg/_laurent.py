"""Finite Laurent series in one real variable with complex coefficients.

Used to build cancellation-safe small-x branches for integrands whose terms
are individually singular at 0 while their sum is finite: the series algebra
performs the cancellation exactly (to roundoff), and the assembled regular
part is evaluated by Horner.
"""

from __future__ import annotations

# B_2j / (2j)! for T(y) = 1/(1-e^-y) - 1/y = 1/2 + sum B_2j y^(2j-1)/(2j)!
_T_COEFF = (
    1.0 / 12.0,
    -1.0 / 720.0,
    1.0 / 30240.0,
    -1.0 / 1209600.0,
    1.0 / 47900160.0,
    -691.0 / 1307674368000.0,
    1.0 / 74724249600.0,
    -3617.0 / 10670622842880000.0,
    43867.0 / 5109094217170944000.0,
    -174611.0 / 802857662698291200000.0,
)

#: number of coefficients carried through the series algebra
WIDTH = 26


class Laurent:
    """value(x) = sum_i c[i] * x**(off + i); fixed width, truncating algebra."""

    __slots__ = ("off", "c")

    def __init__(self, off: int, coeffs):
        self.off = off
        self.c = list(coeffs)[:WIDTH]
        while len(self.c) < WIDTH:
            self.c.append(0j)

    @staticmethod
    def one() -> "Laurent":
        return Laurent(0, [1.0 + 0j])

    @staticmethod
    def exp_series(a: complex) -> "Laurent":
        """exp(a x)."""
        cs = [1.0 + 0j]
        for n in range(1, WIDTH):
            cs.append(cs[-1] * a / n)
        return Laurent(0, cs)

    @staticmethod
    def t_series(a: complex) -> "Laurent":
        """T(a x) with T(y) = 1/(1 - e^-y) - 1/y (analytic at 0)."""
        cs = [0j] * WIDTH
        cs[0] = 0.5 + 0j
        p = complex(a)
        for j, coeff in enumerate(_T_COEFF):
            idx = 2 * j + 1
            if idx >= WIDTH:
                break
            cs[idx] = coeff * p
            p *= a * a
        return Laurent(0, cs)

    @staticmethod
    def s_series(a: complex) -> "Laurent":
        """S(a x) = 1/(1 - e^(-a x)) = 1/(a x) + T(a x)."""
        t = Laurent.t_series(a)
        return Laurent(-1, [1.0 / a] + t.c[:-1])

    def __add__(self, other: "Laurent") -> "Laurent":
        off = min(self.off, other.off)
        cs = [0j] * WIDTH
        for i, v in enumerate(self.c):
            j = i + self.off - off
            if j < WIDTH:
                cs[j] += v
        for i, v in enumerate(other.c):
            j = i + other.off - off
            if j < WIDTH:
                cs[j] += v
        return Laurent(off, cs)

    def __sub__(self, other: "Laurent") -> "Laurent":
        return self + other.scaled(-1.0)

    def __mul__(self, other: "Laurent") -> "Laurent":
        cs = [0j] * WIDTH
        for i, a in enumerate(self.c):
            if a == 0:
                continue
            top = WIDTH - i
            for j in range(top):
                b = other.c[j]
                if b != 0:
                    cs[i + j] += a * b
        return Laurent(self.off + other.off, cs)

    def scaled(self, s: complex) -> "Laurent":
        return Laurent(self.off, [s * v for v in self.c])

    def shifted(self, k: int) -> "Laurent":
        """Multiply by x**k."""
        return Laurent(self.off + k, self.c)

    def singular_part_size(self) -> float:
        """Largest |coefficient| attached to a negative power."""
        worst = 0.0
        for i, v in enumerate(self.c):
            if i + self.off < 0:
                worst = max(worst, abs(v))
        return worst

    def regular_scale(self) -> float:
        return max((abs(v) for i, v in enumerate(self.c) if i + self.off >= 0),
                   default=0.0)

    def regular_coeffs(self) -> list[complex]:
        """Coefficients of x^0, x^1, ... (negative powers dropped)."""
        if self.off >= 0:
            return [0j] * self.off + list(self.c)
        return list(self.c[-self.off:])

    def eval_regular(self, x: float) -> complex:
        """Horner evaluation of the regular part at x."""
        acc = 0j
        for v in reversed(self.regular_coeffs()):
            acc = acc * x + v
        return acc
