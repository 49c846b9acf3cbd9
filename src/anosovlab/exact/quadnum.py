"""Exact arithmetic in a real quadratic field Q(sqrt(D)).

All eigen-data of one hyperbolic matrix lives in a single field, so a
QuadNum carries its D along and refuses to mix fields.  Signs are decided
by rational comparisons only; nothing here touches floating point except
the explicit conversion helpers.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt


def square_free_decompose(n):
    """Write n > 0 as f^2 * d with d square-free; return (f, d)."""
    if n <= 0:
        raise ValueError("positive integer required")
    f, d = 1, 1
    p = 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            f *= p ** (e // 2)
            if e % 2:
                d *= p
        p += 1 if p == 2 else 2
    d *= n
    return f, d


def is_perfect_square(n):
    return n >= 0 and isqrt(n) ** 2 == n


class QuadNum:
    """a + b*sqrt(D) with a, b rational and D a square-free integer > 1."""

    __slots__ = ("a", "b", "D")

    def __init__(self, a, b=0, D=1):
        self.a = Fraction(a)
        self.b = Fraction(b)
        self.D = int(D)
        if self.D < 1:
            raise ValueError("D must be a positive integer")
        if self.D == 1:
            # sqrt(1) = 1: fold into the rational part so D=1 means "rational"
            self.a += self.b
            self.b = Fraction(0)

    def _coerce(self, other):
        if isinstance(other, QuadNum):
            if other.D != self.D and other.b != 0 and self.b != 0:
                raise ValueError("cannot mix sqrt(%d) and sqrt(%d)" % (self.D, other.D))
            D = self.D if self.b != 0 or other.b == 0 else other.D
            return QuadNum(other.a, other.b, other.D if other.b else D)
        if isinstance(other, (int, Fraction)):
            return QuadNum(other, 0, self.D)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        D = self.D if self.b else o.D
        return QuadNum(self.a + o.a, self.b + o.b, D)

    __radd__ = __add__

    def __neg__(self):
        return QuadNum(-self.a, -self.b, self.D)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        D = self.D if self.b else o.D
        return QuadNum(
            self.a * o.a + self.b * o.b * D,
            self.a * o.b + self.b * o.a,
            D,
        )

    __rmul__ = __mul__

    def norm(self):
        """Field norm a^2 - b^2 D, a rational."""
        return self.a * self.a - self.b * self.b * self.D

    def inverse(self):
        n = self.norm()
        if n == 0:
            raise ZeroDivisionError("zero or degenerate QuadNum")
        return QuadNum(self.a / n, -self.b / n, self.D)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return self * o.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __eq__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return False
        return self.a == o.a and self.b == o.b and (self.b == 0 or self.D == o.D)

    def __hash__(self):
        return hash((self.a, self.b, self.D if self.b else 1))

    def is_zero(self):
        return self.a == 0 and self.b == 0

    def sign(self):
        """Exact sign in {-1, 0, +1}; never evaluates sqrt(D) numerically."""
        a, b = self.a, self.b
        if b == 0:
            return 0 if a == 0 else (1 if a > 0 else -1)
        if a == 0:
            return 1 if b > 0 else -1
        if a > 0 and b > 0:
            return 1
        if a < 0 and b < 0:
            return -1
        # opposite signs: compare a^2 against b^2 D
        cmp = a * a - b * b * self.D
        if cmp == 0:
            # sqrt(D) rational: impossible for square-free D > 1, but a
            # caller may have built D=1 values; then a = -b and value is 0
            return 0
        bigger_rational = cmp > 0
        if a > 0:  # b < 0
            return 1 if bigger_rational else -1
        return -1 if bigger_rational else 1

    def __lt__(self, other):
        o = self._coerce(other)
        return (self - o).sign() < 0

    def __le__(self, other):
        o = self._coerce(other)
        return (self - o).sign() <= 0

    def __gt__(self, other):
        o = self._coerce(other)
        return (self - o).sign() > 0

    def __ge__(self, other):
        o = self._coerce(other)
        return (self - o).sign() >= 0

    def __float__(self):
        return float(self.a) + float(self.b) * float(self.D) ** 0.5

    def to_mpf(self, prec=200):
        """High-precision value, used only by floating shadow oracles."""
        import mpmath

        with mpmath.workprec(prec):
            return mpmath.mpf(self.a.numerator) / self.a.denominator + (
                mpmath.mpf(self.b.numerator) / self.b.denominator
            ) * mpmath.sqrt(self.D)

    def __repr__(self):
        return "QuadNum(%s, %s, D=%d)" % (self.a, self.b, self.D)


def quad_sign(x):
    """Sign of a QuadNum (or rational), exactly."""
    if isinstance(x, QuadNum):
        return x.sign()
    x = Fraction(x)
    return 0 if x == 0 else (1 if x > 0 else -1)
