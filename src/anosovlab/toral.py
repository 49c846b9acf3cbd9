"""Hyperbolic toral automorphisms: eigen-data and periodic orbits.

A trace > 2 matrix in SL(2,Z) acts on the torus; its finite orbits index
the Lagrangian cylinders of the associated torus-bundle domain.  Eigen
values and eigen-directions are kept exact in Q(sqrt(D)), D the square-free
part of tr^2 - 4; only the expansion exponent nu = log(lambda+) is stored
as a float.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .exact import IntMatrix, QuadNum, smith_normal_form
from .exact.quadnum import is_perfect_square, square_free_decompose


class NotHyperbolic(ValueError):
    pass


class NotUnimodular(ValueError):
    pass


def parse_matrix(text):
    """Row-major "a b c d" -> 2x2 IntMatrix."""
    parts = text.replace(",", " ").split()
    if len(parts) != 4:
        raise ValueError("expected four integers, got %r" % text)
    a, b, c, d = (int(p) for p in parts)
    return IntMatrix([[a, b], [c, d]])


@dataclass(frozen=True)
class HyperbolicToral:
    """Exact eigen-data of a positive hyperbolic SL(2,Z) matrix."""

    A: IntMatrix
    D: int                      # square-free part of tr^2 - 4
    lambda_plus: QuadNum        # e^nu
    lambda_minus: QuadNum       # e^-nu
    vx: tuple                   # expanding eigenvector, QuadNum coordinates
    vy: tuple                   # contracting eigenvector
    nu: float
    # (L, ((p, q) x 4)): L * c = p + q sqrt(D) for c = vy[1], vy[0], vx[0],
    # vx[1].  As det(vx, vy) = 1, w = a vx + b vy has a = wx c0 - wy c1 and
    # b = wy c2 - wx c3, linear in w.
    eigen_int: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        coeffs = (self.vy[1], self.vy[0], self.vx[0], self.vx[1])
        L = math.lcm(*(r.denominator for c in coeffs for r in (c.a, c.b)))
        object.__setattr__(self, "eigen_int", (
            L, tuple((int(c.a * L), int(c.b * L)) for c in coeffs)))

    def check_residuals(self):
        """A vx - lambda+ vx and A vy - lambda- vy, exactly zero by design."""
        res = []
        for vec, lam in ((self.vx, self.lambda_plus), (self.vy, self.lambda_minus)):
            img = (
                self.A.rows[0][0] * vec[0] + self.A.rows[0][1] * vec[1],
                self.A.rows[1][0] * vec[0] + self.A.rows[1][1] * vec[1],
            )
            res.append((img[0] - lam * vec[0], img[1] - lam * vec[1]))
        return res


def eigen_data(A):
    """Exact eigenvalues/eigenvectors of a trace > 2 matrix in SL(2,Z)."""
    if A.m != 2 or A.n != 2:
        raise ValueError("2x2 matrix required")
    if A.det() != 1:
        raise NotUnimodular("det = %d, expected 1" % A.det())
    t = A.trace()
    if t <= 2:
        raise NotHyperbolic("trace = %d, need trace > 2" % t)
    disc = t * t - 4
    # trace > 2 wedges disc strictly between (t-1)^2 and t^2, so sqrt(disc)
    # is irrational: this is the certificate that no lattice vector is an
    # eigen-direction.
    assert not is_perfect_square(disc)
    f, D = square_free_decompose(disc)
    half = Fraction(1, 2)
    lam_p = QuadNum(half * t, half * f, D)
    lam_m = QuadNum(half * t, -half * f, D)
    (a, b), (c, d) = A.rows
    if b != 0:
        vx = (QuadNum(b, 0, D), lam_p - a)
        vy = (QuadNum(b, 0, D), lam_m - a)
    else:
        vx = (lam_p - d, QuadNum(c, 0, D))
        vy = (lam_m - d, QuadNum(c, 0, D))
    # orient both eigenvectors into the upper half-plane (positive last
    # nonzero coordinate) so cone conventions are reproducible
    def orient(v):
        s = v[1].sign() if v[1].sign() != 0 else v[0].sign()
        return v if s > 0 else (-v[0], -v[1])

    vx, vy = orient(vx), orient(vy)
    # P in SL(2,R) forces det(vx, vy) = 1; the determinant lives in
    # Q(sqrt(D)) so the rescaling is exact
    det = vx[0] * vy[1] - vx[1] * vy[0]
    if det.sign() < 0:
        vx = (-vx[0], -vx[1])
        det = -det
    vy = (vy[0] / det, vy[1] / det)
    vx, vy = _pin_irrational_edges(vx, vy, lam_p, lam_m)
    nu = math.log(float(lam_p))
    return HyperbolicToral(A=A, D=D, lambda_plus=lam_p, lambda_minus=lam_m,
                           vx=vx, vy=vy, nu=nu)


def _direction_is_rational(e):
    """Exact test: does the vector e (QuadNum pair) span a rational line?"""
    ex, ey = e
    if ex.is_zero() or ey.is_zero():
        return True
    return (ey / ex).b == 0


def _pin_irrational_edges(vx, vy, lam_p, lam_m):
    """Rescale (vx, vy) -> (u vx, vy/u) until no chord-cone edge is rational.

    The cones of both ends are spanned by s*vx + vy and
    s*lam_m*vx + lam_p*vy for s = +-1; a rational edge would put lattice
    points on the cone boundary and break the open-cone convention.  The
    rescaling preserves det(vx, vy) = 1 and only shifts the slope origin."""
    candidates = [Fraction(1), Fraction(2), Fraction(1, 2), Fraction(3),
                  Fraction(1, 3), Fraction(5), Fraction(1, 5), Fraction(7)]
    for u in candidates:
        wx = (vx[0] * u, vx[1] * u)
        wy = (vy[0] / u, vy[1] / u)
        edges = []
        for s in (1, -1):
            edges.append((s * wx[0] + wy[0], s * wx[1] + wy[1]))
            edges.append(
                (
                    s * lam_m * wx[0] + lam_p * wy[0],
                    s * lam_m * wx[1] + lam_p * wy[1],
                )
            )
        if not any(_direction_is_rational(e) for e in edges):
            return wx, wy
    raise AssertionError("no rescaling with irrational cone edges found")


def torus_apply(A, p):
    """Image of a rational torus point under A, canonicalized to [0,1)^2."""
    x = A.rows[0][0] * p[0] + A.rows[0][1] * p[1]
    y = A.rows[1][0] * p[0] + A.rows[1][1] * p[1]
    return (Fraction(x) % 1, Fraction(y) % 1)


def fixed_points_raw(A, n):
    """Integer form of the A^n-fixed-point lattice: (den, [(nx, ny), ...]).

    (A^n - I) v in Z^2 is solved exactly: with U B V = S and w = V^-1 v,
    the solutions are w = (k1/d1, k2/d2); points are returned as integer
    numerators over den = d1 d2, the point of (k1, k2) at index k1 d2 + k2.
    The count equals |det(A^n - I)| = |tr(A^n) - 2|, and injectivity of V
    mod Z^2 makes the list duplicate free."""
    _, _, den, raw = _fixed_point_lattice(A, n)
    return den, raw


def _fixed_point_lattice(A, n):
    """(d1, d2, den, raw): the SNF diagonal of A^n - I, d1 | d2, and the
    points of fixed_points_raw."""
    if n < 1:
        raise ValueError("n >= 1 required")
    B = A.pow(n) - IntMatrix.identity(2)
    if B.det() == 0:
        raise NotHyperbolic("A^n - I singular; matrix not hyperbolic")
    snf = smith_normal_form(B)
    d1, d2 = snf.diagonal
    (v00, v01), (v10, v11) = snf.V.rows
    den = d1 * d2
    col0 = [(v00 * k1 * d2, v10 * k1 * d2) for k1 in range(d1)]
    col1 = [(v01 * k2 * d1, v11 * k2 * d1) for k2 in range(d2)]
    return d1, d2, den, [((x0 + x1) % den, (y0 + y1) % den)
                         for x0, y0 in col0 for x1, y1 in col1]


def fixed_points(A, n):
    """All rational p in [0,1)^2 with A^n p = p mod Z^2, via SNF."""
    den, pts = fixed_points_raw(A, n)
    fr = _fractions_over(den)
    # one common denominator: integer order is the order of the points
    return [(fr[x], fr[y]) for x, y in sorted(pts)]


def _fractions_over(den):
    """Fraction(k, den) for 0 <= k < den, each built once: the den = d1 d2
    points of fixed_points_raw have their coordinates among them."""
    return [Fraction(k, den) for k in range(den)]


@dataclass(frozen=True)
class PeriodicOrbit:
    """A primitive A-orbit on the torus, listed from its smallest point."""

    points: tuple               # tuple of (Fraction, Fraction), A-iteration order
    period: int


def periodic_cycles(A, n):
    """The A-orbits of exact period n in integer form: (den, cycles).

    cycles is an iterator of lists of fixed_points_raw pairs, each in
    A-iteration order from the orbit's least point.  Every point traces its
    cycle only until the first smaller point, so the least point alone
    traces it to the end and no set of seen points is kept; the cycles come
    in the order of their least points in fixed_points_raw, one at a time.

    The fixed points form the group Z/d1 g1 + Z/d2 g2, g1 = V (1/d1, 0) and
    g2 = V (0, 1/d2), with k1 g1 + k2 g2 at index k1 d2 + k2, and A maps it
    to itself linearly.  So two lookups place A g1 and A g2, the successor
    of every index follows from them, and a trace step is one table lookup."""
    d1, d2, den, raw = _fixed_point_lattice(A, n)
    (a, b), (c, d) = A.rows

    def image(i):
        """(k1, k2) of A times the point at index i."""
        x, y = raw[i]
        return divmod(raw.index(((a * x + b * y) % den, (c * x + d * y) % den)), d2)

    # indices d2 and 1 hold g1 and g2, and wrap to the origin when trivial
    (u1, u2), (w1, w2) = image(d2 % den), image(1 % den)
    succ = [((k1 * u1 + k2 * w1) % d1) * d2 + (k1 * u2 + k2 * w2) % d2
            for k1 in range(d1) for k2 in range(d2)]

    def cycles():
        for i, p in enumerate(raw):
            cycle = [p]
            j = succ[i]
            while raw[j] > p:
                cycle.append(raw[j])
                j = succ[j]
            # closed at p, and not a shorter cycle listed at its own period
            if j == i and len(cycle) == n:
                yield cycle

    return den, cycles()


def orbits_up_to_period(A, N):
    """Primitive orbits of period <= N, sorted by (period, smallest point).

    One denominator per period makes integer order the order of the points,
    so sorting the integer cycles of periodic_cycles sorts the orbits."""
    orbits = []
    for n in range(1, N + 1):
        den, cycles = periodic_cycles(A, n)
        fr = _fractions_over(den)
        orbits.extend(
            PeriodicOrbit(points=tuple([(fr[x], fr[y]) for x, y in cycle]),
                          period=n)
            for cycle in sorted(cycles))
    return orbits


def orbit_point_count(pi, n):
    """sum_{d|n} d * pi(d) from period counts pi (period -> orbits): the
    A^n-fixed points that the orbits of period dividing n account for."""
    return sum(d * pi.get(d, 0) for d in range(1, n + 1) if n % d == 0)


def orbit_count_identity(A, n):
    """Value both sides of sum_{d|n} d * pi(d) = |tr(A^n) - 2| must take."""
    return abs(A.pow(n).trace() - 2)
