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


def _canonical_point(p):
    """Representative of a rational torus point in [0,1)^2."""
    return (Fraction(p[0]) % 1, Fraction(p[1]) % 1)


def torus_apply(A, p):
    """Image of a rational torus point under A, canonicalized."""
    x = A.rows[0][0] * p[0] + A.rows[0][1] * p[1]
    y = A.rows[1][0] * p[0] + A.rows[1][1] * p[1]
    return _canonical_point((x, y))


def fixed_points_raw(A, n):
    """Integer form of the A^n-fixed-point lattice: (den, [(nx, ny), ...]).

    (A^n - I) v in Z^2 is solved exactly: with U B V = S and w = V^-1 v,
    the solutions are w = (k1/d1, k2/d2); points are returned as integer
    numerators over den = d1 d2.  The count equals |det(A^n - I)| =
    |tr(A^n) - 2|, and injectivity of V mod Z^2 makes the list duplicate
    free."""
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
    return den, [((x0 + x1) % den, (y0 + y1) % den)
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

    @property
    def denominator(self):
        d = 1
        for x, y in self.points:
            d = d * x.denominator // math.gcd(d, x.denominator)
            d = d * y.denominator // math.gcd(d, y.denominator)
        return d

    def __contains__(self, p):
        return _canonical_point(p) in set(self.points)


def _orbit_of_int(A, p, den):
    (a, b), (c, d) = A.rows
    pts = [p]
    q = ((a * p[0] + b * p[1]) % den, (c * p[0] + d * p[1]) % den)
    while q != p:
        pts.append(q)
        q = ((a * q[0] + b * q[1]) % den, (c * q[0] + d * q[1]) % den)
    return pts


def orbits_up_to_period(A, N):
    """Primitive orbits of period <= N, sorted by (period, smallest point).

    The orbits of period n are the A-cycles of length n among the A^n-fixed
    points; cycles are traced in the integer form of fixed_points_raw, where
    one denominator makes integer order the order of the points."""
    orbits = []
    for n in range(1, N + 1):
        den, raw = fixed_points_raw(A, n)
        seen = set()
        cycles = []
        for p in raw:
            if p in seen:
                continue
            cycle = _orbit_of_int(A, p, den)
            seen.update(cycle)
            if len(cycle) == n:  # shorter cycles were listed at their period
                i = cycle.index(min(cycle))
                cycles.append(cycle[i:] + cycle[:i])
        cycles.sort()
        fr = _fractions_over(den)
        orbits.extend(
            PeriodicOrbit(points=tuple([(fr[x], fr[y]) for x, y in cycle]),
                          period=n)
            for cycle in cycles)
    return orbits


def orbit_count_identity(A, n):
    """Value both sides of sum_{d|n} d * pi(d) = |tr(A^n) - 2| must take."""
    return abs(A.pow(n).trace() - 2)
