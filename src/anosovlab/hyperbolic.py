"""Upper half-plane hyperbolic geometry.

Geodesics are stored by oriented ideal endpoints (extended reals), which
makes the Mobius action a projective map on two numbers.  Everything here
is float geometry with stated tolerances; the combinatorial counts built on
top (triangle windows) are integers robust to the float fuzz because the
configurations tested keep their data away from tangency.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

INF = math.inf


class IdenticalGeodesics(ValueError):
    pass


class Intersecting(ValueError):
    pass


class SharedEndpoint(ValueError):
    pass


class DegenerateConfiguration(ValueError):
    pass


@dataclass(frozen=True)
class Geodesic:
    """Complete geodesic with ideal endpoints a -> b (INF allowed once)."""

    a: float
    b: float

    def __post_init__(self):
        if self.a == self.b:
            raise ValueError("endpoints must be distinct")

    @property
    def is_vertical(self):
        return math.isinf(self.a) or math.isinf(self.b)

    @property
    def foot(self):
        """x-coordinate of a vertical geodesic."""
        return self.b if math.isinf(self.a) else self.a

    @property
    def center(self):
        return 0.5 * (self.a + self.b)

    @property
    def radius(self):
        return 0.5 * abs(self.b - self.a)

    def reversed(self):
        return Geodesic(self.b, self.a)

    def side(self, z):
        """Signed side function: 0 on the geodesic, opposite signs across."""
        if self.is_vertical:
            return z.real - self.foot
        return abs(z - self.center) ** 2 - self.radius**2

    def contains(self, z, tol=1e-9):
        return abs(self.side(z)) <= tol * max(1.0, abs(z) ** 2)

    def tangent_at(self, z):
        """Unit tangent at z pointing from endpoint a toward endpoint b."""
        if self.is_vertical:
            up = math.isinf(self.b)
            return complex(0.0, 1.0 if up else -1.0)
        t = 1j * (z - self.center)
        t /= abs(t)
        # moving toward b means x moves toward b
        if (self.b - z.real) * t.real < 0:
            t = -t
        return t


class Mobius:
    """Element of PSL(2, R), stored with det normalized to 1."""

    __slots__ = ("m",)

    def __init__(self, m):
        m = np.asarray(m, dtype=float)
        det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
        if det <= 0:
            raise ValueError("matrix must have positive determinant")
        self.m = m / math.sqrt(det)

    @classmethod
    def identity(cls):
        return cls(np.eye(2))

    def __matmul__(self, other):
        return Mobius(self.m @ other.m)

    def inverse(self):
        a, b, c, d = self.m.ravel()
        return Mobius(np.array([[d, -b], [-c, a]]))

    def trace(self):
        return float(self.m[0, 0] + self.m[1, 1])

    def apply_boundary(self, x):
        a, b, c, d = self.m.ravel()
        if math.isinf(x):
            return INF if c == 0 else a / c
        den = c * x + d
        if den == 0:
            return INF
        return (a * x + b) / den

    def apply_point(self, z):
        a, b, c, d = self.m.ravel()
        return (a * z + b) / (c * z + d)

    def apply_geodesic(self, g):
        return Geodesic(self.apply_boundary(g.a), self.apply_boundary(g.b))

    def fixed_points(self):
        """Boundary fixed points of a hyperbolic element (repelling, attracting)."""
        a, b, c, d = self.m.ravel()
        tr = a + d
        if abs(tr) <= 2.0 + 1e-14:
            raise ValueError("not a hyperbolic element (|tr| = %g)" % abs(tr))
        if c == 0:
            other = b / (d - a) if d != a else INF
            # a/d = lambda^2; INF attracts iff |a| > |d|
            return (other, INF) if abs(a) > abs(d) else (INF, other)
        disc = math.sqrt(tr * tr - 4.0)
        x1 = (a - d - disc) / (2 * c)
        x2 = (a - d + disc) / (2 * c)
        # attracting fixed point has |derivative| < 1: |cx + d| > 1
        if abs(c * x1 + d) > 1.0:
            return (x2, x1)
        return (x1, x2)

    def translation_length(self):
        tr = abs(self.trace())
        if tr <= 2.0:
            return 0.0
        return 2.0 * math.acosh(tr / 2.0)

    def __repr__(self):
        return "Mobius(%r)" % (self.m.tolist(),)


def _endpoints_separate(g1, g2):
    """True iff the endpoint pairs separate each other on the circle R u inf."""

    def key(x):
        # order boundary points by the angle of the Cayley image
        if math.isinf(x):
            return math.pi
        return 2.0 * math.atan(x)

    a, b = key(g1.a), key(g1.b)
    lo, hi = min(a, b), max(a, b)
    inside = sum(1 for x in (key(g2.a), key(g2.b)) if lo < x < hi)
    return inside == 1


def intersect(g1, g2, tol=1e-12):
    """Intersection point and angle in (0, pi), or None when disjoint."""
    if {g1.a, g1.b} == {g2.a, g2.b}:
        raise IdenticalGeodesics("same unoriented geodesic")
    if not _endpoints_separate(g1, g2):
        return None
    if g1.is_vertical and g2.is_vertical:
        return None  # distinct verticals never meet
    if g1.is_vertical or g2.is_vertical:
        v, c = (g1, g2) if g1.is_vertical else (g2, g1)
        x = v.foot
        y2 = c.radius**2 - (x - c.center) ** 2
        if y2 <= tol:
            return None
        z = complex(x, math.sqrt(y2))
    else:
        c1, r1 = g1.center, g1.radius
        c2, r2 = g2.center, g2.radius
        if c1 == c2:
            return None  # concentric semicircles
        x = (r1**2 - r2**2 + c2**2 - c1**2) / (2.0 * (c2 - c1))
        y2 = r1**2 - (x - c1) ** 2
        if y2 <= tol:
            return None
        z = complex(x, math.sqrt(y2))
    ang = angle_between(g1, g2, z)
    return z, ang


def angle_between(g1, g2, z):
    """Angle in (0, pi) between the oriented tangents at a common point."""
    t1, t2 = g1.tangent_at(z), g2.tangent_at(z)
    c = t1.real * t2.real + t1.imag * t2.imag
    return math.acos(max(-1.0, min(1.0, c)))


def _map_to_axis(g):
    """Mobius taking g to the imaginary axis (a -> 0, b -> inf)."""
    a, b = g.a, g.b
    if math.isinf(b):
        return Mobius(np.array([[1.0, -a], [0.0, 1.0]]))
    if math.isinf(a):
        # send inf -> inf first: z -> -(z - b) maps b->0, inf->inf; then invert
        return Mobius(np.array([[0.0, 1.0], [-1.0, b]]))
    if a < b:
        m = np.array([[1.0, -a], [-1.0, b]])
    else:
        m = np.array([[1.0, -a], [1.0, -b]])
    return Mobius(m)


def hyperbolic_translation(g, length):
    """Translation by `length` along g (toward endpoint b for length > 0)."""
    if length == 0:
        raise ValueError("length must be nonzero")
    N = _map_to_axis(g).inverse()
    h = math.exp(0.5 * length)
    core = Mobius(np.array([[h, 0.0], [0.0, 1.0 / h]]))
    return N @ core @ N.inverse()


@dataclass(frozen=True)
class OrthoChord:
    """Common perpendicular segment between two disjoint geodesics."""

    length: float
    foot1: complex
    foot2: complex
    geodesic: Geodesic


def orthogeodesic(g1, g2):
    """Unique common perpendicular of two disjoint geodesics."""
    shared = {g1.a, g1.b} & {g2.a, g2.b}
    if shared:
        raise SharedEndpoint("geodesics share endpoint(s) %r" % (shared,))
    if intersect(g1, g2) is not None:
        raise Intersecting("geodesics intersect; no common perpendicular")
    M = _map_to_axis(g1)
    h = M.apply_geodesic(g2)
    if h.is_vertical:
        # a vertical line sharing the endpoint inf with the axis: excluded
        raise SharedEndpoint("geodesics share an ideal endpoint at infinity")
    ap, bp = h.a, h.b
    if ap * bp <= 0:
        raise Intersecting("normalized geodesic crosses the axis")
    d = math.acosh(abs(ap + bp) / abs(bp - ap))
    R = math.sqrt(ap * bp) if ap > 0 else -math.sqrt(ap * bp)
    radius = abs(R)
    foot1 = complex(0.0, radius)
    # foot on h: intersection of |z| = radius with the h-semicircle
    x = (radius**2 + h.center**2 - h.radius**2) / (2.0 * h.center)
    y2 = radius**2 - x * x
    foot2 = complex(x, math.sqrt(max(y2, 0.0)))
    perp = Geodesic(-R, R)
    Minv = M.inverse()
    return OrthoChord(
        length=d,
        foot1=Minv.apply_point(foot1),
        foot2=Minv.apply_point(foot2),
        geodesic=Minv.apply_geodesic(perp),
    )


@dataclass(frozen=True)
class TrianglePattern:
    """One admissible immersed-triangle pattern in a translate window."""

    k: int
    vertices: tuple          # (v01, v12, v02) as complex numbers
    angles: tuple
    translate: Geodesic

    @property
    def angle_sum(self):
        return sum(self.angles)

    @property
    def area(self):
        return math.pi - self.angle_sum


def _edge_tangent_toward(v, p):
    """Unit tangent at v of the geodesic through v and p, pointing to p."""
    if abs(v.real - p.real) < 1e-14:
        s = 1.0 if p.imag > v.imag else -1.0
        return complex(0.0, s)
    c = (abs(v) ** 2 - abs(p) ** 2) / (2.0 * (v.real - p.real))
    t = 1j * (v - c)
    t /= abs(t)
    if (p.real - v.real) * t.real < 0:
        t = -t
    return t


def _interior_angle(v, p, q):
    t1 = _edge_tangent_toward(v, p)
    t2 = _edge_tangent_toward(v, q)
    c = t1.real * t2.real + t1.imag * t2.imag
    return math.acos(max(-1.0, min(1.0, c)))


def triangle_enumerate(g0, g1, g2, ell1, K, collision_tol=1e-9):
    """Admissible triangle patterns among translates T^k g2, |k| <= K.

    T is the hyperbolic translation of length ell1 along g1.  A pattern
    requires all three pairwise intersections to exist, the vertices to be
    distinct, and (v01, v12, v02) to be positively (counterclockwise)
    cyclically ordered, matching the cyclic order of the two inputs and the
    output around the triangle.

    The translates are built in the frame A = _map_to_axis(g1), where T is
    z -> e^ell1 z: A(T^k g2) has endpoints e^(k ell1) a', e^(k ell1) b' for
    (a', b') = A(g2), one exponential per k and no matrix powers.  Such a
    translate crosses the axis for every k (a' b' < 0) or for none, and it
    crosses A(g0), with endpoints c- < 0 < c+, exactly when e^(k ell1) lies
    strictly between c-/a- and c+/a+ (a-, a+ the negative and positive one
    of a', b').  Only that window of k, widened by one step on each side
    against rounding, is tested; the per-k tests run in the input frame."""
    if not 0 < ell1 < math.inf:  # also rejects NaN
        raise ValueError("finite ell1 > 0 required")
    if K < 0:
        raise ValueError("K >= 0 required")
    base = intersect(g0, g1)
    if base is None:
        return []
    v01 = base[0]
    A = _map_to_axis(g1)
    ap, bp = A.apply_boundary(g2.a), A.apply_boundary(g2.b)
    a_lo, a_hi = sorted((ap, bp))
    c_lo, c_hi = sorted((A.apply_boundary(g0.a), A.apply_boundary(g0.b)))
    if not (-INF < a_lo < 0 < a_hi < INF and -INF < c_lo < 0 < c_hi < INF):
        return []  # no translate crosses g1 (or g0 does not)
    # k ell1 lies strictly between the two log-ratios; clamping them to
    # +-(K + 2) before rounding leaves the clipped window unchanged
    bound = K + 2.0
    lo, hi = sorted(
        min(max(t / ell1, -bound), bound)
        for t in (math.log(-c_lo) - math.log(-a_lo),
                  math.log(c_hi) - math.log(a_hi)))
    Ainv = A.inverse()
    out = []
    for k in range(max(-K, math.floor(lo) - 1), min(K, math.ceil(hi) + 1) + 1):
        if k == 0:
            h = g2  # exactly, not through the round trip A^-1 A
        else:
            try:
                lam = math.exp(k * ell1)
            except OverflowError:
                break  # this and every later translate is beyond float range
            x = Ainv.apply_boundary(lam * ap)
            y = Ainv.apply_boundary(lam * bp)
            if x == y:
                continue  # narrower than float resolution: meets nothing
            h = Geodesic(x, y)
        try:
            i12 = intersect(g1, h)
            i02 = intersect(g0, h)
        except IdenticalGeodesics:
            continue
        if i12 is None or i02 is None:
            continue
        v12, v02 = i12[0], i02[0]
        if (
            abs(v12 - v01) < collision_tol
            or abs(v02 - v01) < collision_tol
            or abs(v12 - v02) < collision_tol
        ):
            raise DegenerateConfiguration(
                "triple intersection in translate k=%d" % k
            )
        cross = (v12 - v01).real * (v02 - v01).imag - (v12 - v01).imag * (
            v02 - v01
        ).real
        if cross <= 0:
            continue
        angles = (
            _interior_angle(v01, v12, v02),
            _interior_angle(v12, v01, v02),
            _interior_angle(v02, v01, v12),
        )
        out.append(
            TrianglePattern(k=k, vertices=(v01, v12, v02), angles=angles,
                            translate=h)
        )
    return out


def grading_check(k01, k12, k02):
    """Product coefficient vanishes unless k02 = k01 + k12."""
    return k02 == k01 + k12

