"""Plane curves for the exact Lagrangian tori and cylinders.

A closed curve beta = (f, g) in the strip |y| < eps = tanh(delta) winding
once around the origin bounds an exact torus precisely when its weighted
area int dx dy / (1 - y^2) equals 2 pi.  A closed curve is a cycle of
smooth pieces, each evaluated in its own parameter u from 0 to its length;
the stadium and the rounded rectangle are one table of four straight runs
and four quarter arcs, in local arclength.  The weighted area is the
boundary integral of x/(1-y^2) dy by adaptive Gauss-Legendre quadrature
piece by piece, and the winding number sums the angle swept piece by
piece.  The stadium's weighted area is linear in its segment length, so
the exact-area length is a closed form.
"""

from __future__ import annotations

import bisect
import heapq
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

_GL_NODES, _GL_WEIGHTS = (a.tolist() for a in np.polynomial.legendre.leggauss(20))
_WINDING_STEPS = 64      # uniform steps per piece before bisection


class OriginOnCurve(ValueError):
    pass


class SelfIntersecting(ValueError):
    pass


class OutOfStrip(ValueError):
    pass


class NoBracket(ValueError):
    pass


@dataclass(frozen=True)
class StripSpec:
    """Width parameter of the ambient strip: eps = tanh(delta) < 1."""

    delta: float

    def __post_init__(self):
        if self.delta <= 0:
            raise ValueError("delta > 0 required")

    @property
    def eps(self):
        return math.tanh(self.delta)


@dataclass
class PlaneCurve:
    """Closed parametrized curve with derivatives.

    The curve is the cycle `pieces` of (length, at) pairs, at(u) =
    (x, y, x', y') for 0 <= u <= length; `breakpoints` are the piece starts
    followed by the period.  Given pieces, the period, breakpoints and
    f, g, fp, gp follow from them; given f, g, fp, gp and a period, there is
    one piece per breakpoint interval, or one for the whole period."""

    f: object = None
    g: object = None
    fp: object = None
    gp: object = None
    period: float = None
    breakpoints: tuple = ()
    meta: dict = field(default_factory=dict)
    pieces: tuple = ()

    def __post_init__(self):
        if self.pieces:
            self.breakpoints = tuple(itertools.accumulate(
                (length for length, _ in self.pieces), initial=0.0))
            self.period = self.breakpoints[-1]
            self.f, self.g, self.fp, self.gp = (
                (lambda s, i=i: self.at(s)[i]) for i in range(4))
        else:
            self.breakpoints = self.breakpoints or (0.0, self.period)
            self.pieces = tuple(
                (b - a, self._shifted(a))
                for a, b in zip(self.breakpoints, self.breakpoints[1:]))

    def _shifted(self, a):
        f, g, fp, gp = self.f, self.g, self.fp, self.gp
        return lambda u: (f(a + u), g(a + u), fp(a + u), gp(a + u))

    def at(self, s):
        """(x, y, x', y') at s, by one piece lookup."""
        s %= self.period
        k = _piece(self.breakpoints, s)
        return self.pieces[k][1](s - self.breakpoints[k])

    def point(self, s):
        return self.at(s)[:2]

    def sample(self, n=2048):
        ss = np.linspace(0.0, self.period, n, endpoint=False)
        pts = np.array([self.point(s) for s in ss])
        return ss, pts


def _segment(x0, y0, dx, dy):
    return lambda u: (x0 + u * dx, y0 + u * dy, dx, dy)


def _arc(cx, cy, rho, a0):
    def at(u):
        a = a0 + u / rho
        c, s = math.cos(a), math.sin(a)
        return (cx + rho * c, cy + rho * s, -s, c)

    return at


def _racetrack(flat, vert, rho, meta):
    """Counterclockwise runs of length flat, vert, flat, vert joined by
    quarter arcs of radius rho, centred at the origin, from the left end of
    the bottom run; a run may have length 0."""
    cx, cy = flat / 2, vert / 2
    arc = math.pi * rho / 2
    return PlaneCurve(meta=meta, pieces=(
        (flat, _segment(-cx, -cy - rho, 1.0, 0.0)),
        (arc, _arc(cx, -cy, rho, -math.pi / 2)),
        (vert, _segment(cx + rho, -cy, 0.0, 1.0)),
        (arc, _arc(cx, cy, rho, 0.0)),
        (flat, _segment(cx, cy + rho, -1.0, 0.0)),
        (arc, _arc(-cx, cy, rho, math.pi / 2)),
        (vert, _segment(-cx - rho, cy, 0.0, -1.0)),
        (arc, _arc(-cx, -cy, rho, math.pi)),
    ))


def stadium_curve(seg_length, h):
    """Counterclockwise stadium: y = +-h segments, radius-h caps, arclength.

    Encloses the origin for any seg_length >= 0, h > 0."""
    if h <= 0:
        raise ValueError("cap radius h > 0 required")
    L = float(seg_length)
    return _racetrack(L, 0.0, h,
                      {"family": "stadium", "seg_length": L, "h": h})


def rounded_rectangle(width, h, corner_radius):
    """Counterclockwise rounded rectangle [-w/2, w/2] x [-h, h], arclength.

    Independent corner radius (<= h); corner_radius = h degenerates to the
    stadium.  As corner_radius -> 0 the weighted area tends to the full
    rectangle integral width * 2 artanh(h)."""
    rho = float(corner_radius)
    if not 0 < rho <= h:
        raise ValueError("0 < corner_radius <= h required")
    W = float(width)
    if W - 2 * rho < 0:
        raise ValueError("width too small for the corner radius")
    return _racetrack(W - 2 * rho, 2 * (h - rho), rho,
                      {"family": "rounded-rectangle", "width": W,
                       "h": h, "corner_radius": rho})


def _piece(starts, s):
    """Index of the piece [starts[k], starts[k + 1]) holding s, 0 <= s < P;
    s on a breakpoint belongs to the last piece starting there."""
    return min(bisect.bisect_right(starts, s) - 1, len(starts) - 2)


def _angle(at, u):
    x, y = at(u)[:2]
    if math.hypot(x, y) < 1e-12:
        raise OriginOnCurve("curve passes through the origin")
    return math.atan2(y, x)


def _swept(at, lo, hi, a_lo, a_hi):
    """Angle swept from at(lo) to at(hi), halving [lo, hi] until each step
    turns by less than pi/2."""
    d = (a_hi - a_lo + math.pi) % (2 * math.pi) - math.pi
    if abs(d) < math.pi / 2:
        return d
    mid = 0.5 * (lo + hi)
    if not lo < mid < hi:
        raise OriginOnCurve("angle increments do not settle")
    a_mid = _angle(at, mid)
    return _swept(at, lo, mid, a_lo, a_mid) + _swept(at, mid, hi, a_mid, a_hi)


def winding_number(curve):
    """Degree about the origin: the angle swept piece by piece, from
    positions only."""
    total = 0.0
    for length, at in curve.pieces:
        if length <= 0:
            continue
        us = [length * i / _WINDING_STEPS for i in range(_WINDING_STEPS + 1)]
        angles = [_angle(at, u) for u in us]
        total += sum(_swept(at, us[i], us[i + 1], angles[i], angles[i + 1])
                     for i in range(_WINDING_STEPS))
    return int(round(total / (2 * math.pi)))


def assert_in_strip(curve, eps, n=4096):
    _, pts = curve.sample(n)
    worst = float(np.max(np.abs(pts[:, 1])))
    if worst >= eps:
        raise OutOfStrip("max |y| = %g >= eps = %g" % (worst, eps))
    return worst


def assert_simple(curve, n=2048):
    """Jordan-curve certification by a vectorized segment sweep."""
    _, pts = curve.sample(n)
    nxt = np.roll(pts, -1, axis=0)
    lo = np.minimum(pts, nxt)
    hi = np.maximum(pts, nxt)
    for i in range(n):
        # bounding-box prefilter against all non-adjacent segments
        js = np.arange(i + 2, n if i > 0 else n - 1)
        if len(js) == 0:
            continue
        box = ~(
            (hi[js, 0] < lo[i, 0]) | (lo[js, 0] > hi[i, 0])
            | (hi[js, 1] < lo[i, 1]) | (lo[js, 1] > hi[i, 1])
        )
        cand = js[box]
        for j in cand:
            if _segments_cross(pts[i], nxt[i], pts[j], nxt[j]):
                raise SelfIntersecting("segments %d and %d cross" % (i, j))
    return True


def _segments_cross(p1, p2, q1, q2):
    def orient(a, b, c):
        v = float((b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0]))
        return (v > 0) - (v < 0)

    return (
        orient(p1, p2, q1) * orient(p1, p2, q2) < 0
        and orient(q1, q2, p1) * orient(q1, q2, p2) < 0
    )


def _gauss(fn, at, a, b):
    c, r = 0.5 * (a + b), 0.5 * (b - a)
    return r * sum(w * fn(*at(c + r * x)) for x, w in zip(_GL_NODES, _GL_WEIGHTS))


def _integrate(fn, curve, tol):
    """int fn(x, y, x', y') over one period, by globally adaptive 20-point
    Gauss-Legendre on each piece in its own parameter.

    Each interval carries the rule on its two halves; the one whose halves
    disagree most with the whole is split, until the disagreements sum to
    at most tol or 200 intervals are in use (then the estimate stands and
    the caller's residual checks decide)."""

    def entry(at, lo, hi, whole):
        mid = 0.5 * (lo + hi)
        left, right = _gauss(fn, at, lo, mid), _gauss(fn, at, mid, hi)
        return (-abs(left + right - whole), lo, hi, left, right)

    total = 0.0
    for length, at in curve.pieces:
        if length <= 0:
            continue
        heap = [entry(at, 0.0, length, _gauss(fn, at, 0.0, length))]
        while -sum(e[0] for e in heap) > tol and len(heap) < 200:
            _, lo, hi, left, right = heapq.heappop(heap)
            mid = 0.5 * (lo + hi)
            heapq.heappush(heap, entry(at, lo, mid, left))
            heapq.heappush(heap, entry(at, mid, hi, right))
        total += sum(e[3] + e[4] for e in heap)
    return total


def weighted_area(curve, tol=1e-10):
    """Boundary evaluation of int_D dx dy / (1 - y^2) via x/(1-y^2) dy."""
    _, pts = curve.sample(512)
    if float(np.max(np.abs(pts[:, 1]))) >= 1.0:
        raise OutOfStrip("curve leaves |y| < 1 where the form is singular")
    return _integrate(lambda x, y, xp, yp: x * yp / (1.0 - y * y), curve, tol)


def build_exact_beta(delta, height_frac=0.9):
    """Stadium curve with weighted area exactly 2 pi, in the delta-strip.

    The stadium of segment length L and cap radius h is a rectangle plus a
    disk, so area(L) = 2 L artanh(h) + 2 pi (1 - sqrt(1 - h^2)) and the
    length is L = pi sqrt(1 - h^2) / artanh(h); the quadrature area must
    then agree with 2 pi to 1e-8."""
    strip = StripSpec(delta)
    if not 0 < height_frac < 1:
        raise ValueError("height_frac in (0, 1) required")
    eps = strip.eps
    h = height_frac * eps
    target = 2 * math.pi
    curve = stadium_curve(math.pi * math.sqrt(1 - h * h) / math.atanh(h), h)
    curve.meta.update({"delta": delta, "eps": eps, "height_frac": height_frac})
    area = weighted_area(curve)
    if abs(area - target) > 1e-8:
        raise NoBracket("closed-form length misses area 2 pi by %g"
                        % (area - target))
    assert winding_number(curve) == 1
    assert_in_strip(curve, eps)
    assert_simple(curve)
    return curve


def verify_exactness(curve, delta=None, n=1000):
    """Residuals of the two exactness conditions of the torus embedding.

    (i) the longitude component of the pulled-back Liouville form vanishes
    pointwise: cosh(artanh g) g - sinh(artanh g) = 0;
    (ii) the meridian period equals 2 pi * winding - weighted area, which
    vanishes exactly on a curve with weighted area 2 pi."""
    eps = curve.meta.get("eps")
    if delta is not None:
        eps = math.tanh(delta)
    if eps is not None:
        assert_in_strip(curve, eps)
    ss = np.linspace(0.0, curve.period, n, endpoint=False)
    worst = 0.0
    for s in ss:
        gv = curve.g(s)
        at = math.atanh(gv)
        worst = max(worst, abs(math.cosh(at) * gv + math.sinh(-at)))

    def integrand(x, y, xp, yp):
        return -x * yp / (1.0 - y * y) + (x * yp - y * xp) / (x * x + y * y)

    period = _integrate(integrand, curve, 1e-12)
    area = weighted_area(curve)
    wind = winding_number(curve)
    return {
        "pointwise_residual": worst,
        "period_residual": period,
        "consistency": abs(period - (2 * math.pi * wind - area)),
        "weighted_area": area,
        "winding": wind,
    }
