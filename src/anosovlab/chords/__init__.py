"""Reeb chords of torus-bundle domains as lattice points in quadratic cones.

A chord from p to q on the +/- end is a translate q~ + (m,n) - p~ lying in
the open cone spanned by the Reeb directions at slope 0 and slope nu.  Cone
membership is decided exactly in Q(sqrt(D)); slopes and actions are derived
floats attached afterwards and never feed back into membership.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

from ..exact import QuadNum
from ..exact.intmat import inverse_unimodular
from ..toral import HyperbolicToral, PeriodicOrbit, torus_apply

BACKEND = "python"  # named in reports; there is one exact pure-Python kernel

__all__ = [
    "BACKEND",
    "ConeSpec",
    "ChordGen",
    "FilteredChordSet",
    "cone_spec",
    "cone_contains",
    "enumerate_chords",
    "chord_slope",
    "enumerate_rational_fibers",
    "hw_rank_table",
    "homotopy_class",
    "class_disjointness",
    "product_candidates",
    "ZeroVector",
    "OutsideCone",
    "MismatchedMonodromy",
    "IncompatibleEndpoints",
]


class ZeroVector(ValueError):
    pass


class OutsideCone(ValueError):
    pass


class MismatchedMonodromy(ValueError):
    pass


class IncompatibleEndpoints(ValueError):
    pass


def _det2(u, v):
    return u[0] * v[1] - u[1] * v[0]


@dataclass(frozen=True)
class ConeSpec:
    """Open cone at a rational apex spanned by two exact edge directions.

    Edges are ordered so det(edge0, edge1) > 0; membership is then two
    strict determinant-sign tests.  slope0_edge records which stored edge
    is the slope-0 Reeb direction (edge order may have been swapped)."""

    apex: tuple
    edge0: tuple
    edge1: tuple
    sign: int
    D: int
    slope0_edge: int = 0

    def contains(self, w):
        return cone_contains(self, w)


def cone_spec(H: HyperbolicToral, sign, apex=(Fraction(0), Fraction(0))):
    """The chord cone of the +/- end: spanned by R_sign(0) and R_sign(nu).

    R_sign(z) is proportional to sign*e^{-z} vx + e^{z} vy, so the edges are
    sign*vx + vy and sign*lambda_minus*vx + lambda_plus*vy (positive scale
    dropped)."""
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    s = QuadNum(sign, 0, H.D)
    e0 = (s * H.vx[0] + H.vy[0], s * H.vx[1] + H.vy[1])
    e1 = (
        s * H.lambda_minus * H.vx[0] + H.lambda_plus * H.vy[0],
        s * H.lambda_minus * H.vx[1] + H.lambda_plus * H.vy[1],
    )
    slope0 = 0
    if _det2(e0, e1).sign() < 0:
        e0, e1 = e1, e0
        slope0 = 1
    apex = (Fraction(apex[0]), Fraction(apex[1]))
    return ConeSpec(apex=apex, edge0=e0, edge1=e1, sign=sign, D=H.D,
                    slope0_edge=slope0)


def cone_contains(cone: ConeSpec, w):
    """Exact strict membership of the rational vector w in the open cone."""
    wx, wy = Fraction(w[0]), Fraction(w[1])
    if wx == 0 and wy == 0:
        raise ZeroVector("zero vector has no direction")
    if _det2(cone.edge0, (wx, wy)).sign() <= 0:
        return False
    if _det2((wx, wy), cone.edge1).sign() <= 0:
        return False
    return True


def _integerized_edges(cone: ConeSpec):
    """Clear denominators of both edges: 8 integers (A0,B0,C0,E0,A1,...)."""
    out = []
    for edge in (cone.edge0, cone.edge1):
        dens = []
        for q in edge:
            dens.append(q.a.denominator)
            dens.append(q.b.denominator)
        lcm = 1
        for d in dens:
            lcm = lcm * d // math.gcd(lcm, d)
        for q in edge:
            out.append(int(q.a * lcm))
            out.append(int(q.b * lcm))
    return tuple(out)


@functools.lru_cache(maxsize=128)
def _cone_coeffs(H, sign):
    """_integerized_edges of the chord cone of H on the given end, built
    once per cone instead of once per enumeration."""
    return _integerized_edges(cone_spec(H, sign))


def _sign(a, b, D):
    """Sign of a + b sqrt(D) for integers a, b and non-square D."""
    x = a if a * a > b * b * D else b
    return (x > 0) - (x < 0)


def _floor_quad(u, v, r, D):
    """floor((u + v sqrt(D)) / r) for integers u, v, r > 0, non-square D.

    floor(v sqrt(D)) is isqrt(v^2 D) for v >= 0 and -isqrt(v^2 D) - 1 for
    v < 0 (v^2 D is not a square), and flooring it first does not change
    the floor of the quotient by the integer r."""
    s = math.isqrt(v * v * D)
    return (u + (s if v >= 0 else -s - 1)) // r


def _half_plane(alpha, gamma, D, den, rxn):
    """Per-row bound on m for the open half-plane gamma*wx < alpha*wy.

    alpha = a + b sqrt(D), gamma = c + e sqrt(D), wx = m*den + rxn.  Returns
    a function of wy giving (lo, hi), the admissible m being lo <= m <= hi
    (an unbounded side is infinite).  With N = c^2 - e^2 D the threshold is
    wx = (alpha/gamma) wy = ((ac - beD) + (bc - ae) sqrt(D)) wy / N."""
    (a, b), (c, e) = alpha, gamma
    N = c * c - e * e * D
    if N == 0:  # gamma = 0: the row is all in or all out
        s = _sign(a, b, D)
        return lambda wy: (-math.inf, math.inf) if s * wy > 0 else (1, 0)
    t = 1 if N > 0 else -1
    P, Q, R = t * (a * c - b * e * D), t * (b * c - a * e), t * N
    r = R * den
    if _sign(c, e, D) > 0:  # m*den + rxn < threshold: m <= ceil(y) - 1
        return lambda wy: (
            -math.inf, -_floor_quad(R * rxn - P * wy, -Q * wy, r, D) - 1)
    # m*den + rxn > threshold: m >= floor(y) + 1
    return lambda wy: (
        _floor_quad(P * wy - R * rxn, Q * wy, r, D) + 1, math.inf)


def enumerate_box(coeffs, D, den, rxn, ryn, kmax, want_points=True):
    """Count (and optionally list) admissible translates up to box kmax.

    coeffs = (A0, B0, C0, E0, A1, B1, C1, E1): the cone edges written as
    edge0 = (A0 + B0 rt, C0 + E0 rt), edge1 = (A1 + B1 rt, C1 + E1 rt) with
    rt = sqrt(D), D not a square.  The tested vector is
    W = (m*den + rxn, n*den + ryn), admissible when det(edge0, W) > 0 and
    det(W, edge1) > 0.  Both tests are linear in m, so each row n admits
    one interval of m, found exactly in Q(sqrt D); W = 0 fails both strict
    tests.  Returns (ring_counts, points): ring_counts[k] counts box length
    exactly k; points is a list of (m, n), row by row, or None.
    """
    if math.isqrt(D) ** 2 == D:
        raise ValueError("D = %d is a square" % D)
    A0, B0, C0, E0, A1, B1, C1, E1 = coeffs
    half_planes = (
        _half_plane((A0, B0), (C0, E0), D, den, rxn),
        _half_plane((-A1, -B1), (-C1, -E1), D, den, rxn),
    )
    counts = [0] * (kmax + 1)
    diff = [0] * (kmax + 2)  # ring counts for |m| > |n|, as differences
    points = [] if want_points else None
    for n in range(-kmax, kmax + 1):
        wy = n * den + ryn
        lo, hi = -kmax, kmax
        for bound in half_planes:
            b_lo, b_hi = bound(wy)
            lo, hi = max(lo, b_lo), min(hi, b_hi)
        if lo > hi:
            continue
        k = abs(n)
        counts[k] += max(0, min(hi, k) - max(lo, -k) + 1)
        if hi > k:
            diff[max(lo, k + 1)] += 1
            diff[hi + 1] -= 1
        if lo < -k:
            diff[-min(hi, -k - 1)] += 1
            diff[-lo + 1] -= 1
        if want_points:
            points.extend((m, n) for m in range(lo, hi + 1))
    run = 0
    for k in range(kmax + 1):
        run += diff[k]
        counts[k] += run
    return counts, points


@dataclass(frozen=True)
class ChordGen:
    """One Reeb chord: a cone translate with derived slope and action."""

    m: int
    n: int
    sign: int
    source: tuple
    target: tuple
    z: float
    box: int
    action: float

    @property
    def translate(self):
        return (self.m, self.n)

    def to_dict(self):
        return {
            "m": self.m,
            "n": self.n,
            "sign": "+" if self.sign > 0 else "-",
            "z": self.z,
            "box": self.box,
            "action": self.action,
        }


@dataclass(frozen=True)
class FilteredChordSet:
    """Chords grouped by box length with cumulative counts."""

    source: tuple
    target: tuple
    sign: int
    k_max: int
    chords: tuple
    counts_by_k: tuple          # counts_by_k[k] = #chords with box <= k

    def count(self, k=None):
        if k is None:
            k = self.k_max
        return self.counts_by_k[k]


def _over_common_den(wx, wy):
    """(X, Y, den) with (wx, wy) = (X/den, Y/den) for rationals wx, wy."""
    wx, wy = Fraction(wx), Fraction(wy)
    den = math.lcm(wx.denominator, wy.denominator)
    return (wx.numerator * (den // wx.denominator),
            wy.numerator * (den // wy.denominator), den)


def _tilt(H, X, Y, sign):
    """Exact sign of b - sign a for w = a vx + b vy, with the integer
    coefficients of _slope: >= 0 iff the raw slope of w is >= 0."""
    _, ((c0, e0), (c1, e1), (c2, e2), (c3, e3)) = H.eigen_int
    return _sign(Y * c2 - X * c3 - sign * (X * c0 - Y * c1),
                 Y * e2 - X * e3 - sign * (X * e0 - Y * e1), H.D)


def _slope(H, X, Y, den, sign):
    """Exact eigen-coefficients and float slope of w = (X/den, Y/den).

    With H.eigen_int = (L, c) the coefficients of w = a vx + b vy are
    L den a = a0 + a1 sqrt(D) and L den b = b0 + b1 sqrt(D), integers
    linear in (X, Y); their signs are decided exactly.  The slope is
    z = log(b / (sign a)) / 2 mod nu.  With b / (sign a) = (P + Q sqrt(D)) / N
    in integers, the float P/N + (Q/N) sqrt(D), its quotients correctly
    rounded, is the float QuadNum.__float__ gives for that ratio.
    Returns (z, a0, a1, b0, b1)."""
    D = H.D
    _, ((c0, e0), (c1, e1), (c2, e2), (c3, e3)) = H.eigen_int
    a0, a1 = X * c0 - Y * c1, X * e0 - Y * e1
    b0, b1 = Y * c2 - X * c3, Y * e2 - X * e3
    if _sign(b0, b1, D) <= 0 or sign * _sign(a0, a1, D) <= 0:
        s = H.eigen_int[0] * den
        raise OutsideCone(
            "eigen-coefficients (%s, %s) incompatible with sign %+d"
            % (QuadNum(Fraction(a0, s), Fraction(a1, s), D),
               QuadNum(Fraction(b0, s), Fraction(b1, s), D), sign)
        )
    # b / (sign a) = b (a0 - a1 sqrt(D)) / (sign (a0^2 - a1^2 D))
    N = a0 * a0 - a1 * a1 * D
    t = sign if N > 0 else -sign
    P, Q, N = t * (b0 * a0 - b1 * a1 * D), t * (b1 * a0 - b0 * a1), abs(N)
    z = 0.5 * math.log(P / N + Q / N * float(D) ** 0.5)
    z_mod = z % H.nu
    if z_mod >= H.nu:  # guard against boundary rounding
        z_mod -= H.nu
    return z_mod, a0, a1, b0, b1


def _chord(H, X, Y, den, m, n, sign, source, target):
    """The chord with translate (m, n) and displacement (X/den, Y/den)."""
    return ChordGen(m=m, n=n, sign=sign, source=source, target=target,
                    z=_slope(H, X, Y, den, sign)[0], box=max(abs(m), abs(n)),
                    action=math.hypot(X / den, Y / den))


def enumerate_chords(H, p, q, sign, k_max, with_chords=True):
    """All chords from p to q with box length <= k_max on the given end."""
    if k_max < 0:
        raise ValueError("k_max >= 0 required")
    coeffs = _cone_coeffs(H, sign)
    p = (Fraction(p[0]), Fraction(p[1]))
    q = (Fraction(q[0]), Fraction(q[1]))
    rxn, ryn, den = _over_common_den(q[0] - p[0], q[1] - p[1])
    ring_counts, points = enumerate_box(
        coeffs, H.D, den, rxn, ryn, k_max, want_points=with_chords
    )
    cum = []
    total = 0
    for c in ring_counts:
        total += c
        cum.append(total)
    chords = ()
    if with_chords:
        points.sort(key=lambda t: (max(abs(t[0]), abs(t[1])), t[0], t[1]))
        chords = tuple(_chord(H, m * den + rxn, n * den + ryn, den, m, n,
                              sign, p, q) for m, n in points)
    return FilteredChordSet(
        source=p,
        target=q,
        sign=sign,
        k_max=k_max,
        chords=chords,
        counts_by_k=tuple(cum),
    )


def chord_slope(H, w, sign):
    """Slope z in [0, nu) of the chord direction w on the +/- end.

    Writing w = a vx + b vy, the direction is R_sign(z) iff
    (a, b) is a positive multiple of (sign*e^{-z}, e^{z}), so
    z = log(b / (sign*a)) / 2, reduced mod nu.  Sign checks are exact."""
    X, Y, den = _over_common_den(w[0], w[1])
    z, a0, a1, b0, b1 = _slope(H, X, Y, den, sign)
    s = H.eigen_int[0] * den
    return (z, QuadNum(Fraction(a0, s), Fraction(a1, s), H.D),
            QuadNum(Fraction(b0, s), Fraction(b1, s), H.D))


def enumerate_rational_fibers(H, sign, max_norm):
    """Primitive cone vectors up to box max_norm, with their slopes.

    Each primitive (m, n) is a rational Reeb direction, hence a fiber of
    closed orbits.  Slopes of distinct primitive vectors are distinct: the
    kernel lists each (m, n) once, and two primitive vectors in one open
    cone narrower than pi that point the same way are equal."""
    if max_norm < 0:
        raise ValueError("max_norm >= 0 required")
    coeffs = _cone_coeffs(H, sign)
    ring_counts, points = enumerate_box(
        coeffs, H.D, 1, 0, 0, max_norm, want_points=True
    )
    out = []
    for m, n in points:
        if math.gcd(abs(m), abs(n)) != 1:
            continue
        out.append((m, n, _slope(H, m, n, 1, sign)[0]))
    out.sort(key=lambda t: (t[2], t[0], t[1]))
    return out


def _check_orbit(H, orbit: PeriodicOrbit):
    pts = orbit.points
    for i, p in enumerate(pts):
        if torus_apply(H.A, p) != pts[(i + 1) % len(pts)]:
            raise MismatchedMonodromy(
                "orbit %r is not an orbit of %r" % (orbit, H.A)
            )


def hw_rank_table(H, orbit1: PeriodicOrbit, orbit2: PeriodicOrbit, k_max):
    """Ungraded wrapped-Floer rank bookkeeping for a pair of orbits.

    Rank = sum over endpoint pairs of chord counts on both ends, within the
    box window, plus the pair of degree-(0,1) Morse generators when the two
    orbits coincide.  No differential is applied (there is none)."""
    _check_orbit(H, orbit1)
    _check_orbit(H, orbit2)
    same = orbit1.points == orbit2.points
    by_pair = {}
    chord_rank = 0
    for p in orbit1.points:
        for q in orbit2.points:
            plus = enumerate_chords(H, p, q, +1, k_max, with_chords=False)
            minus = enumerate_chords(H, p, q, -1, k_max, with_chords=False)
            c = plus.count() + minus.count()
            by_pair[(str(p), str(q))] = {
                "plus": plus.count(),
                "minus": minus.count(),
            }
            chord_rank += c
    report = {
        "k_max": k_max,
        "same_orbit": same,
        "chord_rank": chord_rank,
        "morse": {"0": 1, "1": 1} if same else None,
        "total_rank": chord_rank + (2 if same else 0),
        "by_pair": by_pair,
    }
    return report


def homotopy_class(chord: ChordGen):
    """Class of the chord in Z^2 x| Z (fiber part, zero monodromy part)."""
    return (chord.m, chord.n, 0)


def class_disjointness(H, box_bound=50):
    """Certify that + and - chord classes live in disjoint open cones.

    The certificate is the irrationality of the eigen-slopes (tr^2 - 4 is
    not a perfect square), backed by two exhaustive window checks: no
    lattice point lies in both cones, and none lies on a cone edge."""
    t = H.A.trace()
    cert = (t * t - 4, not _is_square(t * t - 4))
    plus = set(_all_cone_points(H, +1, box_bound))
    minus = set(_all_cone_points(H, -1, box_bound))
    overlap = plus & minus
    on_edge = []
    for sign in (1, -1):
        coeffs = _cone_coeffs(H, sign)
        for edge in (coeffs[:4], coeffs[4:]):
            on_edge.extend((sign, m, n) for m, n in
                           _edge_lattice_points(*edge, box_bound))
    return {
        "disc": cert[0],
        "disc_not_square": cert[1],
        "box_bound": box_bound,
        "overlap": sorted(overlap),
        "edge_lattice_points": on_edge,
        "disjoint": cert[1] and not overlap and not on_edge,
    }


def _edge_lattice_points(ax, bx, cy, ey, box):
    """Nonzero (m, n) in the box on the line of the nonzero edge
    (ax + bx rt, cy + ey rt), sorted.

    det(edge, (m, n)) = (ax*n - cy*m) + (bx*n - ey*m) sqrt(D) vanishes iff
    both integer parts do.  A nonzero solution exists only if
    ax*ey == bx*cy, and the solutions are then the multiples of one
    primitive vector, (ax, cy) or (bx, ey) reduced."""
    if ax * ey != bx * cy:
        return []
    m0, n0 = (ax, cy) if ax or cy else (bx, ey)
    g = math.gcd(m0, n0) * (1 if m0 > 0 or (m0 == 0 and n0 > 0) else -1)
    m0, n0 = m0 // g, n0 // g
    t = box // max(abs(m0), abs(n0))
    return [(j * m0, j * n0) for j in range(-t, t + 1) if j]


def _is_square(n):
    return n >= 0 and math.isqrt(n) ** 2 == n


def _all_cone_points(H, sign, box):
    coeffs = _cone_coeffs(H, sign)
    _, points = enumerate_box(coeffs, H.D, 1, 0, 0, box, True)
    return points


def _pow_signed(A, k):
    return A.pow(k) if k >= 0 else inverse_unimodular(A).pow(-k)


def product_candidates(H, c01: ChordGen, c12: ChordGen, orbit1: PeriodicOrbit,
                       k_window):
    """Candidate output chords of the (open) triangle product.

    For exponents k with A^k(source of c12) = target of c01, in the window
    |k| <= k_window, the concatenated translate w01 + A^k w12 is the unique
    in-cone candidate from the source of c01 to A^k(target of c12).  These
    are combinatorial candidates only; whether any Floer solution realizes
    them is open."""
    if c01.sign != c12.sign:
        raise IncompatibleEndpoints("chords live on different ends")
    sign = c01.sign
    _check_orbit(H, orbit1)
    q1 = (c01.target[0] % 1, c01.target[1] % 1)
    p1 = (c12.source[0] % 1, c12.source[1] % 1)
    pts = set(orbit1.points)
    if q1 not in pts or p1 not in pts:
        raise IncompatibleEndpoints(
            "target of c01 and source of c12 must lie in the middle orbit"
        )
    size = orbit1.period
    k1 = None
    for k in range(size):
        if torus_apply(_pow_signed(H.A, k), p1) == q1:
            k1 = k
            break
    if k1 is None:
        raise IncompatibleEndpoints("no monodromy power matches endpoints")
    w01 = (
        c01.target[0] + c01.m - c01.source[0],
        c01.target[1] + c01.n - c01.source[1],
    )
    w12 = (
        c12.target[0] + c12.m - c12.source[0],
        c12.target[1] + c12.n - c12.source[1],
    )
    cone = cone_spec(H, sign)
    A_inv = inverse_unimodular(H.A)
    out = []
    k = k1
    while k - size >= -k_window:
        k -= size
    while k <= k_window:
        Ak = _pow_signed(H.A, k)
        akw = (
            Ak.rows[0][0] * w12[0] + Ak.rows[0][1] * w12[1],
            Ak.rows[1][0] * w12[0] + Ak.rows[1][1] * w12[1],
        )
        w02 = (w01[0] + akw[0], w01[1] + akw[1])
        # w02 lies in the open quadrant cone but its slope is in
        # (0, (k+1) nu) in general; reduce into the fundamental domain by
        # the mapping-torus identification (v, z) ~ (A v, z - nu), i.e.
        # apply A^j with j = floor(slope / nu), decided exactly: A lowers
        # the slope by nu
        X, Y, den = _over_common_den(*w02)
        j = 0
        while _tilt(H, *H.A.apply((X, Y)), sign) >= 0:
            X, Y = H.A.apply((X, Y))
            j += 1
        while _tilt(H, X, Y, sign) < 0:
            X, Y = A_inv.apply((X, Y))
            j -= 1
        Aj = _pow_signed(H.A, j)
        w_red = (Fraction(X, den), Fraction(Y, den))
        assert cone_contains(cone, w_red)
        source = torus_apply(Aj, c01.source)
        target = torus_apply(_pow_signed(H.A, j + k), c12.target)
        trans = (w_red[0] - (target[0] - source[0]),
                 w_red[1] - (target[1] - source[1]))
        m, n = int(trans[0]), int(trans[1])
        assert trans[0] == m and trans[1] == n
        out.append((k, _chord(H, *_over_common_den(*w_red), m, n, sign,
                              source, target)))
        k += size
    return out
