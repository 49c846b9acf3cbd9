"""Independent oracle computations backing the acceptance suite.

Each oracle recomputes a quantity through a different route than the
primary code path: cellular chain complexes instead of the Wang/Gysin
formulas, high-precision or plain floating sign tests instead of exact
quadratic arithmetic, a point-by-point box scan instead of row intervals,
dense sampling instead of circle algebra, Mobius products instead of
axis-frame dilations for triangle translates, a point-pair grid search
instead of the closed-form orthogeodesic, direct region integrals by
mpmath tanh-sinh instead of boundary integrals by Gauss-Legendre, LAPACK
determinants instead of Leibniz sums for the minors of a pullback, LAPACK
solves instead of kernels and Pfaffian adjugates for the Reeb, Liouville
and frame vectors, QuadNum eigen-coefficients instead of integer ones for
chord slopes, and the geometric mpmath construction of the genus-2 octagon
group instead of its exact Z[sqrt 2] data.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from fractions import Fraction
from functools import lru_cache
from itertools import islice, repeat

from .exact import GradedZModule, IntMatrix, QuadNum
from .exact.intmat import chain_homology
from .chords import cone_spec
from .toral import torus_apply

# mpmath, numpy and .hyperbolic are imported inside the oracles that use
# them: callers of the exact oracles do not pay for loading them.


# ------------------------------------------------ cellular (co)homology

def mapping_torus_cellular_cohomology(A):
    """H*(mapping torus) from the one-vertex cellular cochain complex.

    Chains: C0 = <v>, C1 = <x, y, t>, C2 = <F, x^t, y^t>, C3 = <F^t>,
    where ^t marks the suspended cells.  The only nonzero boundary is
    d2(e^t) = (I - A) e on the edge block.  Cohomology is the homology of
    the transposed complex, assembled degreewise by Smith reduction."""
    I2 = IntMatrix.identity(2)
    B = I2 - A  # action on the edge block
    d1 = IntMatrix.zero(1, 3)
    d2 = IntMatrix(
        [
            [0, B.rows[0][0], B.rows[0][1]],
            [0, B.rows[1][0], B.rows[1][1]],
            [0, 0, 0],
        ]
    )
    d3 = IntMatrix.zero(3, 1)
    return _cochain_cohomology([1, 3, 3, 1], {1: d1, 2: d2, 3: d3})


def circle_bundle_cellular_cohomology(g):
    """H*(circle bundle, Euler number 2-2g) from the presentation complex.

    C1 = <a_i, b_i, t>, C2 = <[a_i,t], [b_i,t], F>, with d2(F) = -e t and
    everything else closed."""
    e = 2 - 2 * g
    n1 = 2 * g + 1
    n2 = 2 * g + 1
    d1 = IntMatrix.zero(1, n1)
    rows = [[0] * n2 for _ in range(n1)]
    rows[2 * g][n2 - 1] = -e  # F maps to -e times the fiber edge
    d2 = IntMatrix(rows)
    d3 = IntMatrix.zero(n2, 1)
    return _cochain_cohomology([1, n1, n2, 1], {1: d1, 2: d2, 3: d3})


def _cochain_cohomology(ranks, boundaries):
    """Cohomology of the dualized complex: H^k = ker(d_{k+1}^T)/im(d_k^T)."""
    table = GradedZModule()
    top = len(ranks) - 1
    for k in range(top + 1):
        if k < top:
            d_out = boundaries[k + 1].transpose()
        else:
            d_out = IntMatrix.zero(1, ranks[top])
        if k > 0:
            d_in = boundaries[k].transpose()
        else:
            d_in = IntMatrix.zero(ranks[0], 1)
        free, tors = chain_homology(d_out, d_in)
        table.set(k, free, tors)
    return table


# ----------------------------------------------------- toral dynamics

def fixed_points_pointwise_check(A, n, den, points):
    """Verify the integer form (den, [(nx, ny), ...]) of the A^n-fixed points
    exactly: every pair lies in [0, den)^2, (A^n - I) maps it into den Z^2,
    and no two pairs are equal.  Equal pairs are neighbours once sorted; the
    sorted list of references takes 0.3 MB at 39,200 points, where a set of
    the pairs takes 2 MB."""
    (a, b), (c, d) = (A.pow(n) - IntMatrix.identity(2)).rows
    for x, y in points:
        if not (0 <= x < den and 0 <= y < den):
            return False
        if (a * x + b * y) % den or (c * x + d * y) % den:
            return False
    ordered = sorted(points)
    return all(p != q for p, q in zip(ordered, islice(ordered, 1, None)))


def fixed_points_grid_scan(A, n, q):
    """Exhaustive scan of the (1/q) grid; only sensible for small q."""
    An = A.pow(n)
    out = []
    for i in range(q):
        for j in range(q):
            p = (Fraction(i, q), Fraction(j, q))
            if torus_apply(An, p) == p:
                out.append(p)
    return out


# ------------------------------------------------------ chord shadows

def _edge_floats(H, sign, to_mp=False, prec=200):
    cone = cone_spec(H, sign)
    if to_mp:
        import mpmath

        with mpmath.workprec(prec):
            return (
                [cone.edge0[0].to_mpf(prec), cone.edge0[1].to_mpf(prec)],
                [cone.edge1[0].to_mpf(prec), cone.edge1[1].to_mpf(prec)],
            )
    return (
        [float(cone.edge0[0]), float(cone.edge0[1])],
        [float(cone.edge1[0]), float(cone.edge1[1])],
    )


def chord_membership_float(H, p, q, sign, kmax):
    """Float64 shadow of the exact cone test; returns a set of (m, n).

    IEEE subtraction with gradual underflow is 0 only when x == y and keeps
    the sign of x - y otherwise, so `x - y > 0` is `x > y`: the products
    are compared as they stand (see _cone_members)."""
    e0, e1 = _edge_floats(H, sign)
    rx = float(Fraction(q[0]) - Fraction(p[0]))
    ry = float(Fraction(q[1]) - Fraction(p[1]))
    return _cone_members(e0, e1, rx, ry, kmax)


def chord_membership_mp(H, p, q, sign, kmax, prec=200):
    """200-bit shadow of the exact cone test.

    At a fixed precision mpmath rounds x - y to nearest with an unbounded
    exponent, so round(x - y) > 0 holds exactly when x > y: comparing the
    200-bit products decides as their differences did (see _cone_members)."""
    import mpmath

    with mpmath.workprec(prec):
        e0, e1 = _edge_floats(H, sign, to_mp=True, prec=prec)
        rx = Fraction(q[0]) - Fraction(p[0])
        ry = Fraction(q[1]) - Fraction(p[1])
        rxm = mpmath.mpf(rx.numerator) / rx.denominator
        rym = mpmath.mpf(ry.numerator) / ry.denominator
        return _cone_members(e0, e1, rxm, rym, kmax)


def _cone_members(e0, e1, rx, ry, kmax):
    """(m, n) in the box with e0[0] wy > e0[1] wx and wx e1[1] > wy e1[0],
    where w = (m + rx, n + ry), in the arithmetic of rx and ry.

    Each product depends on one index, so it is formed once per m or per n
    and the double loop only compares.  The zero vector needs no skip:
    all four products are 0 there and both strict tests fail."""
    ks = range(-kmax, kmax + 1)
    wys = [n + ry for n in ks]
    a0 = [e0[0] * wy for wy in wys]
    b1 = [wy * e1[0] for wy in wys]
    out = set()
    for m in ks:
        wx = m + rx
        b0 = e0[1] * wx
        a1 = wx * e1[1]
        out.update((m, n) for n, a0n, b1n in zip(ks, a0, b1)
                   if a0n > b0 and a1 > b1n)
    return out


def cone_box_area(H, sign, k, grid=1500):
    """Raster estimate of area(cone /\\ box_k); Gauss-counts lattice points.

    The cells of the grid x grid raster of the box whose centres lie
    strictly inside the float cone, counted row by row (cone_raster_count),
    times the area of one cell."""
    e0, e1 = _edge_floats(H, sign)
    cell = (2.0 * k / grid) ** 2
    return float(cone_raster_count(e0, e1, k, grid)) * cell


def cone_raster_count(e0, e1, k, grid):
    """Cells of the grid x grid raster of [-k, k]^2 whose centres (x, y)
    pass e0[0] y - e0[1] x > 0 and x e1[1] - y e1[0] > 0, counted row by row.

    IEEE products and differences round monotonically, so along a row each
    test is monotone in x: it holds on a prefix or a suffix of the sorted
    abscissae, or on all or none of them when its x coefficient is 0.  Two
    bisections per row find the row's run, in O(grid) memory."""
    import numpy as np

    xs = (np.linspace(-k, k, grid, endpoint=False) + k / grid).tolist()
    count = 0
    for y in xs:
        a0 = e0[0] * y
        b1 = y * e1[0]
        lo0, hi0 = _run(xs, lambda x: a0 - e0[1] * x > 0, -e0[1])
        lo1, hi1 = _run(xs, lambda x: x * e1[1] - b1 > 0, e1[1])
        count += max(0, min(hi0, hi1) - max(lo0, lo1))
    return count


def _run(xs, holds, slope):
    """(lo, hi) with holds(x) true exactly for x in xs[lo:hi], for a test
    that rises with x when slope > 0, falls when slope < 0, else is flat."""
    if slope > 0:
        return bisect_left(xs, True, key=holds), len(xs)
    if slope < 0:
        return 0, bisect_left(xs, True, key=lambda x: not holds(x))
    return (0, len(xs)) if holds(xs[0]) else (0, 0)


# ------------------------------------------------- chord slopes

def eigen_coefficients(H, w):
    """Solve a*vx + b*vy = w exactly; returns (a, b) as QuadNums."""
    wx = QuadNum(Fraction(w[0]), 0, H.D)
    wy = QuadNum(Fraction(w[1]), 0, H.D)
    det = H.vx[0] * H.vy[1] - H.vx[1] * H.vy[0]
    a = (wx * H.vy[1] - wy * H.vy[0]) / det
    b = (H.vx[0] * wy - H.vx[1] * wx) / det
    return a, b


# ------------------------------------------------- chord box scan

def _qsign(p, q, D):
    """Exact sign of p + q*sqrt(D) for integers p, q."""
    if q == 0:
        return (p > 0) - (p < 0)
    if p == 0:
        return (q > 0) - (q < 0)
    if p > 0:
        if q > 0:
            return 1
        t = p * p - q * q * D
        return 1 if t > 0 else (-1 if t < 0 else 0)
    if q < 0:
        return -1
    t = p * p - q * q * D
    return -1 if t > 0 else (1 if t < 0 else 0)


def _ring(k):
    if k == 0:
        yield (0, 0)
        return
    for m in range(-k, k + 1):
        yield (m, -k)
        yield (m, k)
    for n in range(-k + 1, k):
        yield (-k, n)
        yield (k, n)


def chord_box_scan(coeffs, D, den, rxn, ryn, kmax, want_points=True):
    """Reference for chords.enumerate_box: test every box point one by one.

    Candidates live on box rings max(|m|,|n|) = k and are tested against
    the two cone edges by the exact sign of an integer element
    p + q*sqrt(D).  Same arguments and result as chords.enumerate_box,
    with points listed ring by ring."""
    A0, B0, C0, E0, A1, B1, C1, E1 = coeffs
    counts = [0] * (kmax + 1)
    points = [] if want_points else None
    for k in range(kmax + 1):
        c = 0
        for m, n in _ring(k):
            wx = m * den + rxn
            wy = n * den + ryn
            if wx == 0 and wy == 0:
                continue
            if _qsign(A0 * wy - C0 * wx, B0 * wy - E0 * wx, D) <= 0:
                continue
            if _qsign(C1 * wx - A1 * wy, E1 * wx - B1 * wy, D) <= 0:
                continue
            c += 1
            if want_points:
                points.append((m, n))
        counts[k] = c
    return counts, points


# --------------------------------------------------- triangle sampling

@lru_cache(maxsize=None)
def _unit_samples(n):
    """cos and sin of n angles across the upper half circle, by math.cos
    and math.sin, and n heights up a vertical line."""
    import numpy as np

    angs = np.linspace(0.02, math.pi - 0.02, n)
    cos = np.array([math.cos(a) for a in angs])
    sin = np.array([math.sin(a) for a in angs])
    return cos, sin, np.tan(np.linspace(0.05, math.pi / 2 - 0.05, n))


def _sample_geodesic(g, n):
    """x and y coordinates of n points along g, as two float arrays."""
    import numpy as np

    cos, sin, tan = _unit_samples(n)
    if g.is_vertical:
        return np.full(n, g.foot), tan
    return g.center + g.radius * cos, g.radius * sin


def _sides(h, xs, ys):
    """h.side at every point (xs[i], ys[i]), bit for bit.

    np.hypot is the libm hypot behind abs(complex).  The square goes through
    math.pow like `** 2`: NumPy's square is x * x, which differs from glibc
    pow in the last bit on about 1 value in 1200 (x86-64)."""
    import numpy as np

    if h.is_vertical:
        return xs - h.foot
    hyp = np.hypot(xs - h.center, ys).tolist()
    sq = np.fromiter(map(math.pow, hyp, repeat(2.0)), float, len(hyp))
    return sq - h.radius**2


def _crossing_by_sampling(g, h, n=2000, bisect=80):
    """Locate a transverse crossing of g and h by sign change of h.side;
    None when h has the endpoints of g, since h.side along g is then
    rounding noise of both signs.

    h.side is evaluated on all n samples along g at once, bit for bit (see
    _sides).  The first i with side 0, or with a strict sign change to
    i + 1, decides, as a point-by-point scan would; a sign change is then
    bisected `bisect` times along g by scalar h.side calls."""
    import numpy as np

    if {g.a, g.b} == {h.a, h.b}:
        return None
    xs, ys = _sample_geodesic(g, n)
    sides = _sides(h, xs, ys)
    hits = np.flatnonzero((sides[:-1] == 0.0) | (sides[:-1] * sides[1:] < 0))
    if not len(hits):
        return None
    i = hits[0]
    if sides[i] == 0.0:
        return complex(xs[i], ys[i])
    lo, hi = complex(xs[i], ys[i]), complex(xs[i + 1], ys[i + 1])
    slo = float(sides[i])
    for _ in range(bisect):
        mid = 0.5 * (lo + hi)
        # project the chord midpoint back onto g
        if g.is_vertical:
            mid = complex(g.foot, mid.imag)
        else:
            ang = math.atan2(mid.imag, mid.real - g.center)
            mid = complex(
                g.center + g.radius * math.cos(ang),
                g.radius * math.sin(ang),
            )
        sm = h.side(mid)
        if sm == 0.0:
            return mid
        if slo * sm < 0:
            hi = mid
        else:
            lo, slo = mid, sm
    return 0.5 * (lo + hi)


def triangle_count_sampled(g0, g1, g2, ell1, K):
    """Oracle: count admissible translates via dense sampling only."""
    from .hyperbolic import hyperbolic_translation

    base = _crossing_by_sampling(g0, g1)
    if base is None:
        return 0
    T = hyperbolic_translation(g1, ell1)
    count = 0
    for k in range(-K, K + 1):
        step = T if k >= 0 else T.inverse()
        h = g2
        for _ in range(abs(k)):
            h = step.apply_geodesic(h)
        v12 = _crossing_by_sampling(g1, h)
        v02 = _crossing_by_sampling(g0, h)
        if v12 is None or v02 is None:
            continue
        cross = (v12 - base).real * (v02 - base).imag - (v12 - base).imag * (
            v02 - base
        ).real
        if cross > 0:
            count += 1
    return count


def triangle_enumerate_products(g0, g1, g2, ell1, K, collision_tol=1e-9):
    """Oracle: hyperbolic.triangle_enumerate by Mobius products.

    Builds T^|k| g2 for every |k| <= K from scratch, one product per step,
    and runs the per-k tests on each translate.  The products lose all
    precision once K ell1 is near 37 (the determinant of T^k cancels), so
    this reference raises ValueError on valid inputs there."""
    from .hyperbolic import (
        DegenerateConfiguration,
        IdenticalGeodesics,
        Mobius,
        TrianglePattern,
        _interior_angle,
        hyperbolic_translation,
        intersect,
    )

    if not 0 < ell1 < math.inf:  # also rejects NaN
        raise ValueError("finite ell1 > 0 required")
    if K < 0:
        raise ValueError("K >= 0 required")
    base = intersect(g0, g1)
    if base is None:
        return []
    v01 = base[0]
    T = hyperbolic_translation(g1, ell1)
    out = []
    for k in range(-K, K + 1):
        M = Mobius.identity()
        step = T if k >= 0 else T.inverse()
        for _ in range(abs(k)):
            M = step @ M
        h = M.apply_geodesic(g2)
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


# ----------------------------------------------- orthogeodesic search

def hyperbolic_distance(z1, z2):
    num = abs(z1 - z2) ** 2
    return math.acosh(1.0 + num / (2.0 * z1.imag * z2.imag))


def orthogeodesic_length_brute(g1, g2, n=150, refine=60):
    """Oracle: grid search plus coordinate descent on point-pair distance."""

    def param(g, u):
        # u in (0,1) sweeps the geodesic
        if g.is_vertical:
            y = math.tan(0.5 * math.pi * u)
            return complex(g.foot, y)
        ang = math.pi * u
        return complex(
            g.center + g.radius * math.cos(ang), g.radius * math.sin(ang)
        )

    def dist(u, v):
        return hyperbolic_distance(param(g1, u), param(g2, v))

    best = None
    for i in range(1, n):
        for j in range(1, n):
            d = dist(i / n, j / n)
            if best is None or d < best[0]:
                best = (d, i / n, j / n)
    d, u, v = best
    step = 1.0 / n
    for _ in range(refine):
        improved = False
        for du, dv in ((step, 0), (-step, 0), (0, step), (0, -step)):
            uu, vv = u + du, v + dv
            if 0 < uu < 1 and 0 < vv < 1:
                dd = dist(uu, vv)
                if dd < d:
                    d, u, v = dd, uu, vv
                    improved = True
        if not improved:
            step /= 2.0
    return d


# ------------------------------------------------------ region areas

# The slab widths are clamped at 0: mpmath.sqrt of a tiny negative is an mpc.

def disk_weighted_area(rho, x0=0.0, y0=0.0):
    """Direct 2-D integral of 1/(1-y^2) over a disk (x-slab integrated
    exactly, then tanh-sinh quadrature in y, split at the centre)."""
    import mpmath

    if abs(y0) + rho >= 1.0:
        raise ValueError("disk must stay inside the strip |y| < 1")

    def slab(y):
        half = mpmath.sqrt(max(rho * rho - (y - y0) ** 2, 0))
        return 2 * half / (1 - y * y)

    return float(mpmath.quad(slab, [y0 - rho, y0, y0 + rho]))


def stadium_weighted_area_direct(seg_length, h):
    """Direct 2-D integral over the stadium region by horizontal slabs
    (tanh-sinh quadrature in y, split at the centre)."""
    import mpmath

    L = seg_length

    def slab(y):
        return (L + 2 * mpmath.sqrt(max(h * h - y * y, 0))) / (1 - y * y)

    return float(mpmath.quad(slab, [-h, 0, h]))


# ------------------------------------------------- forms by determinants

def jacobian_fd(F, point, h=1e-6):
    """The Jacobian of F at a point by O(h^2) central differences: the
    reference for the closed-form Jacobians of the forms library."""
    import numpy as np

    p = np.asarray(point, dtype=float)
    cols = []
    for axis in range(len(p)):
        p1, p2 = p.copy(), p.copy()
        p1[axis] += h
        p2[axis] -= h
        cols.append((np.asarray(F(p1), dtype=float) - np.asarray(F(p2), dtype=float)) / (2 * h))
    return np.array(cols).T


def pullback_det(F, form, point, jac):
    """(F^* form) at a point, each minor by np.linalg.det."""
    from itertools import combinations

    import numpy as np

    from .forms.calculus import zero_value

    p = np.asarray(point, dtype=float)
    J = np.asarray(jac(p), dtype=float)
    target_val = form.value(F(p))
    k = form.degree
    n_src = J.shape[1]
    out = zero_value(n_src, k)
    for src_idx in combinations(range(n_src), k):
        total = 0.0
        for tgt_idx, c in target_val.items():
            if c == 0.0:
                continue
            minor = J[np.ix_(tgt_idx, src_idx)]
            total += c * np.linalg.det(minor)
        out[src_idx] = total
    return out


def apply_form_det(value, vectors):
    """A k-form value on k vectors, each minor by np.linalg.det."""
    import numpy as np

    k = len(vectors)
    if k == 0:
        return value.get((), 0.0)
    vs = [np.asarray(v, dtype=float) for v in vectors]
    total = 0.0
    for idx, c in value.items():
        if c == 0.0:
            continue
        mat = np.array([[v[i] for i in idx] for v in vs])
        total += c * np.linalg.det(mat)
    return total


# ----------------------------------------------- forms by LAPACK solves

def reeb_vector_lstsq(a, w):
    """forms.calculus.reeb_vector by least squares on [O^T; a] R = e_4 for
    the values a, w on a 3-chart; SingularSystem below rank 3."""
    import numpy as np

    from .forms.calculus import SingularSystem, one_form_vector, two_form_matrix

    A = np.vstack([two_form_matrix(w, 3).T, one_form_vector(a, 3)])
    R, _, rank, _ = np.linalg.lstsq(A, np.array([0.0, 0.0, 0.0, 1.0]), rcond=None)
    if rank < 3:
        raise SingularSystem("d(alpha) degenerate on ker(alpha)")
    return R


def _solve(O, b):
    import numpy as np

    from .forms.calculus import SingularSystem

    try:
        return np.linalg.solve(O, b)
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(str(exc)) from exc


def liouville_vector_solve(lam, w):
    """forms.calculus.liouville_vector by LU: O^T X = lam on a 4-chart."""
    from .forms.calculus import one_form_vector, two_form_matrix

    return _solve(two_form_matrix(w, 4).T, one_form_vector(lam, 4))


def frame_vectors_solve(w, th, X):
    """forms.calculus.frame_vectors with X_s and X_theta by LU solves and
    the pairing entry by entry."""
    import numpy as np

    from .forms.calculus import two_form_matrix

    O = two_form_matrix(w, 4)
    e_s = np.array([1.0, 0.0, 0.0, 0.0])
    X_s = _solve(O, e_s)
    th_corr = th - float(th @ X_s) * (O.T @ e_s)
    frame = np.array([e_s, X_s, X, _solve(O, th_corr)])
    pairing = np.array([[frame[i] @ (O @ frame[j]) for j in range(4)] for i in range(4)])
    return frame, pairing, th_corr


# ------------------------------------------------ octagon construction
# The geometric construction of the genus-2 side pairings in mpmath, the
# reference for the exact Z[sqrt 2] data of surface.FuchsianRep.

def _mp_rotation(phi):
    import mpmath

    c, s = mpmath.cos(phi / 2), mpmath.sin(phi / 2)
    return mpmath.matrix([[c, s], [-s, c]])


def _mp_apply(m, z):
    return (m[0, 0] * z + m[0, 1]) / (m[1, 0] * z + m[1, 1])


def _mp_normalizer(P, Q):
    """Isometry sending P to i and Q up the imaginary axis."""
    import mpmath

    s = mpmath.sqrt(P.imag)
    M = mpmath.matrix([[1 / s, -P.real / s], [0, s]])
    Q1 = _mp_apply(M, Q)
    if abs(Q1.real) < mpmath.mpf(10) ** (-mpmath.mp.dps + 8):
        psi = mpmath.pi / 2 if Q1.imag > 1 else -mpmath.pi / 2
    else:
        c = (abs(Q1) ** 2 - 1) / (2 * Q1.real)
        t = mpmath.mpc(0, 1) * (mpmath.mpc(0, 1) - c)
        if t.real * Q1.real < 0:
            t = -t
        psi = mpmath.atan2(t.imag, t.real)
    R = _mp_rotation(mpmath.pi / 2 - psi)
    return R * M


def _mp_inv(m):
    import mpmath

    return mpmath.matrix([[m[1, 1], -m[0, 1]], [-m[1, 0], m[0, 0]]]) / (
        m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    )


@lru_cache(maxsize=None)
def octagon_generators(dps=70):
    """Side-pairing matrices of the regular angle-pi/4 octagon, genus 2.

    Sides are labeled a1 b1 A1 B1 a2 b2 A2 B2 counterclockwise; the pairing
    for a generator g maps the side labeled g^{-1} onto the side labeled g
    with reversed orientation.  Returns (mp matrices dict, relator residual).
    """
    import mpmath

    with mpmath.workdps(dps):
        cosh_rv = 3 + 2 * mpmath.sqrt(2)
        sinh_rv = mpmath.sqrt(cosh_rv**2 - 1)
        rho = sinh_rv / (1 + cosh_rv)  # disk radius of the vertices
        verts = []
        for k in range(8):
            ang = mpmath.pi / 8 + k * mpmath.pi / 4
            w = rho * mpmath.exp(mpmath.mpc(0, 1) * ang)
            verts.append(mpmath.mpc(0, 1) * (1 + w) / (1 - w))  # Cayley map
        labels = [1, 2, -1, -2, 3, 4, -3, -4]  # a1 b1 A1 B1 a2 b2 A2 B2
        gens = {}
        for g in (1, 2, 3, 4):
            i = labels.index(g)
            j = labels.index(-g)
            N1 = _mp_normalizer(verts[j], verts[(j + 1) % 8])
            N2 = _mp_normalizer(verts[(i + 1) % 8], verts[i])
            gens[g] = _mp_inv(N2) * N1
        # the geometric pairings satisfy a b^-1 a^-1 b c d^-1 c^-1 d = 1;
        # inverting the b-type pairings turns that into the standard
        # commutator relator in (a1, b1, a2, b2)
        gens[2] = _mp_inv(gens[2])
        gens[4] = _mp_inv(gens[4])
        rel = mpmath.matrix([[1, 0], [0, 1]])
        for g in (1, 2, -1, -2, 3, 4, -3, -4):
            m = gens[abs(g)] if g > 0 else _mp_inv(gens[abs(g)])
            rel = rel * m
        res = min(
            max(abs(rel[i, j] - (1 if i == j else 0)) for i in (0, 1) for j in (0, 1)),
            max(abs(rel[i, j] + (1 if i == j else 0)) for i in (0, 1) for j in (0, 1)),
        )
        return gens, float(res)
