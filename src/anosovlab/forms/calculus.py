"""Numeric exterior calculus on coordinate charts.

A point is a sequence of coordinates, each a float or a NumPy array over a
whole sample (``pts.T`` for an n x d sample array ``pts``), and the same
code takes either: form values are dicts of floats or arrays, and vectors
and matrices carry the sample along their last axis.  Forms are stored as
coefficient functions on sorted index tuples; the exterior derivative is
taken analytically when the closed-form coefficients were registered and by
central differences otherwise.  The solves are closed forms of their 3 x 3
and 4 x 4 systems: the kernel of d(alpha) for the Reeb field, the Pfaffian
adjugate for the Liouville field and the symplectic frame.
"""

from __future__ import annotations

import sys
from functools import cache
from itertools import combinations, permutations

import numpy as np

from .halton import scrambled_halton


class OutOfDomain(ValueError):
    pass


class SingularSystem(ValueError):
    pass


class DimensionMismatch(ValueError):
    pass


class Chart:
    """Named coordinates with a sample box; periodic axes are flagged."""

    def __init__(self, name, coords, box, periodic=None):
        self.name = name
        self.coords = tuple(coords)
        self.box = tuple((float(lo), float(hi)) for lo, hi in box)
        self.periodic = tuple(periodic) if periodic else (False,) * len(self.coords)
        if len(self.box) != len(self.coords):
            raise DimensionMismatch("box does not match coordinates")
        for lo, hi in self.box:
            if not lo < hi:
                raise ValueError("degenerate box interval")

    @property
    def dim(self):
        return len(self.coords)

    def sample_points(self, n, seed, margin=0.0):
        """Scrambled-Halton sample of the box, shrunk by margin per axis.

        Periodic axes are not shrunk (coefficients are globally defined
        formulas, so differencing across the nominal period is safe)."""
        u = scrambled_halton(n, self.dim, seed)
        pts = np.empty_like(u)
        for i, (lo, hi) in enumerate(self.box):
            m = 0.0 if self.periodic[i] else margin
            a, b = lo + m, hi - m
            if not a < b:
                raise ValueError("margin swallows the box")
            pts[:, i] = a + u[:, i] * (b - a)
        return pts

    def contains(self, point, margin=0.0):
        """Whether every non-periodic coordinate lies margin inside the box:
        a boolean array over the points of a sample, a NumPy bool at one
        point (or where no axis is bounded)."""
        inside = np.True_
        for x, (lo, hi), per in zip(point, self.box, self.periodic):
            if not per:
                inside = inside & (lo + margin <= x) & (x <= hi - margin)
        return inside


class DifferentialForm:
    """Degree-k form: {sorted index tuple: coefficient function}."""

    def __init__(self, chart, degree, comps, d_comps=None, name=""):
        self.chart = chart
        self.degree = int(degree)
        self.comps = {tuple(k): v for k, v in comps.items()}
        self.d_comps = {tuple(k): v for k, v in d_comps.items()} if d_comps else None
        self.name = name
        for idx in self.comps:
            if list(idx) != sorted(idx) or len(set(idx)) != len(idx):
                raise ValueError("indices must be strictly increasing: %r" % (idx,))

    def value(self, point):
        return {idx: f(point) for idx, f in self.comps.items()}

    def has_analytic_d(self):
        return self.d_comps is not None

    def __repr__(self):
        return "DifferentialForm(%s, k=%d on %s)" % (
            self.name or "?",
            self.degree,
            self.chart.name,
        )


class VectorField:
    def __init__(self, chart, comps, name=""):
        self.chart = chart
        self.comps = tuple(comps)
        self.name = name

    def value(self, point):
        return _stack([f(point) for f in self.comps], point[0])


def _stack(entries, like=0.0):
    """The float array of entries, constants broadcast to the sample of
    `like`: shape (m,) at one point, (m, n) on a sample of n points."""
    return np.array(np.broadcast_arrays(like, *entries)[1:], dtype=float)


def _matrix(rows):
    """The float array of nested rows: (r, c) at a point, (r, c, n) on a
    sample."""
    flat = _stack([x for row in rows for x in row])
    return flat.reshape((len(rows), -1) + flat.shape[1:])


def _dot(u, v):
    """sum_j u_j v_j, added left to right (so a sample's entries are each
    the sum at their point)."""
    return sum(x * y for x, y in zip(u, v))


def max_abs(x):
    """max |x| as a float: over the points of a sample (0.0 when it is
    empty), or |x| at one."""
    x = abs(x)
    return float(x.max(initial=0.0) if isinstance(x, np.ndarray) else x)


def zero_value(dim, degree):
    return {idx: 0.0 for idx in combinations(range(dim), degree)}


def coefficient(value, idx):
    """Coefficient on an arbitrary (possibly unsorted) index tuple."""
    order = tuple(sorted(idx))
    if len(set(idx)) != len(idx):
        return 0.0
    sign = _permutation_sign(idx, order)
    return sign * value.get(order, 0.0)


def _permutation_sign(src, dst):
    src = list(src)
    sign = 1
    for i, want in enumerate(dst):
        j = src.index(want)
        if j != i:
            src[i], src[j] = src[j], src[i]
            sign = -sign
    return sign


def _partial(f, point, axis, h):
    p1 = np.array(point, dtype=float)
    p2 = np.array(point, dtype=float)
    p1[axis] += h
    p2[axis] -= h
    return (f(p1) - f(p2)) / (2.0 * h)


def exterior_derivative(form, point, h=1e-5, force_numeric=False):
    """d(form) at a point or sample: analytic coefficients if registered,
    else O(h^2) central differences.  Returns a (k+1)-form value dict.

    Raises OutOfDomain if some point lies outside the box (or within h of
    it, for differences); the message names the first such point."""
    p = np.asarray(point, dtype=float)
    analytic = form.has_analytic_d() and not force_numeric
    inside = form.chart.contains(p, margin=0.0 if analytic else h)
    if not inside.all():
        first = np.moveaxis(p, 0, -1)[~inside][0]
        raise OutOfDomain("point %r too close to the box boundary" % (first,))
    if analytic:
        return {idx: f(p) for idx, f in form.d_comps.items()}
    dim = form.chart.dim
    out = {}
    for idx in combinations(range(dim), form.degree + 1):
        total = 0.0
        for pos, j in enumerate(idx):
            rest = idx[:pos] + idx[pos + 1 :]
            f = form.comps.get(rest)
            if f is None:
                continue
            total += (-1) ** pos * _partial(f, p, j, h)
        out[idx] = total
    return out


@cache
def _wedge_term(i1, i2):
    """(sorted i1 + i2, sign of the sort), sign 0 when the indices overlap."""
    merged = i1 + i2
    target = tuple(sorted(merged))
    return target, 0 if set(i1) & set(i2) else _permutation_sign(merged, target)


def wedge(val1, k1, val2, k2, dim):
    """Wedge of two form values (dicts on sorted tuples)."""
    out = zero_value(dim, k1 + k2)
    for i1, c1 in val1.items():
        if c1 == 0.0:
            continue
        for i2, c2 in val2.items():
            if c2 == 0.0:
                continue
            target, sign = _wedge_term(i1, i2)
            if sign:
                out[target] += sign * c1 * c2
    return out


@cache
def _leibniz(k):
    """The k! (sign, permutation) terms of a k x k determinant."""
    return tuple((_permutation_sign(perm, range(k)), perm)
                 for perm in permutations(range(k)))


def _minor(rows, tgt, src, terms):
    """det of the minor rows[tgt][src] as the Leibniz sum over `terms`.

    A 1 x 1 minor is its entry exactly, where a LAPACK determinant, formed
    as sign * exp(log |det|), can miss even that by an ulp."""
    total = 0.0
    for sign, perm in terms:
        prod = sign
        for r, j in zip(tgt, perm):
            prod *= rows[r][src[j]]
        total += prod
    return total


def apply_form(value, vectors):
    """Evaluate a k-form value on k vectors."""
    k = len(vectors)
    if k == 0:
        return value.get((), 0.0)
    rows = [np.asarray(v, dtype=float).tolist() for v in vectors]
    terms = _leibniz(k)
    total = 0.0
    for idx, c in value.items():
        if c == 0.0:
            continue
        total += c * _minor(rows, range(k), idx, terms)
    return total


def two_form_matrix(value, dim):
    """Antisymmetric matrix O with O[i, j] = omega(e_i, e_j)."""
    O = np.zeros((dim, dim))
    for (i, j), c in value.items():
        O[i, j] = c
        O[j, i] = -c
    return O


def one_form_vector(value, dim):
    return _stack([value.get((i,), 0.0) for i in range(dim)])


# The Reeb and Liouville systems count as singular where their determinant,
# a(k) or Pf, is at most this share of the norms that bound it: max(M, N) eps,
# the default rank tolerance of lstsq on the 4 x 3 Reeb system.
_SINGULAR = 4 * sys.float_info.epsilon


def _require(ok, message, value):
    """Raise SingularSystem unless ok holds at every point; the message
    shows value at the first point where it fails."""
    bad = np.logical_not(ok)
    if bad.any():
        raise SingularSystem(message % float(np.broadcast_to(value, bad.shape)[bad][0]))


def _kernel(w):
    """k = (w12, -w02, w01), spanning the kernel of a 2-form value w on a
    3-chart: w(k, .) = 0."""
    return w.get((1, 2), 0.0), -w.get((0, 2), 0.0), w.get((0, 1), 0.0)


def contact_volume(a, w):
    """Top coefficient of a ^ w for a 1-form value a and a 2-form value w on
    a 3-chart: a(k) for the kernel k of w."""
    k0, k1, k2 = _kernel(w)
    return a.get((0,), 0.0) * k0 + a.get((1,), 0.0) * k1 + a.get((2,), 0.0) * k2


def reeb_vector(a, w):
    """The R with w(R, .) = 0 and a(R) = 1: R = k / a(k) for the kernel k.

    Raises SingularSystem where a(k) vanishes relative to |a| |k| (k = 0
    included), i.e. where |cos| of the angle between a and k is at most
    _SINGULAR."""
    k = _kernel(w)
    ak = contact_volume(a, w)
    a0, a1, a2 = (a.get((i,), 0.0) for i in range(3))
    norm = np.hypot(np.hypot(a0, a1), a2) * np.hypot(np.hypot(k[0], k[1]), k[2])
    _require(abs(ak) > _SINGULAR * norm, "d(alpha) degenerate on ker(alpha): a(k) = %r", ak)
    return _stack(k, ak) / ak


_PAIRS4 = tuple(combinations(range(4), 2))


def _six(w):
    """The coefficients w01, w02, w03, w12, w13, w23 of a 2-form value on a
    4-chart."""
    return tuple([w.get(idx, 0.0) for idx in _PAIRS4])


def _pfaffian(a, b, c, d, e, f):
    return a * f - b * e + c * d


def _inverse(w):
    """(O, O^-1) as nested 4 x 4 lists for the matrix O of w: O^-1 is the
    Pfaffian adjugate over Pf, since O adj(O) = Pf I for an antisymmetric
    4 x 4 O.

    Raises SingularSystem where |Pf| is at most _SINGULAR |w|^2 (always
    |Pf| <= |w|^2 / 2, with |w| the norm of the six coefficients)."""
    a, b, c, d, e, f = six = _six(w)
    pf = _pfaffian(*six)
    _require(abs(pf) > _SINGULAR * sum(x * x for x in six), "degenerate 2-form: Pf = %r", pf)
    O = [[0.0, a, b, c], [-a, 0.0, d, e], [-b, -d, 0.0, f], [-c, -e, -f, 0.0]]
    adj = [[0.0, -f, e, -d], [f, 0.0, -c, b], [-e, c, 0.0, -a], [d, -b, a, 0.0]]
    return O, [[x / pf for x in row] for row in adj]


def liouville_vector(lam, w):
    """The X with i_X w = lam on a 4-chart: O^T X = lam, so X = -O^-1 lam."""
    lam = [lam.get((j,), 0.0) for j in range(4)]
    return -_stack([_dot(row, lam) for row in _inverse(w)[1]])


def solve_reeb(alpha, point, h=1e-5):
    """Unique R with d(alpha)(R, .) = 0 and alpha(R) = 1 on a 3-chart."""
    if alpha.chart.dim != 3:
        raise DimensionMismatch("Reeb solve needs a 3-dimensional chart")
    p = np.asarray(point, dtype=float)
    return reeb_vector(alpha.value(p), exterior_derivative(alpha, p, h))


def solve_liouville(lmbda, point, h=1e-5):
    """Unique X with i_X d(lmbda) = lmbda on a 4-chart."""
    if lmbda.chart.dim != 4:
        raise DimensionMismatch("Liouville solve needs a 4-dimensional chart")
    p = np.asarray(point, dtype=float)
    return liouville_vector(lmbda.value(p), exterior_derivative(lmbda, p, h))


def omega_wedge_omega(lmbda, point, h=1e-5):
    """Top coefficient of d(lmbda) ^ d(lmbda) on a 4-chart: 2 Pf."""
    return 2.0 * _pfaffian(*_six(exterior_derivative(lmbda, point, h)))


def check_nondegenerate(lmbda, samples, h=1e-5):
    """Min |omega ^ omega| coefficient over the sample set (an n x 4 array
    or a list of points); nan when it is empty."""
    pts = np.asarray(samples, dtype=float)
    if not len(pts):
        return float("nan")
    return float(np.min(np.abs(omega_wedge_omega(lmbda, pts.T, h))))


def frame_vectors(w, th, X):
    """symplectic_frame from the value w of omega and the vectors of theta
    and X; both solves use the one inverse of O."""
    O, Oinv = _inverse(w)
    # omega(e_j, X_s) = (O X_s)_j = ds_j
    X_s = [row[0] for row in Oinv]
    t = _dot(th, X_s)
    # (i_{d/ds} omega)(e_j) = omega(e_s, e_j) = O[0][j]
    th_corr = [th[j] - t * O[0][j] for j in range(4)]
    frame = [[1.0, 0.0, 0.0, 0.0], X_s, list(X), [_dot(row, th_corr) for row in Oinv]]
    frame_O = [[_dot(row, col) for col in zip(*O)] for row in frame]
    pairing = [[_dot(row, other) for other in frame] for row in frame_O]
    return _matrix(frame), _matrix(pairing), _stack(th_corr)


def symplectic_frame(lmbda, theta, X_field, point, h=1e-5):
    """Frame {d/ds, X_s, X, X_theta} trivializing (TV, omega) at a point
    (or at each point of a sample).

    X_s solves omega(., X_s) = ds; theta is then corrected by
    theta -> theta - theta(X_s) * (i_{d/ds} omega), which kills theta(X_s)
    without touching theta(X); X_theta solves omega(., X_theta) = theta.
    Returns (frame matrix 4x4 rows, pairing matrix, corrected theta vector).
    """
    if lmbda.chart.dim != 4:
        raise DimensionMismatch("frame needs a 4-dimensional chart")
    p = np.asarray(point, dtype=float)
    return frame_vectors(exterior_derivative(lmbda, p, h),
                         one_form_vector(theta.value(p), 4), X_field.value(p))


def pullback(F, form, point, jac):
    """(F^* form) at a point (or sample) of the source chart: F maps it to
    the target chart of `form`, and jac(point) is the Jacobian of F there."""
    return pullback_value(form.value(F(point)), form.degree, jac(point))


def pullback_value(value, k, J):
    """F^* of a k-form value taken at F(p), from the Jacobian J of F at p:
    rows indexed by the target coordinates, entries floats or arrays."""
    terms = _leibniz(k)
    out = {}
    for src_idx in combinations(range(len(J[0])), k):
        total = 0.0
        for tgt_idx, c in value.items():
            if isinstance(c, float) and c == 0.0:  # never a sample array
                continue
            total += c * _minor(J, tgt_idx, src_idx, terms)
        out[src_idx] = total
    return out


def max_value_deviation(val1, val2):
    """Max |val1 - val2| over the coefficients (and the points of a
    sample)."""
    keys = set(val1) | set(val2)
    return max(max_abs(val1.get(k, 0.0) - val2.get(k, 0.0)) for k in keys)


def fd_convergence_ratio(form, points, h=1e-3):
    """Ratio of FD-vs-analytic residuals at h and h/2 (expect about 4)."""
    if not form.has_analytic_d():
        raise ValueError("form has no analytic derivative to compare against")

    def residual(step):
        worst = 0.0
        for p in points:
            num = exterior_derivative(form, p, step, force_numeric=True)
            ana = exterior_derivative(form, p)
            worst = max(worst, max_value_deviation(num, ana))
        return worst

    r1, r2 = residual(h), residual(h / 2)
    if r2 == 0.0:
        return float("inf")
    return r1 / r2
