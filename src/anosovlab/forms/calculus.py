"""Numeric exterior calculus on coordinate charts.

Forms are stored as coefficient functions on sorted index tuples; the
exterior derivative is taken analytically when the closed-form coefficients
were registered and by central differences otherwise.  The solves at a
point are closed forms of their 3 x 3 and 4 x 4 systems: the kernel of
d(alpha) for the Reeb field, the Pfaffian adjugate for the Liouville field
and the symplectic frame.
"""

from __future__ import annotations

import math
import sys
from functools import cache, lru_cache
from itertools import combinations, permutations

import numpy as np


class OutOfDomain(ValueError):
    pass


class SingularSystem(ValueError):
    pass


class DimensionMismatch(ValueError):
    pass


def _primes(d):
    """The first d primes."""
    out = []
    n = 2
    while len(out) < d:
        if all(n % p for p in out):
            out.append(n)
        n += 1
    return out


@lru_cache(maxsize=64)
def _halton_digit_terms(d, seed):
    """Per axis: (base, terms), where terms[j, v] is perm_j[v] / base^(j+1).

    Owen's (2017) random digit permutations perm_j: for the i-th prime
    `base`, ceil(54 / log2 base) - 1 copies of range(base), each shuffled in
    turn by one generator shared across the axes (the draws of
    scipy.stats.qmc.Halton(d, scramble=True, seed=seed)).  The weight of row
    j + 1 is the weight of row j divided by base, starting from 1/base."""
    rng = np.random.default_rng(seed)
    tables = []
    for base in _primes(d):
        count = math.ceil(54 / math.log2(base)) - 1
        perms = np.repeat(np.arange(base)[None], count, axis=0)
        for perm in perms:
            rng.shuffle(perm)
        weights = [1.0 / base]
        for _ in range(count - 1):
            weights.append(weights[-1] / base)
        terms = perms * np.array(weights)[:, None]
        terms.flags.writeable = False
        tables.append((base, terms))
    return tuple(tables)


def scrambled_halton(n, d, seed):
    """First n points of the scrambled Halton sequence in [0, 1)^d.

    Coordinate i of point k adds up the digit terms of every row j of the
    i-th prime, from 0.0 and in row order, so the points are bit-identical
    to scipy.stats.qmc.Halton(d, scramble=True, seed=seed).random(n)."""
    k = np.arange(n)
    out = np.empty((n, d))
    for i, (base, table) in enumerate(_halton_digit_terms(d, seed)):
        v = np.zeros(n)
        place = 1  # base^j
        for row in table:
            # past place >= n every digit of k < n is 0
            v += row[k // place % base] if place < n else row[0]
            place *= base
        out[:, i] = v
    return out


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
        for x, (lo, hi), per in zip(point, self.box, self.periodic):
            if per:
                continue
            if not (lo + margin <= x <= hi - margin):
                return False
        return True


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
        p = np.asarray(point, dtype=float)
        return {idx: f(p) for idx, f in self.comps.items()}

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
        p = np.asarray(point, dtype=float)
        return np.array([f(p) for f in self.comps], dtype=float)


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
    """d(form) at a point: analytic coefficients if registered, else O(h^2)
    central differences.  Returns a (k+1)-form value dict."""
    p = np.asarray(point, dtype=float)
    if not form.chart.contains(p, margin=0.0 if not force_numeric and form.has_analytic_d() else h):
        raise OutOfDomain("point %r too close to the box boundary" % (p,))
    if form.has_analytic_d() and not force_numeric:
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
    return np.array([value.get((i,), 0.0) for i in range(dim)])


# The Reeb and Liouville systems count as singular where their determinant,
# a(k) or Pf, is at most this share of the norms that bound it: max(M, N) eps,
# the default rank tolerance of lstsq on the 4 x 3 Reeb system.
_SINGULAR = 4 * sys.float_info.epsilon


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
    norm = math.hypot(*(a.get((i,), 0.0) for i in range(3))) * math.hypot(*k)
    if not abs(ak) > _SINGULAR * norm:
        raise SingularSystem("d(alpha) degenerate on ker(alpha): a(k) = %r" % ak)
    return np.array(k) / ak


_PAIRS4 = tuple(combinations(range(4), 2))


def _six(w):
    """The coefficients w01, w02, w03, w12, w13, w23 of a 2-form value on a
    4-chart."""
    return tuple([w.get(idx, 0.0) for idx in _PAIRS4])


def _pfaffian(a, b, c, d, e, f):
    return a * f - b * e + c * d


def _inverse(w):
    """(O, O^-1) for the 4 x 4 matrix O of w: O^-1 is the Pfaffian adjugate
    over Pf, since O adj(O) = Pf I for an antisymmetric 4 x 4 O.

    Raises SingularSystem where |Pf| is at most _SINGULAR |w|^2 (always
    |Pf| <= |w|^2 / 2, with |w| the norm of the six coefficients)."""
    a, b, c, d, e, f = six = _six(w)
    pf = _pfaffian(*six)
    if not abs(pf) > _SINGULAR * sum(x * x for x in six):
        raise SingularSystem("degenerate 2-form: Pf = %r" % pf)
    O = np.array([[0.0, a, b, c], [-a, 0.0, d, e], [-b, -d, 0.0, f], [-c, -e, -f, 0.0]])
    adj = np.array([[0.0, -f, e, -d], [f, 0.0, -c, b], [-e, c, 0.0, -a], [d, -b, a, 0.0]])
    return O, adj / pf


def liouville_vector(lam, w):
    """The X with i_X w = lam on a 4-chart: O^T X = lam, so X = -O^-1 lam."""
    return -(_inverse(w)[1] @ one_form_vector(lam, 4))


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
    """Min |omega ^ omega| coefficient over the sample set."""
    return min((abs(omega_wedge_omega(lmbda, p, h)) for p in samples),
               default=float("nan"))


def frame_vectors(w, th, X):
    """symplectic_frame from the value w of omega and the vectors of theta
    and X at one point; both solves use the one inverse of O."""
    O, Oinv = _inverse(w)
    e_s = np.array([1.0, 0.0, 0.0, 0.0])
    # omega(e_j, X_s) = (O X_s)_j = ds_j
    X_s = Oinv[:, 0]
    i_es_omega = O[0]               # (i_{d/ds} omega)(e_j) = omega(e_s, e_j)
    th_corr = th - float(th @ X_s) * i_es_omega
    X_th = Oinv @ th_corr
    frame = np.array([e_s, X_s, X, X_th])
    pairing = frame @ O @ frame.T
    return frame, pairing, th_corr


def symplectic_frame(lmbda, theta, X_field, point, h=1e-5):
    """Frame {d/ds, X_s, X, X_theta} trivializing (TV, omega) at a point.

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


def jacobian_fd(F, point, h=1e-6):
    p = np.asarray(point, dtype=float)
    cols = []
    for axis in range(len(p)):
        p1, p2 = p.copy(), p.copy()
        p1[axis] += h
        p2[axis] -= h
        cols.append((np.asarray(F(p1), dtype=float) - np.asarray(F(p2), dtype=float)) / (2 * h))
    return np.array(cols).T


def pullback(F, form, point, jac=None, h=1e-6):
    """(F^* form) at a point of the source chart.

    F maps source points to the target chart of `form`; jac may supply an
    analytic Jacobian function, else central differences are used."""
    p = np.asarray(point, dtype=float)
    J = np.asarray(jac(p), dtype=float) if jac is not None else jacobian_fd(F, p, h)
    target_val = form.value(F(p))
    rows = J.tolist()
    terms = _leibniz(form.degree)
    out = {}
    for src_idx in combinations(range(J.shape[1]), form.degree):
        total = 0.0
        for tgt_idx, c in target_val.items():
            if c == 0.0:
                continue
            total += c * _minor(rows, tgt_idx, src_idx, terms)
        out[src_idx] = total
    return out


def max_value_deviation(val1, val2):
    keys = set(val1) | set(val2)
    return max(abs(val1.get(k, 0.0) - val2.get(k, 0.0)) for k in keys)


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
