import math
import os
import subprocess
import sys
from itertools import combinations

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import anosovlab
from anosovlab import oracles
from anosovlab.forms import (
    DimensionMismatch,
    apply_form,
    check_nondegenerate,
    coefficient,
    exterior_derivative,
    fd_convergence_ratio,
    max_value_deviation,
    pullback,
    run_suite,
    solve_liouville,
    solve_reeb,
    symplectic_frame,
    wedge,
)
from anosovlab.forms.calculus import (
    Chart,
    DifferentialForm,
    OutOfDomain,
    SingularSystem,
    contact_volume,
    frame_vectors,
    liouville_vector,
    omega_wedge_omega,
    one_form_vector,
    reeb_vector,
    two_form_matrix,
)
from anosovlab.forms import library as lib
from anosovlab.forms.halton import _PCG64, scrambled_halton
from anosovlab.forms.library import (
    ALPHA_CAN_FERMI,
    ALPHA_PLUS,
    ALPHA_PRE_FERMI,
    ANOSOV_TB,
    LAMBDA_DS,
    LAMBDA_MCDUFF,
    LAMBDA_TB,
    REEB_CAN_FERMI,
    REEB_PRE_FERMI,
    TB4,
    THETA_TB,
    X0_TB,
    X_LAMBDA_MCDUFF,
    fermi_to_halfplane_jac,
    fermi_to_halfplane_point,
    psi0_map,
    ALPHA_PRE_H,
)


def test_d_of_constant_form_vanishes():
    chart = Chart("flat", ("x", "y", "z"), [(-1, 1)] * 3)
    dx = DifferentialForm(chart, 1, {(0,): lambda p: 1.0})
    val = exterior_derivative(dx, np.zeros(3))
    assert all(abs(v) < 1e-9 for v in val.values())


def test_d_exponential_coefficient():
    val = exterior_derivative(ALPHA_PLUS, np.array([0.3, 0.4, 0.0]))
    # dz ^ dx coefficient of d(e^z dx) is e^z = 1 at z = 0
    assert abs(coefficient(val, (2, 0)) - 1.0) < 1e-9


def test_d_squared_random_smooth():
    chart = Chart("flat", ("x", "y", "z"), [(-1, 1)] * 3)
    form = DifferentialForm(
        chart, 1, {(0,): lambda p: math.sin(p[1]) * math.exp(0.3 * p[2])}
    )
    rng = np.random.default_rng(7)
    for _ in range(10):
        p = rng.uniform(-0.5, 0.5, 3)
        dform_comps = exterior_derivative(form, p, 1e-4, force_numeric=True)
        dd = DifferentialForm(
            chart, 2,
            {
                idx: (lambda q, i=idx: exterior_derivative(
                    form, q, 1e-4, force_numeric=True)[i])
                for idx in dform_comps
            },
        )
        val = exterior_derivative(dd, p, 1e-4, force_numeric=True)
        assert all(abs(v) < 1e-6 for v in val.values())


def test_out_of_domain():
    chart = Chart("flat", ("x",), [(-1, 1)])
    form = DifferentialForm(chart, 0, {(): lambda p: p[0] ** 2})
    with pytest.raises(OutOfDomain):
        exterior_derivative(form, np.array([0.9999999]), 1e-5,
                            force_numeric=True)


def test_reeb_closed_forms():
    p = np.array([0.1, 0.7, -0.3])
    from anosovlab.forms.library import REEB_PLUS

    assert np.max(np.abs(solve_reeb(ALPHA_PLUS, p) - REEB_PLUS.value(p))) < 1e-8
    q = np.array([0.3, 0.4, 0.0])
    assert np.max(np.abs(solve_reeb(ALPHA_PLUS, q) - [0.5, 0.5, 0.0])) < 1e-9
    r = np.array([0.0, 0.5, 1.0])
    assert np.max(np.abs(solve_reeb(ALPHA_PRE_FERMI, r) - REEB_PRE_FERMI.value(r))) < 1e-9
    assert np.max(np.abs(solve_reeb(ALPHA_CAN_FERMI, r) - REEB_CAN_FERMI.value(r))) < 1e-8
    # alpha(R) = 1 by construction
    val = ALPHA_CAN_FERMI.value(r)
    R = solve_reeb(ALPHA_CAN_FERMI, r)
    pairing = sum(val.get((i,), 0.0) * R[i] for i in range(3))
    assert abs(pairing - 1.0) < 1e-10


def test_liouville_closed_forms():
    p0 = np.array([0.0, 0.2, 0.3, 0.1])
    X = solve_liouville(LAMBDA_TB, p0)
    assert np.max(np.abs(X - [0.0, 0.0, 0.0, -1.0])) < 1e-9
    p1 = np.array([1.0, 0.2, 0.3, 0.1])
    X1 = solve_liouville(LAMBDA_TB, p1)
    assert np.max(np.abs(X1 - [math.tanh(2), 0, 0, -1 / math.cosh(2)])) < 1e-8
    assert np.max(np.abs(X1 - X0_TB.value(p1))) < 1e-8
    pm = np.array([0.4, 0.2, -0.5, 1.1])
    XM = solve_liouville(LAMBDA_MCDUFF, pm)
    assert np.max(np.abs(XM - X_LAMBDA_MCDUFF.value(pm))) < 1e-8


def test_liouville_defining_residual():
    rng = np.random.default_rng(3)
    from anosovlab.forms.calculus import one_form_vector, two_form_matrix

    for _ in range(50):
        p = np.array([rng.uniform(-0.8, 0.8), rng.uniform(0, 1),
                      rng.uniform(0, 1), rng.uniform(-0.8, 0.8)])
        X = solve_liouville(LAMBDA_TB, p)
        O = two_form_matrix(exterior_derivative(LAMBDA_TB, p), 4)
        lam = one_form_vector(LAMBDA_TB.value(p), 4)
        assert np.max(np.abs(O.T @ X - lam)) < 1e-9


def test_nondegeneracy_and_control():
    pts = TB4.sample_points(100, 7, margin=1e-4)
    assert check_nondegenerate(LAMBDA_TB, pts) > 1e-6
    assert check_nondegenerate(LAMBDA_DS, pts[:20]) < 1e-12


def test_frame_relations():
    p = np.array([0.0, 0.3, 0.6, 0.2])
    frame, pairing, th_corr = symplectic_frame(LAMBDA_TB, THETA_TB, ANOSOV_TB, p)
    assert abs(pairing[0, 1] - 1.0) < 1e-9    # omega(d/ds, X_s) = 1
    assert abs(pairing[2, 3] - 1.0) < 1e-9    # omega(X, X_theta) = theta(X)
    assert abs(th_corr @ frame[1]) < 1e-12    # corrected theta kills X_s
    assert abs(np.linalg.det(pairing)) > 1e-6


def test_pullback_fermi_halfplane():
    p = np.array([0.4, -0.2, 1.3])
    pull = pullback(fermi_to_halfplane_point, ALPHA_PRE_H, p, fermi_to_halfplane_jac)
    assert max_value_deviation(pull, ALPHA_PRE_FERMI.value(p)) < 1e-14


def test_psi0_spot_values():
    img = psi0_map(np.array([0.0, 0.1, 0.2, 0.5]))
    assert abs(img[2]) < 1e-15                      # sinh(0) = 0
    assert abs(img[3] - math.exp(0.5)) < 1e-12


def test_psl2_invariance_op():
    from anosovlab.forms import psl2_invariance
    from anosovlab.forms.library import FERMI3, HALFPLANE3

    ptsh = HALFPLANE3.sample_points(100, 3, margin=1e-4)
    ptsf = FERMI3.sample_points(100, 3, margin=1e-4)
    assert psl2_invariance(ALPHA_PRE_H, "T", ptsh, tau=0.8) < 1e-9
    assert psl2_invariance(ALPHA_CAN_FERMI, "S", ptsf) < 1e-8
    assert psl2_invariance(ALPHA_PRE_H, "identity", ptsh[:20]) < 1e-12
    with pytest.raises(ValueError):
        psl2_invariance(ALPHA_PRE_H, "Q", ptsh)


def test_fd_convergence_ratio():
    pts = TB4.sample_points(20, 5, margin=1e-3)
    ratio = fd_convergence_ratio(LAMBDA_TB, pts)
    assert 3.5 <= ratio <= 4.5


def test_wedge_antisymmetry():
    v1 = {(0,): 2.0, (1,): -1.0}
    v2 = {(1,): 3.0, (2,): 1.0}
    w12 = wedge(v1, 1, v2, 1, 3)
    w21 = wedge(v2, 1, v1, 1, 3)
    for k in w12:
        assert abs(w12[k] + w21[k]) < 1e-15


def test_geiges_spot_value():
    # alpha_+ ^ d alpha_+ = 2 dx^dy^dz at the origin of the torus chart
    p = np.zeros(3)
    vp = ALPHA_PLUS.value(p)
    dp = exterior_derivative(ALPHA_PLUS, p)
    top = wedge(vp, 1, dp, 2, 3)[(0, 1, 2)]
    assert abs(top - 2.0) < 1e-12
    # bilinearity: scaling alpha by 2 scales the volume by 4
    vp2 = {k: 2 * v for k, v in vp.items()}
    dp2 = {k: 2 * v for k, v in dp.items()}
    assert abs(wedge(vp2, 1, dp2, 2, 3)[(0, 1, 2)] - 4.0 * top) < 1e-10


def test_reeb_requires_3d():
    with pytest.raises(DimensionMismatch):
        solve_reeb(LAMBDA_TB, np.zeros(4))


def test_all_suites_pass_small():
    for suite in ("torus-bundle", "mcduff-fermi", "mcduff-halfplane", "covers"):
        checks = run_suite(suite, samples=150, tol=1e-8, seed=11)
        assert all(c["pass"] for c in checks), [c for c in checks if not c["pass"]]


def test_suites_run_for_seeds_1_to_20():
    # sample points are drawn 1e-4 inside the box; the finite-difference
    # checks take only those a whole stencil away from it
    for suite in ("torus-bundle", "mcduff-fermi", "mcduff-halfplane", "covers"):
        for seed in range(1, 21):
            checks = run_suite(suite, samples=100, seed=seed)
            assert all(c["pass"] for c in checks), (suite, seed)


# ------------------------------------------- minors and wedge signs

_entries = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)
_coeffs = st.one_of(st.just(0.0), _entries)


def _values(draw, dim, k):
    """A k-form value on dim coordinates: every sorted index, some zero."""
    return {idx: draw(_coeffs) for idx in combinations(range(dim), k)}


def _constant_form(dim, value, d_value=None):
    """A form with constant coefficients; d_value, if given, is registered
    as its (constant) analytic derivative."""
    chart = Chart("flat%d" % dim, tuple("x%d" % i for i in range(dim)),
                  [(-1, 1)] * dim)
    k = len(next(iter(value)))
    const = lambda v: v and {idx: (lambda p, c=c: c) for idx, c in v.items()}
    return DifferentialForm(chart, k, const(value), d_comps=const(d_value))


def _scale(value, entries, k):
    """A bound on every Leibniz term of every minor, times the coefficients."""
    big = max([1.0] + [abs(x) for x in entries])
    return (1.0 + sum(abs(c) for c in value.values())) * math.factorial(k) * big ** k


@st.composite
def _pullback_cases(draw):
    """(J, form value) with J a tgt x src Jacobian and the form on tgt."""
    tgt, src = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    J = [[draw(_entries) for _ in range(src)] for _ in range(tgt)]
    return J, _values(draw, tgt, draw(st.integers(0, tgt)))


def _pull(J, value):
    form = _constant_form(len(J), value)
    point = np.zeros(len(J[0]))
    F = lambda p: np.zeros(len(J))
    jac = lambda p: np.array(J)
    return (pullback(F, form, point, jac=jac),
            oracles.pullback_det(F, form, point, jac=jac))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(case=_pullback_cases())
def test_pullback_matches_det_oracle(case):
    J, value = case
    got, want = _pull(J, value)
    k = len(next(iter(value)))
    tol = 1e-12 * _scale(value, [x for row in J for x in row], k)
    assert got.keys() == want.keys()
    assert all(abs(got[i] - want[i]) <= tol for i in got), (got, want)
    if k == 1:  # a 1 x 1 minor is its entry: no rounding beyond the sum
        for (s,) in got:
            total = 0.0
            for (t,), c in value.items():
                total += c * J[t][s]
            assert got[(s,)] == total


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(n=st.integers(1, 4), c=_entries, data=st.data())
def test_top_degree_pullback_is_det(n, c, data):
    J = [[data.draw(_entries) for _ in range(n)] for _ in range(n)]
    got, _ = _pull(J, {tuple(range(n)): c})
    tol = 1e-12 * _scale({(): c}, [x for row in J for x in row], n)
    assert got.keys() == {tuple(range(n))}
    assert abs(got[tuple(range(n))] - c * np.linalg.det(np.array(J))) <= tol


@st.composite
def _apply_cases(draw):
    dim = draw(st.integers(1, 4))
    k = draw(st.integers(0, dim))
    vectors = [[draw(_entries) for _ in range(dim)] for _ in range(k)]
    return _values(draw, dim, k), vectors


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(case=_apply_cases())
def test_apply_form_matches_det_oracle(case):
    value, vectors = case
    k = len(vectors)
    tol = 1e-12 * _scale(value, [x for v in vectors for x in v], k)
    got = apply_form(value, [np.array(v) for v in vectors])
    assert abs(got - oracles.apply_form_det(value, vectors)) <= tol


def _wedge_reference(val1, k1, val2, k2, dim):
    """Wedge with each sign counted afresh from the inversions of i1 + i2."""
    out = {idx: 0.0 for idx in combinations(range(dim), k1 + k2)}
    for i1, c1 in val1.items():
        if c1 == 0.0:
            continue
        for i2, c2 in val2.items():
            merged = i1 + i2
            if c2 == 0.0 or len(set(merged)) < len(merged):
                continue
            inversions = sum(a > b for a, b in combinations(merged, 2))
            out[tuple(sorted(merged))] += (-1) ** inversions * c1 * c2
    return out


@st.composite
def _wedge_cases(draw):
    dim = draw(st.integers(1, 4))
    k1 = draw(st.integers(0, dim))
    k2 = draw(st.integers(0, dim - k1))
    return _values(draw, dim, k1), k1, _values(draw, dim, k2), k2, dim


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(case=_wedge_cases())
def test_wedge_matches_fresh_signs(case):
    assert wedge(*case) == _wedge_reference(*case)


_EPS = np.finfo(float).eps
# Both routes of each solve are backward stable, so each is within a small
# multiple of eps cond |x| of the exact x.  On 20000 random draws the kernel
# route stayed within 1 and lstsq within 36 such units of the exact rational
# Reeb field; the bound below allows 128.
_STABLE = 128 * _EPS


def _size(x):
    """A bound on |x|, with no underflow on subnormal entries, plus the
    smallest normal float: below it every operation rounds absolutely."""
    return 2.0 * float(np.max(np.abs(x))) + np.finfo(float).tiny


# coefficients 0 or of size 1e-30 to 10: products of two stay normal floats.
# Below about 1e-154 a(k) and Pf underflow into subnormals and lose digits,
# and the closed forms with them.
_normal_coeffs = st.one_of(st.just(0.0), _entries.filter(lambda x: abs(x) >= 1e-30))


def _normal_values(draw, dim, k):
    return {idx: draw(_normal_coeffs) for idx in combinations(range(dim), k)}


def _solve_or_none(solve, *args):
    try:
        return solve(*args)
    except SingularSystem:
        return None


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_reeb_vector_matches_lstsq_oracle(data):
    a, w = _normal_values(data.draw, 3, 1), _normal_values(data.draw, 3, 2)
    got = _solve_or_none(reeb_vector, a, w)
    want = _solve_or_none(oracles.reeb_vector_lstsq, a, w)
    # where the scales of a and k differ by more than 1 / eps, lstsq's rank
    # test and the relative test of reeb_vector measure different things
    assume(got is not None and want is not None)
    A = np.vstack([two_form_matrix(w, 3).T, one_form_vector(a, 3)])
    tol = _STABLE * np.linalg.cond(A) * _size(want)
    assert np.max(np.abs(got - want)) <= tol
    assert contact_volume(a, w) == wedge(a, 1, w, 2, 3)[(0, 1, 2)]


# integers times powers of two: a(k) is exact, so it is 0 exactly when the
# system is singular
_dyadic = st.builds(lambda i, e: math.ldexp(i, e), st.integers(-20, 20),
                    st.integers(-8, 8))


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(a=st.tuples(_dyadic, _dyadic, _dyadic), w=st.tuples(_dyadic, _dyadic, _dyadic),
       kernel_in_ker_a=st.booleans())
def test_reeb_vector_singular_exactly_where_lstsq_is(a, w, kernel_in_ker_a):
    w = dict(zip(combinations(range(3), 2), w))
    if kernel_in_ker_a:  # a = k x a', so a(k) = 0
        k = np.array([w[(1, 2)], -w[(0, 2)], w[(0, 1)]])
        a = tuple(np.cross(k, a).tolist())
    a = {(i,): x for i, x in enumerate(a)}
    singular = contact_volume(a, w) == 0.0
    assert (_solve_or_none(reeb_vector, a, w) is None) == singular
    assert (_solve_or_none(oracles.reeb_vector_lstsq, a, w) is None) == singular


@pytest.mark.parametrize("alpha, d_alpha, singular", [
    ({(2,): 1.0}, {}, True),                                # dz: k = 0
    ({(0,): 1.0}, {(0, 1): 1.0}, True),                     # a(k) = 0
    ({(0,): 1.0, (2,): 1e-17}, {(0, 1): 1.0}, True),        # cos 1e-17
    ({(0,): 1.0, (2,): 1e-14}, {(0, 1): 1.0}, False),       # cos 1e-14
])
def test_solve_reeb_singular_systems(alpha, d_alpha, singular):
    form = _constant_form(3, alpha, d_alpha)
    for solve in (reeb_vector, oracles.reeb_vector_lstsq):
        assert (_solve_or_none(solve, alpha, d_alpha) is None) == singular
    if singular:
        with pytest.raises(SingularSystem):
            solve_reeb(form, np.zeros(3))
    else:
        assert solve_reeb(form, np.zeros(3)).tolist() == [0.0, 0.0, 1e14]


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_liouville_and_frame_match_solve_oracles(data):
    lam, w = _normal_values(data.draw, 4, 1), _normal_values(data.draw, 4, 2)
    th = np.array([data.draw(_normal_coeffs) for _ in range(4)])
    X = np.array([data.draw(_normal_coeffs) for _ in range(4)])
    got = _solve_or_none(liouville_vector, lam, w)
    want = _solve_or_none(oracles.liouville_vector_solve, lam, w)
    assume(got is not None and want is not None)
    cond = np.linalg.cond(two_form_matrix(w, 4))
    assert np.max(np.abs(got - want)) <= _STABLE * cond * _size(want)
    # the frame solves twice, the second time for a right side built from
    # the first solution: cond twice over
    for x, y in zip(frame_vectors(w, th, X), oracles.frame_vectors_solve(w, th, X)):
        assert np.max(np.abs(x - y)) <= _STABLE * cond**2 * (1 + _size(y))
    # 2 Pf against the generic wedge: six products either way
    top = omega_wedge_omega(_constant_form(4, lam, w), np.zeros(4))
    bound = sum(abs(w[i] * w[j]) for i, j in (((0, 1), (2, 3)), ((0, 2), (1, 3)),
                                              ((0, 3), (1, 2))))
    assert abs(top - wedge(w, 2, w, 2, 4)[(0, 1, 2, 3)]) <= 16 * _EPS * bound


def test_liouville_of_degenerate_form_raises():
    with pytest.raises(SingularSystem):
        solve_liouville(LAMBDA_DS, np.zeros(4))
    with pytest.raises(SingularSystem):
        oracles.liouville_vector_solve(LAMBDA_DS.value(np.zeros(4)), {})


@pytest.mark.parametrize("d", range(1, 7))
def test_scrambled_halton_matches_qmc_bytes(d):
    from scipy.stats import qmc

    for seed in (0, 1, 2, 7, 8, 9, 12345):
        for n in (0, 1, 2, 5, 60, 161, 1000):
            want = qmc.Halton(d=d, scramble=True, seed=seed).random(n)
            got = scrambled_halton(n, d, seed)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize(
    "seed", [0, 1, 7, np.int64(7), 2**32 - 1, 2**32, 2**64 - 1, 2**64 + 5, 3**100])
def test_pcg64_port_matches_numpy_random(seed):
    # the Halton tables stay bit-identical only if every draw does
    ours, ref = _PCG64(seed), np.random.PCG64(seed)
    assert [ours.next64() for _ in range(8)] == [ref.random_raw() for _ in range(8)]
    ours, ref = _PCG64(seed), np.random.default_rng(seed)
    for base in range(1, 14):
        for _ in range(5):
            perm = np.arange(base)
            ref.shuffle(perm)
            mine = list(range(base))
            ours.shuffle(mine)
            assert mine == perm.tolist()


@pytest.mark.parametrize("seed", [-1, -2**70, 1.5, "7"])
def test_pcg64_port_rejects_seeds_numpy_rejects(seed):
    # a negative seed must raise, not loop on seed >> 32 == -1
    with pytest.raises(Exception) as want:
        np.random.PCG64(seed)
    with pytest.raises(want.type):
        _PCG64(seed)


def test_empty_samples():
    # the public checks reduce an empty sample as an empty loop did; a suite
    # refuses one
    empty = np.empty((0, 3))
    for samples in ([], empty):
        assert lib.check_geiges(lib.ALPHA_MINUS, ALPHA_PLUS, samples) == {
            "sum_residual": 0.0, "mixed_residual": 0.0,
            "volume_sign_constant": False, "volume_sign": 0.0}
        assert lib.psl2_invariance(ALPHA_PRE_H, "T", samples) == 0.0
        assert math.isnan(check_nondegenerate(LAMBDA_TB, samples))
    with pytest.raises(ValueError, match="at least one sample"):
        run_suite("covers", samples=0)


# ------------------------------------------- Jacobians and whole samples

_MAPS = [  # (source chart, map, its closed-form Jacobian)
    (lib.FERMI3, fermi_to_halfplane_point, fermi_to_halfplane_jac),
    (lib.COVER4, lib.theta_trivialization, lib.theta_trivialization_jac),
    (lib.COVER4, psi0_map, lib.psi0_jac),
]


@pytest.mark.parametrize("chart, F, jac", _MAPS, ids=["fermi", "theta", "psi0"])
def test_closed_form_jacobians_match_central_differences(chart, F, jac):
    # the central-difference error is O(h^2): halving h quarters it
    for p in chart.sample_points(20, 3, margin=0.1):
        J = np.array(jac(p))
        errs = [np.max(np.abs(oracles.jacobian_fd(F, p, h) - J)) for h in (2e-3, 1e-3)]
        assert errs[0] < 1e-4 and 3.0 < errs[0] / errs[1] < 5.0
        assert np.max(np.abs(oracles.jacobian_fd(F, p) - J)) < 1e-8


_tau = lib.lambda_deformation(0.5)
_SAMPLED = [  # (chart, a per-sample quantity at a point or at a whole sample)
    (lib.TB3, lambda p: (ALPHA_PLUS.value(p), exterior_derivative(ALPHA_PLUS, p),
                         lib.REEB_MINUS.value(p))),
    (lib.TB3, lambda p: (solve_reeb(ALPHA_PLUS, p), solve_reeb(lib.ALPHA_MINUS, p))),
    (lib.FERMI3, lambda p: (solve_reeb(ALPHA_CAN_FERMI, p), solve_reeb(ALPHA_PRE_FERMI, p),
                            REEB_CAN_FERMI.value(p), lib.ANOSOV_FERMI.value(p))),
    (TB4, lambda p: (solve_liouville(LAMBDA_TB, p), X0_TB.value(p),
                     omega_wedge_omega(LAMBDA_TB, p))),
    (TB4, lambda p: symplectic_frame(LAMBDA_TB, THETA_TB, ANOSOV_TB, p)),
    (lib.MCDUFF4, lambda p: (solve_liouville(LAMBDA_MCDUFF, p), X_LAMBDA_MCDUFF.value(p),
                             omega_wedge_omega(LAMBDA_MCDUFF, p))),
    (lib.MCDUFFRAD, lambda p: (_tau.value(p), omega_wedge_omega(_tau, p))),
    (lib.GEODNBHD4, lambda p: (lib.LAMBDA_C.value(p), exterior_derivative(lib.LAMBDA_C, p))),
    (lib.FERMI3, lambda p: pullback(fermi_to_halfplane_point, lib.ALPHA_CAN_H, p,
                                    fermi_to_halfplane_jac)),
    (lib.FERMI3, lambda p: pullback(lib.s_action_fermi, ALPHA_CAN_FERMI, p,
                                    lambda q: np.diag([-1.0, -1.0, 1.0]))),
    (lib.COVER4, lambda p: pullback(lib.theta_trivialization, lib.LAMBDA_COVER_V1, p,
                                    lib.theta_trivialization_jac)),
    (lib.COVER4, lambda p: (pullback(psi0_map, lib.LAMBDA_CAN_T2, p, lib.psi0_jac),
                            lib.LAMBDA_COVER_V2.value(p))),
]


def _leaves(q):
    """The arrays of a quantity: form values key by key, tuples in order."""
    if isinstance(q, dict):
        return [x for k in sorted(q) for x in _leaves(q[k])]
    if isinstance(q, tuple):
        return [x for part in q for x in _leaves(part)]
    return [np.asarray(q, dtype=float)]


@settings(max_examples=10, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**64), n=st.integers(1, 50))
@example(seed=7, n=1)
def test_whole_sample_equals_its_points(seed, n):
    # each point's entries of a whole-sample evaluation agree with the same
    # function called on that point alone, to 4 ulp
    for chart, quantity in _SAMPLED:
        pts = chart.sample_points(n, seed, margin=1e-4)
        whole = _leaves(quantity(pts.T))
        for i, p in enumerate(pts):
            each = _leaves(quantity(p))
            assert len(each) == len(whole)
            for w, x in zip(whole, each):
                w = np.broadcast_to(w, x.shape + (n,))[..., i]
                ulp = np.spacing(np.maximum(np.abs(w), np.abs(x)))
                assert np.all(np.abs(w - x) <= 4 * ulp), (chart.name, i, w, x)


def test_whole_sample_raises_where_a_point_would():
    pts = TB4.sample_points(5, 7, margin=1e-4)
    with pytest.raises(SingularSystem):
        solve_liouville(LAMBDA_DS, pts.T)
    bad = pts.copy()
    bad[3, 0] = 1.5  # s outside [-1, 1]
    with pytest.raises(OutOfDomain, match="1.5"):
        exterior_derivative(LAMBDA_TB, bad.T)
    # a(k) = 0 at the second point only
    w = {(0, 1): np.array([1.0, 1.0]), (1, 2): np.array([1.0, 0.0])}
    assert reeb_vector({(0,): 1.0}, {(0, 1): 1.0, (1, 2): 1.0}).tolist() == [1.0, 0.0, 1.0]
    with pytest.raises(SingularSystem, match=r"a\(k\) = 0\.0"):
        reeb_vector({(0,): 1.0}, w)


@pytest.mark.parametrize("modules, run, package", [
    # scipy.stats alone cost about 0.5 s and 70 MB of import, scipy.integrate
    # and scipy.optimize about 0.7 s and 42 MB; running the beta-curve
    # criterion and a beta curve must not load them lazily either
    (("surface", "hyperbolic", "forms", "shapes", "acceptance", "oracles"),
     "assert anosovlab.acceptance.criterion_10_beta_curve()['pass']; "
     "anosovlab.shapes.build_exact_beta(0.3, 0.95)",
     "scipy"),
    # mpmath is a reference for the oracles only: the exact side and the CLI
    # load it for nothing (about 4 MB of import)
    (("toral", "chords", "homology", "cli"),
     "anosovlab.cli.main(['toral', 'orbits', '--matrix', '2 1 1 1', '--N', '3'])",
     "mpmath"),
    # the benchmark's correctness gate imports the oracles and runs both
    # membership shadows in processes that never load numpy (about 12 MB)
    (("exact", "toral", "chords", "homology", "oracles"),
     "H = anosovlab.toral.eigen_data(anosovlab.toral.parse_matrix('2 1 1 1')); "
     "assert anosovlab.oracles.chord_membership_float(H, (0, 0), (0, 0), 1, 10)"
     " == anosovlab.oracles.chord_membership_mp(H, (0, 0), (0, 0), 1, 10)",
     "numpy"),
    # the oracles load mpmath only for their 200-bit, area and octagon
    # references; the benchmark's gate imports them for the exact ones
    (("toral", "homology", "oracles"),
     "A = anosovlab.toral.parse_matrix('2 1 1 1'); "
     "assert anosovlab.oracles.fixed_points_pointwise_check("
     "A, 3, *anosovlab.toral.fixed_points_raw(A, 3)); "
     "assert anosovlab.oracles.mapping_torus_cellular_cohomology(A)"
     " == anosovlab.homology.mapping_torus_cohomology(A)",
     "mpmath"),
    # the Halton tables are drawn by a port of its generator: numpy.random
    # alone costs about 6 MB of import
    (("forms", "cli"),
     "anosovlab.cli.main(['forms', 'check', '--samples', '40'])",
     "numpy.random"),
], ids=["scipy", "mpmath", "numpy", "mpmath-oracles", "numpy-random"])
def test_imports_leave_package_unloaded(modules, run, package):
    code = ("import sys, %s; %s; sys.stderr.write(repr(sorted("
            "m for m in sys.modules if (m + '.').startswith(%r + '.'))))"
            % (", ".join("anosovlab." + m for m in modules), run, package))
    src = os.path.dirname(os.path.dirname(anosovlab.__file__))
    err = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env=dict(os.environ, PYTHONPATH=src)).stderr
    assert err.strip() == "[]"
