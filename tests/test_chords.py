import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anosovlab.acceptance import MATRIX_BATTERY
from anosovlab.chords import (
    IncompatibleEndpoints,
    MismatchedMonodromy,
    OutsideCone,
    ZeroVector,
    _edge_lattice_points,
    chord_slope,
    class_disjointness,
    cone_contains,
    cone_spec,
    enumerate_chords,
    enumerate_rational_fibers,
    homotopy_class,
    hw_rank_table,
    product_candidates,
)
from anosovlab.oracles import (
    chord_membership_float,
    chord_membership_mp,
    cone_box_area,
    cone_raster_count,
    eigen_coefficients,
)
from anosovlab.toral import eigen_data, orbits_up_to_period, parse_matrix
from strategies import hyperbolic_matrices

CAT = parse_matrix("2 1 1 1")
H = eigen_data(CAT)


def test_cone_contains_bisector():
    cone = cone_spec(H, +1)
    e0 = (float(cone.edge0[0]), float(cone.edge0[1]))
    e1 = (float(cone.edge1[0]), float(cone.edge1[1]))
    mid = (Fraction(e0[0] + e1[0]).limit_denominator(10**6),
           Fraction(e0[1] + e1[1]).limit_denominator(10**6))
    assert cone_contains(cone, mid)
    assert not cone_contains(cone, (-mid[0], -mid[1]))
    with pytest.raises(ZeroVector):
        cone_contains(cone, (0, 0))


def test_cone_vs_200bit_shadow():
    cone = cone_spec(H, +1)
    got = {
        (m, n)
        for m in range(-8, 9)
        for n in range(-8, 9)
        if (m, n) != (0, 0) and cone_contains(cone, (m, n))
    }
    assert got == chord_membership_mp(H, (0, 0), (0, 0), +1, 8)


def test_enumerate_same_point_k0_empty():
    cs = enumerate_chords(H, (0, 0), (0, 0), +1, 0)
    assert cs.count() == 0 and cs.chords == ()


def test_enumerate_matches_float_oracle_small():
    for sign in (+1, -1):
        cs = enumerate_chords(H, (0, 0), (Fraction(1, 5), Fraction(2, 5)),
                              sign, 8)
        got = {(c.m, c.n) for c in cs.chords}
        assert got == chord_membership_float(
            H, (0, 0), (Fraction(1, 5), Fraction(2, 5)), sign, 8
        )


def test_filtration_monotone():
    cs = enumerate_chords(H, (0, 0), (0, 0), -1, 15, with_chords=False)
    assert all(a <= b for a, b in zip(cs.counts_by_k, cs.counts_by_k[1:]))


def test_slope_reconstruction_residual():
    cs = enumerate_chords(H, (0, 0), (0, 0), +1, 10)
    vx = (float(H.vx[0]), float(H.vx[1]))
    vy = (float(H.vy[0]), float(H.vy[1]))
    for c in cs.chords:
        dx = math.exp(-c.z) * vx[0] + math.exp(c.z) * vy[0]
        dy = math.exp(-c.z) * vx[1] + math.exp(c.z) * vy[1]
        cross = dx * c.n - dy * c.m
        scale = math.hypot(dx, dy) * max(abs(c.m), abs(c.n))
        assert abs(cross) / scale < 1e-12


def test_slope_scale_invariance():
    c = enumerate_chords(H, (0, 0), (0, 0), -1, 4).chords[0]
    z1, _, _ = chord_slope(H, (c.m, c.n), -1)
    z2, _, _ = chord_slope(H, (2 * c.m, 2 * c.n), -1)
    assert abs(z1 - z2) < 1e-15


def test_slope_range_and_outside_error():
    cs = enumerate_chords(H, (0, 0), (0, 0), +1, 10)
    for c in cs.chords:
        assert 0.0 <= c.z < H.nu
    with pytest.raises(OutsideCone):
        chord_slope(H, (1, 0), +1)


def _reference_slope(H, w, sign):
    """The slope through exact QuadNum eigen-coefficients, as chord_slope
    computed it before its integer form."""
    a, b = eigen_coefficients(H, w)
    z = 0.5 * math.log(float(b / (a * sign))) % H.nu
    return z - H.nu if z >= H.nu else z


_SMALL_FRACTIONS = st.builds(Fraction, st.integers(-21, 21), st.integers(1, 7))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(A=hyperbolic_matrices(), sign=st.sampled_from((1, -1)),
       p=st.tuples(_SMALL_FRACTIONS, _SMALL_FRACTIONS),
       q=st.tuples(_SMALL_FRACTIONS, _SMALL_FRACTIONS),
       kmax=st.integers(0, 8))
def test_integer_slopes_match_quadnum_reference(A, sign, p, q, kmax):
    H = eigen_data(A)
    cs = enumerate_chords(H, p, q, sign, kmax)
    assert len(cs.chords) == cs.count()
    for c in cs.chords:
        w = (q[0] + c.m - p[0], q[1] + c.n - p[1])
        assert c.z.hex() == _reference_slope(H, w, sign).hex()
        assert c.action.hex() == math.hypot(float(w[0]), float(w[1])).hex()
    for m, n, z in enumerate_rational_fibers(H, sign, kmax):
        assert z.hex() == _reference_slope(H, (m, n), sign).hex()


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(A=hyperbolic_matrices(), sign=st.sampled_from((1, -1)),
       w=st.tuples(_SMALL_FRACTIONS, _SMALL_FRACTIONS)
       .filter(lambda w: w != (0, 0)))
def test_chord_slope_matches_quadnum_reference(A, sign, w):
    H = eigen_data(A)
    a, b = eigen_coefficients(H, w)
    if b.sign() > 0 and (a * sign).sign() > 0:
        z, a2, b2 = chord_slope(H, w, sign)
        assert (a2, b2) == (a, b)
        assert z.hex() == _reference_slope(H, w, sign).hex()
    else:
        with pytest.raises(OutsideCone):
            chord_slope(H, w, sign)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(A=st.sampled_from(MATRIX_BATTERY), sign=st.sampled_from((1, -1)),
       p=st.tuples(_SMALL_FRACTIONS, _SMALL_FRACTIONS),
       q=st.tuples(_SMALL_FRACTIONS, _SMALL_FRACTIONS)
       | st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
       kmax=st.integers(0, 30))
def test_membership_shadows_match_exact(A, sign, p, q, kmax):
    # an integer q is read as a shift of p: the zero vector is in the box
    if all(isinstance(c, int) for c in q):
        q = (p[0] + q[0], p[1] + q[1])
    H = eigen_data(A)
    exact = {(c.m, c.n) for c in enumerate_chords(H, p, q, sign, kmax).chords}
    assert chord_membership_mp(H, p, q, sign, kmax) == exact
    assert chord_membership_float(H, p, q, sign, kmax) == exact


def _meshgrid_raster_count(e0, e1, k, grid):
    # the whole 2-D raster at once: the reference for the row count, and
    # about 71 MB at the production grid of 1500, so only run on small grids
    xs = np.linspace(-k, k, grid, endpoint=False) + k / grid
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    inside = (e0[0] * Y - e0[1] * X > 0) & (X * e1[1] - Y * e1[0] > 0)
    return int(inside.sum())


# zero components make a test constant along a row, and small integers put
# cell centres exactly on an edge
_EDGE_COMPONENTS = (st.sampled_from((0.0, -0.0, 1.0, -1.0, 0.5, -2.0))
                    | st.floats(-4, 4, allow_nan=False))
_EDGES = st.lists(_EDGE_COMPONENTS, min_size=2, max_size=2)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(e0=_EDGES, e1=_EDGES, k=st.floats(0.5, 200), grid=st.integers(1, 300))
def test_row_raster_count_matches_meshgrid(e0, e1, k, grid):
    assert cone_raster_count(e0, e1, k, grid) == _meshgrid_raster_count(
        e0, e1, k, grid)


def test_cone_box_area_pinned():
    # the values of the 2-D raster at the production grid
    assert cone_box_area(H, +1, 100) == 3911.5022222222224
    assert cone_box_area(H, -1, 100) == 4953.6177777777775


def test_cone_box_area_runs_in_small_memory():
    # the 1500 x 1500 meshgrid raster peaked at about 71 MB per call
    tracemalloc.start()
    try:
        for sign in (+1, -1):
            cone_box_area(H, sign, 100)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_fibers_empty_and_counts():
    assert enumerate_rational_fibers(H, +1, 0) == []
    fibers = enumerate_rational_fibers(H, +1, 5)
    cs = enumerate_chords(H, (0, 0), (0, 0), +1, 5)
    prim = [c for c in cs.chords if math.gcd(abs(c.m), abs(c.n)) == 1]
    assert len(fibers) == len(prim)
    zs = [z for _, _, z in fibers]
    assert len(set(zs)) == len(zs)
    # distinct primitive vectors never share a direction
    for A in MATRIX_BATTERY:
        for sign in (+1, -1):
            vs = enumerate_rational_fibers(eigen_data(A), sign, 8)
            for i, (mi, ni, _) in enumerate(vs):
                for mj, nj, _ in vs[i + 1:]:
                    assert mi * nj - mj * ni != 0


def test_quadratic_growth_battery():
    # counts/k^2 drift by < 5% between k = 200 and k = 400 for three
    # matrices and four endpoint pairs
    pairs = [
        ((0, 0), (0, 0)),
        ((0, 0), (Fraction(1, 2), Fraction(1, 3))),
        ((Fraction(1, 5), Fraction(2, 5)), (0, 0)),
        ((Fraction(1, 7), Fraction(3, 7)), (Fraction(2, 7), Fraction(6, 7))),
    ]
    for mat in ("2 1 1 1", "3 1 2 1", "5 2 2 1"):
        Hm = eigen_data(parse_matrix(mat))
        for p, q in pairs:
            cs = enumerate_chords(Hm, p, q, +1, 400, with_chords=False)
            r200 = cs.counts_by_k[200] / 200.0**2
            r400 = cs.counts_by_k[400] / 400.0**2
            assert abs(r200 - r400) / r400 < 0.05


def test_hw_rank_table():
    orbs = orbits_up_to_period(CAT, 2)
    fixed = orbs[0]
    per2 = orbs[1]
    rep0 = hw_rank_table(H, fixed, fixed, 0)
    assert rep0["morse"] == {"0": 1, "1": 1}
    assert rep0["chord_rank"] == 0 and rep0["total_rank"] == 2
    prev = -1
    for k in range(0, 6):
        r = hw_rank_table(H, fixed, per2, k)
        assert r["morse"] is None
        assert r["total_rank"] >= prev
        prev = r["total_rank"]
    other = eigen_data(parse_matrix("3 1 2 1"))
    with pytest.raises(MismatchedMonodromy):
        hw_rank_table(other, per2, per2, 2)  # cat-map orbit, wrong matrix


def test_homotopy_class_and_disjointness():
    cs = enumerate_chords(H, (0, 0), (0, 0), -1, 4)
    for c in cs.chords:
        m, n, t = homotopy_class(c)
        assert (m, n) != (0, 0) and t == 0
    rep = class_disjointness(H, box_bound=20)
    assert rep["disjoint"]
    assert rep["disc_not_square"]
    assert rep["overlap"] == [] and rep["edge_lattice_points"] == []


def test_edge_lattice_points_vs_scan():
    rng = random.Random(3)
    for _ in range(300):
        # half the edges are rational (ax*ey == bx*cy) and do hit the lattice
        ax, cy = rng.randint(-4, 4), rng.randint(-4, 4)
        t = rng.choice([0, 1, -2, 3]) if rng.random() < 0.5 else None
        bx, ey = (t * ax, t * cy) if t is not None else (rng.randint(-4, 4),
                                                       rng.randint(-4, 4))
        if not (ax or bx or cy or ey):
            continue
        box = rng.randint(0, 9)
        ref = [(m, n) for m in range(-box, box + 1)
               for n in range(-box, box + 1)
               if (m or n) and ax * n == cy * m and bx * n == ey * m]
        assert _edge_lattice_points(ax, bx, cy, ey, box) == ref


def test_disjointness_battery_box50():
    for mat in ("2 1 1 1", "3 1 2 1", "5 2 2 1"):
        Hm = eigen_data(parse_matrix(mat))
        assert class_disjointness(Hm, box_bound=50)["disjoint"]


def test_product_candidates_fixed_point():
    orbs = orbits_up_to_period(CAT, 1)
    fixed = orbs[0]
    cs = enumerate_chords(H, (0, 0), (0, 0), +1, 6)
    c01, c12 = cs.chords[0], cs.chords[1]
    out = product_candidates(H, c01, c12, fixed, 0)
    assert len(out) == 1  # exactly one exponent in the window
    k, cand = out[0]
    assert k == 0
    # bookkeeping identity: the candidate class is A^j (w01 + A^k w12)
    # for the slope-reducing exponent j
    raw = (Fraction(c01.m + c12.m), Fraction(c01.n + c12.n))
    got = (cand.target[0] + cand.m - cand.source[0],
           cand.target[1] + cand.n - cand.source[1])
    assert _is_monodromy_translate(raw, got)
    assert 0.0 <= cand.z < H.nu
    # window of exponents grows linearly with the bound
    out3 = product_candidates(H, c01, c12, fixed, 3)
    assert [k for k, _ in out3] == [-3, -2, -1, 0, 1, 2, 3]
    for _, c in out3:
        assert 0.0 <= c.z < H.nu


def _is_monodromy_translate(raw, got, window=8):
    for j in range(-window, window + 1):
        Aj = CAT.pow(j) if j >= 0 else parse_matrix("1 -1 -1 2").pow(-j)
        if Aj.apply(raw) == got:
            return True
    return False


def test_product_candidates_bookkeeping_nontrivial_orbit():
    orbs = orbits_up_to_period(CAT, 2)
    per2 = orbs[1]
    p0 = (Fraction(0), Fraction(0))
    q1 = per2.points[0]
    p1 = per2.points[1]
    q2 = (Fraction(0), Fraction(0))
    c01 = enumerate_chords(H, p0, q1, +1, 6).chords[0]
    c12 = enumerate_chords(H, p1, q2, +1, 6).chords[0]
    out = product_candidates(H, c01, c12, per2, 4)
    assert out, "window should contain at least one exponent"
    ks = [k for k, _ in out]
    assert all((k - ks[0]) % per2.period == 0 for k in ks)
    for k, cand in out:
        # independent recomputation of the concatenated translate, up to
        # the slope-reducing monodromy power
        Ak = CAT.pow(k) if k >= 0 else parse_matrix("1 -1 -1 2").pow(-k)
        w01 = (q1[0] + c01.m - p0[0], q1[1] + c01.n - p0[1])
        w12 = (q2[0] + c12.m - p1[0], q2[1] + c12.n - p1[1])
        akw = Ak.apply(w12)
        w02 = (w01[0] + akw[0], w01[1] + akw[1])
        got = (cand.target[0] + cand.m - cand.source[0],
               cand.target[1] + cand.n - cand.source[1])
        assert _is_monodromy_translate(w02, got)
        assert 0.0 <= cand.z < H.nu


def test_product_candidates_slope_interpolation():
    # the raw slope of the concatenated class lies between the input slope
    # and the monodromy-shifted input slope
    orbs = orbits_up_to_period(CAT, 1)
    fixed = orbs[0]
    cs = enumerate_chords(H, (0, 0), (0, 0), +1, 6)
    c01, c12 = cs.chords[0], cs.chords[2]
    for k, cand in product_candidates(H, c01, c12, fixed, 3):
        w01 = (Fraction(c01.m), Fraction(c01.n))
        w12 = (Fraction(c12.m), Fraction(c12.n))
        Ak = CAT.pow(k) if k >= 0 else parse_matrix("1 -1 -1 2").pow(-k)
        akw = Ak.apply(w12)
        w02 = (w01[0] + akw[0], w01[1] + akw[1])
        a, b = eigen_coefficients(H, w02)
        z_raw = 0.5 * math.log(float(b / a))
        # A^k shifts eigen-coefficient slopes by -k nu
        lo = min(c01.z, c12.z - k * H.nu)
        hi = max(c01.z, c12.z - k * H.nu)
        assert lo - 1e-12 <= z_raw <= hi + 1e-12
        # the emitted candidate is the mod-nu reduction of the raw slope
        assert abs((z_raw - cand.z) % H.nu) < 1e-9 or \
            abs((z_raw - cand.z) % H.nu - H.nu) < 1e-9


def test_product_candidates_incompatible():
    orbs = orbits_up_to_period(CAT, 2)
    fixed, per2 = orbs[0], orbs[1]
    c_fix = enumerate_chords(H, (0, 0), (0, 0), +1, 6).chords[0]
    c_mix = enumerate_chords(H, per2.points[0], (0, 0), +1, 6).chords[0]
    with pytest.raises(IncompatibleEndpoints):
        product_candidates(H, c_fix, c_mix, per2, 1)
