import math
import random

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from anosovlab.hyperbolic import (
    DegenerateConfiguration,
    Geodesic,
    IdenticalGeodesics,
    INF,
    Intersecting,
    Mobius,
    SharedEndpoint,
    grading_check,
    hyperbolic_translation,
    intersect,
    orthogeodesic,
    triangle_enumerate,
)
from anosovlab.oracles import (
    _crossing_by_sampling,
    _sample_geodesic,
    _sides,
    hyperbolic_distance,
    orthogeodesic_length_brute,
    triangle_count_sampled,
    triangle_enumerate_products,
)

AXIS = Geodesic(0.0, INF)


def test_intersect_axis_unit_circle():
    z, ang = intersect(AXIS, Geodesic(-1.0, 1.0))
    assert abs(z - 1j) < 1e-14
    assert abs(ang - math.pi / 2) < 1e-14


def test_intersect_two_semicircles_algebraic_crosscheck():
    g1, g2 = Geodesic(-1.0, 1.0), Geodesic(0.0, 2.0)
    z, _ = intersect(g1, g2)
    # root-finding oracle on the circle equations
    f = lambda x: (g1.radius**2 - (x - g1.center) ** 2) - (
        g2.radius**2 - (x - g2.center) ** 2
    )
    x = brentq(f, 0.0, 1.0, xtol=1e-15)
    y = math.sqrt(g1.radius**2 - (x - g1.center) ** 2)
    assert abs(z - complex(x, y)) < 1e-10


def test_disjoint_and_identical():
    assert intersect(Geodesic(0.0, 1.0), Geodesic(2.0, 3.0)) is None
    with pytest.raises(IdenticalGeodesics):
        intersect(AXIS, Geodesic(INF, 0.0))


def test_translation_properties():
    g = Geodesic(-1.5, 4.0)
    ell = 1.3
    T = hyperbolic_translation(g, ell)
    assert abs(abs(T.trace()) - 2 * math.cosh(ell / 2)) < 1e-12
    fx = T.fixed_points()
    assert abs(fx[0] - g.a) < 1e-10 and abs(fx[1] - g.b) < 1e-10
    z = complex(g.center, g.radius)
    assert abs(hyperbolic_distance(z, T.apply_point(z)) - ell) < 1e-10
    Ta = hyperbolic_translation(AXIS, 2.0)
    assert abs(Ta.m[0, 0] - math.e) < 1e-12 and abs(Ta.m[1, 0]) < 1e-15


def test_mobius_isometry():
    rng = random.Random(5)
    for _ in range(1000):
        m = [[rng.uniform(-2, 2), rng.uniform(-2, 2)],
             [rng.uniform(-2, 2), rng.uniform(-2, 2)]]
        if m[0][0] * m[1][1] - m[0][1] * m[1][0] <= 0.05:
            continue
        M = Mobius(m)
        z1 = complex(rng.uniform(-2, 2), rng.uniform(0.1, 3))
        z2 = complex(rng.uniform(-2, 2), rng.uniform(0.1, 3))
        d1 = hyperbolic_distance(z1, z2)
        d2 = hyperbolic_distance(M.apply_point(z1), M.apply_point(z2))
        assert abs(d1 - d2) < 1e-10


def test_orthogeodesic_crossratio():
    rng = random.Random(9)
    for _ in range(50):
        a = rng.uniform(0.05, 2.0)
        b = a + rng.uniform(0.1, 4.0)
        ch = orthogeodesic(AXIS, Geodesic(a, b))
        assert abs(math.cosh(ch.length) - (b + a) / (b - a)) < 1e-9
        assert abs(AXIS.side(ch.foot1)) < 1e-10
        assert abs(Geodesic(a, b).side(ch.foot2)) < 1e-9


def test_orthogeodesic_symmetric_pair():
    ch = orthogeodesic(Geodesic(-2.0, -1.0), Geodesic(1.0, 2.0))
    # feet symmetric under z -> -conj(z)
    assert abs(ch.foot1 + ch.foot2.conjugate()) < 1e-10


def test_orthogeodesic_monotone_and_limit():
    # d decreases toward 0 as the semicircle approaches the axis
    prev = None
    for a in (2.0, 1.0, 0.5, 0.1, 0.01):
        d = orthogeodesic(AXIS, Geodesic(a, a + 1.0)).length
        if prev is not None:
            assert d < prev
        assert abs(d - math.acosh(2 * a + 1.0)) < 1e-12
        prev = d
    assert prev < math.acosh(1.03)


def test_orthogeodesic_brute_match():
    ch = orthogeodesic(Geodesic(-3.0, -1.0), Geodesic(0.5, 2.0))
    assert abs(orthogeodesic_length_brute(Geodesic(-3.0, -1.0),
                                          Geodesic(0.5, 2.0)) - ch.length) < 1e-6


def test_orthogeodesic_errors():
    with pytest.raises(Intersecting):
        orthogeodesic(AXIS, Geodesic(-1.0, 1.0))
    with pytest.raises(SharedEndpoint):
        orthogeodesic(AXIS, Geodesic(0.0, 3.0))


def test_triangle_empty_when_disjoint():
    pats = triangle_enumerate(Geodesic(-1, 1), AXIS, Geodesic(0.5, 3.0), 2.0, 5)
    assert pats == []


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(g0=st.builds(lambda x, y: Geodesic(-x, y), st.floats(0.5, 2.0),
                    st.floats(0.5, 2.0)),
       g2=st.builds(lambda x, y: Geodesic(-x, y), st.floats(0.1, 1.5),
                    st.floats(0.2, 3.0)),
       ell=st.floats(0.8, 2.5), K=st.integers(0, 6))
def test_triangle_counts_vs_sampling_oracle(g0, g2, ell, K):
    # the ranges of acceptance criterion 11, with K up to 6.  One shared
    # endpoint leaves g0 and g2 asymptotic, where h.side along g is rounding
    # noise and the sampling oracle is no reference (two make them equal,
    # which the oracle reports as no crossing)
    assume(g0.a != g2.a and g0.b != g2.b)
    try:
        pats = triangle_enumerate(g0, AXIS, g2, ell, K)
    except DegenerateConfiguration:
        return
    assert len(pats) == triangle_count_sampled(g0, AXIS, g2, ell, K)
    for p in pats:
        assert p.angle_sum < math.pi and p.area > 0


def _scalar_crossing(g, h, n=2000, bisect=80):
    """_crossing_by_sampling as a point-by-point loop over complex samples."""
    if {g.a, g.b} == {h.a, h.b}:
        return None
    if g.is_vertical:
        ys = np.tan(np.linspace(0.05, math.pi / 2 - 0.05, n))
        pts = [complex(g.foot, y) for y in ys]
    else:
        angs = np.linspace(0.02, math.pi - 0.02, n)
        pts = [complex(g.center + g.radius * math.cos(a),
                       g.radius * math.sin(a)) for a in angs]
    sides = [h.side(z) for z in pts]
    for i in range(n - 1):
        if sides[i] == 0.0:
            return pts[i]
        if sides[i] * sides[i + 1] < 0:
            lo, hi = pts[i], pts[i + 1]
            slo = sides[i]
            for _ in range(bisect):
                mid = 0.5 * (lo + hi)
                if g.is_vertical:
                    mid = complex(g.foot, mid.imag)
                else:
                    ang = math.atan2(mid.imag, mid.real - g.center)
                    mid = complex(g.center + g.radius * math.cos(ang),
                                  g.radius * math.sin(ang))
                sm = h.side(mid)
                if sm == 0.0:
                    return mid
                if slo * sm < 0:
                    hi = mid
                else:
                    lo, slo = mid, sm
            return 0.5 * (lo + hi)
    return None


def _bits(z):
    return None if z is None else (z.real.hex(), z.imag.hex())


_ENDS = st.floats(-5.0, 5.0)
# semicircles of every size down to a width of 1e-9, and vertical lines
# pointing either way
_GEODESICS = (
    st.tuples(_ENDS, _ENDS).filter(lambda e: abs(e[1] - e[0]) > 1e-9)
    .map(lambda e: Geodesic(*e))
    | st.builds(lambda x, up: Geodesic(x, INF) if up else Geodesic(INF, x),
                _ENDS, st.booleans())
)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(g=_GEODESICS, h=_GEODESICS)
def test_sampled_sides_bit_for_bit(g, h):
    xs, ys = _sample_geodesic(g, 2000)
    pts = [complex(x, y) for x, y in zip(xs.tolist(), ys.tolist())]
    want = np.array([h.side(z) for z in pts])
    assert _sides(h, xs, ys).tobytes() == want.tobytes()


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(g=_GEODESICS, h=_GEODESICS)
def test_crossing_by_sampling_matches_scalar_loop(g, h):
    assert _bits(_crossing_by_sampling(g, h)) == _bits(_scalar_crossing(g, h))


def test_sampling_oracle_sees_no_crossing_of_a_geodesic_with_itself():
    g = Geodesic(-0.5, 0.75)
    assert _crossing_by_sampling(g, g) is None
    assert _crossing_by_sampling(g, g.reversed()) is None
    assert triangle_count_sampled(g, AXIS, g, 1.0, 0) == 0
    assert triangle_enumerate(g, AXIS, g, 1.0, 0) == []


def test_triangle_mobius_invariance():
    # at K = 40 Mobius products of T^k lost the sign of the determinant
    g0, g1, g2 = Geodesic(-1.0, 1.0), AXIS, Geodesic(-0.5, 3.0)
    M = Mobius([[2.0, 0.5], [0.3, 1.0]])
    for K in (5, 40):
        pats = triangle_enumerate(g0, g1, g2, 1.2, K)
        pats2 = triangle_enumerate(
            M.apply_geodesic(g0), M.apply_geodesic(g1), M.apply_geodesic(g2),
            1.2, K
        )
        assert len(pats) == len(pats2) == 1
        assert [p.k for p in pats] == [p.k for p in pats2]


@pytest.mark.parametrize("g1", [AXIS, Geodesic(-0.2, 5.0)])
@pytest.mark.parametrize("ell", [50.0, 1e308])
def test_triangle_huge_translation_length(g1, ell):
    # T^-1 g2 collapses onto an endpoint of g1 and e^ell overflows: the
    # Mobius products raised (OverflowError, or a lost determinant sign)
    pats = triangle_enumerate(Geodesic(-1.0, 1.0), g1, Geodesic(-0.5, 3.0),
                              ell, 3)
    assert [p.k for p in pats] == [0]


def _crossing(lo, hi):
    """A geodesic from -x to y (x, y in [lo, hi]) crossing the axis."""
    return st.builds(lambda x, y: Geodesic(-x, y), st.floats(lo, hi),
                     st.floats(lo, hi))


# entries on a 1/1000 grid in [-2, 2] with det > 1/4: well-conditioned maps
_POSITIVE_DET = st.lists(st.integers(-2000, 2000).map(lambda i: i / 1000),
                         min_size=4, max_size=4).filter(
    lambda m: m[0] * m[3] - m[1] * m[2] > 0.25)


def _conjugated(g0, g1, g2, m):
    M = Mobius([m[:2], m[2:]])
    return [M.apply_geodesic(g) for g in (g0, g1, g2)]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(g0=_crossing(0.5, 2.0), g2=_crossing(0.1, 3.0),
       flip=st.tuples(st.booleans(), st.booleans()),
       ell=st.floats(0.3, 2.5), K=st.integers(0, 20),
       m=st.none() | _POSITIVE_DET)
def test_triangle_enumerate_matches_products(g0, g2, flip, ell, K, m):
    g1 = AXIS.reversed() if flip[0] else AXIS
    g2 = g2.reversed() if flip[1] else g2
    if m is not None:  # non-vertical g1, same orientation as before
        g0, g1, g2 = _conjugated(g0, g1, g2, m)
    try:
        want = triangle_enumerate_products(g0, g1, g2, ell, K)
    except ValueError:
        return  # lost precision or degenerate: the products are no reference
    got = triangle_enumerate(g0, g1, g2, ell, K)
    assert [p.k for p in got] == [p.k for p in want]
    for p, q in zip(got, want):
        for a, b in zip(p.vertices + p.angles, q.vertices + q.angles):
            assert abs(a - b) <= 1e-9 * abs(b)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(g0=_crossing(0.5, 2.0), g2=_crossing(0.1, 3.0), ell=st.floats(0.3, 2.5),
       K=st.integers(0, 60), m=_POSITIVE_DET)
def test_triangle_conjugation_invariance_long_windows(g0, g2, ell, K, m):
    # K ell up to 150, far past where Mobius products of T^k break down
    try:
        want = [p.k for p in triangle_enumerate(g0, AXIS, g2, ell, K)]
    except DegenerateConfiguration:
        return
    got = triangle_enumerate(*_conjugated(g0, AXIS, g2, m), ell, K)
    assert [p.k for p in got] == want


def test_triangle_degenerate_rejected():
    # all three geodesics pass through i: the vertices collide
    g0 = Geodesic(-1.0, 1.0)
    g2 = Geodesic(-2.0, 0.5)  # |i - (-0.75)| = 1.25 = radius: through i
    with pytest.raises(DegenerateConfiguration):
        triangle_enumerate(g0, AXIS, g2, 1.0, 1)


def test_grading_gate():
    assert grading_check(0, 0, 0)
    assert grading_check(1, 2, 3)
    assert not grading_check(1, 2, 4)

