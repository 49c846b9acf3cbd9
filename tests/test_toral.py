from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings

from anosovlab.exact import QuadNum
from anosovlab.oracles import fixed_points_pointwise_check
from anosovlab.toral import (
    NotHyperbolic,
    NotUnimodular,
    eigen_data,
    fixed_points,
    fixed_points_raw,
    orbit_count_identity,
    orbit_point_count,
    orbits_up_to_period,
    parse_matrix,
    periodic_cycles,
    torus_apply,
)
from strategies import hyperbolic_matrices

CAT = parse_matrix("2 1 1 1")

BATTERY = [parse_matrix(s) for s in
           ("2 1 1 1", "1 1 1 2", "3 1 2 1", "3 2 1 1", "5 2 2 1")]

# frozen with mpmath.log((3 + sqrt(5))/2) at 50 digits
NU_CAT = 0.96242365011920689499551782684874982829539300172086


def test_eigen_cat_map():
    H = eigen_data(CAT)
    assert H.lambda_plus == QuadNum(Fraction(3, 2), Fraction(1, 2), 5)
    assert abs(H.nu - NU_CAT) < 1e-12
    assert (H.lambda_plus * H.lambda_minus) == QuadNum(1, 0, 5)
    for rx, ry in H.check_residuals():
        assert rx.is_zero() and ry.is_zero()
    # det(vx, vy) = 1 exactly, the SL(2,R) normalization
    det = H.vx[0] * H.vy[1] - H.vx[1] * H.vy[0]
    assert det == QuadNum(1, 0, 5)


def test_same_trace_same_eigenvalue():
    assert eigen_data(parse_matrix("1 1 1 2")).lambda_plus == \
        eigen_data(CAT).lambda_plus


def test_eigen_errors():
    with pytest.raises(NotHyperbolic):
        eigen_data(parse_matrix("1 1 0 1"))
    with pytest.raises(NotUnimodular):
        eigen_data(parse_matrix("2 0 0 2"))


def test_fixed_points_cat():
    assert fixed_points(CAT, 1) == [(Fraction(0), Fraction(0))]
    pts2 = fixed_points(CAT, 2)
    assert len(pts2) == 5 == orbit_count_identity(CAT, 2)
    assert (Fraction(0), Fraction(0)) in pts2


def test_origin_always_fixed():
    for A in BATTERY:
        for n in (1, 2, 3):
            assert (Fraction(0), Fraction(0)) in fixed_points(A, n)


def test_fixed_point_counts_battery():
    for A in BATTERY:
        for n in range(1, 8):
            den, raw = fixed_points_raw(A, n)
            assert len(raw) == orbit_count_identity(A, n)
            assert len(set(raw)) == len(raw)
            # every raw point is genuinely fixed (integer check)
            An = A.pow(n)
            (a, b), (c, d) = An.rows
            for x, y in raw:
                assert (a * x + b * y - x) % den == 0
                assert (c * x + d * y - y) % den == 0


def test_orbits_cat():
    assert orbits_up_to_period(CAT, 0) == []
    orbs1 = orbits_up_to_period(CAT, 1)
    assert len(orbs1) == 1 and orbs1[0].period == 1
    orbs2 = orbits_up_to_period(CAT, 2)
    periods = sorted(o.period for o in orbs2)
    assert periods == [1, 2, 2]  # 5 = 1 + 2*2


def test_orbit_counting_identity_battery():
    for A in BATTERY:
        orbs = orbits_up_to_period(A, 6)
        pi = {}
        for o in orbs:
            pi[o.period] = pi.get(o.period, 0) + 1
        for n in range(1, 7):
            lhs = sum(d * pi.get(d, 0) for d in range(1, n + 1) if n % d == 0)
            assert lhs == orbit_count_identity(A, n)


def test_orbit_cyclic_under_A():
    for o in orbits_up_to_period(CAT, 3):
        for i, p in enumerate(o.points):
            assert torus_apply(CAT, p) == o.points[(i + 1) % o.period]


def test_nu_high_precision_battery():
    for A in BATTERY:
        H = eigen_data(A)
        with mpmath.workprec(200):
            lam = H.lambda_plus.to_mpf(200)
            assert abs(H.nu - float(mpmath.log(lam))) < 1e-12


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(A=hyperbolic_matrices())
def test_periodic_points_and_orbits_properties(A):
    N = 1  # the deepest period with at most 2000 fixed points, up to 5
    while N < 5 and orbit_count_identity(A, N + 1) <= 2000:
        N += 1
    for n in range(1, N + 1):
        pts = fixed_points(A, n)
        assert len(pts) == orbit_count_identity(A, n)
        assert pts == sorted(set(pts))
    orbits = orbits_up_to_period(A, N)
    seen = set()
    for o in orbits:
        assert o.period == len(o.points) and o.points[0] == min(o.points)
        for i, p in enumerate(o.points):
            assert torus_apply(A, p) == o.points[(i + 1) % o.period]
        assert seen.isdisjoint(o.points)
        seen.update(o.points)
    keys = [(o.period, o.points[0]) for o in orbits]
    assert keys == sorted(keys)
    for n in range(1, N + 1):
        assert sum(d * sum(1 for o in orbits if o.period == d)
                   for d in range(1, n + 1) if n % d == 0) \
            == orbit_count_identity(A, n)


def _seen_set_cycles(A, n):
    """Reference tracer: each raw point's full cycle once, skipping the
    points already seen, rotated to start at its least point."""
    den, raw = fixed_points_raw(A, n)
    (a, b), (c, d) = A.rows
    seen, cycles = set(), []
    for p in raw:
        if p in seen:
            continue
        cycle, q = [p], ((a * p[0] + b * p[1]) % den, (c * p[0] + d * p[1]) % den)
        while q != p:
            cycle.append(q)
            q = ((a * q[0] + b * q[1]) % den, (c * q[0] + d * q[1]) % den)
        seen.update(cycle)
        if len(cycle) == n:
            i = cycle.index(min(cycle))
            cycles.append(cycle[i:] + cycle[:i])
    return den, sorted(cycles)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(A=hyperbolic_matrices())
def test_least_point_cycles_match_seen_set_reference(A):
    n = 1
    while True:
        den, cycles = periodic_cycles(A, n)
        assert (den, sorted(cycles)) == _seen_set_cycles(A, n)
        if n == 6 or orbit_count_identity(A, n + 1) > 2000:
            break
        n += 1


def test_orbit_point_count():
    assert orbit_point_count({}, 3) == 0
    assert orbit_point_count({1: 1, 2: 2}, 2) == 5  # the cat map's 5 points
    assert orbit_point_count({1: 4, 2: 14, 3: 64, 4: 280, 6: 9}, 6) \
        == 4 + 2 * 14 + 3 * 64 + 6 * 9


def test_pointwise_oracle_rejects_bad_integer_pairs():
    den, pts = fixed_points_raw(CAT, 3)
    assert fixed_points_pointwise_check(CAT, 3, den, pts)
    x, y = pts[-1]
    for bad in (
        pts[:-1] + [pts[0]],             # right count, one pair twice
        pts[:-1] + [(x + den, y)],       # fixed mod den, out of [0, den)^2
        pts[:-1] + [(x, y - den)],
        pts[:-1] + [((x + 1) % den, y)],  # not fixed
    ):
        assert len(bad) == orbit_count_identity(CAT, 3)
        assert not fixed_points_pointwise_check(CAT, 3, den, bad)
