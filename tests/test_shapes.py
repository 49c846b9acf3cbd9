import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anosovlab import shapes
from anosovlab.oracles import disk_weighted_area, stadium_weighted_area_direct
from anosovlab.shapes import (
    NoBracket,
    OriginOnCurve,
    PlaneCurve,
    SelfIntersecting,
    assert_simple,
    build_exact_beta,
    rounded_rectangle,
    stadium_curve,
    verify_exactness,
    weighted_area,
    winding_number,
)


def _circle(rho, ccw=True):
    s = 1.0 if ccw else -1.0
    return PlaneCurve(
        f=lambda t: rho * math.cos(s * t),
        g=lambda t: rho * math.sin(s * t),
        fp=lambda t: -s * rho * math.sin(s * t),
        gp=lambda t: s * rho * math.cos(s * t),
        period=2 * math.pi,
    )


def test_winding_circle():
    assert winding_number(_circle(0.5)) == 1
    assert winding_number(_circle(0.5, ccw=False)) == -1
    assert winding_number(stadium_curve(3.0, 0.2)) == 1
    # a uniform sample over the period once needed 2^22 points here
    assert winding_number(stadium_curve(3000.0, 1e-3)) == 1


def test_winding_origin_on_curve():
    bad = PlaneCurve(f=lambda t: math.cos(t) - 1.0, g=lambda t: math.sin(t),
                     fp=lambda t: -math.sin(t), gp=lambda t: math.cos(t),
                     period=2 * math.pi)
    with pytest.raises(OriginOnCurve):
        winding_number(bad)


def test_weighted_area_circle_limit():
    for rho in (0.2, 0.1, 0.05):
        a = weighted_area(stadium_curve(0.0, rho))
        assert abs(a - math.pi * rho * rho) / (math.pi * rho * rho) < rho


def test_weighted_area_vs_direct_2d():
    # Stokes consistency: boundary form against the direct region integral
    for L, h in ((0.0, 0.3), (2.0, 0.4), (5.0, 0.2)):
        boundary = weighted_area(stadium_curve(L, h))
        direct = stadium_weighted_area_direct(L, h)
        assert abs(boundary - direct) < 1e-7
    assert abs(weighted_area(stadium_curve(0.0, 0.3)) -
               disk_weighted_area(0.3)) < 1e-9


def test_weighted_area_orientation():
    c = stadium_curve(1.0, 0.3)
    rev = PlaneCurve(
        f=lambda s: c.f(-s), g=lambda s: c.g(-s),
        fp=lambda s: -c.fp(-s), gp=lambda s: -c.gp(-s),
        period=c.period,
        breakpoints=(0.0,) + tuple(
            sorted((-b) % c.period for b in c.breakpoints if (-b) % c.period > 0)
        ) + (c.period,),
    )
    assert abs(weighted_area(rev) + weighted_area(c)) < 1e-9
    cw, ccw = weighted_area(_circle(0.3, ccw=False)), weighted_area(_circle(0.3))
    assert abs(cw + ccw) < 1e-12 and ccw > 0


@settings(max_examples=15, deadline=None, derandomize=True, database=None)
@given(L=st.floats(0.0, 5000.0), h=st.floats(1e-3, 0.99))
def test_long_stadium_area_matches_closed_form(L, h):
    # caps in their own arclength: a global s of size L once cost 6.7e-12
    want = 2 * L * math.atanh(h) + 2 * math.pi * (1 - math.sqrt(1 - h * h))
    assert abs(weighted_area(stadium_curve(L, h)) - want) <= 1e-13 * max(1.0, want)


@pytest.mark.parametrize("curve", [stadium_curve(3.0, 0.2), stadium_curve(0.0, 0.5),
                                   rounded_rectangle(3.0, 0.5, 0.2),
                                   rounded_rectangle(1.0, 0.5, 0.5)])
def test_racetrack_pieces_join(curve):
    # each piece ends where the next starts, with the same unit tangent
    assert len(curve.pieces) == 8 and len(curve.breakpoints) == 9
    for (length, at), (_, nxt) in zip(curve.pieces, curve.pieces[1:] + curve.pieces[:1]):
        end, start = at(length), nxt(0.0)
        assert max(abs(a - b) for a, b in zip(end, start)) < 1e-15 * curve.period + 1e-15
        assert abs(math.hypot(end[2], end[3]) - 1.0) < 1e-15


def test_build_thin_beta():
    # a winding number from a uniform sample over the period once raised
    # OriginOnCurve here after about 19 s
    rep = verify_exactness(build_exact_beta(0.001, 0.5))
    assert rep["pointwise_residual"] < 1e-12
    assert abs(rep["period_residual"]) < 1e-8
    assert rep["consistency"] < 1e-10
    assert abs(rep["weighted_area"] - 2 * math.pi) < 1e-8
    assert rep["winding"] == 1


def test_thin_rectangle_asymptotics():
    h = 0.95 * math.tanh(0.3)
    W = 40.0
    area = weighted_area(rounded_rectangle(W, h, 0.05 * h))
    assert abs(area - W * 2 * math.atanh(h)) / (W * 2 * math.atanh(h)) < 0.01


def test_self_intersection_detected():
    # figure eight around the origin
    fig8 = PlaneCurve(
        f=lambda t: math.sin(2 * t) + 0.2 * math.cos(t),
        g=lambda t: 0.4 * math.sin(t),
        fp=lambda t: 2 * math.cos(2 * t) - 0.2 * math.sin(t),
        gp=lambda t: 0.4 * math.cos(t),
        period=2 * math.pi,
    )
    with pytest.raises(SelfIntersecting):
        assert_simple(fig8)
    assert_simple(stadium_curve(2.0, 0.3))


def test_build_exact_beta():
    curve = build_exact_beta(0.4, 0.9)
    assert abs(weighted_area(curve) - 2 * math.pi) < 1e-8
    assert winding_number(curve) == 1
    rep = verify_exactness(curve)
    assert rep["pointwise_residual"] < 1e-12
    assert abs(rep["period_residual"]) < 1e-8
    assert rep["consistency"] < 1e-10


def test_build_monotone_in_delta():
    L1 = build_exact_beta(0.3, 0.9).meta["seg_length"]
    L2 = build_exact_beta(0.45, 0.9).meta["seg_length"]
    assert L2 < L1


def test_build_deterministic():
    a = build_exact_beta(0.35, 0.85).meta["seg_length"]
    b = build_exact_beta(0.35, 0.85).meta["seg_length"]
    assert a == b  # bitwise identical root


def test_build_no_bracket():
    with pytest.raises((NoBracket, ValueError)):
        build_exact_beta(0.4, 1.5)


def test_detuned_curve_flags_period():
    from scipy.optimize import brentq

    h = 0.9 * math.tanh(0.4)
    L = brentq(
        lambda L_: weighted_area(stadium_curve(L_, h)) - (2 * math.pi + 0.1),
        0.0, 100.0
    )
    rep = verify_exactness(stadium_curve(L, h))
    assert abs(rep["period_residual"] + 0.1) < 1e-8


def test_weighted_area_out_of_strip():
    from anosovlab.shapes import OutOfStrip

    with pytest.raises(OutOfStrip):
        weighted_area(stadium_curve(1.0, 1.2))


def test_strip_spec():
    from anosovlab.shapes import StripSpec

    s = StripSpec(0.4)
    assert 0 < s.eps < 1
    assert abs(s.eps - math.tanh(0.4)) < 1e-15
    with pytest.raises(ValueError):
        StripSpec(0.0)


@settings(max_examples=10, deadline=None, derandomize=True, database=None)
@given(delta=st.floats(0.05, 2.0), height_frac=st.floats(0.5, 0.99))
def test_closed_form_length_matches_root_find(delta, height_frac):
    # reference: root-find the quadrature area, the construction's old route;
    # area(L) >= 2 L artanh(h), so pi / artanh(h) brackets the root
    from scipy.optimize import brentq

    h = height_frac * math.tanh(delta)
    ref = brentq(lambda L: weighted_area(stadium_curve(L, h)) - 2 * math.pi,
                 0.0, math.pi / math.atanh(h), xtol=1e-13, rtol=8.9e-16)
    L = math.pi * math.sqrt(1 - h * h) / math.atanh(h)
    assert abs(L - ref) <= 1e-12 * ref


def test_adaptive_rule_resolves_cap_near_pole():
    # the cap integrand has a pole about acosh(1/h) off the real axis; a
    # fixed 64-node rule per piece misses the area by about 1e-6 here
    curve = build_exact_beta(20.0, 0.9999)
    assert abs(weighted_area(curve) - 2 * math.pi) < 1e-8


def test_adaptive_rule_resolves_flat_peak():
    # on the long flat pieces the period integrand is h / (x^2 + h^2), a
    # peak of width h that fixed panels do not settle on
    assert verify_exactness(build_exact_beta(0.05, 0.5))["consistency"] < 1e-10


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(L=st.floats(0.0, 50.0), h=st.floats(0.01, 0.99))
def test_stadium_oracle_matches_closed_form(L, h):
    # a rectangle of width L plus a centred disk of radius h
    want = 2 * L * math.atanh(h) + 2 * math.pi * (1 - math.sqrt(1 - h * h))
    assert abs(stadium_weighted_area_direct(L, h) - want) < 1e-12


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(rho=st.floats(0.01, 0.99))
def test_centred_disk_oracle_matches_closed_form(rho):
    want = 2 * math.pi * (1 - math.sqrt(1 - rho * rho))
    assert abs(disk_weighted_area(rho) - want) < 1e-12


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(rho=st.floats(0.01, 0.6), x0=st.floats(-2.0, 2.0),
       frac=st.floats(-0.95, 0.95))
def test_offcentre_disk_oracle_matches_scipy(rho, x0, frac):
    from scipy.integrate import quad

    y0 = frac * (1 - rho)

    def slab(y):
        return 2 * math.sqrt(max(rho * rho - (y - y0) ** 2, 0.0)) / (1 - y * y)

    want, _ = quad(slab, y0 - rho, y0 + rho, epsabs=1e-13, epsrel=1e-13,
                   limit=200)
    assert abs(disk_weighted_area(rho, x0, y0) - want) < 1e-12


def _piece_by_scan(starts, lengths, s):
    # reference: a linear scan over the piece ends
    k = 0
    while k < 8 and s >= starts[k + 1] - 1e-15 and s >= starts[k + 1] - lengths[k] * 0:
        if s < starts[k + 1]:
            break
        k += 1
    return min(k, 7)


@pytest.mark.parametrize("W, h, rho", [
    (40.0, 0.28, 0.014),
    (3.0, 0.5, 0.2),
    (1.0, 0.5, 0.5),     # W = 2 rho and rho = h: flat and vertical runs empty
    (2.0, 0.3, 0.3),     # rho = h: vertical runs empty
    (0.4, 0.5, 0.2),     # W = 2 rho: flat runs empty
    (1e-3, 0.7, 5e-4),
])
def test_rounded_rectangle_piece_choice(W, h, rho):
    import numpy as np

    starts = list(rounded_rectangle(W, h, rho).breakpoints)
    lengths = [b - a for a, b in zip(starts[:-1], starts[1:])]
    P = starts[-1]
    probes = [s for b in starts
              for s in (b, math.nextafter(b, -math.inf), math.nextafter(b, math.inf))]
    probes += np.linspace(0.0, P, 4001).tolist()
    for s in probes:
        s = s % P
        assert shapes._piece(starts, s) == _piece_by_scan(starts, lengths, s)
