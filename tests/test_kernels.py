"""Row-interval chord kernel vs the point-by-point box scan oracle."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anosovlab.chords import cone_spec, enumerate_box, _integerized_edges
from anosovlab.oracles import _qsign, chord_box_scan
from anosovlab.toral import eigen_data, parse_matrix
from strategies import hyperbolic_matrices


def _cases():
    rng = random.Random(7)
    out = []
    for mat in ("2 1 1 1", "3 1 2 1", "5 2 2 1"):
        H = eigen_data(parse_matrix(mat))
        for sign in (+1, -1):
            coeffs = _integerized_edges(cone_spec(H, sign))
            den = rng.choice([1, 5, 12])
            rxn = rng.randint(-den + 1, den - 1)
            ryn = rng.randint(-den + 1, den - 1)
            out.append((coeffs, H.D, den, rxn, ryn, rng.randint(3, 15)))
    return out


def _assert_agree(coeffs, D, den, rxn, ryn, kmax):
    counts, pts = enumerate_box(coeffs, D, den, rxn, ryn, kmax, True)
    ref, ref_pts = chord_box_scan(coeffs, D, den, rxn, ryn, kmax, True)
    assert list(counts) == list(ref)
    assert sorted(pts) == sorted(ref_pts)


def test_kernels_agree():
    for case in _cases():
        _assert_agree(*case)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(A=hyperbolic_matrices(), sign=st.sampled_from((1, -1)),
       den=st.integers(1, 7), off=st.tuples(st.integers(-21, 21),
                                            st.integers(-21, 21)),
       kmax=st.integers(0, 40))
def test_row_kernel_matches_box_scan(A, sign, den, off, kmax):
    H = eigen_data(A)
    coeffs = _integerized_edges(cone_spec(H, sign))
    _assert_agree(coeffs, H.D, den, off[0], off[1], kmax)


def test_counts_only_mode():
    coeffs, D, den, rxn, ryn, kmax = _cases()[0]
    c1, p1 = enumerate_box(coeffs, D, den, rxn, ryn, kmax, False)
    c2, p2 = enumerate_box(coeffs, D, den, rxn, ryn, kmax, True)
    assert p1 is None and list(c1) == list(c2)


def test_big_coefficients_exact():
    # products far past 64 bits stay exact in Python integers
    big = 2**70
    _assert_agree((big, 0, 0, 1, 1, 0, 0, big), 5, 1, 0, 0, 3)


def test_axis_parallel_edge():
    # edge0 = (1, 0): the half-plane test does not depend on m at all
    for sign in (1, -1):
        _assert_agree((sign, 0, 0, 0, 0, 1, sign, 1), 5, 3, 1, 0, 9)


def test_square_discriminant_rejected():
    with pytest.raises(ValueError):
        enumerate_box((1, 0, 0, 1, 1, 0, 0, 2), 4, 1, 0, 0, 3)


def test_qsign_pure():
    assert _qsign(0, 0, 5) == 0
    assert _qsign(3, 0, 5) == 1
    assert _qsign(0, -2, 5) == -1
    assert _qsign(-3, 2, 2) == -1   # 9 > 8
    assert _qsign(3, -2, 2) == 1
    assert _qsign(-2, 1, 3) == -1   # 4 > 3
    assert _qsign(2, -1, 5) == -1   # 4 < 5
