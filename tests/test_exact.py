import math
import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anosovlab.exact import (
    IntMatrix,
    QuadNum,
    cokernel,
    normalize_torsion,
    quad_sign,
    smith_normal_form,
    square_free_decompose,
)
from anosovlab.exact.intmat import chain_homology, inverse_unimodular
from anosovlab.exact.graded import GradedZModule


def test_square_free_decompose():
    assert square_free_decompose(12) == (2, 3)
    assert square_free_decompose(5) == (1, 5)
    assert square_free_decompose(32) == (4, 2)
    assert square_free_decompose(1) == (1, 1)
    with pytest.raises(ValueError):
        square_free_decompose(0)


def test_quadnum_ring_ops():
    x = QuadNum(1, 2, 5)
    y = QuadNum(Fraction(1, 2), -1, 5)
    assert (x + y) == QuadNum(Fraction(3, 2), 1, 5)
    assert (x * y).a == Fraction(1, 2) - 10
    assert x * x.inverse() == QuadNum(1, 0, 5)
    with pytest.raises(ValueError):
        x + QuadNum(0, 1, 7)  # mixed fields refuse


def test_quad_sign_examples():
    assert quad_sign(QuadNum(1, 0, 5)) == 1
    assert quad_sign(QuadNum(-3, 2, 2)) == -1  # 9 > 8
    assert quad_sign(QuadNum(2, -1, 3)) == 1   # 4 > 3
    assert quad_sign(QuadNum(0, 0, 5)) == 0


def test_quad_sign_against_200bit():
    rng = random.Random(7)
    for _ in range(10000):
        a = Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 997))
        b = Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 997))
        D = rng.choice([2, 3, 5, 7, 13, 21])
        x = QuadNum(a, b, D)
        with mpmath.workprec(200):
            ref = x.to_mpf(200)
            ref_sign = 0 if ref == 0 else (1 if ref > 0 else -1)
        assert x.sign() == ref_sign


def _sqrt_convergents(D, qmax=2**80):
    """Continued-fraction convergents p/q of sqrt(D), D not a square."""
    a0 = math.isqrt(D)
    m, d, a = 0, 1, a0
    p0, q0, p1, q1 = 1, 0, a0, 1
    out = []
    while q1 <= qmax:
        out.append((p1, q1))
        m = d * a - m
        d = (D - m * m) // d
        a = (a0 + m) // d
        p0, q0, p1, q1 = p1, q1, a * p1 + p0, a * q1 + q0
    return out


# |p - q sqrt(D)| < 1/q: the value cancels to about 1/q^2 of its parts,
# which 200 bits still resolve for q <= 2^80
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(D=st.integers(2, 99).filter(lambda D: math.isqrt(D) ** 2 != D),
       i=st.integers(0, 10**6), shift=st.sampled_from((-1, 0, 1)),
       s=st.sampled_from((1, -1)), den=st.integers(1, 997))
def test_quad_sign_near_zero_against_200bit(D, i, shift, s, den):
    convs = _sqrt_convergents(D)
    p, q = convs[i % len(convs)]
    x = QuadNum(Fraction(s * (p + shift), den), Fraction(-s * q, den), D)
    with mpmath.workprec(200):
        ref = x.to_mpf(200)
        ref_sign = 0 if ref == 0 else (1 if ref > 0 else -1)
    assert x.sign() == ref_sign != 0


def test_snf_examples():
    assert smith_normal_form(IntMatrix([[2, 0], [0, 2]])).diagonal == (2, 2)
    # A - I for the cat map
    assert smith_normal_form(IntMatrix([[1, 1], [1, 0]])).diagonal == (1, 1)
    assert smith_normal_form(IntMatrix([[0, 0], [0, 0]])).diagonal == (0, 0)


@st.composite
def _int_matrices(draw):
    """Integer matrices up to 4x5 with entries in [-50, 50]."""
    m, n = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    return IntMatrix(draw(st.lists(
        st.lists(st.integers(-50, 50), min_size=n, max_size=n),
        min_size=m, max_size=m)))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(M=_int_matrices())
def test_snf_properties(M):
    s = smith_normal_form(M)
    assert s.U * M * s.V == s.S
    assert abs(s.U.det()) == 1 and abs(s.V.det()) == 1
    assert all(x == 0 for i, row in enumerate(s.S.rows)
               for j, x in enumerate(row) if i != j)
    d = s.diagonal
    assert all(x >= 0 for x in d)
    for x, y in zip(d, d[1:]):
        # d_i | d_{i+1}, with 0 | 0 only: zeros close the chain
        assert (y == 0) if x == 0 else (y % x == 0)


def test_snf_roundtrip_random():
    rng = random.Random(11)
    for _ in range(1000):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        M = IntMatrix([[rng.randint(-15, 15) for _ in range(n)] for _ in range(m)])
        s = smith_normal_form(M)
        assert s.U * M * s.V == s.S
        assert abs(s.U.det()) == 1 and abs(s.V.det()) == 1
        d = s.diagonal
        for i in range(len(d) - 1):
            assert d[i] >= 0
            if d[i] == 0:
                assert d[i + 1] == 0
            else:
                assert d[i + 1] % d[i] == 0


def test_cokernel_examples():
    assert cokernel(IntMatrix([[1, 0], [0, 1]])) == (0, ())
    assert cokernel(IntMatrix([[2, 1], [2, 0]])) == (0, (2,))
    assert cokernel(IntMatrix([[0, 0], [0, 3]])) == (1, (3,))


def test_cokernel_unimodular_invariance():
    rng = random.Random(3)
    for _ in range(200):
        n = rng.randint(2, 3)
        M = IntMatrix([[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)])
        P = IntMatrix.identity(n)
        for _ in range(5):
            rows = [list(r) for r in P.rows]
            i, j = rng.sample(range(n), 2)
            c = rng.randint(-2, 2)
            for k in range(n):
                rows[i][k] += c * rows[j][k]
            P = IntMatrix(rows)
        assert cokernel(M) == cokernel(P * M)


def test_inverse_unimodular():
    M = IntMatrix([[2, 1], [1, 1]])
    assert M * inverse_unimodular(M) == IntMatrix.identity(2)
    with pytest.raises(ValueError):
        inverse_unimodular(IntMatrix([[2, 0], [0, 2]]))


def test_chain_homology_circle():
    # CW circle: one 0-cell, one 1-cell, zero boundary
    d_out = IntMatrix.zero(1, 1)
    d_in = IntMatrix.zero(1, 1)
    assert chain_homology(d_out, d_in) == (1, ())


def test_chain_homology_torsion():
    # Z --2--> Z at the target end: H_0 = Z/2
    d_out = IntMatrix.zero(1, 1)
    d_in = IntMatrix([[2]])
    assert chain_homology(d_out, d_in) == (0, (2,))


def test_normalize_torsion():
    assert normalize_torsion([2, 3]) == (6,)
    assert normalize_torsion([2, 4]) == (2, 4)
    assert normalize_torsion([6, 4]) == (2, 12)
    assert normalize_torsion([1, 1]) == ()


def test_graded_module_ops():
    a = GradedZModule({0: (1, ()), 2: (0, (2,))})
    b = GradedZModule({0: (2, (3,))})
    s = a + b
    assert s.free_rank(0) == 3 and s.torsion(0) == (3,)
    assert s.torsion(2) == (2,)
    assert a.scaled(3).free_rank(0) == 3
    assert GradedZModule({0: (1, ()), 1: (1, ())}).euler_characteristic() == 0
