"""Shared hypothesis strategies for the property tests."""

from hypothesis import strategies as st

from anosovlab.exact import IntMatrix
from anosovlab.exact.intmat import inverse_unimodular

_L = IntMatrix([[1, 0], [1, 1]])
_R = IntMatrix([[1, 1], [0, 1]])
_GENS = (_L, _R, IntMatrix([[1, 0], [-1, 1]]), IntMatrix([[1, -1], [0, 1]]))


@st.composite
def hyperbolic_matrices(draw):
    """A word in L, R using both (trace > 2), conjugated in SL(2,Z)."""
    word = draw(st.lists(st.sampled_from((_L, _R)), min_size=2, max_size=6)
                .filter(lambda w: _L in w and _R in w))
    conj = draw(st.lists(st.sampled_from(_GENS), max_size=3))
    A = IntMatrix.identity(2)
    for g in word:
        A = A * g
    P = IntMatrix.identity(2)
    for g in conj:
        P = P * g
    return P * A * inverse_unimodular(P)
