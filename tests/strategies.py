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


def letters(genus):
    """The signed generator indices of a genus-g surface group."""
    return [s for g in range(1, 2 * genus + 1) for s in (g, -g)]


@st.composite
def reduced_words(draw, genus, max_size):
    """A freely reduced word in the surface-group generators."""
    word = []
    for _ in range(draw(st.integers(0, max_size))):
        word.append(draw(st.sampled_from(
            [s for s in letters(genus) if not word or s != -word[-1]])))
    return tuple(word)
