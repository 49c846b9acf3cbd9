import math
import random

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anosovlab import surface
from anosovlab.oracles import octagon_generators
from anosovlab.surface import (
    ClassKeyExhausted,
    ConjClass,
    FuchsianRep,
    NotHyperbolicElement,
    SurfacePresentation,
    TrivialClass,
    _apply,
    _ball_words,
    _block,
    _coords,
    class_distinctness_mcduff,
    double_coset_count,
    format_word,
    free_reduce,
    geodesic_length,
    intersection_number,
    invert_word,
    mcduff_hw_generators,
    parse_word,
)

from strategies import letters, reduced_words

PRES = SurfacePresentation(2)
REP = FuchsianRep(PRES)
ALPHABET = letters(2)


def _random_reduced(rng, maxlen):
    L = rng.randint(1, maxlen)
    w = []
    for _ in range(L):
        g = rng.choice(ALPHABET)
        while w and w[-1] == -g:
            g = rng.choice(ALPHABET)
        w.append(g)
    return tuple(w)


def test_word_parsing():
    assert parse_word("a1B2") == (1, -4)
    assert format_word((1, -4)) == "a1B2"
    assert parse_word("a1 A1") == (1, -1)
    with pytest.raises(ValueError):
        parse_word("q5")
    assert PRES.parse("a2B2") == (3, -4)
    for text in ("a3", "B3", "a1b9"):  # letters beyond genus 2
        with pytest.raises(ValueError):
            PRES.parse(text)


def test_relator_reduces_to_empty():
    assert PRES.dehn_reduce(PRES.relator) == ()
    assert PRES.is_trivial(PRES.relator)
    assert PRES.dehn_reduce(parse_word("a1")) == (1,)
    assert not PRES.is_trivial(parse_word("a1"))


def test_free_reduction():
    assert free_reduce((1, -1, 2)) == (2,)
    assert free_reduce(()) == ()
    assert invert_word((1, 2)) == (-2, -1)


def test_octagon_certificates():
    assert REP.relator_residual < 1e-8
    for g in (1, 2, 3, 4):
        assert abs(np.trace(REP.matrix((g,)))) > 2


def test_exact_relator_product_is_identity():
    # the certificate is exact, and stays a float for the reports
    assert REP.relator_residual == 0.0 and type(REP.relator_residual) is float
    assert _coords(PRES.relator) == [1, 0, 0, 0, 0, 0, 0, 0]
    assert all(REP.is_identity(r) for r in PRES.symmetrized)


WORDS = st.lists(st.sampled_from(ALPHABET), max_size=30).map(tuple)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(p=WORDS, q=WORDS, u=WORDS, rel=st.sampled_from(PRES.symmetrized))
def test_is_identity_matches_dehn_on_unreduced_words(p, q, u, rel):
    # words need not be reduced; u R u^-1 is trivial for any u
    conj = u + rel + invert_word(u)
    assert REP.is_identity(conj) and PRES.is_trivial(conj)
    assert REP.is_identity(p + conj + invert_word(p))
    for w in (p, p + q, p + conj + q, conj + p):
        assert REP.is_identity(w) == PRES.is_trivial(w)


# non-reduced words of every length mod 3, the empty word among them, and
# conjugated relators
MASK_WORDS = st.one_of(WORDS, st.builds(lambda u, rel: u + rel + invert_word(u),
                                        WORDS, st.sampled_from(PRES.symmetrized)))


# mod 2 the octagon group has 32 images, so about one word in 32 passes the
# residue test without being +-I, and is_identity must refuse it
@pytest.mark.parametrize("prime", [surface._PRIME, 2])
@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(words=st.lists(MASK_WORDS, max_size=8))
def test_identity_mask_matches_is_identity(prime, words):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(surface, "_PRIME", prime)
        assert REP.identity_mask(words) == [REP.is_identity(w) for w in words]


def test_identity_mask_confirms_residue_candidates(monkeypatch):
    # a1^4 is 1 mod 2 but not 1; b1 is not 1 mod 2, so it is never confirmed
    monkeypatch.setattr(surface, "_PRIME", 2)
    confirmed = []
    exact = FuchsianRep.is_identity
    monkeypatch.setattr(FuchsianRep, "is_identity",
                        lambda self, w: confirmed.append(w) or exact(self, w))
    words = [(1,) * 4, (2,), PRES.relator]
    assert REP.identity_mask(words) == [False, False, True]
    assert confirmed == [(1,) * 4, PRES.relator]


def test_residue_prime_keeps_int64_exact():
    p = surface._PRIME
    assert 8 * (p - 1) ** 2 < 2 ** 63
    assert all(p % d for d in range(2, math.isqrt(p) + 1))


def test_identity_mask_edge_cases():
    rel = PRES.relator
    assert REP.identity_mask([]) == []
    assert REP.identity_mask([(), rel[:1], rel[:2], rel[:3], rel + rel]) == \
        [True, False, False, False, True]
    # letters past 4 raise as in is_identity: 5 would code as -4 mod 9
    for bad in ((5,), (1, 2, -5), (0,), (2, 9)):
        with pytest.raises(KeyError):
            REP.is_identity(bad)
        with pytest.raises(KeyError):
            REP.identity_mask([(1,), bad])


def _oracle_product(word):
    gens, _ = octagon_generators(70)
    out = mpmath.eye(2)
    for x in word:
        out = out * (gens[x] if x > 0 else mpmath.inverse(gens[-x]))
    return out


def _max_gap(m, n):
    scale = max(1, max(abs(m[i, j]) for i in (0, 1) for j in (0, 1)))
    return max(abs(m[i, j] - n[i, j]) for i in (0, 1) for j in (0, 1)) / scale


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(word=st.lists(st.sampled_from(ALPHABET), max_size=12).map(tuple))
def test_exact_data_matches_the_construction(word):
    # the Z[sqrt 2] coordinates over the constructed a1 and b1, and the
    # product of the closed-form entries, agree with the constructed product
    with mpmath.workdps(70):
        gens, _ = octagon_generators(70)
        A, B = gens[1], gens[2]
        basis = (mpmath.eye(2), A, B, A * B)
        v = _coords(word)
        from_coords = sum((basis[k] * (v[2 * k] + v[2 * k + 1] * mpmath.sqrt(2))
                           for k in range(4)), mpmath.zeros(2))
        target = _oracle_product(word)
        assert _max_gap(from_coords, target) < mpmath.mpf(10) ** -60
        assert _max_gap(REP.matrix_mp(word, dps=70), target) < mpmath.mpf(10) ** -60


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(word=st.lists(st.sampled_from(ALPHABET), max_size=20).map(tuple))
def test_mp_trace_matches_exact_trace(word):
    x, y = REP.trace(word)
    with mpmath.workdps(100):
        m = REP.matrix_mp(word, dps=100)
        exact = x + y * mpmath.sqrt(2)
        assert abs(m[0, 0] + m[1, 1] - exact) < mpmath.mpf(10) ** -80 * max(1, abs(exact))


def _split(v):
    """An mpf as the longdouble sum of its nearest float and the rest's."""
    return np.longdouble(float(v)) + np.longdouble(float(v - mpmath.mpf(float(v))))


def test_float_matrices_bit_identical_to_the_construction():
    # the geometry (axes, intersection counts) reads these float64 products;
    # the reference accumulates the split constructed entries in longdouble
    with mpmath.workdps(70):
        gens = {g: np.array([[_split(m[i, j]) for j in (0, 1)] for i in (0, 1)])
                for g, m in octagon_generators(70)[0].items()}
    for w in _ball_words(PRES, 5):
        ref = np.eye(2, dtype=np.longdouble)
        for x in w:
            (a, b), (c, d) = gens[abs(x)]
            ref = ref @ (gens[x] if x > 0 else np.array([[d, -b], [-c, a]]))
        assert REP.matrix(w).tobytes() == ref.astype(float).tobytes(), w


def test_dehn_matrix_agreement_battery():
    rng = random.Random(13)
    for trial in range(1500):
        w = _random_reduced(rng, 60)
        assert PRES.is_trivial(w) == REP.is_identity(w)


@pytest.mark.parametrize("conjugator_len", [8, 16])
def test_dehn_matrix_agreement_injected_trivial(conjugator_len):
    rng = random.Random(17)
    for trial in range(200):
        u = _random_reduced(rng, conjugator_len)
        rel = rng.choice(PRES.symmetrized)
        w = free_reduce(u + rel + invert_word(u))
        assert PRES.is_trivial(w)
        assert REP.is_identity(w)
        # a one-letter perturbation is no longer trivial
        w_bad = free_reduce(w + (1,))
        assert not PRES.is_trivial(w_bad)
        assert not REP.is_identity(w_bad)


def test_is_identity_long_conjugator():
    # a ten-letter conjugator: the product grows to norm ~1e7 and cancels
    u = parse_word("a1B2a2a2A1a2b1b1A2b2")
    w = free_reduce(u + PRES.relator + invert_word(u))
    assert PRES.is_trivial(w) and REP.is_identity(w)
    assert not REP.is_identity(w + (1,))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_conjugated_relator_is_dehn_trivial(data):
    genus = data.draw(st.integers(2, 5))
    pres = SurfacePresentation(genus)
    u = data.draw(reduced_words(genus, max_size=20))
    rel = data.draw(st.sampled_from(pres.symmetrized))
    w = free_reduce(u + rel + invert_word(u))
    assert pres.is_trivial(w)
    letter = data.draw(st.sampled_from(letters(genus)))
    assert not pres.is_trivial(free_reduce(w + (letter,)))


def _dehn_reduce_reference(pres, word):
    """dehn_reduce as it was before its scan inlined _relator_at."""
    w = free_reduce(word)
    i = 0
    while i < len(w):
        m, rel = pres._relator_at(w, i, len(w))
        if m > pres.half:
            w = free_reduce(w[:i] + invert_word(rel[m:]) + w[i + m :])
            i = 0
        else:
            i += 1
    return w


def _coords_reference(word):
    """_coords as it was before it inlined _apply, from the identity row."""
    v = [1, 0, 0, 0, 0, 0, 0, 0]
    for i in range(0, len(word), 3):
        v = _apply(v, _block(word[i : i + 3]))
    return v


@st.composite
def _test_words(draw, genus, max_size):
    """u, the first m letters of a symmetrized relator, u^-1 or nothing,
    then v: random reduced words, conjugated relators, and words with a
    relator piece anywhere, the last letters included."""
    u = draw(reduced_words(genus, max_size))
    rel = draw(st.sampled_from(SurfacePresentation(genus).symmetrized))
    piece = rel[: draw(st.integers(0, len(rel)))]
    back = invert_word(u) if draw(st.booleans()) else ()
    return free_reduce(u + piece + back + draw(reduced_words(genus, 6)))


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_dehn_reduce_matches_reference(data):
    genus = data.draw(st.integers(2, 4))
    pres = SurfacePresentation(genus)
    w = data.draw(_test_words(genus, 40))
    assert pres.dehn_reduce(w) == _dehn_reduce_reference(pres, w)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(w=_test_words(2, 40))
def test_coords_match_reference(w):
    assert _coords(w) == _coords_reference(w)


def test_conjugacy_classes_length_one():
    classes = PRES.conjugacy_classes(1)
    assert len(classes) == 8
    keys = {c.word for c in classes}
    assert parse_word("a1") in keys and parse_word("A1") in keys
    assert PRES.conjugacy_classes(0) == []


def test_class_key_conjugation_closed():
    rng = random.Random(19)
    for base_text in ("a1", "a1b1", "b2A1"):
        base = parse_word(base_text)
        key = PRES.class_key(base)
        for _ in range(20):
            u = _random_reduced(rng, 6)
            conj = free_reduce(u + base + invert_word(u))
            assert PRES.class_key(conj) == key


# its class key runs out of words to visit after 1.3 s at the real limit
LONG_CLASS = ("a2b2A2B2B2A2b1a1b2A2B2a1a1B1A1b2A1b2a2B2B2A2b1a1B2A2b1a1B2A2b1a1"
              "B2A2b1a1a2B2A2b1A1B1a2b2a2b2A2B2B2A2b1a1")


def test_class_key_refuses_an_exhausted_search(monkeypatch):
    monkeypatch.setattr(surface, "CLASS_KEY_STATES", 8)
    with pytest.raises(ClassKeyExhausted):
        PRES.class_key(parse_word(LONG_CLASS))
    # a class of one cyclic word is done at a limit of one
    monkeypatch.setattr(surface, "CLASS_KEY_STATES", 1)
    assert PRES.class_key(parse_word("b1a2A1")) == parse_word("A1b1a2")


def test_class_key_orientation_distinct():
    assert PRES.class_key(parse_word("a1")) != PRES.class_key(parse_word("A1"))


def test_geodesic_length_class_function():
    rng = random.Random(23)
    base = parse_word("a1b1")
    l0 = geodesic_length(REP, base)
    for _ in range(60):
        u = _random_reduced(rng, 6)
        conj = free_reduce(u + base + invert_word(u))
        assert abs(geodesic_length(REP, conj) - l0) < 1e-10
    assert abs(geodesic_length(REP, base + base) - 2 * l0) < 1e-10
    with pytest.raises(NotHyperbolicElement):
        geodesic_length(REP, ())


@pytest.mark.parametrize("conjugator_len", [60, 80, 200])
def test_geodesic_length_long_conjugators(conjugator_len):
    # an mpmath trace drifted by 8.6e-8 at 60 letters and raised at 80
    rng = random.Random(conjugator_len)
    u = [rng.choice(ALPHABET)]
    while len(u) < conjugator_len:
        g = rng.choice(ALPHABET)
        if g != -u[-1]:
            u.append(g)
    base = parse_word("a1b1")
    conj = free_reduce(tuple(u) + base + invert_word(tuple(u)))
    assert geodesic_length(REP, conj) == geodesic_length(REP, base)


@pytest.mark.parametrize("power", [100, 460, 470, 2000])
def test_geodesic_length_of_powers(power):
    # the trace of (a1b1)^470 is past float range
    l0 = geodesic_length(REP, parse_word("a1b1"))
    assert geodesic_length(REP, parse_word("a1b1") * power) == \
        pytest.approx(power * l0, rel=1e-13)


def test_class_distinctness():
    cls = ConjClass(PRES, PRES.class_key(parse_word("a1")))
    assert class_distinctness_mcduff(1, cls)["distinct"]
    assert class_distinctness_mcduff(-3, cls)["distinct"]
    with pytest.raises(TrivialClass):
        class_distinctness_mcduff(0, cls)


def test_intersection_numbers():
    a1, b1 = parse_word("a1"), parse_word("b1")
    a2, b2 = parse_word("a2"), parse_word("b2")
    assert intersection_number(REP, a1, a1, radius=3) == 0  # simple
    assert intersection_number(REP, a1, b1, radius=3) == 1
    assert intersection_number(REP, b1, a1, radius=3) == 1  # symmetric
    assert intersection_number(REP, a1, a2, radius=3) == 0
    assert intersection_number(REP, a1, b2, radius=3) == 0


def test_double_coset_window():
    out = double_coset_count(PRES, parse_word("a1"), parse_word("b1"), 2)
    assert out["double_cosets"] >= 1
    assert out["lower_bound"] and not out["budget_exhausted"]
    tiny = double_coset_count(PRES, parse_word("a1"), parse_word("b1"), 3,
                              budget=10)
    assert tiny["budget_exhausted"]


def test_hw_generators_cases():
    pres, rep = PRES, REP
    c_a1 = ConjClass(pres, pres.class_key(parse_word("a1")))
    c_A1 = ConjClass(pres, pres.class_key(parse_word("A1")))
    c_a2 = ConjClass(pres, pres.class_key(parse_word("a2")))
    c_b1 = ConjClass(pres, pres.class_key(parse_word("b1")))

    same = mcduff_hw_generators(c_a1, c_a1, rep, word_len=2, t_cutoff=3)
    assert same["case"] == "equal"
    assert same["morse"] == {"0": 1, "1": 1}
    assert same["intersection_points"] == 0 and same["tower_rank_total"] == 0

    disj = mcduff_hw_generators(c_a1, c_a2, rep, word_len=2, t_cutoff=3)
    assert disj["case"] == "distinct"
    assert disj["morse"] is None
    assert disj["tower_rank_total"] == 0
    assert disj["chords_window"]["double_cosets"] >= 1

    rev = mcduff_hw_generators(c_a1, c_A1, rep, word_len=2, t_cutoff=3)
    assert rev["case"] == "reverse"
    # doubled Z[t] towers against the single-tower sizing at the same cutoff
    assert rev["tower_rank_per_point"] == 2 * (3 + 1)

    crossing = mcduff_hw_generators(c_a1, c_b1, rep, word_len=2, t_cutoff=3)
    assert crossing["intersection_points"] == 1
    assert crossing["tower_rank_per_point"] == 3 + 1
    assert crossing["tower_rank_total"] == 4

    with pytest.raises(TrivialClass):
        trivial = ConjClass(pres, ())
        mcduff_hw_generators(trivial, c_a1, rep)
