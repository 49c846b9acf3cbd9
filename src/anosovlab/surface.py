"""Genus-g surface groups: Dehn's algorithm, conjugacy classes, and the
regular-octagon Fuchsian realization for genus 2.

Words are tuples of signed generator indices (a_i = 2i-1, b_i = 2i,
negatives are inverses).  The relator is the product of commutators, whose
symmetrized closure has pieces of length 1, so Dehn's greedy shortening,
over an index of relators by their first two letters, solves the word
problem.  The genus-2 octagon group is arithmetic: every element is four
Z[sqrt 2] coordinates in the basis 1, a1, b1, a1 b1, so one exact integer
product decides +-I and gives the trace behind geodesic lengths.  Float64
matrices, from generator entries rounded once from closed forms, serve the
geometry.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import chain

import numpy as np

from .hyperbolic import Geodesic, Mobius, intersect


class NotHyperbolicElement(ValueError):
    pass


class TrivialClass(ValueError):
    pass


class ClassKeyExhausted(ValueError):
    """class_key met CLASS_KEY_STATES words of one class with more left to
    visit, so the least word it saw is not proven canonical."""


# class_key visits at most this many words of a class; the 52-letter word
# a2b2A2B2B2A2b1a1b2A2B2a1a1B1A1b2A1b2a2B2B2A2b1a1B2A2b1a1B2A2b1a1B2A2b1a1
# a2B2A2b1A1B1a2b2a2b2A2B2B2A2b1a1 reaches it after 1.3 s
CLASS_KEY_STATES = 4096


# ------------------------------------------------------------ words

_TOKEN = re.compile(r"([aAbB])(\d+)")


def parse_word(text):
    """Tokens a1, b1, ... with capitals for inverses; returns index tuple."""
    out = []
    pos = 0
    for m in _TOKEN.finditer(text.replace(",", " ")):
        kind, num = m.group(1), int(m.group(2))
        if num < 1:
            raise ValueError("generator index must be >= 1 in %r" % text)
        idx = 2 * num - 1 if kind in "aA" else 2 * num
        out.append(-idx if kind.isupper() else idx)
        pos = m.end()
    stripped = _TOKEN.sub("", text.replace(",", " ")).strip()
    if stripped:
        raise ValueError("unparsed word characters %r" % stripped)
    return tuple(out)


def format_word(word):
    parts = []
    for x in word:
        idx = abs(x)
        num = (idx + 1) // 2
        kind = "a" if idx % 2 == 1 else "b"
        if x < 0:
            kind = kind.upper()
        parts.append("%s%d" % (kind, num))
    return "".join(parts) or "1"


def free_reduce(word):
    out = []
    for x in word:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def invert_word(word):
    return tuple(-x for x in reversed(word))


class SurfacePresentation:
    """Standard one-relator presentation of a genus-g surface group."""

    def __init__(self, genus):
        if genus < 2:
            raise ValueError("genus >= 2 required")
        self.genus = genus
        rel = []
        for i in range(genus):
            a, b = 2 * i + 1, 2 * i + 2
            rel += [a, b, -a, -b]
        self.relator = tuple(rel)
        self.half = len(rel) // 2
        sym = set()
        for base in (self.relator, invert_word(self.relator)):
            for r in range(len(base)):
                sym.add(base[r:] + base[:r])
        self.symmetrized = tuple(sorted(sym))
        self._by_prefix = {rel[:2]: rel for rel in self.symmetrized}
        assert len(self._by_prefix) == len(self.symmetrized), \
            "two symmetrized relators share a two-letter prefix"

    @property
    def n_generators(self):
        return 2 * self.genus

    def generators(self):
        return [(i,) for i in range(1, self.n_generators + 1)]

    def parse(self, text):
        """parse_word, keeping to the letters a_i, b_i with i <= genus."""
        word = parse_word(text)
        if any(abs(x) > self.n_generators for x in word):
            raise ValueError("%r has a letter beyond a%d, b%d"
                             % (text, self.genus, self.genus))
        return word

    # ---------------------------------------------------- Dehn moves

    def _relator_at(self, word, i, stop):
        """(m, rel): the one symmetrized relator that can share more than
        a letter (a piece) with word[i:stop], and the length m they share;
        (0, None) when no relator starts with word[i:i+2]."""
        rel = self._by_prefix.get(word[i : i + 2]) if i + 2 <= stop else None
        if rel is None:
            return 0, None
        m, end = 2, min(stop - i, len(rel))
        while m < end and word[i + m] == rel[m]:
            m += 1
        return m, rel

    def dehn_reduce(self, word):
        """Greedy Dehn shortening; empty output iff the word is trivial.

        The scan is _relator_at(w, i, len(w)) inlined: at each i, the one
        relator starting with w[i:i+2] and the length m it shares with w.
        It stops where fewer than half + 1 letters are left to match."""
        by_prefix, half = self._by_prefix, self.half
        w = free_reduce(word)
        n = len(w)
        i = 0
        while i + half < n:
            rel = by_prefix.get(w[i : i + 2])
            if rel is not None:
                m, end = 2, min(n - i, len(rel))
                while m < end and w[i + m] == rel[m]:
                    m += 1
                if m > half:
                    w = free_reduce(w[:i] + invert_word(rel[m:]) + w[i + m :])
                    n = len(w)
                    i = 0
                    continue
            i += 1
        return w

    def is_trivial(self, word):
        return self.dehn_reduce(word) == ()

    def cyclic_reduce(self, word):
        """Dehn reduction performed on the cyclic word."""
        w = self.dehn_reduce(word)
        while True:
            changed = False
            while len(w) >= 2 and w[0] == -w[-1]:
                w = free_reduce(w[1:-1])
                changed = True
            n = len(w)
            if n > self.half:
                doubled = w + w
                for i in range(n):
                    m, rel = self._relator_at(doubled, i, i + n)
                    if m > self.half:
                        w = free_reduce(invert_word(rel[m:]) + doubled[i + m : i + n])
                        changed = True
                        break
            if not changed:
                return w

    def class_key(self, word):
        """Canonical conjugacy-class key: lexicographically least cyclic
        form, closed over rotations and length-preserving half-relator
        swaps (the ambiguity of Dehn's conjugacy normal form).  Raises
        ClassKeyExhausted past CLASS_KEY_STATES visited words."""
        base = self.cyclic_reduce(word)
        if base == ():
            return ()
        seen = set()
        frontier = [base]
        best = None
        while frontier and len(seen) < CLASS_KEY_STATES:
            w = frontier.pop()
            if w in seen:
                continue
            seen.add(w)
            n = len(w)
            for r in range(n):
                rot = w[r:] + w[:r]
                if best is None or (len(rot), rot) < (len(best), best):
                    best = rot
                if rot not in seen:
                    m, rel = self._relator_at(rot, 0, n)
                    if m == self.half:
                        swapped = self.cyclic_reduce(invert_word(rel[m:]) + rot[m:])
                        if swapped and swapped not in seen:
                            frontier.append(swapped)
        if any(w not in seen for w in frontier):
            raise ClassKeyExhausted(
                "the class of %s has more than %d cyclic words to visit"
                % (format_word(base), CLASS_KEY_STATES))
        return best

    def conjugacy_classes(self, L):
        """One representative per class key among nontrivial words of
        length <= L (orientation not quotiented)."""
        if L < 0:
            raise ValueError("L >= 0 required")
        keys = {self.class_key(w) for w in _ball_words(self, L)}
        keys.discard(())
        return [ConjClass(self, k) for k in sorted(keys, key=lambda k: (len(k), k))]


@dataclass(frozen=True)
class ConjClass:
    """Conjugacy class with its canonical cyclically reduced representative."""

    presentation: SurfacePresentation
    word: tuple

    def inverse(self):
        return ConjClass(
            self.presentation, self.presentation.class_key(invert_word(self.word))
        )

    def __str__(self):
        return format_word(self.word)


# -------------------------------------------------- Fuchsian octagon
#
# The octagon group is arithmetic: with A = a1 and B = b1, every element is
# c0 + c1 A + c2 B + c3 AB with c0, ..., c3 in Z[sqrt 2].  x + y sqrt 2 is
# the pair (x, y), an element the 8 integers of its coordinates, and right
# multiplication an 8 x 8 integer matrix acting on rows.  Products follow
# from tA = tB = 2 + sqrt 2, tAB = 2 + 2 sqrt 2 and the rules
# A^2 = tA A - 1, B^2 = tB B - 1, BA = tB A + tA B - AB + (tAB - tA tB).

# coordinates of the side pairings of the regular angle-pi/4 octagon (the
# construction is oracles.octagon_generators); every inverse is tr g - g
_OCTAGON = {
    1: (0, 0, 1, 0, 0, 0, 0, 0),
    2: (0, 0, 0, 0, 1, 0, 0, 0),
    3: (8, 5, -5, -3, -2, -1, 2, 1),
    4: (-4, -3, 4, 3, 1, 1, -2, -1),
}

_ONE, _MINUS_ONE = [1] + [0] * 7, [-1] + [0] * 7


def _zmat(rows):
    """The integer matrix of a matrix over Z[sqrt 2] acting on rows."""
    return np.block([[np.array(((x, y), (2 * y, x)), dtype=object) for x, y in row]
                     for row in rows])


def _scalar(x, y):
    return np.kron(np.eye(4, dtype=object), _zmat([[(x, y)]]))


# tr 1, tr A, tr B, tr AB
_TRACE_COLS = _zmat([[(2, 0)], [(2, 1)], [(2, 1)], [(2, 2)]]).T.tolist()
# row i: the coordinates of e_i A, resp. e_i B, for the basis e = (1, A, B, AB)
_RIGHT_A = _zmat((((0, 0), (1, 0), (0, 0), (0, 0)),
                  ((-1, 0), (2, 1), (0, 0), (0, 0)),
                  ((-4, -2), (2, 1), (2, 1), (-1, 0)),
                  ((-2, -1), (2, 2), (1, 0), (0, 0))))  # ABA = tAB A + B - tB
_RIGHT_B = _zmat((((0, 0), (0, 0), (1, 0), (0, 0)),
                  ((0, 0), (0, 0), (0, 0), (1, 0)),
                  ((-1, 0), (0, 0), (2, 1), (0, 0)),
                  ((0, 0), (-1, 0), (0, 0), (2, 1))))   # AB B = tB AB - A


def _apply(v, cols):
    """The row v of 8 integers times the matrix with the given columns."""
    a, b, c, d, e, f, g, h = v
    return [a * c0 + b * c1 + c * c2 + d * c3 + e * c4 + f * c5 + g * c6 + h * c7
            for c0, c1, c2, c3, c4, c5, c6, c7 in cols]


@lru_cache(maxsize=None)
def _letter(x):
    """Right multiplication by the signed letter x; g^-1 = tr g - g."""
    c = _OCTAGON[abs(x)]
    basis = (np.eye(8, dtype=object), _RIGHT_A, _RIGHT_B, _RIGHT_A @ _RIGHT_B)
    R = sum(E @ _scalar(*c[2 * i : 2 * i + 2]) for i, E in enumerate(basis))
    return R if x > 0 else _scalar(*_apply(c, _TRACE_COLS)) - R


@lru_cache(maxsize=None)
def _block(word):
    """Columns of right multiplication by a word of one to three letters."""
    M = _letter(word[0])
    for x in word[1:]:
        M = M @ _letter(x)
    return M.T.tolist()


def _coords(word):
    """The 8 integers of the word: three letters per step (the 456 reduced
    blocks fill the cache quickly), _apply inlined, and the product started
    from row 0 of the first block, which is 1 times that block."""
    if not word:
        return list(_ONE)
    v = [col[0] for col in _block(word[:3])]
    for i in range(3, len(word), 3):
        a, b, c, d, e, f, g, h = v
        v = [a * c0 + b * c1 + c * c2 + d * c3 + e * c4 + f * c5 + g * c6 + h * c7
             for c0, c1, c2, c3, c4, c5, c6, c7 in _block(word[i : i + 3])]
    return v


# identity_mask works mod this prime.  It is below 2^30, so an entry of a
# product of residue matrices, a sum of 8 products of residues, stays below
# 8 (_PRIME - 1)^2 < 2^63 and int64 arithmetic cannot overflow.
_PRIME = 1073741789


@lru_cache(maxsize=None)
def _residue_blocks(p):
    """Right multiplication mod p by every block of zero to three letters,
    as int64 matrices indexed by the code 81 a + 9 b + c of the block's
    letters, a letter x coded as x mod 9 (5..8 for -4..-1) and 0 padding."""
    import numpy as np

    letters = np.empty((9, 8, 8), dtype=np.int64)
    letters[0] = np.eye(8, dtype=np.int64)
    for x in (1, 2, 3, 4, -1, -2, -3, -4):
        letters[x % 9] = (_letter(x) % p).astype(np.int64)
    pairs = np.einsum("aij,bjk->abik", letters, letters) % p
    blocks = (np.einsum("abij,cjk->abcik", pairs, letters) % p).reshape(729, 8, 8)
    blocks.flags.writeable = False  # one cached table for every caller
    return blocks


def _sign(x, y):
    """Sign of x + y sqrt 2 for integers x, y."""
    s = x if x * x > 2 * y * y else y
    return (s > 0) - (s < 0)


# sqrt 2 and omega = sqrt(1 + sqrt 2) to 300 bits, far past the 106 of hi + lo
_BITS = 300
_ROOT2 = math.isqrt(2 << 2 * _BITS)
_OMEGA = math.isqrt((1 << 2 * _BITS) + (_ROOT2 << _BITS))


def _octagon_matrices(root2, omega):
    """a1, b1, a2, b2 from the closed forms of a1, b1 and the coordinates,
    in the number kind (Fraction, mpf) of root2 = sqrt 2 and omega."""
    t, u = 2 + root2, 2 * omega
    A = ((t + root2 * u) / 2, t / 2), (-t / 2, (t - root2 * u) / 2)
    B = ((t - u) / 2, (u - t) / 2), ((t + u) / 2, (t + u) / 2)
    AB = [[A[i][0] * B[0][j] + A[i][1] * B[1][j] for j in (0, 1)] for i in (0, 1)]
    out = {}
    for g, c in _OCTAGON.items():
        coeffs = [c[k] + c[k + 1] * root2 for k in (0, 2, 4, 6)]
        out[g] = [[sum(x * E[i][j] for x, E in zip(coeffs, (((1, 0), (0, 1)), A, B, AB)))
                   for j in (0, 1)] for i in (0, 1)]
    return out


def _longdouble(x):
    """The Fraction x as hi + lo, hi nearest to x and lo to x - hi."""
    hi = float(x)
    return np.longdouble(hi) + np.longdouble(float(x - Fraction(hi)))


class FuchsianRep:
    """Matrix realization of the presentation; genus 2 uses the octagon."""

    def __init__(self, presentation):
        if presentation.genus != 2:
            raise ValueError("built-in Fuchsian data covers genus 2 only")
        self.presentation = presentation
        rel = _coords(presentation.relator)
        self.relator_residual = float(min(
            max(abs(a - b) for a, b in zip(rel, one)) for one in (_ONE, _MINUS_ONE)))
        mats = _octagon_matrices(Fraction(_ROOT2, 1 << _BITS),
                                 Fraction(_OMEGA, 1 << _BITS))
        self._gens_ld = {
            g: np.array([[_longdouble(x) for x in row] for row in m],
                        dtype=np.longdouble)
            for g, m in mats.items()
        }

    def matrix(self, word):
        # accumulate in extended precision: conjugated words grow like
        # e^(len/2) and the trace must survive the cancellation
        out = np.eye(2, dtype=np.longdouble)
        for x in word:
            m = self._gens_ld[abs(x)]
            if x < 0:
                m = np.array([[m[1, 1], -m[0, 1]], [-m[1, 0], m[0, 0]]],
                             dtype=np.longdouble)
            out = out @ m
        return out.astype(float)

    def matrix_mp(self, word, dps=None):
        """The product at dps digits (default 70), from the closed forms."""
        import mpmath

        with mpmath.workdps(dps or 70):
            r2 = mpmath.sqrt(2)
            gens = _octagon_matrices(r2, mpmath.sqrt(1 + r2))
            out = mpmath.eye(2)
            for x in word:
                (a, b), (c, d) = gens[abs(x)]
                out = out * mpmath.matrix([[a, b], [c, d]] if x > 0 else [[d, -b], [-c, a]])
            return out

    def trace(self, word):
        """The exact trace x + y sqrt 2 of the word, as (x, y)."""
        return tuple(_apply(_coords(word), _TRACE_COLS))

    def is_identity(self, word):
        """Does the word represent +-identity?  Exact equality of its
        Z[sqrt 2] coordinates with +-(1, 0, 0, 0)."""
        v = _coords(word)
        return v == _ONE or v == _MINUS_ONE

    def identity_mask(self, words):
        """[self.is_identity(w) for w in words], in one pass over the batch.

        Reduction mod _PRIME is a ring map, so it commutes with the block
        products: a word whose coordinates mod _PRIME are not
        +-(1, 0, ..., 0) is not +-I.  The words that pass are decided by
        is_identity, so every True is exact and no float enters."""
        import numpy as np

        p = _PRIME
        blocks = _residue_blocks(p)
        n = len(words)
        lengths = np.fromiter(map(len, words), dtype=np.int64, count=n)
        letters = np.fromiter(chain.from_iterable(words), dtype=np.int64,
                              count=int(lengths.sum()))
        bad = (letters == 0) | (np.abs(letters) > 4)
        if bad.any():  # checked before coding, where 5 would alias -4
            raise KeyError(abs(int(letters[bad.argmax()])))
        steps = max(1, -(-int(lengths.max(initial=0)) // 3))
        padded = np.zeros((n, 3 * steps), dtype=np.int64)
        padded[np.arange(3 * steps) < lengths[:, None]] = letters % 9
        codes = padded.reshape(n, steps, 3) @ np.array([81, 9, 1])
        v = blocks[codes[:, 0], 0]
        for k in range(1, steps):
            v = np.einsum("ni,nij->nj", v, blocks[codes[:, k]]) % p
        maybe = (v[:, 1:] == 0).all(axis=1) & ((v[:, 0] == 1) | (v[:, 0] == p - 1))
        return [m and self.is_identity(w) for m, w in zip(maybe.tolist(), words)]

    def mobius(self, word):
        m = self.matrix(word)
        if np.linalg.det(m) < 0:
            raise AssertionError("negative determinant product")
        return Mobius(m)

    def axis(self, word):
        fx = self.mobius(word).fixed_points()
        return Geodesic(fx[0], fx[1])  # oriented repelling -> attracting


def geodesic_length(rep, word):
    """Length of the closed geodesic of the class: 2 acosh(|tr|/2).

    The trace is exact, so the length is a class function to the last bit
    and |tr| > 2 is decided without rounding."""
    x, y = rep.trace(word)
    if _sign(x - 2, y) <= 0 and _sign(x + 2, y) >= 0:
        raise NotHyperbolicElement("trace %d%+d sqrt 2 is in [-2, 2]" % (x, y))
    if abs(x) > 1 << 500:  # past float range, where acosh(u) = log(2 u)
        return 2 * (math.log(abs(x)) + math.log1p(y / x * math.sqrt(2)))
    return 2 * math.acosh(abs(x + y * math.sqrt(2)) / 2)


def class_distinctness_mcduff(k, cls: ConjClass):
    """Certificate that the fiber class t^k differs from a surface class.

    Fiber powers project trivially to the surface group while cls projects
    to a Dehn-nontrivial word; k = 0 is rejected (not a Reeb orbit class)."""
    if k == 0:
        raise TrivialClass("k = 0 is the trivial class")
    pres = cls.presentation
    nontrivial = not pres.is_trivial(cls.word)
    return {
        "fiber_power": k,
        "class": format_word(cls.word),
        "projection_nontrivial": nontrivial,
        "distinct": nontrivial,
    }


# ------------------------------------------- geometric intersections

def _ball_words(pres, radius):
    out = [()]
    frontier = [()]
    for _ in range(radius):
        nxt = []
        for w in frontier:
            for g in range(1, pres.n_generators + 1):
                for s in (g, -g):
                    if w and w[-1] == -s:
                        continue
                    nxt.append(w + (s,))
        out.extend(nxt)
        frontier = nxt
    return out


def _axis_key(g, digits=8):
    return (round(g.a, digits), round(g.b, digits))


def intersection_number(rep, word_a, word_b, radius=4):
    """Geometric intersection count of the two closed geodesics.

    Counts crossings of lifts of b with one fundamental period of the axis
    of a; the lift window is the ball of the given radius in the group, so
    the result is a window count (exact once the radius covers the period).
    """
    pres = rep.presentation
    wa = pres.cyclic_reduce(word_a)
    wb = pres.cyclic_reduce(word_b)
    if wa == () or wb == ():
        raise TrivialClass("intersection with a trivial class")
    axis_a = rep.axis(wa)
    ell = rep.mobius(wa).translation_length()
    from .hyperbolic import _map_to_axis

    N = _map_to_axis(axis_a)
    seen_axes = set()
    params = set()
    mb = rep.mobius(wb)
    for u in _ball_words(pres, radius):
        mu = rep.mobius(u)
        lift = (mu @ mb @ mu.inverse())
        try:
            ax = Geodesic(*lift.fixed_points())
        except ValueError:
            continue
        key = _axis_key(ax)
        if key in seen_axes:
            continue
        seen_axes.add(key)
        if {round(ax.a, 8), round(ax.b, 8)} == {
            round(axis_a.a, 8),
            round(axis_a.b, 8),
        }:
            continue
        try:
            hit = intersect(axis_a, ax)
        except Exception:
            continue
        if hit is None:
            continue
        z = N.apply_point(hit[0])
        t = math.log(abs(z.imag)) if abs(z.real) < 1e-9 else math.log(abs(z))
        tm = t % ell
        params.add(round(tm, 6))
    return len(params)


# ------------------------------------------------ HW generator report

def double_coset_count(pres, gamma, beta, word_len, exp_window=2,
                       budget=30000):
    """Distinct <gamma>\\G/<beta> double cosets met by short words.

    Canonical key: the lexicographically least Dehn reduction of
    gamma^a w beta^b over exponents |a|, |b| <= exp_window.  A hard budget
    keeps the enumeration bounded; the report says whether it was hit."""
    keys = set()
    powers_g = {}
    powers_b = {}
    for e in range(-exp_window, exp_window + 1):
        powers_g[e] = free_reduce(gamma * e if e >= 0 else invert_word(gamma) * (-e))
        powers_b[e] = free_reduce(beta * e if e >= 0 else invert_word(beta) * (-e))
    scanned = 0
    exhausted = False
    for w in _ball_words(pres, word_len):
        scanned += 1
        if scanned > budget:
            exhausted = True
            break
        best = None
        for a, ga in powers_g.items():
            for b, gb in powers_b.items():
                cand = pres.dehn_reduce(ga + w + gb)
                item = (len(cand), cand)
                if best is None or item < best:
                    best = item
        keys.add(best[1])
    return {
        "double_cosets": len(keys),
        "words_scanned": scanned if not exhausted else budget,
        "word_len": word_len,
        "exp_window": exp_window,
        "budget_exhausted": exhausted,
        "lower_bound": True,
    }


def mcduff_hw_generators(gamma: ConjClass, beta: ConjClass, rep, word_len=3,
                         t_cutoff=2, radius=3, exp_window=2):
    """Ungraded wrapped-Floer generator bookkeeping for conormal cylinders.

    Three cases by how the classes compare: distinct geodesics carry a
    Z[t]-tower per intersection point; a class against itself adds the two
    Morse generators and Z(t)-towers over self-intersections; a class
    against its reverse doubles the towers.  Chord components are counted
    through a double-coset window and reported as a lower bound."""
    pres = rep.presentation
    if pres.is_trivial(gamma.word) or pres.is_trivial(beta.word):
        raise TrivialClass("HW generators need nontrivial classes")
    same = gamma.word == beta.word
    reverse = pres.class_key(invert_word(beta.word)) == pres.class_key(gamma.word)
    if same:
        case = "equal"
        n_int = intersection_number(rep, gamma.word, gamma.word, radius)
        tower_per_point = 2 * t_cutoff + 1          # Z(t) window [-T, T]
    elif reverse:
        case = "reverse"
        n_int = intersection_number(rep, gamma.word, gamma.word, radius)
        tower_per_point = 2 * (t_cutoff + 1)        # doubled Z[t] towers
    else:
        case = "distinct"
        n_int = intersection_number(rep, gamma.word, beta.word, radius)
        tower_per_point = t_cutoff + 1
    cosets = double_coset_count(pres, gamma.word, beta.word, word_len,
                                exp_window)
    report = {
        "case": case,
        "gamma": format_word(gamma.word),
        "beta": format_word(beta.word),
        "morse": {"0": 1, "1": 1} if same else None,
        "intersection_points": n_int,
        "t_cutoff": t_cutoff,
        "tower_rank_per_point": tower_per_point,
        "tower_rank_total": n_int * tower_per_point,
        "chords_window": cosets,
        "caveats": [
            "chord count is a double-coset window lower bound",
            "intersection count uses a lift window of radius %d" % radius,
            "t-towers truncated at the stated cutoff",
        ],
    }
    return report
