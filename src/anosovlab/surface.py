"""Genus-g surface groups: Dehn's algorithm, conjugacy classes, and the
regular-octagon Fuchsian realization for genus 2.

Words are tuples of signed generator indices (a_i = 2i-1, b_i = 2i,
negatives are inverses).  The relator is the product of commutators, whose
symmetrized closure has pieces of length 1, so Dehn's greedy shortening,
over an index of relators by their first two letters, solves the word
problem.  The Fuchsian side is built in high precision (mpmath); an exact
integer product decides +-I and float64 matrices serve the geometry.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import lru_cache

import mpmath
import numpy as np

from .hyperbolic import Geodesic, Mobius, intersect


class NotHyperbolicElement(ValueError):
    pass


class TrivialClass(ValueError):
    pass


# max-entry distance from +-I below which FuchsianRep.is_identity says yes
IDENTITY_RESIDUAL = 1e-6


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
        """Greedy Dehn shortening; empty output iff the word is trivial."""
        w = free_reduce(word)
        i = 0
        while i < len(w):
            m, rel = self._relator_at(w, i, len(w))
            if m > self.half:
                w = free_reduce(w[:i] + invert_word(rel[m:]) + w[i + m :])
                i = 0
            else:
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
        swaps (the ambiguity of Dehn's conjugacy normal form)."""
        base = self.cyclic_reduce(word)
        if base == ():
            return ()
        seen = set()
        frontier = [base]
        best = None
        budget = 4096
        while frontier and budget > 0:
            w = frontier.pop()
            if w in seen:
                continue
            seen.add(w)
            budget -= 1
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

def _mp_rotation(phi):
    c, s = mpmath.cos(phi / 2), mpmath.sin(phi / 2)
    return mpmath.matrix([[c, s], [-s, c]])


def _mp_apply(m, z):
    return (m[0, 0] * z + m[0, 1]) / (m[1, 0] * z + m[1, 1])


def _mp_normalizer(P, Q):
    """Isometry sending P to i and Q up the imaginary axis."""
    s = mpmath.sqrt(P.imag)
    M = mpmath.matrix([[1 / s, -P.real / s], [0, s]])
    Q1 = _mp_apply(M, Q)
    if abs(Q1.real) < mpmath.mpf(10) ** (-mpmath.mp.dps + 8):
        psi = mpmath.pi / 2 if Q1.imag > 1 else -mpmath.pi / 2
    else:
        c = (abs(Q1) ** 2 - 1) / (2 * Q1.real)
        t = mpmath.mpc(0, 1) * (mpmath.mpc(0, 1) - c)
        if t.real * Q1.real < 0:
            t = -t
        psi = mpmath.atan2(t.imag, t.real)
    R = _mp_rotation(mpmath.pi / 2 - psi)
    return R * M


def _mp_inv(m):
    return mpmath.matrix([[m[1, 1], -m[0, 1]], [-m[1, 0], m[0, 0]]]) / (
        m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    )


def _to_longdouble(x):
    """Split an mpf into two float64 summands to fill the 64-bit mantissa."""
    hi = float(x)
    lo = float(x - mpmath.mpf(hi))
    return np.longdouble(hi) + np.longdouble(lo)


@lru_cache(maxsize=None)
def octagon_generators(dps=70):
    """Side-pairing matrices of the regular angle-pi/4 octagon, genus 2.

    Sides are labeled a1 b1 A1 B1 a2 b2 A2 B2 counterclockwise; the pairing
    for a generator g maps the side labeled g^{-1} onto the side labeled g
    with reversed orientation.  Returns (mp matrices dict, relator residual).
    """
    with mpmath.workdps(dps):
        cosh_rv = 3 + 2 * mpmath.sqrt(2)
        sinh_rv = mpmath.sqrt(cosh_rv**2 - 1)
        rho = sinh_rv / (1 + cosh_rv)  # disk radius of the vertices
        verts = []
        for k in range(8):
            ang = mpmath.pi / 8 + k * mpmath.pi / 4
            w = rho * mpmath.exp(mpmath.mpc(0, 1) * ang)
            verts.append(mpmath.mpc(0, 1) * (1 + w) / (1 - w))  # Cayley map
        labels = [1, 2, -1, -2, 3, 4, -3, -4]  # a1 b1 A1 B1 a2 b2 A2 B2
        gens = {}
        for g in (1, 2, 3, 4):
            i = labels.index(g)
            j = labels.index(-g)
            N1 = _mp_normalizer(verts[j], verts[(j + 1) % 8])
            N2 = _mp_normalizer(verts[(i + 1) % 8], verts[i])
            gens[g] = _mp_inv(N2) * N1
        # the geometric pairings satisfy a b^-1 a^-1 b c d^-1 c^-1 d = 1;
        # inverting the b-type pairings turns that into the standard
        # commutator relator in (a1, b1, a2, b2)
        gens[2] = _mp_inv(gens[2])
        gens[4] = _mp_inv(gens[4])
        rel = mpmath.matrix([[1, 0], [0, 1]])
        for g in (1, 2, -1, -2, 3, 4, -3, -4):
            m = gens[abs(g)] if g > 0 else _mp_inv(gens[abs(g)])
            rel = rel * m
        res = min(
            max(abs(rel[i, j] - (1 if i == j else 0)) for i in (0, 1) for j in (0, 1)),
            max(abs(rel[i, j] + (1 if i == j else 0)) for i in (0, 1) for j in (0, 1)),
        )
        return gens, float(res)


@lru_cache(maxsize=None)
def _fixed_point_generators(bits):
    """Signed letter -> (a, b, c, d): the octagon generator, or its
    inverse, with entries rounded to the nearest integer over 2^bits."""
    dps = bits // 3 + 10
    gens, _ = octagon_generators(dps)
    out = {}
    with mpmath.workdps(dps):
        for g, m in gens.items():
            a, b, c, d = (int(mpmath.nint(mpmath.ldexp(m[i, j], bits)))
                          for i, j in ((0, 0), (0, 1), (1, 0), (1, 1)))
            out[g], out[-g] = (a, b, c, d), (d, -b, -c, a)
    return out


class FuchsianRep:
    """Matrix realization of the presentation; genus 2 uses the octagon."""

    def __init__(self, presentation, dps=70):
        if presentation.genus != 2:
            raise ValueError("built-in Fuchsian data covers genus 2 only")
        self.presentation = presentation
        self.dps = dps
        mp_gens, self.relator_residual = octagon_generators(dps)
        self._mp_gens = mp_gens
        with mpmath.workdps(dps):
            self._gens_ld = {
                g: np.array(
                    [
                        [_to_longdouble(m[0, 0]), _to_longdouble(m[0, 1])],
                        [_to_longdouble(m[1, 0]), _to_longdouble(m[1, 1])],
                    ],
                    dtype=np.longdouble,
                )
                for g, m in mp_gens.items()
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
        with mpmath.workdps(dps or self.dps):
            out = mpmath.matrix([[1, 0], [0, 1]])
            for x in word:
                m = self._mp_gens[abs(x)]
                if x < 0:
                    m = _mp_inv(m)
                out = out * m
            return out

    def is_identity(self, word):
        """Does the word represent +-identity?

        One fixed-point integer product: generator entries over 2^bits with
        bits >= 3 len(word) + 64, truncated after each step.  Every entry
        is below 3.905, so every prefix and suffix product has max entry
        below 7.81^len < 2^(3 len) and the accumulated error stays below
        2^-50.  A nontrivial element is hyperbolic (the group is discrete
        and torsion-free), so its trace stays away from +-2 (|trace| >=
        2 + sqrt 2 on every class up to length 5) and its residual from +-I
        is far above IDENTITY_RESIDUAL."""
        # the smallest multiple of 64 that is >= 3 len + 64: few tables
        bits = 64 * ((3 * len(word) + 127) // 64)
        gens = _fixed_point_generators(bits)
        one = 1 << bits
        p, q, r, s = one, 0, 0, one
        for x in word:
            a, b, c, d = gens[x]
            p, q, r, s = ((p * a + q * c) >> bits, (p * b + q * d) >> bits,
                          (r * a + s * c) >> bits, (r * b + s * d) >> bits)
        off = max(abs(q), abs(r))
        resid = min(max(off, abs(p - one), abs(s - one)),
                    max(off, abs(p + one), abs(s + one)))
        return resid / one < IDENTITY_RESIDUAL

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

    The trace is evaluated in high precision: conjugated representatives
    cancel norm growth of order e^len and the class-function property must
    survive that cancellation."""
    with mpmath.workdps(max(30, 10 + len(word))):
        P = rep.matrix_mp(word)
        tr = abs(P[0, 0] + P[1, 1])
        if tr <= 2:
            raise NotHyperbolicElement("trace %s <= 2" % mpmath.nstr(tr))
        return float(2 * mpmath.acosh(tr / 2))


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
