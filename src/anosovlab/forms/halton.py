"""Scrambled Halton samples, bit-identical to scipy.stats.qmc.Halton.

Owen's random digit permutations are drawn by a pure-Python port of the
generator behind numpy.random.default_rng(seed).shuffle: the SeedSequence
hash, the PCG64 XSL-RR generator on a 128-bit LCG and the masked bounded
draw of Generator.shuffle.  Importing numpy.random costs about 5 MB of
resident memory on top of numpy, far more than the tables it would draw.
"""

from __future__ import annotations

import math
import operator
from functools import lru_cache

import numpy as np

_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
# SeedSequence's hash constants (O'Neill's seed_seq_fe)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341


def _seed_words(seed):
    """SeedSequence(seed).generate_state(8, uint32) for an int seed >= 0;
    like SeedSequence, a negative seed raises ValueError and a non-integer
    one TypeError."""
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError("expected non-negative integer")
    entropy = [seed & _MASK32]
    while seed >> 32:
        seed >>= 32
        entropy.append(seed & _MASK32)
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * hash_const & _MASK32
        return value ^ value >> 16

    def mix(x, y):
        r = (_MIX_L * x - _MIX_R * y) & _MASK32
        return r ^ r >> 16

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    out, hash_const = [], _INIT_B
    for i in range(8):
        value = pool[i % 4] ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * hash_const & _MASK32
        out.append(value ^ value >> 16)
    return out


class _PCG64:
    """numpy.random.PCG64(seed): XSL-RR output of a 128-bit LCG, with the
    high half of each 64-bit output kept for the next 32-bit draw."""

    def __init__(self, seed):
        w = _seed_words(seed)
        # the eight words read as four little-endian 64-bit words
        s0, s1, i0, i1 = (w[k] | w[k + 1] << 32 for k in range(0, 8, 2))
        self.inc = ((i0 << 64 | i1) << 1 | 1) & _MASK128
        self.state = (self.inc + (s0 << 64 | s1)) * _PCG_MULT + self.inc & _MASK128
        self.spare = None

    def next64(self):
        self.state = self.state * _PCG_MULT + self.inc & _MASK128
        x = (self.state >> 64 ^ self.state) & _MASK64
        rot = self.state >> 122
        return (x >> rot | x << (64 - rot)) & _MASK64

    def next32(self):
        if self.spare is not None:
            out, self.spare = self.spare, None
            return out
        x = self.next64()
        self.spare = x >> 32
        return x & _MASK32

    def shuffle(self, items):
        """Generator.shuffle on a list: Fisher-Yates from the end, each index
        j <= i drawn by masking 32-bit outputs to the bit length of i."""
        for i in range(len(items) - 1, 0, -1):
            mask = (1 << i.bit_length()) - 1
            while (j := self.next32() & mask) > i:
                pass
            items[i], items[j] = items[j], items[i]


def _primes(d):
    """The first d primes."""
    out = []
    n = 2
    while len(out) < d:
        if all(n % p for p in out):
            out.append(n)
        n += 1
    return out


@lru_cache(maxsize=64)
def _halton_digit_terms(d, seed):
    """Per axis: (base, terms), where terms[j, v] is perm_j[v] / base^(j+1).

    Owen's (2017) random digit permutations perm_j: for the i-th prime
    `base`, ceil(54 / log2 base) - 1 copies of range(base), each shuffled in
    turn by one generator shared across the axes (the draws of
    scipy.stats.qmc.Halton(d, scramble=True, seed=seed)).  The weight of row
    j + 1 is the weight of row j divided by base, starting from 1/base."""
    rng = _PCG64(seed)
    tables = []
    for base in _primes(d):
        count = math.ceil(54 / math.log2(base)) - 1
        perms = []
        for _ in range(count):
            perm = list(range(base))
            rng.shuffle(perm)
            perms.append(perm)
        weights = [1.0 / base]
        for _ in range(count - 1):
            weights.append(weights[-1] / base)
        terms = np.array(perms, dtype=float) * np.array(weights)[:, None]
        terms.flags.writeable = False
        tables.append((base, terms))
    return tuple(tables)


def scrambled_halton(n, d, seed):
    """First n points of the scrambled Halton sequence in [0, 1)^d.

    Coordinate i of point k adds up the digit terms of every row j of the
    i-th prime, from 0.0 and in row order, so the points are bit-identical
    to scipy.stats.qmc.Halton(d, scramble=True, seed=seed).random(n)."""
    k = np.arange(n)
    out = np.empty((n, d))
    for i, (base, table) in enumerate(_halton_digit_terms(d, seed)):
        v = np.zeros(n)
        place = 1  # base^j
        for row in table:
            # past place >= n every digit of k < n is 0
            v += row[k // place % base] if place < n else row[0]
            place *= base
        out[:, i] = v
    return out
