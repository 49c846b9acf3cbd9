"""Graded Z-modules: per-degree free rank plus torsion coefficients.

The common output type of every homology computation here.  Torsion is
normalized to a divisibility chain so tables from different code paths
compare by equality.
"""

from __future__ import annotations

from math import gcd


def normalize_torsion(coeffs):
    """Canonical divisibility chain for a list of cyclic orders > 1."""
    cur = [abs(int(c)) for c in coeffs if abs(int(c)) > 1]
    changed = True
    while changed:
        changed = False
        for i in range(len(cur)):
            for j in range(i + 1, len(cur)):
                a, b = cur[i], cur[j]
                if b % a != 0:
                    g = gcd(a, b)
                    cur[i], cur[j] = g, a * b // g
                    changed = True
        cur = [c for c in cur if c > 1]
    return tuple(sorted(cur))


class GradedZModule:
    """Map degree -> (free rank, torsion chain); missing degrees are zero."""

    __slots__ = ("entries",)

    def __init__(self, entries=None):
        self.entries = {}
        if entries:
            for deg, val in entries.items():
                free, torsion = val
                self.set(deg, free, torsion)

    def set(self, deg, free, torsion=()):
        free = int(free)
        torsion = normalize_torsion(torsion)
        if free < 0:
            raise ValueError("negative free rank")
        if free == 0 and not torsion:
            self.entries.pop(deg, None)
        else:
            self.entries[int(deg)] = (free, torsion)

    def free_rank(self, deg):
        return self.entries.get(deg, (0, ()))[0]

    def torsion(self, deg):
        return self.entries.get(deg, (0, ()))[1]

    def degrees(self):
        return sorted(self.entries)

    def euler_characteristic(self):
        return sum((-1) ** d * f for d, (f, _) in self.entries.items())

    def __eq__(self, other):
        return isinstance(other, GradedZModule) and self.entries == other.entries

    def __add__(self, other):
        """Direct sum."""
        out = GradedZModule()
        for deg in set(self.entries) | set(other.entries):
            out.set(
                deg,
                self.free_rank(deg) + other.free_rank(deg),
                self.torsion(deg) + other.torsion(deg),
            )
        return out

    def scaled(self, k):
        """Direct sum of k copies."""
        if k < 0:
            raise ValueError("negative multiplicity")
        out = GradedZModule()
        for deg, (f, t) in self.entries.items():
            out.set(deg, f * k, t * k)
        return out

    def to_dict(self):
        """JSON-friendly {degree: {"free": n, "torsion": [...]}}."""
        return {
            str(d): {"free": f, "torsion": list(t)}
            for d, (f, t) in sorted(self.entries.items())
        }

    def __repr__(self):
        parts = [
            "%d: Z^%d%s" % (d, f, "" if not t else " + " + "+".join("Z/%d" % c for c in t))
            for d, (f, t) in sorted(self.entries.items())
        ]
        return "GradedZModule({%s})" % ", ".join(parts)
