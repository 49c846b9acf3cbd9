"""Integer cohomology tables, Hochschild homology of the dual numbers, and
assembly of the symplectic-cohomology rank reports.

Everything is reduced to Smith normal form computations; the closed-string
rank tables are direct sums of these pieces with multiplicities supplied by
the chord/fiber enumeration.
"""

from __future__ import annotations

from .exact import GradedZModule, IntMatrix, cokernel
from .exact.intmat import chain_homology
from .toral import eigen_data
from .chords import enumerate_rational_fibers


class GenusTooSmall(ValueError):
    pass


class MalformedTable(ValueError):
    pass


def mapping_torus_cohomology(A):
    """H*(T^2 mapping torus of A; Z) via the Wang sequence.

    H^k = coker(A^T - I on H^{k-1}(T^2)) + ker(A^T - I on H^k(T^2)), the
    extension splitting because the kernel part is free.  Monodromy acts on
    H^1(T^2) = Z^2 by A^T and trivially on H^0, H^2 (det A = 1).
    """
    eigen_data(A)  # validates det = 1, trace > 2
    B = A.transpose() - IntMatrix.identity(2)
    free1, tors1 = cokernel(B)  # action on H^1
    rank_B = 2 - free1
    ker1 = 2 - rank_B  # zero for hyperbolic A, kept for structure
    table = GradedZModule()
    table.set(0, 1)
    table.set(1, 1 + ker1)
    table.set(2, 1 + free1, tors1)
    table.set(3, 1)
    return table


def circle_bundle_cohomology(g):
    """H*(S^* Sigma_g; Z) via the Gysin sequence, Euler number 2 - 2g."""
    if g < 2:
        raise GenusTooSmall("genus >= 2 required, got %d" % g)
    e = 2 - 2 * g
    free_e, tors_e = cokernel(IntMatrix([[e]]))  # coker(cup e: H^0 -> H^2)
    table = GradedZModule()
    table.set(0, 1)
    table.set(1, 2 * g)
    table.set(2, 2 * g + free_e, tors_e)
    table.set(3, 1)
    return table


class HochschildTable:
    """Bigraded table (homological degree, internal degree) -> (free, torsion).

    Total degree means internal minus homological; for the dual numbers the
    table is supported in total degrees 0 and 1.
    """

    def __init__(self):
        self.entries = {}

    def set(self, i, j, free, torsion=()):
        from .exact.graded import normalize_torsion

        torsion = normalize_torsion(torsion)
        if free or torsion:
            self.entries[(i, j)] = (int(free), torsion)

    def total_degree_support(self):
        return sorted({j - i for (i, j) in self.entries})

    def total_rank(self):
        """Free rank plus torsion generator count, all degrees."""
        return sum(f + len(t) for f, t in self.entries.values())

    def scaled(self, k):
        out = HochschildTable()
        for (i, j), (f, t) in self.entries.items():
            out.set(i, j, f * k, t * k)
        return out

    def __eq__(self, other):
        return isinstance(other, HochschildTable) and self.entries == other.entries

    def to_dict(self):
        return {
            "%d,%d" % key: {"free": f, "torsion": list(t)}
            for key, (f, t) in sorted(self.entries.items())
        }


def _dual_numbers_differential(i):
    """Matrix of d_i: C_i -> C_{i-1} in basis [1*e, x*e] per term.

    The periodic complex alternates 0 and multiplication by 2x; the
    generator e_i carries internal degree i so every map preserves it."""
    if i <= 0 or i % 2 == 1:
        return IntMatrix.zero(2, 2)
    return IntMatrix([[0, 0], [2, 0]])


def hochschild_dual_numbers(N):
    """HH of Z[x]/x^2 (deg x = 1) from the truncated periodic complex.

    Terms 0..N are kept; homology is reported for homological degrees
    0..N-1, where both adjacent differentials are present, so no truncation
    artifact can enter.  Internal degrees are tracked: C_i has generators
    1*e_i in internal degree i and x*e_i in internal degree i+1.
    """
    if N < 1:
        raise ValueError("N >= 1 required")
    table = HochschildTable()
    for i in range(N):
        d_out = _dual_numbers_differential(i)
        d_in = _dual_numbers_differential(i + 1)
        # split by internal degree: basis index 0 has degree i, index 1 has
        # degree i+1; the differentials are degree-preserving, and in the
        # bases above only the (x*e_{i-1}) <- (1*e_i) entry can be nonzero
        for col, j in ((0, i), (1, i + 1)):
            dout_piece = IntMatrix([[d_out.rows[1][col]]]) if i > 0 else IntMatrix.zero(1, 1)
            # incoming component landing on basis element `col` of C_i:
            # from C_{i+1} basis element of the same internal degree j,
            # which is index j - (i+1)
            src = j - (i + 1)
            if 0 <= src <= 1:
                din_piece = IntMatrix([[d_in.rows[col][src]]])
            else:
                din_piece = IntMatrix.zero(1, 1)
            free, tors = chain_homology(dout_piece, din_piece)
            if free or tors:
                table.set(i, j, table.entries.get((i, j), (0, ()))[0] + free,
                          table.entries.get((i, j), (0, ()))[1] + tors)
    return table


def hh_c_ranks(orbit_count, N):
    """HH^c splits as one dual-numbers table per simple closed orbit."""
    if orbit_count < 0:
        raise ValueError("orbit_count >= 0 required")
    return hochschild_dual_numbers(N).scaled(orbit_count)


def sh_torus_bundle(A, max_norm):
    """SH rank report of a torus-bundle domain within a fiber window.

    Middle block H*(M); one H*(S^1) pair per rational fiber of each end,
    fibers enumerated as primitive cone vectors up to the box bound."""
    H = eigen_data(A)
    middle = mapping_torus_cohomology(A)
    fibers_plus = enumerate_rational_fibers(H, +1, max_norm)
    fibers_minus = enumerate_rational_fibers(H, -1, max_norm)
    circle = GradedZModule({0: (1, ()), 1: (1, ())})
    return {
        "window_max_norm": max_norm,
        "middle": middle,
        "plus_fiber_count": len(fibers_plus),
        "minus_fiber_count": len(fibers_minus),
        "plus_fibers": fibers_plus,
        "minus_fibers": fibers_minus,
        "plus_block": circle.scaled(len(fibers_plus)),
        "minus_block": circle.scaled(len(fibers_minus)),
        "window_caveat": "side blocks enumerate the rational fibers with "
                         "primitive direction in the box window only",
    }


def sh_mcduff(g, t_max, class_list):
    """SH rank report of a McDuff domain.

    Negative block t H*(M)[t] truncated at t^t_max; middle H*(M); positive
    block one circle homology per nontrivial free homotopy class supplied
    (each non-contractible loop-space component contributes a circle)."""
    middle = circle_bundle_cohomology(g)
    if t_max < 0:
        raise ValueError("t_max >= 0 required")
    negative = middle.scaled(t_max)  # t, t^2, ..., t^{t_max} copies
    circle = GradedZModule({0: (1, ()), 1: (1, ())})
    classes = [c for c in class_list]
    positive = circle.scaled(len(classes))
    return {
        "genus": g,
        "t_max": t_max,
        "middle": middle,
        "negative_block": negative,
        "positive_block": positive,
        "class_count": len(classes),
        "classes": classes,
        "window_caveat": "negative block truncated at t^%d; positive block "
                         "covers the supplied classes only" % t_max,
    }


ALLOWED_PRODUCT_TRIPLES = frozenset(
    [
        ("0", "0", "0"),
        ("-", "-", "-"),
        ("-", "0", "-"),
        ("0", "-", "-"),
        ("+", "+", "+"),
        ("+", "0", "+"),
        ("0", "+", "+"),
    ]
)


def product_admissibility(check_table):
    """Validate a candidate product-support table against the splitting.

    check_table = {"components": {"-": table, "0": table, "+": table},
    "product_support": iterable of (a, b, c) triples}.  Tables may be
    GradedZModule or plain {degree: {"free": n, "torsion": [...]}} dicts.
    Returns a report with the flagged triples and the fiber-product axiom
    checks I_- /\\ I_+ = 0 and A_pm / I_pm = A_0 at rank level.
    """
    if not isinstance(check_table, dict) or "product_support" not in check_table:
        raise MalformedTable("expected dict with 'product_support'")
    violations = []
    seen = set()
    for triple in check_table["product_support"]:
        t = tuple(str(x) for x in triple)
        if len(t) != 3 or any(x not in ("-", "0", "+") for x in t):
            raise MalformedTable("bad component triple %r" % (triple,))
        seen.add(t)
        if t not in ALLOWED_PRODUCT_TRIPLES:
            violations.append(t)
    axioms = {}
    comps = check_table.get("components")
    if comps is not None:
        tables = {}
        for key in ("-", "0", "+"):
            if key not in comps:
                raise MalformedTable("missing component %r" % key)
            tables[key] = _as_module(comps[key])
        a_minus = tables["0"] + tables["-"]
        a_plus = tables["0"] + tables["+"]
        axioms["ideals_disjoint"] = True  # direct-sum model: I- /\ I+ = 0
        axioms["quotient_minus_is_A0"] = _quotient_matches(
            a_minus, tables["-"], tables["0"]
        )
        axioms["quotient_plus_is_A0"] = _quotient_matches(
            a_plus, tables["+"], tables["0"]
        )
    return {
        "checked": sorted(seen),
        "violations": violations,
        "admissible": not violations,
        "axioms": axioms,
    }


def _as_module(table):
    if isinstance(table, GradedZModule):
        return table
    out = GradedZModule()
    for deg, val in table.items():
        out.set(int(deg), val.get("free", 0), tuple(val.get("torsion", ())))
    return out


def _quotient_matches(total, ideal, quotient):
    """Rank-level check that total / ideal = quotient in each degree."""
    for deg in set(total.degrees()) | set(ideal.degrees()) | set(quotient.degrees()):
        if total.free_rank(deg) - ideal.free_rank(deg) != quotient.free_rank(deg):
            return False
        remaining = list(total.torsion(deg))
        for t in ideal.torsion(deg):
            if t in remaining:
                remaining.remove(t)
            else:
                return False
        if tuple(sorted(remaining)) != tuple(sorted(quotient.torsion(deg))):
            return False
    return True
