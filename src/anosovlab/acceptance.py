"""The acceptance battery: one callable per criterion, oracle-backed.

Each criterion returns {"pass", "details"}; run_all adds "name" and
"elapsed_s".  The battery is what `anosovlab suite acceptance` runs and what
the dedicated test module asserts, one line per criterion.
"""

from __future__ import annotations

import math
import random
import sys
import time

from . import oracles
from .chords import (
    enumerate_chords,
    enumerate_rational_fibers,
)
from .exact import IntMatrix
from .forms import run_suite
from .homology import (
    ALLOWED_PRODUCT_TRIPLES,
    hh_c_ranks,
    hochschild_dual_numbers,
    mapping_torus_cohomology,
    product_admissibility,
    sh_torus_bundle,
)
from .hyperbolic import (
    DegenerateConfiguration,
    Geodesic,
    INF,
    Mobius,
    orthogeodesic,
    triangle_enumerate,
    grading_check,
)
from .shapes import (
    build_exact_beta,
    rounded_rectangle,
    verify_exactness,
    weighted_area,
)
from .surface import (
    FuchsianRep,
    SurfacePresentation,
    class_distinctness_mcduff,
    free_reduce,
    invert_word,
)
from .toral import (
    eigen_data,
    fixed_points,
    fixed_points_raw,
    orbit_count_identity,
    orbit_point_count,
    periodic_cycles,
)

MATRIX_BATTERY = (
    IntMatrix([[2, 1], [1, 1]]),
    IntMatrix([[1, 1], [1, 2]]),
    IntMatrix([[3, 1], [2, 1]]),
    IntMatrix([[3, 2], [1, 1]]),
    IntMatrix([[5, 2], [2, 1]]),
)

CAT = MATRIX_BATTERY[0]


def criterion_01_fixed_point_identity():
    """SNF count = pointwise-verified count = |tr(A^n) - 2|, n <= 6.

    The points stay in the integer (den, nx, ny) form of fixed_points_raw:
    the oracle checks range, fixedness and distinctness on the integer
    pairs, and only a count <= 40, which the grid scan checks too, is built
    as Fractions."""
    ok = True
    details = {}
    for A in MATRIX_BATTERY:
        counts = []
        for n in range(1, 7):
            den, pts = fixed_points_raw(A, n)
            expected = orbit_count_identity(A, n)
            good = len(pts) == expected
            good = good and oracles.fixed_points_pointwise_check(A, n, den, pts)
            if expected <= 40:
                grid = oracles.fixed_points_grid_scan(A, n, expected)
                good = good and sorted(grid) == fixed_points(A, n)
            ok = ok and good
            counts.append(expected)
        details[str(A.rows)] = counts
    return {"pass": ok, "details": details}


def criterion_02_orbit_counting():
    """sum_{d|n} d pi(d) = |tr(A^n) - 2| for the battery, n <= 6.

    pi(n) counts the integer cycles of periodic_cycles one period at a time,
    so no orbit is stored; the details hold the last matrix's counts."""
    ok = True
    for A in MATRIX_BATTERY:
        pi = {}
        for n in range(1, 7):
            _, cycles = periodic_cycles(A, n)
            count = sum(1 for _ in cycles)
            if count:
                pi[n] = count
            if orbit_point_count(pi, n) != orbit_count_identity(A, n):
                ok = False
    return {"pass": ok, "details": {"periods": pi}}


def criterion_03_chord_quadratic_growth():
    """Counts/k^2 stable between k=200 and 400; small-k counts match the
    200-bit oracle exactly; k=100 count within 3% of the raster area."""
    H = eigen_data(CAT)
    ok = True
    details = {}
    for sign in (+1, -1):
        cs = enumerate_chords(H, (0, 0), (0, 0), sign, 400, with_chords=False)
        r200 = cs.counts_by_k[200] / 200.0**2
        r400 = cs.counts_by_k[400] / 400.0**2
        rel = abs(r200 - r400) / r400
        details["density_drift_%+d" % sign] = rel
        ok = ok and rel < 0.05
        small = enumerate_chords(H, (0, 0), (0, 0), sign, 12)
        got = {(c.m, c.n) for c in small.chords}
        want = oracles.chord_membership_mp(H, (0, 0), (0, 0), sign, 12)
        ok = ok and got == want
        area = oracles.cone_box_area(H, sign, 100)
        c100 = cs.counts_by_k[100]
        details["area_vs_count_%+d" % sign] = abs(c100 - area) / area
        ok = ok and abs(c100 - area) / area < 0.03
    return {"pass": ok, "details": details}


def criterion_04_membership_precision_independent():
    """53-bit and 200-bit shadows reproduce the exact membership, k <= 100."""
    H = eigen_data(CAT)
    ok = True
    for sign in (+1, -1):
        exact = {
            (c.m, c.n)
            for c in enumerate_chords(H, (0, 0), (0, 0), sign, 100).chords
        }
        f64 = oracles.chord_membership_float(H, (0, 0), (0, 0), sign, 100)
        mp = oracles.chord_membership_mp(H, (0, 0), (0, 0), sign, 100)
        ok = ok and exact == f64 == mp
    return {"pass": ok, "details": {"count": len(exact)}}


def criterion_05_fiber_bijectivity():
    """Primitive vectors in the window have pairwise distinct slopes and
    the fiber count equals the primitive-point count."""
    H = eigen_data(CAT)
    ok = True
    details = {}
    for sign in (+1, -1):
        fibers = enumerate_rational_fibers(H, sign, 20)
        prim = 0
        chords = enumerate_chords(H, (0, 0), (0, 0), sign, 20)
        for c in chords.chords:
            if math.gcd(abs(c.m), abs(c.n)) == 1:
                prim += 1
        ok = ok and len(fibers) == prim
        # slopes pairwise distinct: integer cross products
        for i in range(len(fibers)):
            for j in range(i + 1, len(fibers)):
                if fibers[i][0] * fibers[j][1] - fibers[j][0] * fibers[i][1] == 0:
                    ok = False
        details["count_%+d" % sign] = len(fibers)
    return {"pass": ok, "details": details}


def criterion_06_forms_suite():
    """All four closed-form verification suites at 1e-8 over 1000 samples."""
    failing = []
    for suite in ("torus-bundle", "mcduff-fermi", "mcduff-halfplane", "covers"):
        for chk in run_suite(suite, samples=1000, tol=1e-8, seed=7):
            if not chk["pass"]:
                failing.append(chk)
    return {"pass": not failing, "details": {"failing": failing}}


def criterion_07_mapping_torus_cohomology():
    """Torsion order |tr - 2|, Poincare symmetry, chi = 0; two matrices
    cross-checked against the cellular cochain oracle."""
    ok = True
    for A in MATRIX_BATTERY:
        t = mapping_torus_cohomology(A)
        tor = t.torsion(2)
        order = 1
        for c in tor:
            order *= c
        ok = ok and order == abs(A.trace() - 2)
        ok = ok and all(t.free_rank(k) == t.free_rank(3 - k) for k in range(4))
        ok = ok and t.euler_characteristic() == 0
    for A in (MATRIX_BATTERY[0], MATRIX_BATTERY[2]):
        ok = ok and oracles.mapping_torus_cellular_cohomology(A) == \
            mapping_torus_cohomology(A)
    from .homology import circle_bundle_cohomology

    for g in (2, 3):
        ok = ok and oracles.circle_bundle_cellular_cohomology(g) == \
            circle_bundle_cohomology(g)
    return {"pass": ok, "details": {}}


def criterion_08_hochschild():
    """Support in total degrees {0, 1} for N <= 50, strictly growing total
    rank, and the orbit-sum table is a plain multiple."""
    ok = True
    prev = -1
    for N in range(1, 51):
        t = hochschild_dual_numbers(N)
        if any(d not in (0, 1) for d in t.total_degree_support()):
            ok = False
        r = t.total_rank()
        if r <= prev:
            ok = False
        prev = r
    single = hochschild_dual_numbers(20)
    triple = hh_c_ranks(3, 20)
    ok = ok and triple == single.scaled(3)
    ok = ok and hh_c_ranks(0, 20).entries == {}
    return {"pass": ok, "details": {"rank_at_50": prev}}


def criterion_09_product_admissibility():
    """Exactly the 7 allowed component triples pass; the other 20 are
    flagged; fiber-product axioms hold on a synthetic table."""
    comps = ("-", "0", "+")
    all_triples = [(a, b, c) for a in comps for b in comps for c in comps]
    flagged = product_admissibility(
        {"product_support": all_triples, "components": _synthetic_components()}
    )
    ok = len(flagged["violations"]) == 20
    ok = ok and set(map(tuple, flagged["violations"])).isdisjoint(
        ALLOWED_PRODUCT_TRIPLES
    )
    only_allowed = product_admissibility(
        {"product_support": sorted(ALLOWED_PRODUCT_TRIPLES),
         "components": _synthetic_components()}
    )
    ok = ok and only_allowed["admissible"]
    ax = only_allowed["axioms"]
    ok = ok and ax["ideals_disjoint"] and ax["quotient_minus_is_A0"] and ax[
        "quotient_plus_is_A0"
    ]
    bad = product_admissibility({"product_support": [("-", "+", "0")]})
    ok = ok and not bad["admissible"]
    plus_zero = product_admissibility({"product_support": [("+", "+", "0")]})
    ok = ok and not plus_zero["admissible"]
    return {"pass": ok, "details": {"violation_count": len(flagged["violations"])}}


def _synthetic_components():
    from .exact import GradedZModule

    a0 = GradedZModule({0: (1, ()), 1: (1, ())})
    im = GradedZModule({0: (2, (3,)), 1: (1, ())})
    ip = GradedZModule({0: (4, ()), 1: (2, (2, 4))})
    return {"-": im, "0": a0, "+": ip}


def criterion_10_beta_curve():
    """Solved curve hits area 2 pi to 1e-8, exactness residuals below
    tolerance, and the thin-rectangle value matches the closed-form strip
    integral at the built height within 1%."""
    curve = build_exact_beta(0.3, height_frac=0.95)
    area = weighted_area(curve)
    rep = verify_exactness(curve)
    ok = abs(area - 2 * math.pi) < 1e-8
    ok = ok and rep["pointwise_residual"] < 1e-12
    ok = ok and abs(rep["period_residual"]) < 1e-8
    ok = ok and rep["consistency"] < 1e-10
    eps = math.tanh(0.3)
    h = 0.95 * eps
    W = 40.0
    thin = rounded_rectangle(W, h, 0.05 * h)
    thin_area = weighted_area(thin)
    closed_form = W * 2.0 * math.atanh(h)
    rel = abs(thin_area - closed_form) / closed_form
    ok = ok and rel < 0.01
    direct = oracles.stadium_weighted_area_direct(
        curve.meta["seg_length"], curve.meta["h"]
    )
    ok = ok and abs(direct - area) < 1e-7
    return {
        "pass": ok,
        "details": {
            "area_residual": area - 2 * math.pi,
            "pointwise": rep["pointwise_residual"],
            "period": rep["period_residual"],
            "thin_rel_err": rel,
            "direct_vs_boundary": direct - area,
        },
    }


def criterion_11_hyperbolic_geometry():
    """Cross-ratio orthogeodesic formula, triangle counts vs the sampling
    oracle, conjugation invariance, Gauss-Bonnet, and the grading gate."""
    rng = random.Random(7)
    ok = True
    worst = 0.0
    for _ in range(50):
        a = rng.uniform(0.05, 2.0)
        b = a + rng.uniform(0.1, 4.0)
        conj = Mobius([[1.0, rng.uniform(-1, 1)], [rng.uniform(-0.4, 0.4), 1.0]])
        g1 = conj.apply_geodesic(Geodesic(0.0, INF))
        g2 = conj.apply_geodesic(Geodesic(a, b))
        d = orthogeodesic(g1, g2).length
        worst = max(worst, abs(math.cosh(d) - (b + a) / (b - a)))
    ok = ok and worst < 1e-9
    counts_checked = 0
    for trial in range(20):
        g0 = Geodesic(-rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0))
        g1 = Geodesic(0.0, INF)
        g2 = Geodesic(-rng.uniform(0.1, 1.5), rng.uniform(0.2, 3.0))
        ell = rng.uniform(0.8, 2.5)
        K = 4
        try:
            pats = triangle_enumerate(g0, g1, g2, ell, K)
        except DegenerateConfiguration:
            continue
        oracle = oracles.triangle_count_sampled(g0, g1, g2, ell, K)
        if len(pats) != oracle:
            ok = False
        M = Mobius([[1.3, 0.4], [0.1, 1.0]])
        conj_pats = triangle_enumerate(
            M.apply_geodesic(g0), M.apply_geodesic(g1), M.apply_geodesic(g2),
            ell, K
        )
        if len(conj_pats) != len(pats):
            ok = False
        for p in pats:
            if not (p.angle_sum < math.pi and p.area > 0):
                ok = False
        counts_checked += len(pats)
    ok = ok and grading_check(0, 0, 0) and grading_check(1, 2, 3)
    ok = ok and not grading_check(1, 2, 4)
    return {
        "pass": ok,
        "details": {"crossratio_worst": worst, "patterns_checked": counts_checked},
    }


def criterion_12_surface_group():
    """Dehn vs Fuchsian triviality on 10^4 words (with injected trivial
    words), relator residual, length as a class function, and distinctness
    certificates."""
    pres = SurfacePresentation(2)
    rep = FuchsianRep(pres)
    ok = rep.relator_residual < 1e-8
    rng = random.Random(7)
    alphabet = [1, -1, 2, -2, 3, -3, 4, -4]
    # the 7 letters allowed after each letter, in alphabet order
    follow = {g: [s for s in alphabet if s != -g] for g in alphabet}

    def random_reduced(maxlen):
        """A uniform reduced word of uniform length in [1, maxlen]: the
        first letter from all 8, each next one from the 7 that follow."""
        L = rng.randint(1, maxlen)
        g = rng.choice(alphabet)
        w = [g]
        for j in rng.choices(range(7), k=L - 1):
            g = follow[g][j]
            w.append(g)
        return tuple(w)

    disagreements = 0
    for start in range(0, 10000, 1000):  # 1000 words alive at a time
        words = []
        for trial in range(start, start + 1000):
            if trial % 20 == 19:  # inject known-trivial words
                u = random_reduced(8)
                rel = rng.choice(pres.symmetrized)
                words.append(free_reduce(u + rel + invert_word(u)))
            else:
                words.append(random_reduced(60))
        for w, identity in zip(words, rep.identity_mask(words)):
            if pres.is_trivial(w) != identity:
                disagreements += 1
    ok = ok and disagreements == 0

    from .surface import geodesic_length, parse_word

    base = parse_word("a1b1")
    l0 = geodesic_length(rep, base)
    worst = 0.0
    for _ in range(100):
        u = random_reduced(6)
        worst = max(
            worst,
            abs(geodesic_length(rep, free_reduce(u + base + invert_word(u))) - l0),
        )
    ok = ok and worst < 1e-10

    classes = pres.conjugacy_classes(2)
    certs = 0
    for k in range(1, 11):
        for cls in classes[:10]:
            res = class_distinctness_mcduff(k, cls)
            if not res["distinct"]:
                ok = False
            certs += 1
    return {
        "pass": ok,
        "details": {
            "relator_residual": rep.relator_residual,
            "disagreements": disagreements,
            "length_residual": worst,
            "certificates": certs,
        },
    }


def criterion_13_sh_assembly():
    """sh_torus_bundle side multiplicities equal the fiber enumeration for
    the battery at max_norm = 10, and the block sizes are consistent."""
    ok = True
    for A in MATRIX_BATTERY:
        H = eigen_data(A)
        repo = sh_torus_bundle(A, 10)
        for sign, key in ((+1, "plus"), (-1, "minus")):
            fibers = enumerate_rational_fibers(H, sign, 10)
            ok = ok and repo["%s_fiber_count" % key] == len(fibers)
            block = repo["%s_block" % key]
            ok = ok and block.free_rank(0) == len(fibers)
            ok = ok and block.free_rank(1) == len(fibers)
        ok = ok and repo["middle"] == mapping_torus_cohomology(A)
    return {"pass": ok, "details": {}}


CRITERIA = [
    criterion_01_fixed_point_identity,
    criterion_02_orbit_counting,
    criterion_03_chord_quadratic_growth,
    criterion_04_membership_precision_independent,
    criterion_05_fiber_bijectivity,
    criterion_06_forms_suite,
    criterion_07_mapping_torus_cohomology,
    criterion_08_hochschild,
    criterion_09_product_admissibility,
    criterion_10_beta_curve,
    criterion_11_hyperbolic_geometry,
    criterion_12_surface_group,
    criterion_13_sh_assembly,
]


def run_all(verbose=True):
    """Run every criterion; returns the list of result dicts.  Progress
    lines go to stderr, so stdout carries only the caller's report."""
    results = []
    for fn in CRITERIA:
        t0 = time.perf_counter()
        try:
            res = fn()
        except Exception as exc:  # a crash is a failure, not an abort
            res = {"pass": False, "details": {"error": repr(exc)}}
        res["name"] = fn.__name__
        res["elapsed_s"] = round(time.perf_counter() - t0, 3)
        results.append(res)
        if verbose:
            print(
                "%-48s %s  (%.2fs)"
                % (res["name"], "PASS" if res["pass"] else "FAIL", res["elapsed_s"]),
                file=sys.stderr,
            )
    return results
