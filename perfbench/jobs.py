"""Running benchmark jobs against anosovlab, and the output-correctness gate.

Each job kind has a runner (the timed call into the program, made through
module attributes so that traced wrappers see it) and a checker (run after
the timed region).  Checkers test exact identities with independent code:
the trace identity for fixed points, the orbit-sum identity, the cellular
cochain oracles for Wang/Gysin tables, float/200-bit shadows of chord
membership, Dehn against Fuchsian triviality, the forms `pass` flags, the
orthogeodesic cross-ratio formula and the acceptance `pass` flags.

`record` turns an output into (exact part, float part) for the digest
comparison against `reference.json`: exact parts must match byte for byte,
float parts (slopes, actions, lengths, residuals) within FLOAT_TOL.
"""

import hashlib
import importlib
import io
import json
import math
import os
import sys
import time
from fractions import Fraction

import workloads as wl

MODULES = {
    "sol-count": ("anosovlab.exact", "anosovlab.toral", "anosovlab.chords",
                  "anosovlab.homology"),
    "sol-list": ("anosovlab.exact", "anosovlab.toral", "anosovlab.chords",
                 "anosovlab.homology", "anosovlab.cli"),
    "geometry-mix": ("anosovlab.surface", "anosovlab.hyperbolic",
                     "anosovlab.forms"),
    "acceptance": ("anosovlab.acceptance",),
}

# relative tolerance for float outputs compared with the reference
FLOAT_TOL = 1e-9

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


class ProgramMissing(RuntimeError):
    pass


def use_checkout_program():
    """Put the checkout's src/ first on sys.path; the program is run from
    source, never from an installed copy."""
    if not os.path.isfile(os.path.join(SRC, "anosovlab", "__init__.py")):
        raise ProgramMissing("no anosovlab sources under %s" % SRC)
    if sys.path[0] != SRC:
        sys.path.insert(0, SRC)


class Context:
    """Program modules and one-time constructions shared by all jobs."""

    def __init__(self, workload):
        self.workload = workload
        self.tracer = None
        self.H = {}
        self.A = {}
        self.pres = None
        self.rep = None

    def mod(self, name):
        return sys.modules["anosovlab." + name]


def setup(workload):
    """Import what the workload uses and build its one-time objects.

    Returns (context, timings) with import_s, eigen_s and fuchsian_s."""
    t0 = time.perf_counter()
    for name in MODULES[workload]:
        importlib.import_module(name)
    t1 = time.perf_counter()
    origin = os.path.dirname(os.path.abspath(sys.modules["anosovlab"].__file__))
    if origin != os.path.join(SRC, "anosovlab"):
        raise ProgramMissing("anosovlab imported from %s, not the checkout" % origin)
    ctx = Context(workload)
    if workload in ("sol-count", "sol-list"):
        exact, toral = ctx.mod("exact"), ctx.mod("toral")
        for a in wl.matrix_set():
            A = exact.IntMatrix([[a[0], a[1]], [a[2], a[3]]])
            ctx.A[a] = A
            ctx.H[a] = toral.eigen_data(A)
    t2 = time.perf_counter()
    if workload == "geometry-mix":
        surface = ctx.mod("surface")
        ctx.pres = surface.SurfacePresentation(2)
        ctx.rep = surface.FuchsianRep(ctx.pres)
    t3 = time.perf_counter()
    return ctx, {"import_s": t1 - t0, "eigen_s": t2 - t1, "fuchsian_s": t3 - t2}


def setup_gate(ctx):
    """Import what the correctness gate needs (not part of set-up time)."""
    importlib.import_module("anosovlab.oracles")


def acceptance_round(ctx, r):
    return [{"kind": "criterion", "round": r, "index": i, "name": fn.__name__,
             "id": "r%d.%s" % (r, fn.__name__[:12])}
            for i, fn in enumerate(ctx.mod("acceptance").CRITERIA)]


# ================================================================ runners

def _run_count(ctx, job):
    a = job["matrix"]
    return ctx.mod("chords").enumerate_chords(
        ctx.H[a], job["p"], job["q"], job["sign"], job["kmax"], with_chords=False)


def _run_periodic_count(ctx, job):
    return ctx.mod("toral").fixed_points_raw(ctx.A[job["matrix"]], job["n"])


def _run_tables_wang(ctx, job):
    homology = ctx.mod("homology")
    return (homology.mapping_torus_cohomology(ctx.A[job["matrix"]]),
            homology.circle_bundle_cohomology(job["genus"]))


def _run_tables_hh(ctx, job):
    homology = ctx.mod("homology")
    return (homology.hochschild_dual_numbers(job["N"]),
            homology.hh_c_ranks(job["orbits"], job["N"]))


def _run_tables_sh(ctx, job):
    return ctx.mod("homology").sh_torus_bundle(ctx.A[job["matrix"]],
                                               job["max_norm"])


def _run_list(ctx, job):
    a = job["matrix"]
    return ctx.mod("chords").enumerate_chords(
        ctx.H[a], job["p"], job["q"], job["sign"], job["kmax"])


def _run_fibers(ctx, job):
    return ctx.mod("chords").enumerate_rational_fibers(
        ctx.H[job["matrix"]], job["sign"], job["max_norm"])


def _run_fixed(ctx, job):
    return ctx.mod("toral").fixed_points(ctx.A[job["matrix"]], job["n"])


def _run_orbits(ctx, job):
    return ctx.mod("toral").orbits_up_to_period(ctx.A[job["matrix"]], job["N"])


def _pick(seq, u):
    return seq[int(u * len(seq))]


def _run_hw(ctx, job):
    a = job["matrix"]
    orbits = ctx.mod("toral").orbits_up_to_period(ctx.A[a], job["N"])
    o1, o2 = _pick(orbits, job["orbit_pick"][0]), _pick(orbits, job["orbit_pick"][1])
    return o1, o2, ctx.mod("chords").hw_rank_table(ctx.H[a], o1, o2, job["kmax"])


def _run_disjoint(ctx, job):
    return ctx.mod("chords").class_disjointness(ctx.H[job["matrix"]], job["box"])


def _run_product(ctx, job):
    a, sign = job["matrix"], job["sign"]
    chords, H = ctx.mod("chords"), ctx.H[job["matrix"]]
    orbit = _pick(ctx.mod("toral").orbits_up_to_period(ctx.A[a], 2),
                  job["orbit_pick"])
    u = job["chord_pick"]
    q1, p1 = _pick(orbit.points, u[0]), _pick(orbit.points, u[1])
    c01 = _pick(chords.enumerate_chords(H, job["p0"], q1, sign, 6).chords, u[2])
    c12 = _pick(chords.enumerate_chords(H, p1, job["q2"], sign, 6).chords, u[3])
    return orbit, chords.product_candidates(H, c01, c12, orbit, job["k_window"])


def _fr(x):
    return "%d/%d" % (x.numerator, x.denominator)


def cli_argv(job):
    m = wl.matrix_text(job["matrix"])
    sign = "+" if job["sign"] > 0 else "-"
    if job["command"] == "toral-orbits":
        return ["toral", "orbits", "--matrix", m, "--N", str(job["N"])]
    if job["command"] == "chords-enumerate-csv":
        return ["chords", "enumerate", "--matrix", m,
                "--p", "%s %s" % tuple(map(_fr, job["p"])),
                "--q", "%s %s" % tuple(map(_fr, job["q"])),
                "--sign", sign, "--kmax", str(job["kmax"]), "--format", "csv"]
    return ["chords", "fibers", "--matrix", m, "--sign", sign,
            "--max-norm", str(job["max_norm"])]


def _run_cli(ctx, job):
    buf = io.BytesIO()
    out = io.TextIOWrapper(buf, encoding="utf-8")
    real = sys.stdout
    tracer = ctx.tracer
    sys.stdout = out
    try:
        if tracer is None:
            rc = ctx.mod("cli").main(cli_argv(job))
        else:
            with tracer.span("cli.main", "anosovlab.cli.main") as span:
                rc = ctx.mod("cli").main(cli_argv(job))
                out.flush()
                span.work = len(buf.getvalue())
        out.flush()
    finally:
        sys.stdout = real
    data = buf.getvalue()
    out.detach()
    return rc, data


def _run_words(ctx, job):
    pres, rep = ctx.pres, ctx.rep
    return [(pres.is_trivial(w), rep.is_identity(w)) for w in job["words"]]


def _run_classes(ctx, job):
    surface, pres, rep = ctx.mod("surface"), ctx.pres, ctx.rep
    classes = pres.conjugacy_classes(job["L"])
    lengths = []
    for u, conj in job["length_picks"]:
        w = _pick(classes, u).word
        conjugated = surface.free_reduce(conj + w + surface.invert_word(conj))
        lengths.append((surface.geodesic_length(rep, w),
                        surface.geodesic_length(rep, conjugated)))
    wa = _pick(classes, job["pair_pick"][0]).word
    wb = _pick(classes, job["pair_pick"][1]).word
    n = surface.intersection_number(rep, wa, wb, job["radius"])
    return [c.word for c in classes], lengths, n


def _run_triangles(ctx, job):
    hyp = ctx.mod("hyperbolic")
    axis = hyp.Geodesic(0.0, hyp.INF)
    patterns = [hyp.triangle_enumerate(hyp.Geodesic(*t["g0"]), axis,
                                       hyp.Geodesic(*t["g2"]), t["ell"], t["K"])
                for t in job["triples"]]
    lengths = []
    for o in job["orthos"]:
        conj = hyp.Mobius([[1.0, o["conj"][0]], [o["conj"][1], 1.0]])
        lengths.append(hyp.orthogeodesic(conj.apply_geodesic(axis),
                                         conj.apply_geodesic(hyp.Geodesic(o["a"], o["b"]))
                                         ).length)
    return patterns, lengths


def _run_forms(ctx, job):
    return ctx.mod("forms").run_suite(job["suite"], samples=job["samples"],
                                      tol=1e-8, seed=job["sample_seed"])


def _run_criterion(ctx, job):
    return ctx.mod("acceptance").CRITERIA[job["index"]]()


# ================================================================ checks
# Each returns a list of failure strings (empty when the output is right).

def _torus_map(a, p):
    return ((a[0] * p[0] + a[1] * p[1]) % 1, (a[2] * p[0] + a[3] * p[1]) % 1)


def _membership(ctx, job, p, q, sign, kmax):
    """Chord translates by the float shadow; the 200-bit shadow decides
    whenever the two disagree with the caller's exact set."""
    oracles = ctx.mod("oracles")
    H = ctx.H[job["matrix"]]
    return (oracles.chord_membership_float(H, p, q, sign, kmax),
            lambda: oracles.chord_membership_mp(H, p, q, sign, kmax))


def _same_membership(ctx, job, p, q, sign, kmax, got):
    fast, slow = _membership(ctx, job, p, q, sign, kmax)
    return got == fast or got == slow()


def _primitive(points):
    return {(m, n) for m, n in points if math.gcd(m, n) == 1}


def _check_count(ctx, job, cs):
    counts = list(cs.counts_by_k)
    bad = []
    if len(counts) != job["kmax"] + 1 or any(x > y for x, y in zip(counts, counts[1:])):
        bad.append("counts_by_k not a monotone table of length kmax+1")
    k = min(8, job["kmax"])
    fast, slow = _membership(ctx, job, job["p"], job["q"], job["sign"], k)
    if counts[k] != len(fast) and counts[k] != len(slow()):
        bad.append("count at k=%d differs from the membership shadows" % k)
    return bad


def _check_fixed_raw(a, n, den, pts):
    an = wl.mat_pow(a, n)
    bad = []
    if len(pts) != wl.trace_identity(a, n):
        bad.append("#fixed points %d != |tr A^n - 2| = %d"
                   % (len(pts), wl.trace_identity(a, n)))
    if len(set(pts)) != len(pts):
        bad.append("duplicate fixed points")
    for x, y in pts:
        if (an[0] * x + an[1] * y - x) % den or (an[2] * x + an[3] * y - y) % den:
            bad.append("point (%d, %d)/%d not fixed by A^n" % (x, y, den))
            break
    return bad


def _check_periodic_count(ctx, job, out):
    den, pts = out
    return _check_fixed_raw(job["matrix"], job["n"], den, pts)


def _check_tables_wang(ctx, job, out):
    oracles = ctx.mod("oracles")
    wang, gysin = out
    a = job["matrix"]
    bad = []
    if wang != oracles.mapping_torus_cellular_cohomology(ctx.A[a]):
        bad.append("Wang table differs from the cellular oracle")
    if gysin != oracles.circle_bundle_cellular_cohomology(job["genus"]):
        bad.append("Gysin table differs from the cellular oracle")
    if math.prod(wang.torsion(2)) != abs(a[0] + a[3] - 2):
        bad.append("H^2 torsion order != |tr - 2|")
    return bad


def _check_tables_hh(ctx, job, out):
    single, multi = out
    bad = []
    if any(d not in (0, 1) for d in single.total_degree_support()):
        bad.append("Hochschild support outside total degrees {0, 1}")
    if multi != single.scaled(job["orbits"]):
        bad.append("HH^c table is not the orbit-count multiple")
    return bad


def _check_tables_sh(ctx, job, out):
    oracles = ctx.mod("oracles")
    bad = []
    for sign, key in ((1, "plus"), (-1, "minus")):
        fast, slow = _membership(ctx, job, (0, 0), (0, 0), sign, job["max_norm"])
        n = out["%s_fiber_count" % key]
        if n != len(_primitive(fast)) and n != len(_primitive(slow())):
            bad.append("%s fiber count != primitive-point count" % key)
        if out["%s_block" % key].free_rank(0) != n:
            bad.append("%s block rank != fiber count" % key)
    if out["middle"] != oracles.mapping_torus_cellular_cohomology(ctx.A[job["matrix"]]):
        bad.append("middle block differs from the cellular oracle")
    return bad


def _check_slopes(ctx, job, zs):
    nu = ctx.H[job["matrix"]].nu
    return [] if all(0.0 <= z < nu for z in zs) else ["slope outside [0, nu)"]


def _check_list(ctx, job, cs):
    got = {(c.m, c.n) for c in cs.chords}
    bad = _check_slopes(ctx, job, [c.z for c in cs.chords])
    if len(got) != len(cs.chords):
        bad.append("duplicate chords")
    if not _same_membership(ctx, job, job["p"], job["q"], job["sign"], job["kmax"], got):
        bad.append("chord set differs from the membership shadows")
    boxes = [c.box for c in cs.chords]
    if any(c.box != max(abs(c.m), abs(c.n)) for c in cs.chords):
        bad.append("box length mismatch")
    if list(cs.counts_by_k) != [sum(1 for b in boxes if b <= k)
                                for k in range(job["kmax"] + 1)]:
        bad.append("counts_by_k inconsistent with the chord list")
    return bad


def _check_fibers(ctx, job, fibers):
    got = {(m, n) for m, n, _ in fibers}
    bad = _check_slopes(ctx, job, [z for _, _, z in fibers])
    fast, slow = _membership(ctx, job, (0, 0), (0, 0), job["sign"], job["max_norm"])
    if len(got) != len(fibers) or (got != _primitive(fast) and got != _primitive(slow())):
        bad.append("fiber set != primitive cone points")
    if any(x[2] > y[2] for x, y in zip(fibers, fibers[1:])):
        bad.append("fibers not sorted by slope")
    return bad


def _check_fixed(ctx, job, pts):
    den = math.lcm(*(x.denominator for p in pts for x in p)) if pts else 1
    raw = [(int(x * den), int(y * den)) for x, y in pts]
    bad = _check_fixed_raw(job["matrix"], job["n"], den, raw)
    if pts != sorted(pts):
        bad.append("fixed points not sorted")
    return bad


def _check_orbit_list(a, N, orbits):
    bad = []
    seen = set()
    for o in orbits:
        pts = list(o.points)
        if o.period != len(pts) or seen.intersection(pts) or len(set(pts)) != len(pts):
            bad.append("orbit with wrong period or overlapping points")
            break
        seen.update(pts)
        if any(_torus_map(a, pts[i]) != pts[(i + 1) % len(pts)] for i in range(len(pts))):
            bad.append("orbit not closed under A")
            break
    pi = {}
    for o in orbits:
        pi[o.period] = pi.get(o.period, 0) + 1
    for n in range(1, N + 1):
        lhs = sum(d * pi.get(d, 0) for d in range(1, n + 1) if n % d == 0)
        if lhs != wl.trace_identity(a, n):
            bad.append("orbit-sum identity fails at n=%d" % n)
    return bad


def _check_orbits(ctx, job, orbits):
    return _check_orbit_list(job["matrix"], job["N"], orbits)


def _check_hw(ctx, job, out):
    o1, o2, report = out
    expected = 0
    for p in o1.points:
        for q in o2.points:
            for sign in (1, -1):
                fast, slow = _membership(ctx, job, p, q, sign, job["kmax"])
                expected += len(fast)
    bad = []
    if report["chord_rank"] != expected:
        # the float shadow can only be wrong near a cone edge; recount exactly
        exact = sum(len(_membership(ctx, job, p, q, s, job["kmax"])[1]())
                    for p in o1.points for q in o2.points for s in (1, -1))
        if report["chord_rank"] != exact:
            bad.append("chord rank != summed membership counts")
    same = o1.points == o2.points
    if report["total_rank"] != report["chord_rank"] + (2 if same else 0):
        bad.append("total rank bookkeeping")
    return bad


def _check_disjoint(ctx, job, out):
    t = job["matrix"][0] + job["matrix"][3]
    bad = []
    if not out["disjoint"] or out["overlap"] or out["edge_lattice_points"]:
        bad.append("+/- chord classes not certified disjoint")
    if out["disc"] != t * t - 4:
        bad.append("discriminant != tr^2 - 4")
    return bad


def _check_product(ctx, job, out):
    orbit, cands = out
    ks = [k for k, _ in cands]
    w, per = job["k_window"], orbit.period
    bad = _check_slopes(ctx, job, [c.z for _, c in cands])
    if not ks:
        return bad + ["no product candidates"]
    if (any(y - x != per for x, y in zip(ks, ks[1:])) or ks[0] - per >= -w
            or ks[-1] > w or ks[-1] + per <= w):
        bad.append("candidate exponents are not every period-th k in the window")
    if any(c.sign != job["sign"] for _, c in cands):
        bad.append("candidate on the wrong end")
    return bad


def _parse_cli(job, data):
    if job["command"] == "chords-enumerate-csv":
        lines = data.decode().splitlines()
        header = lines[0].split(",") if lines else []
        return [dict(zip(header, line.split(","))) for line in lines[1:]]
    return json.loads(data.decode())


def _check_cli(ctx, job, out):
    rc, data = out
    if rc != 0:
        return ["exit code %d" % rc]
    parsed = _parse_cli(job, data)
    if job["command"] == "toral-orbits":
        a = job["matrix"]
        pi = {}
        for o in parsed["results"]:
            pi[o["period"]] = pi.get(o["period"], 0) + 1
        bad = [] if parsed["pass"] else ["report pass flag false"]
        for n in range(1, job["N"] + 1):
            if sum(d * pi.get(d, 0) for d in range(1, n + 1) if n % d == 0) \
                    != wl.trace_identity(a, n):
                bad.append("orbit-sum identity fails at n=%d" % n)
        return bad
    if job["command"] == "chords-enumerate-csv":
        got = {(int(r["m"]), int(r["n"])) for r in parsed}
        ok = len(got) == len(parsed) and _same_membership(
            ctx, job, job["p"], job["q"], job["sign"], job["kmax"], got)
        return [] if ok else ["CSV chord rows differ from the membership shadows"]
    got = {(r["m"], r["n"]) for r in parsed["results"]}
    fast, slow = _membership(ctx, job, (0, 0), (0, 0), job["sign"], job["max_norm"])
    ok = parsed["pass"] and len(got) == len(parsed["results"]) and (
        got == _primitive(fast) or got == _primitive(slow()))
    return [] if ok else ["CLI fiber rows != primitive cone points"]


def _check_words(ctx, job, out):
    bad = []
    injected = set(job["injected"])
    for k, (dehn, fuchsian) in enumerate(out):
        if dehn != fuchsian:
            bad.append("word %d: Dehn %s, Fuchsian %s" % (k, dehn, fuchsian))
        elif k in injected and not dehn:
            bad.append("word %d: conjugated relator not trivial" % k)
    return bad


def _check_classes(ctx, job, out):
    words, lengths, n = out
    bad = []
    if not words or any(ctx.pres.class_key(w) != w for w in words):
        bad.append("class representatives not canonical")
    for l0, l1 in lengths:
        if not (l0 > 0 and abs(l0 - l1) <= 1e-10 * max(1.0, l0)):
            bad.append("geodesic length not a class function (%r vs %r)" % (l0, l1))
    if n < 0:
        bad.append("negative intersection number")
    return bad


def _check_triangles(ctx, job, out):
    patterns, lengths = out
    bad = []
    for t, pats in zip(job["triples"], patterns):
        ks = [p.k for p in pats]
        if len(set(ks)) != len(ks) or any(abs(k) > t["K"] for k in ks):
            bad.append("pattern exponents repeated or outside the window")
        if any(not (p.angle_sum < math.pi and p.area > 0) for p in pats):
            bad.append("pattern violates Gauss-Bonnet")
    for o, d in zip(job["orthos"], lengths):
        want = (o["b"] + o["a"]) / (o["b"] - o["a"])
        if abs(math.cosh(d) - want) > 1e-9 * max(1.0, want):
            bad.append("orthogeodesic length off the cross-ratio formula")
    return bad


def _check_forms(ctx, job, checks):
    failing = [c["check"] for c in checks if not c["pass"]]
    return ["forms check failed: %s" % ", ".join(failing)] if failing or not checks else []


def _check_criterion(ctx, job, res):
    return [] if res.get("pass") else ["criterion %s failed" % job["name"]]


KINDS = {
    "count": (_run_count, _check_count),
    "periodic_count": (_run_periodic_count, _check_periodic_count),
    "tables_wang": (_run_tables_wang, _check_tables_wang),
    "tables_hh": (_run_tables_hh, _check_tables_hh),
    "tables_sh": (_run_tables_sh, _check_tables_sh),
    "list": (_run_list, _check_list),
    "fibers": (_run_fibers, _check_fibers),
    "fixed": (_run_fixed, _check_fixed),
    "orbits": (_run_orbits, _check_orbits),
    "hw": (_run_hw, _check_hw),
    "disjoint": (_run_disjoint, _check_disjoint),
    "product": (_run_product, _check_product),
    "cli": (_run_cli, _check_cli),
    "words": (_run_words, _check_words),
    "classes": (_run_classes, _check_classes),
    "triangles": (_run_triangles, _check_triangles),
    "forms": (_run_forms, _check_forms),
    "criterion": (_run_criterion, _check_criterion),
}


def run_job(ctx, job):
    return KINDS[job["kind"]][0](ctx, job)


def check_job(ctx, job, out):
    return KINDS[job["kind"]][1](ctx, job, out)


# ================================================================ digests

def _plain(out, kind):
    """Output as plain data: what the digest covers for each kind."""
    if kind in ("count", "list"):
        return {"counts": out.counts_by_k,
                "chords": [(c.m, c.n, c.box, c.z, c.action) for c in out.chords]}
    if kind == "periodic_count":
        return {"den": out[0], "points": sorted(out[1])}
    if kind == "hw":
        return out[2]
    if kind in ("orbits", "product"):
        orbits = out if kind == "orbits" else [out[0]]
        plain = [(o.period, o.points) for o in orbits]
        if kind == "product":
            plain.append([(k, c.to_dict(), c.source, c.target) for k, c in out[1]])
        return plain
    if kind == "cli":
        return [out[0], _parse_cli_plain(out[1])]
    if kind == "triangles":
        return [[(p.k, p.angles) for p in pats] for pats in out[0]], out[1]
    return out


def _parse_cli_plain(data):
    text = data.decode()
    if text.startswith("{"):
        return json.loads(text)
    rows = [line.split(",") for line in text.splitlines()]
    return [[_csv_value(v) for v in row] for row in rows]


def _csv_value(v):
    try:
        return int(v)
    except ValueError:
        pass
    try:
        return float(v)
    except ValueError:
        return v


def _split(obj, floats):
    """Exact skeleton of obj with every float moved into `floats`."""
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        floats.append(obj)
        return "<f>"
    if isinstance(obj, Fraction):
        return _fr(obj)
    if isinstance(obj, dict):
        return [[_split(k, floats), _split(v, floats)]
                for k, v in sorted(obj.items(), key=lambda kv: str(kv[0]))]
    if isinstance(obj, (list, tuple, set, frozenset)):
        items = sorted(obj, key=repr) if isinstance(obj, (set, frozenset)) else obj
        return [_split(x, floats) for x in items]
    if hasattr(obj, "to_dict"):
        return _split(obj.to_dict(), floats)
    if hasattr(obj, "item"):  # numpy scalar
        return _split(obj.item(), floats)
    raise TypeError("no digest rule for %s" % type(obj).__name__)


def record(job, out):
    """(sha256 of the exact part, [n, sum, sum |x|, max |x|] of the floats)."""
    floats = []
    exact = _split(_plain(out, job["kind"]), floats)
    digest = hashlib.sha256(json.dumps(exact).encode()).hexdigest()
    finite = [x for x in floats if math.isfinite(x)]
    return {"exact": digest,
            "floats": [len(floats), math.fsum(finite), math.fsum(abs(x) for x in finite),
                       max((abs(x) for x in finite), default=0.0)]}


def compare_record(got, want):
    """Failure strings for a digest that differs from the reference."""
    bad = []
    if got["exact"] != want["exact"]:
        bad.append("exact output differs from the reference digest")
    gn, gs, ga, gm = got["floats"]
    wn, ws, wa, wm = want["floats"]
    if gn != wn:
        bad.append("float output count %d != reference %d" % (gn, wn))
    elif (abs(gs - ws) > FLOAT_TOL * (1.0 + wa) or abs(ga - wa) > FLOAT_TOL * (1.0 + wa)
          or abs(gm - wm) > FLOAT_TOL * (1.0 + wm)):
        bad.append("float outputs differ from the reference beyond %g" % FLOAT_TOL)
    return bad
