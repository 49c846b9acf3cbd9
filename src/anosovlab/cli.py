"""Command-line front end: one subcommand tree over all modules.

Every run emits a deterministic report (JSON with sorted keys or CSV);
pass/fail checks drive the exit status: 0 all pass, 1 any failure, 2 usage
errors.  Randomness only enters through --seed (default 7, overridable via
ANOSOVLAB_SEED).  COMMANDS, at the end, is the one place that names each
subcommand, its flags and, per action, the handler, the report parameters
and the report command.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
import time
from collections import Counter
from fractions import Fraction

from . import DEFAULT_SEED, __version__


def _rational(text):
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError("zero denominator in %r" % text) from None


def _parse_point(text):
    parts = text.replace(",", " ").split()
    if len(parts) != 2:
        raise ValueError("point needs two rationals, got %r" % text)
    return (_rational(parts[0]), _rational(parts[1]))


def _parse_boundary(text):
    parts = text.replace(",", " ").split()
    if len(parts) != 2:
        raise ValueError("geodesic literal needs two boundary points")
    out = []
    for p in parts:
        if p.lower() in ("inf", "+inf", "oo"):
            out.append(math.inf)
        else:
            out.append(float(_rational(p)))
    return out


def _int_at_least(low):
    """argparse type for counts: an integer >= low."""
    def parse(text):
        try:
            value = int(text)
        except ValueError:
            value = low - 1
        if value < low:
            raise argparse.ArgumentTypeError(
                "need an integer >= %d, got %r" % (low, text))
        return value
    return parse


_non_negative_int = _int_at_least(0)


def _count_at_most(limit, low):
    """argparse type for counts: an integer in [low, limit]."""
    at_least = _int_at_least(low)

    def parse(text):
        value = at_least(text)
        if value > limit:
            raise argparse.ArgumentTypeError(
                "need an integer <= %d, got %r" % (limit, text))
        return value
    return parse


# chords enumerate lists about kmax^2 chords (140 MB at kmax 400): a larger
# box would not fit in memory.  hw torus shares the flag and the bound.
KMAX_LIMIT = 1000
_kmax = _count_at_most(KMAX_LIMIT, 0)

# toral fixed, toral orbits and hw torus build every periodic point they
# count: toral fixed on 95,048 points ("9 2 4 1", --n 5) takes 0.8 s and
# 121 MB, and --n 30 of the cat map would ask for 3.5e12 points.
POINTS_LIMIT = 100_000

# hyperbolic triangles reports up to 2K + 1 patterns, and a tiny --l1 makes
# nearly every translate a hit: at K = 10^4 that report is 6.6 MB and takes
# 0.7 s, so the bound keeps the worst case small.
TRIANGLE_K_LIMIT = 10_000

# forms check evaluates each suite on its whole sample at once: at 500,000
# samples the largest suite (mcduff-fermi) peaks at 180 MB under tracemalloc
# and takes 1.6 s.
SAMPLES_LIMIT = 500_000

# torus-curve build prints five floats per sample: at 10,000 samples it
# takes 0.5 s and peaks at 15 MB under tracemalloc (1.1 MB of JSON).
CURVE_SAMPLES_LIMIT = 10_000

# homology sh-torus and chords fibers list every primitive fiber of norm up
# to --max-norm.  On "2 1 1 1" at 400 they take 0.8 and 0.5 s, print 6.1
# and 2.8 MB, and peak at 69 and 63 MB RSS; homology sh-torus at 1000 took
# 4.3 s, printed 38 MB and peaked at 346 MB.
MAX_NORM_LIMIT = 400
_max_norm = _count_at_most(MAX_NORM_LIMIT, 0)

# hw mcduff Dehn-reduces the double cosets of every reduced word up to
# length --L, about seven times as many per letter: 0.27 s at 4, 1.3 s at 5.
WORD_LEN_LIMIT = 5


def _positive_float(text):
    """argparse type for tolerances and lengths: a finite float > 0."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(
            "need a finite float > 0, got %r" % text)
    return value


def _fr(x):
    return "%d/%d" % (x.numerator, x.denominator)


def _jsonable(obj):
    if isinstance(obj, Fraction):
        return _fr(obj)
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    np = sys.modules.get("numpy")  # no numpy value exists before its import
    if np is not None:
        if isinstance(obj, np.bool_):
            return bool(obj)
        if isinstance(obj, np.integer):
            return int(obj)
        if isinstance(obj, np.floating):
            return float(obj)
    if hasattr(obj, "to_dict"):
        return obj.to_dict()
    return obj


def emit(report, fmt="json"):
    """Serialize a report deterministically."""
    if fmt == "json":
        return (
            json.dumps(_jsonable(report), sort_keys=True, indent=2,
                       ensure_ascii=False) + "\n"
        ).encode()
    if fmt == "csv":
        rows = report.get("results")
        if rows is None:
            rows = report.get("chords")
        if not isinstance(rows, (list, tuple, dict, type(None))):
            raise ValueError("csv needs rows, but the results are a %s table; "
                             "use --format json" % type(rows).__name__)
        rows = rows or []
        if isinstance(rows, dict):
            rows = [rows]
        flat = []
        for r in rows:
            r = _jsonable(r)
            if isinstance(r, dict):
                flat.append({k: json.dumps(v, sort_keys=True) if isinstance(v, (dict, list)) else v
                             for k, v in r.items()})
            else:
                flat.append({"value": r})
        keys = sorted({k for r in flat for k in r})
        buf = io.StringIO()
        w = csv.DictWriter(buf, fieldnames=keys, lineterminator="\n")
        w.writeheader()
        for r in flat:
            w.writerow(r)
        return buf.getvalue().encode()
    raise ValueError("unknown format %r" % fmt)


def _finish(report, checks, args, t0):
    report["checks"] = checks
    report["pass"] = all(c.get("pass", True) for c in checks)
    if args.timing:
        report["wall_time_ms"] = round(1000 * (time.perf_counter() - t0), 3)
    data = emit(report, args.format)
    if args.output:
        with open(args.output, "wb") as fh:
            fh.write(data)
    else:
        sys.stdout.buffer.write(data)
    return 0 if report["pass"] else 1


# ----------------------------------------------------------- handlers
# Each handler returns (report fields, checks).  A "params" entry among the
# fields is merged into the parameters COMMANDS names for the action.

def _hyperbolic_matrix(args):
    from .toral import eigen_data, parse_matrix

    A = parse_matrix(args.matrix)
    return A, eigen_data(A)


def _toral_eigen(args):
    A, H = _hyperbolic_matrix(args)
    results = {
        "trace": A.trace(),
        "D": H.D,
        "lambda_plus": repr(H.lambda_plus),
        "nu": H.nu,
        "vx": [repr(c) for c in H.vx],
        "vy": [repr(c) for c in H.vy],
    }
    exact = all(c.is_zero() for pair in H.check_residuals() for c in pair)
    return ({"results": results},
            [{"name": "eigen-residual-exactly-zero", "pass": exact}])


def _refuse_many_points(A, n, flag, cumulative):
    """Usage error, before anything is built, when the periodic points to
    list exceed POINTS_LIMIT: |tr(A^n) - 2| of them, or that count summed
    over the periods <= n when `cumulative`.  The count grows with the period
    and the trace (tr A^m = lambda^m + lambda^-m), and trace 3 already has
    103,680 points of period 12, so the loop ends by period 12 whatever n
    is, and no large power of A is formed."""
    from .toral import orbit_count_identity

    total = 0
    for m in range(1, n + 1):
        count = orbit_count_identity(A, m)
        total = total + count if cumulative else count
        if total > POINTS_LIMIT:
            raise ValueError("%s %d asks for more than %d periodic points"
                             % (flag, n, POINTS_LIMIT))


def _toral_fixed(args):
    from .toral import fixed_points, orbit_count_identity

    A, _ = _hyperbolic_matrix(args)
    _refuse_many_points(A, args.n, "--n", cumulative=False)
    pts = fixed_points(A, args.n)
    expected = orbit_count_identity(A, args.n)
    return ({"results": [{"x": _fr(p[0]), "y": _fr(p[1])} for p in pts]},
            [{"name": "count-equals-trace-identity", "pass": len(pts) == expected,
              "count": len(pts), "expected": expected}])


def _toral_orbits(args):
    from .toral import orbit_count_identity, orbit_point_count, orbits_up_to_period

    A, _ = _hyperbolic_matrix(args)
    _refuse_many_points(A, args.N, "--N", cumulative=True)
    orbits = orbits_up_to_period(A, args.N)
    results = [
        {"period": o.period,
         "points": ["%s %s" % (_fr(p[0]), _fr(p[1])) for p in o.points]}
        for o in orbits
    ]
    pi = Counter(o.period for o in orbits)
    ok = all(orbit_point_count(pi, n) == orbit_count_identity(A, n)
             for n in range(1, args.N + 1))
    return {"results": results}, [{"name": "orbit-counting-identity", "pass": ok}]


def _chords_enumerate(args):
    from .chords import BACKEND, enumerate_chords

    _, H = _hyperbolic_matrix(args)
    sign = +1 if args.sign == "+" else -1
    cs = enumerate_chords(H, _parse_point(args.p), _parse_point(args.q), sign,
                          args.kmax)
    mono = all(a <= b for a, b in zip(cs.counts_by_k, cs.counts_by_k[1:]))
    return ({"params": {"backend": BACKEND},
             "chords": [c.to_dict() for c in cs.chords],
             "counts_by_k": list(cs.counts_by_k)},
            [{"name": "filtration-monotone", "pass": mono}])


def _chords_fibers(args):
    from .chords import enumerate_rational_fibers

    _, H = _hyperbolic_matrix(args)
    sign = +1 if args.sign == "+" else -1
    fibers = enumerate_rational_fibers(H, sign, args.max_norm)
    distinct = len({(m, n) for m, n, _ in fibers}) == len(fibers)
    return ({"results": [{"m": m, "n": n, "z": z} for m, n, z in fibers]},
            [{"name": "primitive-distinct", "pass": distinct}])


def _hw_mcduff(args):
    from .surface import ConjClass, FuchsianRep, SurfacePresentation, \
        mcduff_hw_generators

    pres = SurfacePresentation(args.genus)
    if args.genus != 2:
        raise ValueError("built-in Fuchsian data covers genus 2 only")
    gamma = ConjClass(pres, pres.class_key(pres.parse(args.gamma)))
    beta = ConjClass(pres, pres.class_key(pres.parse(args.beta)))
    rep = FuchsianRep(pres)
    out = mcduff_hw_generators(gamma, beta, rep, word_len=args.L,
                               t_cutoff=args.T)
    return ({"results": out},
            [{"name": "relator-residual", "pass": rep.relator_residual < 1e-8,
              "residual": rep.relator_residual}])


def _hw_torus(args):
    from .toral import orbits_up_to_period
    from .chords import hw_rank_table

    A, H = _hyperbolic_matrix(args)
    _refuse_many_points(A, args.N, "--N", cumulative=True)
    orbits = orbits_up_to_period(A, args.N)
    i, j = args.orbit1, args.orbit2
    if not (0 <= i < len(orbits) and 0 <= j < len(orbits)):
        raise ValueError(
            "orbit indices out of range (found %d orbits)" % len(orbits)
        )
    out = hw_rank_table(H, orbits[i], orbits[j], args.kmax)
    return ({"results": out},
            [{"name": "rank-nonnegative", "pass": out["total_rank"] >= 0}])


def _homology_mapping_torus(args):
    from .homology import mapping_torus_cohomology
    from .toral import parse_matrix

    table = mapping_torus_cohomology(parse_matrix(args.matrix))
    return ({"results": table},
            [{"name": "poincare-symmetry", "pass": all(
                table.free_rank(k) == table.free_rank(3 - k) for k in range(4))},
             {"name": "euler-characteristic-zero",
              "pass": table.euler_characteristic() == 0}])


def _homology_circle_bundle(args):
    from .homology import circle_bundle_cohomology

    table = circle_bundle_cohomology(args.genus)
    return ({"results": table},
            [{"name": "euler-characteristic-zero",
              "pass": table.euler_characteristic() == 0}])


def _homology_hochschild(args):
    from .homology import hh_c_ranks, hochschild_dual_numbers

    table = hochschild_dual_numbers(args.N)
    if args.orbits is not None:
        table = hh_c_ranks(args.orbits, args.N)
    return ({"results": table, "total_rank": table.total_rank()},
            [{"name": "support-degrees-0-1", "pass": all(
                d in (0, 1) for d in table.total_degree_support())}])


def _homology_sh_torus(args):
    from .homology import sh_torus_bundle
    from .toral import parse_matrix

    out = sh_torus_bundle(parse_matrix(args.matrix), args.max_norm)
    return ({"results": out},
            [{"name": "side-blocks-match-fibers", "pass":
              out["plus_block"].free_rank(0) == out["plus_fiber_count"]
              and out["minus_block"].free_rank(0) == out["minus_fiber_count"]}])


def _homology_sh_mcduff(args):
    from .homology import sh_mcduff
    from .surface import SurfacePresentation

    classes = (args.classes or "").replace(",", " ").split()
    pres = SurfacePresentation(args.genus)
    keys = set()
    for c in classes:
        key = pres.class_key(pres.parse(c))
        if key == ():
            raise ValueError("class %r is trivial in the surface group" % c)
        if key in keys:
            raise ValueError("class %r is listed twice, up to conjugacy" % c)
        keys.add(key)
    out = sh_mcduff(args.genus, args.tmax, classes)
    return ({"params": {"classes": classes}, "results": out},
            [{"name": "positive-block-matches-classes", "pass":
              out["positive_block"].free_rank(0) == len(classes)}])


_SUITES = ("torus-bundle", "mcduff-fermi", "mcduff-halfplane", "covers")


def _forms_check(args):
    from .forms import run_suite

    suites = _SUITES if args.suite == "all" else (args.suite,)
    checks = [c for s in suites
              for c in run_suite(s, samples=args.samples, tol=args.tol,
                                 seed=args.seed)]
    return {"results": checks}, checks


def _hyperbolic_triangles(args):
    from .hyperbolic import Geodesic, triangle_enumerate

    g0 = Geodesic(*_parse_boundary(args.g0))
    g1 = Geodesic(*_parse_boundary(args.g1))
    g2 = Geodesic(*_parse_boundary(args.g2))
    try:
        pats = triangle_enumerate(g0, g1, g2, args.l1, args.K)
    except OverflowError:
        raise ValueError("geodesic endpoints too large for the float "
                         "range of the triangle arithmetic") from None
    return ({"results": [
                {"k": p.k, "angle_sum": p.angle_sum, "area": p.area,
                 "vertices": [[v.real, v.imag] for v in p.vertices]}
                for p in pats
            ],
             "count": len(pats),
             "window_caveat": "count covers translate exponents |k| <= K only"},
            [{"name": "gauss-bonnet-positive",
              "pass": all(p.area > 0 for p in pats)}])


def _hyperbolic_ortho(args):
    from .hyperbolic import Geodesic, orthogeodesic

    ch = orthogeodesic(Geodesic(*_parse_boundary(args.g1)),
                       Geodesic(*_parse_boundary(args.g2)))
    return ({"results": {"length": ch.length,
                         "foot1": [ch.foot1.real, ch.foot1.imag],
                         "foot2": [ch.foot2.real, ch.foot2.imag]}},
            [{"name": "length-positive", "pass": ch.length > 0}])


def _exactness_checks(ver, tol):
    area = abs(ver["weighted_area"] - 2 * math.pi)
    pointwise = ver["pointwise_residual"]
    period = abs(ver["period_residual"])
    return [
        {"name": "weighted-area-2pi", "max_residual": area, "pass": area < tol},
        {"name": "pointwise-exactness", "max_residual": pointwise,
         "pass": pointwise < 1e-12},
        {"name": "period-residual", "max_residual": period, "pass": period < tol},
    ]


def _torus_curve_build(args):
    import numpy as np

    from .shapes import build_exact_beta, verify_exactness

    curve = build_exact_beta(args.delta, args.height_frac)
    ver = verify_exactness(curve)
    ss = np.linspace(0.0, curve.period, args.samples, endpoint=False)
    payload = {
        "family": curve.meta["family"],
        "delta": args.delta,
        "height_frac": args.height_frac,
        "h": curve.meta["h"],
        "seg_length": curve.meta["seg_length"],
        "period": curve.period,
        "samples": {
            "s": [float(s) for s in ss],
            "f": [curve.f(s) for s in ss],
            "g": [curve.g(s) for s in ss],
            "fp": [curve.fp(s) for s in ss],
            "gp": [curve.gp(s) for s in ss],
        },
    }
    checks = _exactness_checks(ver, args.tol)
    checks.append({"name": "winding-one", "pass": ver["winding"] == 1})
    return {"results": payload}, checks


def _torus_curve_verify(args):
    from .shapes import stadium_curve, verify_exactness

    if args.input is None:
        raise ValueError("torus-curve verify needs --input")
    with open(args.input) as fh:
        payload = json.load(fh)
    if isinstance(payload, dict) and "results" in payload:
        payload = payload["results"]
    if not (isinstance(payload, dict)
            and {"seg_length", "h", "delta"} <= payload.keys()):
        raise ValueError("%s lacks one of seg_length, h, delta" % args.input)
    curve = stadium_curve(payload["seg_length"], payload["h"])
    curve.meta["eps"] = math.tanh(payload["delta"])
    ver = verify_exactness(curve)
    checks = _exactness_checks(ver, 1e-8)
    for c in checks[1:]:
        del c["max_residual"]  # the verify report shows the area residual only
    return {"results": ver}, checks


def _suite_acceptance(args):
    from .acceptance import run_all

    results = run_all(verbose=not args.quiet)
    if not args.timing:
        for r in results:
            del r["elapsed_s"]
    return ({"results": results},
            [{"name": r["name"], "pass": r["pass"]} for r in results])


# -------------------------------------------------------------- table
# name -> (help, flags, {action: (handler, report params, report command)})

_MATRIX = ("--matrix", {"default": "2 1 1 1"})
_GENUS = ("--genus", {"type": int, "default": 2})
_TOL = ("--tol", {"type": _positive_float, "default": 1e-8})

COMMANDS = {
    "toral": ("hyperbolic toral automorphisms", (
        ("--matrix", {"required": True, "help": 'row-major "a b c d"'}),
        ("--n", {"type": int, "default": 1}),
        ("--N", {"type": _non_negative_int, "default": 3}),
    ), {
        "eigen": (_toral_eigen, ("matrix",), "toral eigen"),
        "fixed": (_toral_fixed, ("matrix", "n"), "toral fixed"),
        "orbits": (_toral_orbits, ("matrix", "N"), "toral orbits"),
    }),
    "chords": ("Reeb-chord lattice enumeration", (
        ("--matrix", {"required": True}),
        ("--p", {"default": "0 0"}),
        ("--q", {"default": "0 0"}),
        ("--sign", {"choices": ("+", "-"), "default": "+"}),
        ("--kmax", {"type": _kmax, "default": 20}),
        ("--max-norm", {"type": _max_norm, "default": 20}),
    ), {
        "enumerate": (_chords_enumerate, ("matrix", "p", "q", "sign", "kmax"),
                      "chords enumerate"),
        "fibers": (_chords_fibers, ("matrix", "sign", "max_norm"),
                   "chords fibers"),
    }),
    "hw": ("wrapped Floer rank bookkeeping", (
        _GENUS,
        ("--gamma", {"default": "a1"}),
        ("--beta", {"default": "b1"}),
        ("--L", {"type": _count_at_most(WORD_LEN_LIMIT, 0), "default": 4}),
        ("--T", {"type": _non_negative_int, "default": 3}),
        _MATRIX,
        ("--N", {"type": int, "default": 2}),
        ("--orbit1", {"type": int, "default": 0}),
        ("--orbit2", {"type": int, "default": 0}),
        ("--kmax", {"type": _kmax, "default": 5}),
    ), {
        "mcduff": (_hw_mcduff, ("genus", "gamma", "beta", "L", "T"),
                   "hw mcduff"),
        "torus": (_hw_torus, ("matrix", "N", "orbit1", "orbit2", "kmax"),
                  "hw torus"),
    }),
    "homology": ("integer (co)homology tables", (
        _MATRIX,
        _GENUS,
        ("--N", {"type": int, "default": 10}),
        ("--orbits", {"type": int, "default": None}),
        ("--max-norm", {"type": _max_norm, "default": 10}),
        ("--tmax", {"type": int, "default": 2}),
        ("--classes", {"default": ""}),
    ), {
        "mapping-torus": (_homology_mapping_torus, ("matrix",),
                          "homology mapping-torus"),
        "circle-bundle": (_homology_circle_bundle, ("genus",),
                          "homology circle-bundle"),
        "hochschild": (_homology_hochschild, ("N", "orbits"),
                       "homology hochschild"),
        "sh-torus": (_homology_sh_torus, ("matrix", "max_norm"),
                     "homology sh-torus"),
        "sh-mcduff": (_homology_sh_mcduff, ("genus", "tmax"),
                      "homology sh-mcduff"),
    }),
    "forms": ("closed-form differential checks", (
        ("--suite", {"default": "all", "choices": ("all",) + _SUITES}),
        _TOL,
        ("--samples", {"type": _count_at_most(SAMPLES_LIMIT, 1), "default": 1000}),
    ), {
        "check": (_forms_check, ("suite", "tol", "samples", "seed"),
                  "forms check"),
    }),
    "hyperbolic": ("hyperbolic plane computations", (
        ("--g0", {"default": "-1 1"}),
        ("--g1", {"default": "0 inf"}),
        ("--g2", {"default": "0.5 3"}),
        ("--l1", {"type": _positive_float, "default": 2.0}),
        ("--K", {"type": _count_at_most(TRIANGLE_K_LIMIT, 0), "default": 10}),
    ), {
        "triangles": (_hyperbolic_triangles, ("g0", "g1", "g2", "l1", "K"),
                      "hyperbolic triangles"),
        "ortho": (_hyperbolic_ortho, ("g1", "g2"), "hyperbolic ortho"),
    }),
    "torus-curve": ("exact Lagrangian beta-curves", (
        ("--delta", {"type": _positive_float, "default": 0.4}),
        ("--height-frac", {"type": float, "default": 0.9}),
        _TOL,
        ("--samples", {"type": _count_at_most(CURVE_SAMPLES_LIMIT, 1),
                       "default": 256}),
        ("--input", {"default": None}),
    ), {
        "build": (_torus_curve_build,
                  ("delta", "height_frac", "tol", "samples"),
                  "torus-curve build"),
        "verify": (_torus_curve_verify, ("input",), "torus-curve verify"),
    }),
    "suite": ("batteries", (
        ("--quiet", {"action": "store_true"}),
    ), {
        "acceptance": (_suite_acceptance, (), "suite acceptance"),
    }),
}


def _config_default(flag, kwargs, value):
    """A --config value as the default of `flag`: a JSON boolean for a
    switch, else a string or number in the flag's choices, which argparse
    passes through the flag's type like any string default."""
    if kwargs.get("action") == "store_true":
        if isinstance(value, bool):
            return value
    elif isinstance(value, (str, int, float)) and not isinstance(value, bool):
        text = str(value)
        if text in kwargs.get("choices", (text,)):
            return text
    raise ValueError("bad config file: %r is not a valid %s" % (value, flag))


def build_parser(defaults=None, command=None):
    """The argparse tree of COMMANDS plus the common flags.  Every
    subcommand is listed, but only `command`, the one to be parsed, gets
    its action and flags.  `defaults` (flag dest -> value, from --config)
    replace flag defaults and lift `required`; explicit flags still win.
    A bad value raises ValueError, whichever subcommand it belongs to."""
    defaults = defaults or {}
    common = (
        ("--format", {"choices": ("json", "csv"), "default": "json"}),
        ("--output", {"default": None}),
        # a string default goes through type=int, so a bad value is a usage error
        ("--seed", {"type": int,
                    "default": os.environ.get("ANOSOVLAB_SEED", str(DEFAULT_SEED))}),
        ("--timing", {"action": "store_true",
                      "help": "include wall time (breaks byte determinism)"}),
    )
    p = argparse.ArgumentParser(
        prog="anosovlab",
        description="Computations for Anosov Liouville domains",
    )
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)
    for name, (help_text, flags, actions) in COMMANDS.items():
        sp = sub.add_parser(name, help=help_text)
        if name == command:
            sp.add_argument("action", choices=tuple(actions))
        for flag, kwargs in flags + common:
            dest = flag[2:].replace("-", "_")
            if dest in defaults:
                kwargs = dict(kwargs, required=False, default=_config_default(
                    flag, kwargs, defaults[dest]))
            if name == command:
                sp.add_argument(flag, **kwargs)
    return p


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    # optional config file supplies flag defaults; explicit flags win
    defaults = {}
    if "--config" in argv:
        i = argv.index("--config")
        try:
            path = argv[i + 1]
        except IndexError:
            print("error: --config needs a path", file=sys.stderr)
            return 2
        del argv[i : i + 2]
        try:
            with open(path) as fh:
                defaults = json.load(fh)
        except (OSError, ValueError) as exc:
            print("error: bad config file: %s" % exc, file=sys.stderr)
            return 2
        if not isinstance(defaults, dict):
            print("error: bad config file: %s does not hold a JSON object" % path,
                  file=sys.stderr)
            return 2
        defaults = {k.replace("-", "_"): v for k, v in defaults.items()}
    # the top-level flags take no value, so the first word names the command
    command = next((a for a in argv if not a.startswith("-")), None)
    try:
        args = build_parser(defaults, command).parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help
        return exc.code if exc.code is not None else 0
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    t0 = time.perf_counter()
    handler, params, command = COMMANDS[args.command][2][args.action]
    report = {"command": command,
              "params": {name: getattr(args, name) for name in params}}
    try:
        fields, checks = handler(args)
        report["params"].update(fields.pop("params", {}))
        report.update(fields)
        return _finish(report, checks, args, t0)
    except (ValueError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
