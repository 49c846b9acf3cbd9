"""Command-line front end: one subcommand tree over all modules.

Every run emits a deterministic report (JSON with sorted keys or CSV);
pass/fail checks drive the exit status: 0 all pass, 1 any failure, 2 usage
errors.  Randomness only enters through --seed (default 7, overridable via
ANOSOVLAB_SEED).
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


def _fr(x):
    return "%d/%d" % (x.numerator, x.denominator)


def _jsonable(obj):
    import numpy as np

    from .exact import GradedZModule
    from .homology import HochschildTable

    if isinstance(obj, Fraction):
        return _fr(obj)
    if isinstance(obj, (GradedZModule, HochschildTable)):
        return obj.to_dict()
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
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


def _finish(report, args, checks=None):
    report["checks"] = checks or []
    report["pass"] = all(c.get("pass", True) for c in report["checks"])
    if getattr(args, "timing", False):
        report["wall_time_ms"] = round(1000 * (time.time() - args._t0), 3)
    data = emit(report, args.format)
    if args.output:
        with open(args.output, "wb") as fh:
            fh.write(data)
    else:
        sys.stdout.buffer.write(data)
    return 0 if report["pass"] else 1


# ----------------------------------------------------------- handlers

def cmd_toral(args):
    from .toral import eigen_data, fixed_points, orbit_count_identity, \
        orbits_up_to_period, parse_matrix

    A = parse_matrix(args.matrix)
    H = eigen_data(A)
    report = {"command": "toral %s" % args.action,
              "params": {"matrix": args.matrix}}
    checks = []
    if args.action == "eigen":
        report["results"] = {
            "trace": A.trace(),
            "D": H.D,
            "lambda_plus": repr(H.lambda_plus),
            "nu": H.nu,
            "vx": [repr(c) for c in H.vx],
            "vy": [repr(c) for c in H.vy],
        }
        res = H.check_residuals()
        exact = all(c.is_zero() for pair in res for c in pair)
        checks.append({"name": "eigen-residual-exactly-zero", "pass": exact})
    elif args.action == "fixed":
        pts = fixed_points(A, args.n)
        expected = orbit_count_identity(A, args.n)
        report["params"]["n"] = args.n
        report["results"] = [{"x": _fr(p[0]), "y": _fr(p[1])} for p in pts]
        checks.append(
            {"name": "count-equals-trace-identity", "pass": len(pts) == expected,
             "count": len(pts), "expected": expected}
        )
    else:  # orbits
        orbits = orbits_up_to_period(A, args.N)
        report["params"]["N"] = args.N
        report["results"] = [
            {"period": o.period,
             "points": ["%s %s" % (_fr(p[0]), _fr(p[1])) for p in o.points]}
            for o in orbits
        ]
        ok = True
        for n in range(1, args.N + 1):
            lhs = sum(
                d * sum(1 for o in orbits if o.period == d)
                for d in range(1, n + 1)
                if n % d == 0
            )
            ok = ok and lhs == orbit_count_identity(A, n)
        checks.append({"name": "orbit-counting-identity", "pass": ok})
    return _finish(report, args, checks)


def cmd_chords(args):
    from .toral import eigen_data, parse_matrix
    from .chords import BACKEND, enumerate_chords, enumerate_rational_fibers

    A = parse_matrix(args.matrix)
    H = eigen_data(A)
    sign = +1 if args.sign == "+" else -1
    if args.action == "enumerate":
        p = _parse_point(args.p)
        q = _parse_point(args.q)
        cs = enumerate_chords(H, p, q, sign, args.kmax)
        report = {
            "command": "chords enumerate",
            "params": {"matrix": args.matrix, "p": args.p, "q": args.q,
                       "sign": args.sign, "kmax": args.kmax,
                       "backend": BACKEND},
            "chords": [c.to_dict() for c in cs.chords],
            "counts_by_k": list(cs.counts_by_k),
        }
        mono = all(
            a <= b for a, b in zip(cs.counts_by_k, cs.counts_by_k[1:])
        )
        checks = [{"name": "filtration-monotone", "pass": mono}]
        return _finish(report, args, checks)
    # fibers
    fibers = enumerate_rational_fibers(H, sign, args.max_norm)
    report = {
        "command": "chords fibers",
        "params": {"matrix": args.matrix, "sign": args.sign,
                   "max_norm": args.max_norm},
        "results": [{"m": m, "n": n, "z": z} for m, n, z in fibers],
    }
    distinct = len({(m, n) for m, n, _ in fibers}) == len(fibers)
    checks = [{"name": "primitive-distinct", "pass": distinct}]
    return _finish(report, args, checks)


def cmd_hw(args):
    report = {"command": "hw %s" % args.action, "params": {}}
    checks = []
    if args.action == "mcduff":
        from .surface import ConjClass, FuchsianRep, SurfacePresentation, \
            mcduff_hw_generators, parse_word

        pres = SurfacePresentation(args.genus)
        if args.genus != 2:
            raise ValueError("built-in Fuchsian data covers genus 2 only")
        rep = FuchsianRep(pres)
        gamma = ConjClass(pres, pres.class_key(parse_word(args.gamma)))
        beta = ConjClass(pres, pres.class_key(parse_word(args.beta)))
        out = mcduff_hw_generators(gamma, beta, rep, word_len=min(args.L, 5),
                                   t_cutoff=args.T)
        report["params"] = {"genus": args.genus, "gamma": args.gamma,
                            "beta": args.beta, "L": args.L, "T": args.T,
                            "word_len_used": min(args.L, 5)}
        report["results"] = out
        checks.append({"name": "relator-residual", "pass":
                       rep.relator_residual < 1e-8,
                       "residual": rep.relator_residual})
    else:  # torus
        from .toral import eigen_data, orbits_up_to_period, parse_matrix
        from .chords import hw_rank_table

        A = parse_matrix(args.matrix)
        H = eigen_data(A)
        orbits = orbits_up_to_period(A, args.N)
        i, j = args.orbit1, args.orbit2
        if not (0 <= i < len(orbits) and 0 <= j < len(orbits)):
            raise ValueError(
                "orbit indices out of range (found %d orbits)" % len(orbits)
            )
        out = hw_rank_table(H, orbits[i], orbits[j], args.kmax)
        report["params"] = {"matrix": args.matrix, "N": args.N,
                            "orbit1": i, "orbit2": j, "kmax": args.kmax}
        report["results"] = out
        checks.append({"name": "rank-nonnegative", "pass": out["total_rank"] >= 0})
    return _finish(report, args, checks)


def cmd_homology(args):
    from .homology import (
        circle_bundle_cohomology,
        hh_c_ranks,
        hochschild_dual_numbers,
        mapping_torus_cohomology,
        sh_mcduff,
        sh_torus_bundle,
    )

    checks = []
    if args.action == "mapping-torus":
        from .toral import parse_matrix

        A = parse_matrix(args.matrix)
        table = mapping_torus_cohomology(A)
        report = {"command": "homology mapping-torus",
                  "params": {"matrix": args.matrix}, "results": table}
        checks.append({"name": "poincare-symmetry", "pass": all(
            table.free_rank(k) == table.free_rank(3 - k) for k in range(4))})
        checks.append({"name": "euler-characteristic-zero",
                       "pass": table.euler_characteristic() == 0})
    elif args.action == "circle-bundle":
        table = circle_bundle_cohomology(args.genus)
        report = {"command": "homology circle-bundle",
                  "params": {"genus": args.genus}, "results": table}
        checks.append({"name": "euler-characteristic-zero",
                       "pass": table.euler_characteristic() == 0})
    elif args.action == "hochschild":
        table = hochschild_dual_numbers(args.N)
        if args.orbits is not None:
            table = hh_c_ranks(args.orbits, args.N)
        report = {"command": "homology hochschild",
                  "params": {"N": args.N, "orbits": args.orbits},
                  "results": table,
                  "total_rank": table.total_rank()}
        checks.append({"name": "support-degrees-0-1", "pass": all(
            d in (0, 1) for d in table.total_degree_support())})
    elif args.action == "sh-torus":
        from .toral import parse_matrix

        A = parse_matrix(args.matrix)
        out = sh_torus_bundle(A, args.max_norm)
        report = {"command": "homology sh-torus",
                  "params": {"matrix": args.matrix, "max_norm": args.max_norm},
                  "results": out}
        checks.append({"name": "side-blocks-match-fibers", "pass":
                       out["plus_block"].free_rank(0) == out["plus_fiber_count"]
                       and out["minus_block"].free_rank(0) == out["minus_fiber_count"]})
    else:  # sh-mcduff
        classes = [c for c in (args.classes or "").replace(",", " ").split() if c]
        if args.genus == 2:
            from .surface import SurfacePresentation, parse_word

            pres = SurfacePresentation(2)
            for c in classes:
                if pres.is_trivial(parse_word(c)):
                    raise ValueError("class %r is trivial in the surface group" % c)
        out = sh_mcduff(args.genus, args.tmax, classes)
        report = {"command": "homology sh-mcduff",
                  "params": {"genus": args.genus, "tmax": args.tmax,
                             "classes": classes},
                  "results": out}
        checks.append({"name": "positive-block-matches-classes", "pass":
                       out["positive_block"].free_rank(0) == len(classes)})
    return _finish(report, args, checks)


def cmd_sh(args):
    # alias surface: sh torus ... == homology sh-torus ...
    args.action = "sh-torus" if args.action == "torus" else "sh-mcduff"
    return cmd_homology(args)


def cmd_forms(args):
    from .forms import run_suite

    suites = (
        ["torus-bundle", "mcduff-fermi", "mcduff-halfplane", "covers"]
        if args.suite == "all"
        else [args.suite]
    )
    checks = []
    for s in suites:
        checks.extend(run_suite(s, samples=args.samples, tol=args.tol,
                                seed=args.seed))
    report = {"command": "forms check",
              "params": {"suite": args.suite, "tol": args.tol,
                         "samples": args.samples, "seed": args.seed},
              "results": checks}
    return _finish(report, args, checks)


def cmd_hyperbolic(args):
    from .hyperbolic import Geodesic, orthogeodesic, triangle_enumerate

    checks = []
    if args.action == "triangles":
        g0 = Geodesic(*_parse_boundary(args.g0))
        g1 = Geodesic(*_parse_boundary(args.g1))
        g2 = Geodesic(*_parse_boundary(args.g2))
        pats = triangle_enumerate(g0, g1, g2, args.l1, args.K)
        report = {
            "command": "hyperbolic triangles",
            "params": {"g0": args.g0, "g1": args.g1, "g2": args.g2,
                       "l1": args.l1, "K": args.K},
            "results": [
                {"k": p.k, "angle_sum": p.angle_sum, "area": p.area,
                 "vertices": [[v.real, v.imag] for v in p.vertices]}
                for p in pats
            ],
            "count": len(pats),
            "window_caveat": "count covers translate exponents |k| <= K only",
        }
        checks.append({"name": "gauss-bonnet-positive",
                       "pass": all(p.area > 0 for p in pats)})
    else:  # ortho
        g1 = Geodesic(*_parse_boundary(args.g1))
        g2 = Geodesic(*_parse_boundary(args.g2))
        ch = orthogeodesic(g1, g2)
        report = {
            "command": "hyperbolic ortho",
            "params": {"g1": args.g1, "g2": args.g2},
            "results": {"length": ch.length,
                        "foot1": [ch.foot1.real, ch.foot1.imag],
                        "foot2": [ch.foot2.real, ch.foot2.imag]},
        }
        checks.append({"name": "length-positive", "pass": ch.length > 0})
    return _finish(report, args, checks)


def cmd_torus_curve(args):
    import numpy as np

    from .shapes import build_exact_beta, stadium_curve, verify_exactness, \
        weighted_area

    if args.action == "build":
        curve = build_exact_beta(args.delta, args.height_frac, tol=args.tol)
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
        report = {"command": "torus-curve build",
                  "params": {"delta": args.delta,
                             "height_frac": args.height_frac, "tol": args.tol},
                  "results": payload}
        checks = [
            {"name": "weighted-area-2pi",
             "max_residual": abs(ver["weighted_area"] - 2 * math.pi),
             "pass": abs(ver["weighted_area"] - 2 * math.pi) < args.tol},
            {"name": "pointwise-exactness",
             "max_residual": ver["pointwise_residual"],
             "pass": ver["pointwise_residual"] < 1e-12},
            {"name": "period-residual",
             "max_residual": abs(ver["period_residual"]),
             "pass": abs(ver["period_residual"]) < args.tol},
            {"name": "winding-one", "pass": ver["winding"] == 1},
        ]
        return _finish(report, args, checks)
    # verify
    with open(args.input) as fh:
        payload = json.load(fh)
    if "results" in payload:
        payload = payload["results"]
    curve = stadium_curve(payload["seg_length"], payload["h"])
    curve.meta["eps"] = math.tanh(payload["delta"])
    ver = verify_exactness(curve)
    report = {"command": "torus-curve verify",
              "params": {"input": args.input},
              "results": ver}
    checks = [
        {"name": "weighted-area-2pi",
         "max_residual": abs(ver["weighted_area"] - 2 * math.pi),
         "pass": abs(ver["weighted_area"] - 2 * math.pi) < 1e-8},
        {"name": "pointwise-exactness", "pass": ver["pointwise_residual"] < 1e-12},
        {"name": "period-residual", "pass": abs(ver["period_residual"]) < 1e-8},
    ]
    return _finish(report, args, checks)


def cmd_suite(args):
    from .acceptance import run_all

    results = run_all(verbose=not args.quiet)
    report = {"command": "suite acceptance", "params": {},
              "results": results}
    checks = [{"name": r["name"], "pass": r["pass"]} for r in results]
    return _finish(report, args, checks)


# ------------------------------------------------------------- parser

def build_parser():
    p = argparse.ArgumentParser(
        prog="anosovlab",
        description="Computations for Anosov Liouville domains",
    )
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--format", choices=("json", "csv"), default="json")
        sp.add_argument("--output", default=None)
        sp.add_argument("--seed", type=int,
                        default=int(os.environ.get("ANOSOVLAB_SEED",
                                                   DEFAULT_SEED)))
        sp.add_argument("--timing", action="store_true",
                        help="include wall time (breaks byte determinism)")

    sp = sub.add_parser("toral", help="hyperbolic toral automorphisms")
    sp.add_argument("action", choices=("eigen", "fixed", "orbits"))
    sp.add_argument("--matrix", required=True, help='row-major "a b c d"')
    sp.add_argument("--n", type=int, default=1)
    sp.add_argument("--N", type=int, default=3)
    common(sp)
    sp.set_defaults(fn=cmd_toral)

    sp = sub.add_parser("chords", help="Reeb-chord lattice enumeration")
    sp.add_argument("action", choices=("enumerate", "fibers"))
    sp.add_argument("--matrix", required=True)
    sp.add_argument("--p", default="0 0")
    sp.add_argument("--q", default="0 0")
    sp.add_argument("--sign", choices=("+", "-"), default="+")
    sp.add_argument("--kmax", type=int, default=20)
    sp.add_argument("--max-norm", type=int, default=20)
    common(sp)
    sp.set_defaults(fn=cmd_chords)

    sp = sub.add_parser("hw", help="wrapped Floer rank bookkeeping")
    sp.add_argument("action", choices=("mcduff", "torus"))
    sp.add_argument("--genus", type=int, default=2)
    sp.add_argument("--gamma", default="a1")
    sp.add_argument("--beta", default="b1")
    sp.add_argument("--L", type=int, default=4)
    sp.add_argument("--T", type=int, default=3)
    sp.add_argument("--matrix", default="2 1 1 1")
    sp.add_argument("--N", type=int, default=2)
    sp.add_argument("--orbit1", type=int, default=0)
    sp.add_argument("--orbit2", type=int, default=0)
    sp.add_argument("--kmax", type=int, default=5)
    common(sp)
    sp.set_defaults(fn=cmd_hw)

    sp = sub.add_parser("homology", help="integer (co)homology tables")
    sp.add_argument("action", choices=("mapping-torus", "circle-bundle",
                                       "hochschild", "sh-torus", "sh-mcduff"))
    sp.add_argument("--matrix", default="2 1 1 1")
    sp.add_argument("--genus", type=int, default=2)
    sp.add_argument("--N", type=int, default=10)
    sp.add_argument("--orbits", type=int, default=None)
    sp.add_argument("--max-norm", type=int, default=10)
    sp.add_argument("--tmax", type=int, default=2)
    sp.add_argument("--classes", default="")
    common(sp)
    sp.set_defaults(fn=cmd_homology)

    sp = sub.add_parser("sh", help="symplectic cohomology rank reports")
    sp.add_argument("action", choices=("torus", "mcduff"))
    sp.add_argument("--matrix", default="2 1 1 1")
    sp.add_argument("--genus", type=int, default=2)
    sp.add_argument("--max-norm", type=int, default=10)
    sp.add_argument("--tmax", type=int, default=2)
    sp.add_argument("--classes", default="")
    common(sp)
    sp.set_defaults(fn=cmd_sh)

    sp = sub.add_parser("forms", help="closed-form differential checks")
    sp.add_argument("action", choices=("check",))
    sp.add_argument("--suite", default="all",
                    choices=("all", "torus-bundle", "mcduff-fermi",
                             "mcduff-halfplane", "covers"))
    sp.add_argument("--tol", type=float, default=1e-8)
    sp.add_argument("--samples", type=int, default=1000)
    common(sp)
    sp.set_defaults(fn=cmd_forms)

    sp = sub.add_parser("hyperbolic", help="hyperbolic plane computations")
    sp.add_argument("action", choices=("triangles", "ortho"))
    sp.add_argument("--g0", default="-1 1")
    sp.add_argument("--g1", default="0 inf")
    sp.add_argument("--g2", default="0.5 3")
    sp.add_argument("--l1", type=float, default=2.0)
    sp.add_argument("--K", type=int, default=10)
    common(sp)
    sp.set_defaults(fn=cmd_hyperbolic)

    sp = sub.add_parser("torus-curve", help="exact Lagrangian beta-curves")
    sp.add_argument("action", choices=("build", "verify"))
    sp.add_argument("--delta", type=float, default=0.4)
    sp.add_argument("--height-frac", type=float, default=0.9)
    sp.add_argument("--tol", type=float, default=1e-8)
    sp.add_argument("--samples", type=int, default=256)
    sp.add_argument("--input", default=None)
    common(sp)
    sp.set_defaults(fn=cmd_torus_curve)

    sp = sub.add_parser("suite", help="batteries")
    sp.add_argument("action", choices=("acceptance",))
    sp.add_argument("--quiet", action="store_true")
    common(sp)
    sp.set_defaults(fn=cmd_suite)

    return p


def main(argv=None):
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    # optional config file supplies flag defaults; explicit flags win
    argv = list(argv)
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
        except (OSError, json.JSONDecodeError) as exc:
            print("error: bad config file: %s" % exc, file=sys.stderr)
            return 2
        mapped = {k.replace("-", "_"): v for k, v in defaults.items()}
        for sub in parser._subparsers._group_actions[0].choices.values():
            sub.set_defaults(**mapped)
            for action in sub._actions:
                if action.dest in mapped:
                    action.required = False
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help
        return exc.code if exc.code is not None else 0
    args._t0 = time.time()
    try:
        return args.fn(args)
    except (ValueError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
