"""In-memory spans around calls into anosovlab's public names.

Nothing inside the program changes: `Tracer.install` replaces each public
function (at every module that binds it) and each public method (on its
class) with a wrapper that records a span while the tracer is active.  A
name that no longer exists is skipped and its layer reports zero calls.

A layer's busy time is the summed duration of its outermost spans, so a
layer that calls itself (fixed_points -> fixed_points_raw) is not counted
twice; layers may overlap each other (Dehn reduction inside class keys).
"""

import json
import sys
import time
from contextlib import contextmanager


class Span:
    __slots__ = ("layer", "name", "start", "end", "parent", "job", "error",
                 "work")

    def __init__(self, layer, name, start, parent, job):
        self.layer = layer
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.job = job
        self.error = False
        self.work = None


def _arg(args, kwargs, pos, name, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


def _chords_layer(args, kwargs):
    with_chords = _arg(args, kwargs, 5, "with_chords", True)
    return "chords.list" if with_chords else "chords.count"


def _chords_work(args, kwargs, out):
    return len(out.chords) if out.chords else out.counts_by_k[-1]


def _triangle_work(args, kwargs, out):
    K = _arg(args, kwargs, 4, "K")
    return (len(out), 2 * K + 1)


# (module, public name, layer or layer(args, kwargs), work(args, kwargs, out))
TARGETS = [
    ("anosovlab.chords", "enumerate_chords", _chords_layer, _chords_work),
    ("anosovlab.chords", "chord_slope", "chords.slope", None),
    ("anosovlab.chords", "enumerate_rational_fibers", "chords.fibers",
     lambda a, k, out: len(out)),
    ("anosovlab.chords", "class_disjointness", "chords.certs", None),
    ("anosovlab.toral", "fixed_points_raw", "toral.periodic",
     lambda a, k, out: len(out[1])),
    ("anosovlab.toral", "fixed_points", "toral.periodic",
     lambda a, k, out: len(out)),
    ("anosovlab.toral", "orbits_up_to_period", "toral.periodic",
     lambda a, k, out: sum(o.period for o in out)),
    ("anosovlab.exact.intmat", "smith_normal_form", "exact.snf", None),
    ("anosovlab.homology", "mapping_torus_cohomology", "homology.tables", None),
    ("anosovlab.homology", "circle_bundle_cohomology", "homology.tables", None),
    ("anosovlab.homology", "hochschild_dual_numbers", "homology.tables", None),
    ("anosovlab.homology", "hh_c_ranks", "homology.tables", None),
    ("anosovlab.homology", "sh_torus_bundle", "homology.tables", None),
    ("anosovlab.homology", "sh_mcduff", "homology.tables", None),
    ("anosovlab.homology", "product_admissibility", "homology.tables", None),
    ("anosovlab.surface", "SurfacePresentation.dehn_reduce", "surface.dehn",
     lambda a, k, out: len(_arg(a, k, 1, "word"))),
    ("anosovlab.surface", "FuchsianRep.is_identity", "surface.fuchsian", None),
    ("anosovlab.surface", "FuchsianRep.matrix_mp", "surface.mp", None),
    ("anosovlab.surface", "SurfacePresentation.conjugacy_classes",
     "surface.classes", None),
    ("anosovlab.surface", "SurfacePresentation.class_key", "surface.classes",
     None),
    ("anosovlab.surface", "geodesic_length", "surface.classes", None),
    ("anosovlab.surface", "intersection_number", "surface.classes", None),
    ("anosovlab.hyperbolic", "triangle_enumerate", "hyperbolic.triangles",
     _triangle_work),
    ("anosovlab.hyperbolic", "orthogeodesic", "hyperbolic.ortho", None),
    ("anosovlab.forms.library", "run_suite", "forms.suite",
     lambda a, k, out: _arg(a, k, 1, "samples", 1000)),
    ("anosovlab.shapes", "build_exact_beta", "shapes.beta", None),
    ("anosovlab.shapes", "verify_exactness", "shapes.beta", None),
    ("anosovlab.shapes", "weighted_area", "shapes.beta", None),
    ("anosovlab.shapes", "rounded_rectangle", "shapes.beta", None),
]
# every public function of anosovlab.oracles is wrapped into this layer
ORACLE_MODULE, ORACLE_LAYER = "anosovlab.oracles", "oracles"


class Tracer:
    """Span recorder.  Spans live in memory until `write` is called."""

    def __init__(self):
        self.spans = []
        self.active = False
        self.job = None
        self.missing = []
        self._stack = []
        self._patched = []

    # ----------------------------------------------------------- spans

    def _begin(self, layer, name):
        parent = self._stack[-1] if self._stack else -1
        span = Span(layer, name, time.perf_counter(), parent, self.job)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _end(self, span, error):
        span.end = time.perf_counter()
        span.error = error
        self._stack.pop()

    @contextmanager
    def span(self, layer, name=None):
        """Record one span; the caller may set `.work` on the yielded span."""
        if not self.active:
            yield Span(layer, name or layer, 0.0, -1, None)
            return
        span = self._begin(layer, name or layer)
        try:
            yield span
        except BaseException:
            self._end(span, True)
            raise
        self._end(span, False)

    def _wrap(self, fn, name, layer, work):
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            span = tracer._begin(layer(args, kwargs) if callable(layer) else layer,
                                 name)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                tracer._end(span, True)
                raise
            tracer._end(span, False)
            if work is not None:
                span.work = work(args, kwargs, out)
            return out

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    # ------------------------------------------------------ installation

    def install(self):
        """Wrap every target that exists in the loaded anosovlab modules."""
        targets = list(TARGETS)
        oracles = sys.modules.get(ORACLE_MODULE)
        if oracles is not None:
            for attr, value in sorted(vars(oracles).items()):
                if (not attr.startswith("_") and callable(value)
                        and getattr(value, "__module__", None) == ORACLE_MODULE
                        and not isinstance(value, type)):
                    targets.append((ORACLE_MODULE, attr, ORACLE_LAYER, None))
        for module_name, path, layer, work in targets:
            module = sys.modules.get(module_name)
            if module is None:  # the workload does not use this module
                continue
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            fn = getattr(owner, attr, None) if owner is not None else None
            if fn is None:  # removed from the program: the layer reads zero
                self.missing.append("%s.%s" % (module_name, path))
                continue
            wrapper = self._wrap(fn, "%s.%s" % (module_name, path), layer, work)
            if owner_name:  # a method: patch the class once
                self._set(owner, attr, wrapper)
                continue
            # a function: patch every anosovlab module that binds it
            for name, mod in list(sys.modules.items()):
                if (name == "anosovlab" or name.startswith("anosovlab.")) \
                        and mod is not None:
                    for key, value in list(vars(mod).items()):
                        if value is fn:
                            self._set(mod, key, wrapper)

    def _set(self, owner, attr, value):
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched = []

    # -------------------------------------------------------- reporting

    def layer_totals(self):
        """layer -> {busy_s, calls, errors, work}, outermost spans only."""
        spans = self.spans
        out = {}
        for span in spans:
            p = span.parent
            nested = False
            while p >= 0:
                if spans[p].layer == span.layer:
                    nested = True
                    break
                p = spans[p].parent
            if nested or span.end is None:
                continue
            t = out.setdefault(span.layer, {"busy_s": 0.0, "calls": 0,
                                            "errors": 0, "work": []})
            t["busy_s"] += span.end - span.start
            t["calls"] += 1
            t["errors"] += span.error
            if span.work is not None:
                t["work"].append(span.work)
        return out

    def mp_escalations(self):
        """matrix_mp calls made directly by FuchsianRep.is_identity."""
        spans = self.spans
        return sum(1 for s in spans if s.layer == "surface.mp"
                   and s.parent >= 0 and spans[s.parent].layer == "surface.fuchsian")

    def write(self, path):
        """Write every span as one JSON line, times relative to the first."""
        t0 = self.spans[0].start if self.spans else 0.0
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s.name, "layer": s.layer,
                    "start": s.start - t0, "end": s.end - t0,
                    "parent": s.parent, "job": s.job, "error": s.error,
                }) + "\n")
