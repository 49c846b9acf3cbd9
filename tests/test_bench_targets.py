"""The benchmark's span targets must name callables that still exist: the
harness skips a missing name and reports its layer as zero."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_span_targets_resolve():
    spans = _load_spans()
    assert spans.TARGETS
    for module_name, path, _, _ in spans.TARGETS:
        obj = importlib.import_module(module_name)
        for attr in path.split("."):
            obj = getattr(obj, attr, None)
        assert callable(obj), "%s.%s" % (module_name, path)
    assert importlib.import_module(spans.ORACLE_MODULE)
