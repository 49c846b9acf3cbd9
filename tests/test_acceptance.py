"""Acceptance battery: every criterion must pass at its stated tolerance.

Prints one pass/fail line per criterion (run pytest with -s to see them).
"""

import tracemalloc

import pytest

from anosovlab import acceptance
from anosovlab.acceptance import (
    CRITERIA,
    criterion_01_fixed_point_identity,
    criterion_02_orbit_counting,
    run_all,
)
from anosovlab.exact import IntMatrix


@pytest.fixture(scope="module")
def results():
    return run_all(verbose=True)


@pytest.mark.parametrize("index", range(len(CRITERIA)),
                         ids=[fn.__name__ for fn in CRITERIA])
def test_criterion(results, index):
    res = results[index]
    assert res["pass"], res["details"]


@pytest.mark.parametrize("criterion", [criterion_01_fixed_point_identity,
                                       criterion_02_orbit_counting])
def test_periodic_point_criteria_stay_in_integer_form(monkeypatch, criterion):
    # Both criteria peak on [[5, 2], [2, 1]] at n = 6 (39,200 fixed points),
    # so the guard traces that matrix alone.  A Fraction pair per point, or
    # every orbit up to period 6 held at once, takes 12.3 and 19.4 MB there.
    monkeypatch.setattr(acceptance, "MATRIX_BATTERY", (IntMatrix([[5, 2], [2, 1]]),))
    tracemalloc.start()
    try:
        assert criterion()["pass"]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20
