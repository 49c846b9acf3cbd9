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
    criterion_12_surface_group,
    run_all,
)
from anosovlab.exact import IntMatrix
from anosovlab.surface import FuchsianRep


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


def test_criterion_12_fails_on_one_wrong_identity_answer(monkeypatch):
    batch = FuchsianRep.identity_mask
    flipped = []

    def flip_first(self, words):
        out = batch(self, words)
        if not flipped:
            flipped.append(True)
            out[0] = not out[0]
        return out

    monkeypatch.setattr(FuchsianRep, "identity_mask", flip_first)
    res = criterion_12_surface_group()
    assert not res["pass"] and res["details"]["disagreements"] == 1
