"""Tests of the benchmark itself (not of anosovlab).

    python3 -m pytest perfbench/tests -q
"""

import dataclasses
import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import jobs  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402

jobs.use_checkout_program()


def _bench(*argv):
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), *argv],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=600, cwd=ROOT)
    return proc.returncode, proc.stdout.strip().splitlines()


def _benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_tiny_run_prints_every_end_to_end_metric(workload):
    code, lines = _bench("--workload", workload, "--seed", "3",
                         "--seconds", "0.2", "--trace", "0")
    assert code == 0
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in _benchmark_json()["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert any(line.strip().startswith("failed_frac") for line in lines)


def test_tiny_traced_run_prints_every_layer_metric():
    code, lines = _bench("--workload", "sol-count", "--seed", "3",
                         "--seconds", "0.4", "--trace", "1")
    assert code == 0
    metrics = json.loads(lines[-1])["metrics"]
    want = {m["name"]: m["unit"] for m in _benchmark_json()["per_layer"]}
    assert {k: v["unit"] for k, v in metrics.items()} == want
    assert metrics["chords.count.calls"]["value"] > 0
    assert metrics["surface.fuchsian.calls"]["value"] == 0


def test_benchmark_json_matches_the_harness():
    spec = _benchmark_json()
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in spec["per_layer"]] == list(run.per_layer_units())
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)


def _drop_point(out):
    den, pts = out
    return den, pts[:-1]


def _bump_small_count(out):
    counts = list(out.counts_by_k)
    counts[8:] = [c + 1 for c in counts[8:]]
    return dataclasses.replace(out, counts_by_k=tuple(counts))


def _flip_fuchsian(out):
    return [(out[0][0], not out[0][1])] + out[1:]


def _double_wang(out):
    return out[0].scaled(2), out[1]


def _nudge_slope(out):
    # still a valid slope in [0, nu): only the reference digest can see it
    first = out.chords[0]
    moved = dataclasses.replace(first, z=first.z * (1 - 1e-4))
    return dataclasses.replace(out, chords=(moved,) + out.chords[1:])


@pytest.mark.parametrize("workload,kind,corrupt", [
    ("sol-count", "periodic_count", _drop_point),
    ("sol-count", "count", _bump_small_count),
    ("sol-count", "tables_wang", _double_wang),
    ("geometry-mix", "words", _flip_fuchsian),
    ("sol-list", "list", _nudge_slope),
])
def test_corrupted_output_is_counted_as_failed(monkeypatch, workload, kind, corrupt):
    runner, checker = jobs.KINDS[kind]
    monkeypatch.setitem(jobs.KINDS, kind,
                        (lambda ctx, job: corrupt(runner(ctx, job)), checker))
    ctx, _ = jobs.setup(workload)
    jobs.setup_gate(ctx)
    bench = run.Run(ctx, run.REFERENCE_SEED,
                    run.load_reference(workload, run.REFERENCE_SEED))
    bench.records = None
    bench.run_round()
    per_round = wl.ROUNDS[workload][kind]
    assert bench.failed == per_round
    assert bench.failed / bench.attempted > 0


def test_clean_round_passes_the_gate():
    ctx, _ = jobs.setup("sol-count")
    jobs.setup_gate(ctx)
    bench = run.Run(ctx, run.REFERENCE_SEED,
                    run.load_reference("sol-count", run.REFERENCE_SEED))
    bench.records = None
    bench.run_round()
    assert bench.failed == 0 and bench.attempted == sum(wl.ROUNDS["sol-count"].values())


@pytest.mark.parametrize("workload", sorted(wl.ROUNDS))
def test_generator_is_deterministic(workload):
    a = [wl.Generator(workload, 11).round(r) for r in range(3)]
    b = [wl.Generator(workload, 11).round(r) for r in range(3)]
    c = [wl.Generator(workload, 12).round(r) for r in range(3)]
    assert repr(a) == repr(b)
    assert repr(a) != repr(c)


def _is_hyperbolic_sl2z(m):
    return m[0] * m[3] - m[1] * m[2] == 1 and abs(m[0] + m[3]) > 2


def test_generator_emits_only_hyperbolic_sl2z_matrices():
    seen = set()
    for workload in ("sol-count", "sol-list"):
        for seed in range(5):
            gen = wl.Generator(workload, seed)
            for r in range(4):
                seen.update(job["matrix"] for job in gen.round(r) if "matrix" in job)
    assert seen and seen <= set(wl.matrix_set())
    assert all(_is_hyperbolic_sl2z(m) for m in wl.matrix_set())
    traces = {m[0] + m[3] for m in seen}
    assert len(traces) == len(wl.BATTERY)
