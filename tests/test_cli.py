import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import anosovlab.hyperbolic
import anosovlab.surface
from anosovlab import acceptance
from anosovlab import cli
from anosovlab.cli import (
    COMMANDS,
    CURVE_SAMPLES_LIMIT,
    KMAX_LIMIT,
    MAX_NORM_LIMIT,
    POINTS_LIMIT,
    SAMPLES_LIMIT,
    TRIANGLE_K_LIMIT,
    WORD_LEN_LIMIT,
    emit,
    main,
)


def _run(argv):
    buf = io.BytesIO()

    class _Out:
        def write(self, data):
            buf.write(data)

    import sys

    real = sys.stdout
    sys.stdout = type("S", (), {"buffer": _Out()})()
    try:
        code = main(argv)
    finally:
        sys.stdout = real
    return code, buf.getvalue()


def test_byte_determinism():
    argv = ["chords", "enumerate", "--matrix", "2 1 1 1", "--q", "1/5 2/5",
            "--sign", "-", "--kmax", "6"]
    c1, out1 = _run(argv)
    c2, out2 = _run(argv)
    assert c1 == c2 == 0
    assert out1 == out2


def _refuse(*args, **kwargs):
    raise AssertionError("called on input the parser should have rejected")


def test_exit_codes(tmp_path, monkeypatch, capsys):
    code, _ = _run(["toral", "orbits", "--matrix", "2 1 1 1", "--N", "2"])
    assert code == 0
    # test_triangle_mobius_invariance's configuration conjugated by
    # [[2, 0.5], [0.3, 1]] once exited 2 ("matrix must have positive
    # determinant", from Mobius products of T^k at K = 40)
    code, out = _run(["hyperbolic", "triangles",
                      "--g0", "-2.1428571428571432 1.923076923076923",
                      "--g1", "0.5 6.666666666666668",
                      "--g2", "-0.5882352941176471 3.4210526315789482",
                      "--l1", "1.2", "--K", "40"])
    assert code == 0
    assert [r["k"] for r in json.loads(out.decode())["results"]] == [0]
    code, out = _run(["hyperbolic", "triangles", "--K", str(TRIANGLE_K_LIMIT)])
    assert code == 0
    assert json.loads(out.decode())["params"]["K"] == TRIANGLE_K_LIMIT
    # from here on a bad --K or --l1 must exit 2 before any enumeration
    monkeypatch.setattr(anosovlab.hyperbolic, "triangle_enumerate", _refuse)
    code, _ = _run(["toral", "orbits", "--matrix", "1 0 0 1", "--N", "2"])
    assert code == 2  # not hyperbolic: usage-level error
    assert main(["nonsense"]) == 2
    assert main(["sh", "torus"]) == 2  # removed alias of homology sh-torus
    assert main(["toral", "orbits", "--matrix", "2 1 1 1", "--bogus"]) == 2
    # a zero denominator in a point literal is a usage error
    assert main(["chords", "enumerate", "--matrix", "2 1 1 1", "--p", "0 0",
                 "--q", "1/0 2/5", "--kmax", "3"]) == 2
    assert main(["hyperbolic", "ortho", "--g1", "1/0 2"]) == 2
    # counts and lengths are checked before use
    assert main(["forms", "check", "--suite", "covers", "--samples", "0"]) == 2
    assert main(["forms", "check", "--suite", "covers", "--samples", "1",
                 "--seed", "-1"]) == 2
    assert main(["torus-curve", "build", "--samples", "-5"]) == 2
    assert main(["hyperbolic", "triangles", "--l1", "nan"]) == 2
    assert main(["hyperbolic", "triangles", "--l1", "inf"]) == 2
    assert main(["torus-curve", "verify"]) == 2  # no --input
    config = tmp_path / "config.json"
    config.write_text("[1, 2]")  # valid JSON, but not an object
    assert main(["--config", str(config), "toral", "eigen"]) == 2
    # negative counts, csv of a table report and an incomplete curve file
    bad = [["toral", "orbits", "--matrix", "2 1 1 1", "--N", "-1"],
           ["hw", "mcduff", "--L", "-1"],
           ["hw", "mcduff", "--L", str(WORD_LEN_LIMIT + 1)],
           ["hw", "mcduff", "--T", "-1"],
           ["homology", "mapping-torus", "--format", "csv"],
           ["homology", "circle-bundle", "--format", "csv"],
           ["homology", "hochschild", "--format", "csv"],
           # surface words: letters beyond the genus, a trivial or a
           # repeated class
           ["hw", "mcduff", "--gamma", "a5"],
           ["hw", "mcduff", "--beta", "B3"],
           ["homology", "sh-mcduff", "--genus", "2", "--classes", "a5"],
           ["homology", "sh-mcduff", "--genus", "3", "--classes", "xyz"],
           ["homology", "sh-mcduff", "--genus", "3", "--classes", "a1A1"],
           ["homology", "sh-mcduff", "--classes", "a1,a1"],
           ["homology", "sh-mcduff", "--classes", "a1,b1a1B1"]]
    # a tolerance must be a finite float > 0, or the gate is switched off
    for tol in ("inf", "nan", "-1"):
        bad.append(["forms", "check", "--suite", "torus-bundle", "--tol", tol,
                    "--samples", "20"])
    # a curve width must be a finite float > 0: inf printed Infinity, not JSON
    for delta in ("inf", "nan", "0", "-1"):
        bad.append(["torus-curve", "build", "--delta", delta])
    # every sample is built and printed at once, so the count is bounded
    for samples in (str(CURVE_SAMPLES_LIMIT + 1), "1000000000000"):
        bad.append(["torus-curve", "build", "--samples", samples])
    # --K 10^8 once ran for over 20 s of Mobius products; --l1 nan or 0
    # failed only inside the enumeration
    for K in ("1000000000000", "-1", str(TRIANGLE_K_LIMIT + 1)):
        bad.append(["hyperbolic", "triangles", "--K", K])
    for l1 in ("nan", "0", "-1"):
        bad.append(["hyperbolic", "triangles", "--l1", l1])
    for keys in ({"results": {"h": 0.5, "delta": 0.4}}, {"seg_length": 1.0},
                 [1, 2]):
        curve = tmp_path / ("curve%d.json" % len(bad))
        curve.write_text(json.dumps(keys))
        bad.append(["torus-curve", "verify", "--input", str(curve)])
    # --config values pass the flag's type and choices, like typed ones
    for i, (values, argv) in enumerate((
            ({"matrix": None}, ["toral", "eigen"]),
            ({"N": 2.5}, ["toral", "orbits", "--matrix", "2 1 1 1"]),
            ({"sign": "x"}, ["chords", "enumerate", "--matrix", "2 1 1 1"]),
            ({"sign": "x"}, ["toral", "eigen", "--matrix", "2 1 1 1"]),
            ({"tol": "inf"}, ["forms", "check", "--samples", "5"]),
            ({"delta": "inf"}, ["torus-curve", "build"]),
            ({"quiet": "yes"}, ["suite", "acceptance"]),
            ({"K": 10**12}, ["hyperbolic", "triangles"]),
            ({"K": -1}, ["hyperbolic", "triangles"]),
            ({"l1": "nan"}, ["hyperbolic", "triangles"]),
            ({"l1": 0}, ["hyperbolic", "triangles"]))):
        config = tmp_path / ("values%d.json" % i)
        config.write_text(json.dumps(values))
        bad.append(["--config", str(config)] + argv)
    capsys.readouterr()
    for argv in bad:
        assert main(argv) == 2, argv
        out, err = capsys.readouterr()
        assert out == "" and "error:" in err, argv
    monkeypatch.setenv("ANOSOVLAB_SEED", "seven")
    assert main(["forms", "check", "--samples", "5"]) == 2


def test_huge_kmax_is_rejected_before_any_work(capsys):
    # a box of 10^12 rows once ended in a MemoryError traceback with exit 1
    tracemalloc.start()
    try:
        for argv in (["chords", "enumerate", "--matrix", "2 1 1 1"],
                     ["hw", "torus"]):
            assert main(argv + ["--kmax", "1000000000000"]) == 2
            assert main(argv + ["--kmax", str(KMAX_LIMIT + 1)]) == 2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    out, err = capsys.readouterr()
    assert out == "" and err.count("error: argument --kmax") == 4
    code, out = _run(["hw", "torus", "--N", "1", "--kmax", str(KMAX_LIMIT)])
    assert code == 0 and json.loads(out.decode())["params"]["kmax"] == KMAX_LIMIT


def test_huge_point_counts_are_rejected_before_any_work(capsys):
    # --n 30 of the cat map asks for 3.5e12 points and "5 2 2 1" --n 12 for
    # 1.5e9; unbounded, both would be built before any check could fail
    tracemalloc.start()
    try:
        for argv in (["toral", "fixed", "--matrix", "2 1 1 1", "--n", "30"],
                     ["toral", "fixed", "--matrix", "5 2 2 1", "--n", "12"],
                     ["toral", "fixed", "--matrix", "2 1 1 1", "--n", "10" * 6],
                     ["toral", "orbits", "--matrix", "2 1 1 1", "--N", "12"],
                     ["toral", "orbits", "--matrix", "5 2 2 1", "--N", "1000"],
                     ["hw", "torus", "--matrix", "2 1 1 1", "--N", "12"]):
            assert main(argv) == 2, argv
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    out, err = capsys.readouterr()
    assert out == "" and err.count(
        "asks for more than %d periodic points" % POINTS_LIMIT) == 6


def test_forms_samples_limit_is_checked_at_parse_time(capsys):
    # forms check holds its whole sample in memory: the bound is checked
    # when the flag is parsed, before any sample is drawn
    parser = cli.build_parser(command="forms")
    argv = ["forms", "check", "--samples"]
    assert parser.parse_args(argv + [str(SAMPLES_LIMIT)]).samples == SAMPLES_LIMIT
    for bad in (SAMPLES_LIMIT + 1, 10**12, 0):
        with pytest.raises(SystemExit) as exc:
            parser.parse_args(argv + [str(bad)])
        assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("error: argument --samples") == 3


def test_max_norm_limit_is_checked_at_parse_time(capsys):
    # both commands list every fiber up to --max-norm; only parsing runs here
    for command, action in (("homology", "sh-torus"), ("chords", "fibers")):
        parser = cli.build_parser(command=command)
        argv = [command, action, "--matrix", "2 1 1 1", "--max-norm"]
        assert parser.parse_args(argv + [str(MAX_NORM_LIMIT)]).max_norm == MAX_NORM_LIMIT
        for bad in (MAX_NORM_LIMIT + 1, -1):
            with pytest.raises(SystemExit) as exc:
                parser.parse_args(argv + [str(bad)])
            assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("error: argument --max-norm") == 4


def test_exhausted_class_key_is_a_usage_error(monkeypatch, capsys):
    monkeypatch.setattr(anosovlab.surface, "CLASS_KEY_STATES", 8)
    word = "a2b2A2B2B2A2b1a1b2A2B2a1a1B1A1b2A1b2a2B2B2A2b1a1"
    for argv in (["homology", "sh-mcduff", "--classes", word],
                 ["hw", "mcduff", "--gamma", word]):
        assert main(argv) == 2, argv
        out, err = capsys.readouterr()
        assert out == "" and "more than 8 cyclic words" in err


def test_module_runs_from_a_checkout():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    run = subprocess.run([sys.executable, "-m", "anosovlab", "toral", "orbits",
                          "--matrix", "2 1 1 1", "--N", "3"],
                         capture_output=True, env=env, timeout=60)
    assert run.returncode == 0, run.stderr
    assert json.loads(run.stdout)["command"] == "toral orbits"


def test_point_limit_is_exact(monkeypatch):
    # the cat map has 1, 5 and 16 points of period dividing 1, 2 and 3
    monkeypatch.setattr(cli, "POINTS_LIMIT", 16)
    assert _run(["toral", "fixed", "--matrix", "2 1 1 1", "--n", "3"])[0] == 0
    assert _run(["toral", "fixed", "--matrix", "2 1 1 1", "--n", "4"])[0] == 2
    monkeypatch.setattr(cli, "POINTS_LIMIT", 6)
    for command in ("toral orbits", "hw torus"):
        argv = command.split() + ["--matrix", "2 1 1 1", "--N"]
        assert _run(argv + ["2"])[0] == 0
        assert _run(argv + ["3"])[0] == 2


@pytest.mark.parametrize("argv", [
    ["--g0", "-1e300 1e300", "--g1", "0 inf", "--g2", "-1e-300 1e-300",
     "--l1", "2", "--K", "3"],
    ["--g0", "-1e200 1e200", "--g1", "0 inf", "--g2", "-0.5 2",
     "--l1", "2", "--K", "3"],
    # endpoints of 1e150 still overflow a squared radius or distance
    ["--g0=1e+150 -1e+150", "--g1=1e+100 1.0", "--g2=1.0 -1e+150",
     "--l1", "30", "--K", "3"],
], ids=["1e300", "1e200", "1e150"])
def test_triangle_overflow_is_a_usage_error(argv, capsys):
    # each once ended in an OverflowError traceback with exit 1
    assert main(["hyperbolic", "triangles"] + argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and "error:" in err and "float range" in err


def test_json_round_trip():
    report = {"command": "x", "params": {"a": 1},
              "results": [{"m": 1, "z": 0.25}], "checks": []}
    data = emit(report, "json")
    assert json.loads(data.decode()) == report
    # empty results still form a valid document
    data2 = emit({"results": []}, "json")
    assert json.loads(data2.decode()) == {"results": []}


def test_csv_row_count():
    report = {"results": [{"m": 1, "n": 2}, {"m": 3, "n": 4}, {"m": 5, "n": 6}]}
    lines = emit(report, "csv").decode().strip().split("\n")
    assert len(lines) == 4  # header + one row per item


def test_fixed_subcommand_check():
    code, out = _run(["toral", "fixed", "--matrix", "2 1 1 1", "--n", "2"])
    assert code == 0
    doc = json.loads(out.decode())
    assert len(doc["results"]) == 5
    assert doc["checks"][0]["pass"]


def test_curve_build_verify_round_trip(tmp_path):
    path = tmp_path / "curve.json"
    code, _ = _run(["torus-curve", "build", "--delta", "0.35",
                    "--height-frac", "0.9", "--output", str(path)])
    assert code == 0
    doc = json.loads(path.read_text())
    assert abs(doc["results"]["period"] - (2 * doc["results"]["seg_length"]
               + 2 * math.pi * doc["results"]["h"])) < 1e-12
    code, out = _run(["torus-curve", "verify", "--input", str(path)])
    assert code == 0
    assert json.loads(out.decode())["pass"]


def test_forms_cli_failing_check_exits_one(monkeypatch):
    # an impossible tolerance forces at least one failing check
    code, out = _run(["forms", "check", "--suite", "torus-bundle",
                      "--samples", "50", "--tol", "1e-30"])
    assert code == 1
    doc = json.loads(out.decode())
    assert not doc["pass"]


def _stub_pass():
    return {"pass": True, "details": {}}


def _stub_fail():
    return {"pass": False, "details": {"why": "stub"}}


# (command, action) -> (small argv, exit code, report command, param keys)
CASES = {
    ("toral", "eigen"): (["--matrix", "2 1 1 1"], 0, "toral eigen", {"matrix"}),
    ("toral", "fixed"): (["--matrix", "5 2 2 1", "--n", "2"], 0, "toral fixed",
                         {"matrix", "n"}),
    ("toral", "orbits"): (["--matrix", "2 1 1 1", "--N", "2"], 0, "toral orbits",
                          {"matrix", "N"}),
    ("chords", "enumerate"): (["--matrix", "2 1 1 1", "--q", "1/5 2/5", "--kmax", "3"],
                              0, "chords enumerate",
                              {"matrix", "p", "q", "sign", "kmax", "backend"}),
    ("chords", "fibers"): (["--matrix", "2 1 1 1", "--max-norm", "5"], 0,
                           "chords fibers", {"matrix", "sign", "max_norm"}),
    ("hw", "mcduff"): (["--L", "2", "--T", "1"], 0, "hw mcduff",
                       {"genus", "gamma", "beta", "L", "T"}),
    ("hw", "torus"): (["--N", "2", "--orbit2", "1", "--kmax", "3"], 0, "hw torus",
                      {"matrix", "N", "orbit1", "orbit2", "kmax"}),
    ("homology", "mapping-torus"): (["--matrix", "3 1 2 1"], 0,
                                    "homology mapping-torus", {"matrix"}),
    ("homology", "circle-bundle"): (["--genus", "3"], 0, "homology circle-bundle",
                                    {"genus"}),
    ("homology", "hochschild"): (["--N", "4", "--orbits", "2"], 0,
                                 "homology hochschild", {"N", "orbits"}),
    ("homology", "sh-torus"): (["--max-norm", "4"], 0, "homology sh-torus",
                               {"matrix", "max_norm"}),
    ("homology", "sh-mcduff"): (["--classes", "a1,b1"], 0, "homology sh-mcduff",
                                {"genus", "tmax", "classes"}),
    ("forms", "check"): (["--suite", "covers", "--samples", "10"], 0, "forms check",
                         {"suite", "tol", "samples", "seed"}),
    ("hyperbolic", "triangles"): (["--K", "3"], 0, "hyperbolic triangles",
                                  {"g0", "g1", "g2", "l1", "K"}),
    ("hyperbolic", "ortho"): (["--g2", "0.5 2"], 0, "hyperbolic ortho", {"g1", "g2"}),
    ("torus-curve", "build"): (["--samples", "4"], 0, "torus-curve build",
                               {"delta", "height_frac", "tol", "samples"}),
    ("torus-curve", "verify"): (["--input"], 0, "torus-curve verify", {"input"}),
    # stub criteria, one failing: the report must still come out, with exit 1
    ("suite", "acceptance"): (["--quiet"], 1, "suite acceptance", set()),
}

TABLE_PAIRS = [(c, a) for c, (_, _, actions) in COMMANDS.items() for a in actions]


def test_cases_cover_the_table():
    assert set(CASES) == set(TABLE_PAIRS)


@pytest.mark.parametrize("command,action", TABLE_PAIRS,
                         ids=["%s-%s" % pair for pair in TABLE_PAIRS])
def test_every_table_entry(command, action, tmp_path, monkeypatch):
    monkeypatch.setattr(acceptance, "CRITERIA", [_stub_pass, _stub_fail])
    argv, code, report_command, param_keys = CASES[(command, action)]
    if argv == ["--input"]:
        curve = tmp_path / "curve.json"
        assert main(["torus-curve", "build", "--samples", "4",
                     "--output", str(curve)]) == 0
        argv = ["--input", str(curve)]
    got, out = _run([command, action] + argv)
    assert got == code
    doc = json.loads(out.decode())
    assert doc["command"] == report_command
    assert set(doc["params"]) == param_keys
    assert doc["pass"] == (code == 0)


@pytest.mark.parametrize("command", list(COMMANDS))
def test_subcommand_help_lists_its_flags(command, capsys):
    assert main([command, "--help"]) == 0
    out = capsys.readouterr().out
    _, flags, actions = COMMANDS[command]
    assert "{%s}" % ",".join(actions) in out
    assert all(flag in out for flag, _ in flags), out


def test_config_object_sets_defaults(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"matrix": "3 1 2 1", "max-norm": 3}))
    # --matrix is required for toral; the config value lifts that
    code, out = _run(["--config", str(config), "toral", "eigen"])
    assert code == 0
    assert json.loads(out.decode())["params"] == {"matrix": "3 1 2 1"}
    # explicit flags win over the config
    code, out = _run(["chords", "fibers", "--matrix", "2 1 1 1", "--max-norm", "4",
                      "--config", str(config)])
    assert code == 0
    assert json.loads(out.decode())["params"]["max_norm"] == 4


def test_suite_acceptance_stdout_is_json(monkeypatch, capsys):
    monkeypatch.setattr(acceptance, "CRITERIA", [_stub_pass, _stub_fail])
    assert main(["suite", "acceptance"]) == 1
    captured = capsys.readouterr()
    doc = json.loads(captured.out)
    assert [r["name"] for r in doc["results"]] == ["_stub_pass", "_stub_fail"]
    assert all("elapsed_s" not in r for r in doc["results"])
    assert "_stub_fail" in captured.err  # progress lines go to stderr
    assert main(["suite", "acceptance", "--quiet", "--timing"]) == 1
    captured = capsys.readouterr()
    assert all("elapsed_s" in r for r in json.loads(captured.out)["results"])
    assert captured.err == ""
