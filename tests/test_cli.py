import io
import json
import math

from anosovlab.cli import emit, main


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


def test_exit_codes():
    code, _ = _run(["toral", "orbits", "--matrix", "2 1 1 1", "--N", "2"])
    assert code == 0
    code, _ = _run(["toral", "orbits", "--matrix", "1 0 0 1", "--N", "2"])
    assert code == 2  # not hyperbolic: usage-level error
    assert main(["nonsense"]) == 2
    assert main(["toral", "orbits", "--matrix", "2 1 1 1", "--bogus"]) == 2
    # a zero denominator in a point literal is a usage error
    assert main(["chords", "enumerate", "--matrix", "2 1 1 1", "--p", "0 0",
                 "--q", "1/0 2/5", "--kmax", "3"]) == 2
    assert main(["hyperbolic", "ortho", "--g1", "1/0 2"]) == 2


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


def test_sh_alias_matches_homology():
    c1, out1 = _run(["sh", "torus", "--matrix", "3 1 2 1", "--max-norm", "4"])
    c2, out2 = _run(["homology", "sh-torus", "--matrix", "3 1 2 1",
                     "--max-norm", "4"])
    assert c1 == c2 == 0
    d1, d2 = json.loads(out1.decode()), json.loads(out2.decode())
    assert d1["results"] == d2["results"]


def test_forms_cli_failing_check_exits_one(monkeypatch):
    # an impossible tolerance forces at least one failing check
    code, out = _run(["forms", "check", "--suite", "torus-bundle",
                      "--samples", "50", "--tol", "1e-30"])
    assert code == 1
    doc = json.loads(out.decode())
    assert not doc["pass"]
