import json
import os
import subprocess
import sys

import pytest

from hlbrion import affine_hl
from hlbrion.cli import main
from hlbrion.ring import (
    CollapseError, InvariantError, PrecisionExceeded, SearchExhausted,
)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out


def test_finite_both(capsys):
    code, out = run(capsys, "finite", "--n", "2", "--a", "2", "--method", "both")
    assert code == 0
    assert "verdict: EQUAL" in out
    assert out.count("x1^2") == 2


def test_finite_json(capsys):
    code, out = run(capsys, "finite", "--n", "3", "--a", "1,0",
                    "--method", "gt", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert len(data["poly"]["terms"]) == 3


def test_finite_zero_weight_rejected(capsys):
    code, _ = run(capsys, "finite", "--n", "2", "--a", "0")
    assert code == 2


def test_finite_guard(capsys):
    code, _ = run(capsys, "finite", "--n", "5", "--a", "1,0,0,0",
                  "--method", "def")
    assert code == 2


@pytest.mark.parametrize("argv", [
    ("finite", "--n", "7", "--a", "1,0,0,0,0,0", "--method", "gt"),
    ("finite", "--n", "7", "--a", "1,0,0,0,0,0", "--method", "def",
     "--unsafe-limits"),
    ("verify", "contribfin", "--n", "5", "--a", "1,0,0,0"),
], ids=["gt", "def-unsafe", "contribfin"])
def test_size_guard_of_a_route_is_bad_input(capsys, argv):
    # finite_hl.TooLarge refuses an input beyond a route's own size guard,
    # which --unsafe-limits does not lift
    code = main(list(argv))
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: n=") and "exceeds the guard" in err


def test_affine_basic(capsys):
    code, out = run(capsys, "affine", "--n", "2", "--a", "1,0", "--qmax", "1",
                    "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["qmax"] == 1
    assert {"q": 0, "z": [0], "t_poly": [1]} in data["coeffs"]
    assert len(data["coeffs"]) == 4


def test_affine_level_zero_truncation(capsys):
    # the q^0 layer is the classical top piece: two basis elements here
    code, out = run(capsys, "affine", "--n", "2", "--a", "1,1", "--qmax", "0")
    assert code == 0
    assert out.splitlines() == ["q^0 z=[0] t_poly=[1]", "q^0 z=[1] t_poly=[1]"]


def test_affine_json_with_repeated_weights(capsys):
    # several basis elements can share (q, z); sorting must not compare
    # their weight polynomials
    code, out = run(capsys, "affine", "--n", "2", "--a", "1,0", "--qmax", "3",
                    "--format", "json")
    assert code == 0
    data = json.loads(out)
    pairs = [(row["q"], tuple(row["z"])) for row in data["coeffs"]]
    assert len(pairs) > len(set(pairs))


def test_affine_negative_qmax(capsys):
    code, _ = run(capsys, "affine", "--n", "2", "--a", "1,0", "--qmax", "-1")
    assert code == 2


def test_affine_evaluated_mode(capsys):
    code, out = run(capsys, "affine", "--n", "2", "--a", "1,0", "--qmax", "1",
                    "--z", "rand:5")
    assert code == 0
    assert "seed 5" in out and "value_num" not in out  # text format
    code2, out2 = run(capsys, "affine", "--n", "2", "--a", "1,0", "--qmax", "1",
                      "--z", "rand:5")
    assert out2 == out  # deterministic under a fixed seed


def test_verify_tmultinomial(capsys):
    code, out = run(capsys, "verify", "tmultinomial", "--n", "3", "--a", "1,0")
    assert code == 0
    assert "PASS" in out and "1 + t + t^2" in out.replace("*", " ")


def test_verify_zero_fixture(capsys):
    code, out = run(capsys, "verify", "zero", "--graph", "fixtures/fig2.json",
                    "--b", "3", "--trials", "3")
    assert code == 0
    assert out.strip().endswith("PASS")


def test_verify_zero_rejects_monotone_graph(capsys):
    import tempfile, os
    with tempfile.NamedTemporaryFile("w", suffix=".json", delete=False) as fh:
        json.dump([[0, 1], [0, 2], [1, 1]], fh)
        path = fh.name
    try:
        code, _ = run(capsys, "verify", "zero", "--graph", path, "--b", "1,0")
        assert code == 2
    finally:
        os.unlink(path)


@pytest.mark.parametrize("argv", [
    ("--graph", "fixtures/missing.json", "--b", "3"),
    ("--graph", "fixtures/fig2.json", "--b", "3,2"),
], ids=["missing-file", "b-length"])
def test_verify_zero_bad_input(capsys, argv):
    code = main(["verify", "zero", *argv])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("first", [[0.25, 1.5], [0, True], ["0", 1], [0.0, 1.0]],
                         ids=["fractional", "bool", "string", "float"])
def test_verify_zero_rejects_non_integer_coordinates(capsys, tmp_path, first):
    # fig2.json with its first vertex (0, 1) written another way: nothing
    # but a JSON integer is a coordinate, so none of these truncates to a
    # graph the check then runs on
    with open("fixtures/fig2.json") as fh:
        verts = json.load(fh)
    path = tmp_path / "graph.json"
    path.write_text(json.dumps([first] + verts[1:]))
    code = main(["verify", "zero", "--graph", str(path), "--b", "3"])
    out = capsys.readouterr()
    assert code == 2
    assert out.err.startswith("error: ") and "PASS" not in out.out


@pytest.mark.parametrize("exc", [CollapseError("z2 -> 1"),
                                 InvariantError("broken invariant"),
                                 PrecisionExceeded("coefficient q^3 beyond order 2"),
                                 SearchExhausted("could not find a pole-free evaluation point")],
                         ids=lambda exc: type(exc).__name__)
def test_internal_error_is_not_bad_input(capsys, monkeypatch, exc):
    def fail(*args):
        raise exc
    monkeypatch.setattr(affine_hl, "rhs_table", fail)
    code = main(["affine", "--n", "2", "--a", "1,0", "--qmax", "1"])
    err = capsys.readouterr().err
    assert code == 3
    assert err == f"internal error: {type(exc).__name__}: {exc}\n"


def test_verify_main_small(capsys):
    code, out = run(capsys, "verify", "main", "--n", "2", "--a", "1,0",
                    "--qmax", "2", "--z", "symbolic")
    assert code == 0
    assert "PASS" in out


def test_verify_main_symbolic_n3(capsys):
    # the default --z symbolic at n = 3, inside the affine guard
    code, out = run(capsys, "verify", "main", "--n", "3", "--a", "1,0,0",
                    "--qmax", "2")
    assert code == 0
    assert "PASS" in out


def test_verify_main_redraws_pole_points(capsys):
    # seed 13 first draws z2 = 1, a pole of the degree-0 factor (1 - z2)
    code, out = run(capsys, "verify", "main", "--n", "3", "--a", "1,0,0",
                    "--qmax", "1", "--z", "rand:13")
    assert code == 0
    assert "PASS" in out


def test_verify_graphsum_small(capsys):
    code, out = run(capsys, "verify", "graphsum", "--max-vertices", "5")
    assert code == 0
    assert "degenerations checked" in out


ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def cli_process(*argv, optimize=False):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    flags = ["-O"] if optimize else []
    return [sys.executable, *flags, "-m", "hlbrion.cli", *argv], env


def test_closed_stdout_pipe_is_not_an_identity_failure():
    # 104 kB of output, more than a pipe buffer holds: the writer is still
    # writing when the reader closes its end after one line
    cmd, env = cli_process("affine", "--n", "2", "--a", "2,2", "--qmax", "8")
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=env, cwd=ROOT)
    assert proc.stdout.readline().startswith(b"q^0")
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 141
    assert b"Traceback" not in err


@pytest.mark.parametrize("argv", [
    ("verify", "wbrion", "--count", "3", "--seed", "5"),
    ("verify", "zero", "--graph", "fixtures/fig2.json", "--b", "3"),
    ("verify", "gensingular", "--count", "3", "--seed", "2"),
    ("verify", "contrib", "--n", "2", "--a", "1,1", "--qmax", "1"),
    ("verify", "main", "--n", "3", "--a", "1,0,0", "--qmax", "2",
     "--z", "rand:1", "--trials", "1"),
    pytest.param(("verify", "main", "--n", "3", "--a", "1,0,0", "--qmax", "2"),
                 id="main-symbolic"),
    ("verify", "contribfin", "--n", "3", "--a", "1,1"),
    ("verify", "graphsum", "--max-vertices", "5"),
    ("verify", "tmultinomial", "--n", "3", "--a", "1,0"),
    ("finite", "--n", "3", "--a", "1,1", "--method", "both"),
], ids=lambda argv: argv[1] if argv[0] == "verify" else argv[0])
def test_cli_under_optimize_matches(argv):
    # `python -O` strips asserts: no verify suite may rely on them
    verdict = b"verdict: EQUAL" if argv[0] == "finite" else b"PASS"
    outs = []
    for optimize in (False, True):
        cmd, env = cli_process(*argv, optimize=optimize)
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True,
                              timeout=300)
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    assert outs[0] == outs[1]
    assert outs[0].rstrip().endswith(verdict)
