"""The surface of the CLI: the options each `verify` check takes, its size
guards, and the benchmark's gate commands replayed against their digests."""

import argparse
import importlib.util
import json
import os

import pytest

from hlbrion import cli, graphs

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# the options of each check, as the parser must declare them
OPTIONS = {
    "wbrion": {"--count", "--trials", "--seed"},
    "zero": {"--graph", "--b", "--trials", "--seed", "--unsafe-limits"},
    "gensingular": {"--count", "--trials", "--seed"},
    "graphsum": {"--max-vertices", "--seed", "--unsafe-limits"},
    "tmultinomial": {"--n", "--a", "--seed", "--unsafe-limits"},
    "contribfin": {"--n", "--a", "--trials", "--seed"},
    "main": {"--n", "--a", "--qmax", "--z", "--trials", "--seed",
             "--unsafe-limits"},
    "contrib": {"--n", "--a", "--qmax", "--trials", "--seed",
                "--unsafe-limits"},
}

# the defaults every check shared before each took only its own options
DEFAULTS = {"n": 2, "a": "1,0", "qmax": 3, "z": "symbolic", "trials": 3,
            "seed": 0, "count": 5, "max_vertices": 6, "graph": None,
            "b": "1,0", "unsafe_limits": False}

# the smallest run of each check
SMALL = {
    "wbrion": ["--count", "1", "--trials", "1"],
    "zero": ["--graph", "fixtures/fig2.json", "--b", "3", "--trials", "1"],
    "gensingular": ["--count", "1", "--trials", "1"],
    "graphsum": ["--max-vertices", "3"],
    "tmultinomial": ["--n", "3", "--a", "1,0"],
    "contribfin": ["--n", "3", "--a", "1,1", "--trials", "1"],
    "main": ["--n", "2", "--a", "1,0", "--qmax", "1"],
    "contrib": ["--n", "2", "--a", "1,1", "--qmax", "1", "--trials", "1"],
}


def _dests(which):
    return {o[2:].replace("-", "_") for o in OPTIONS[which]}


def test_each_check_declares_its_options_with_the_shared_defaults():
    assert list(cli.VERIFY_CHECKS) == list(OPTIONS)
    assert sum(map(len, OPTIONS.values())) == 35
    parser = cli.build_parser()
    for which in OPTIONS:
        args = vars(parser.parse_args(["verify", which]))
        assert args.keys() - {"command", "which", "func"} == _dests(which)
        assert {d: args[d] for d in _dests(which)} == \
            {d: DEFAULTS[d] for d in _dests(which)}, which


@pytest.mark.parametrize("which", list(SMALL))
def test_each_check_reads_every_option_it_declares(capsys, which):
    # the branch of cmd_verify reads each declared option, and no other
    read = set()

    class Recording(argparse.Namespace):
        def __getattribute__(self, name):
            value = super().__getattribute__(name)
            read.add(name)
            return value

    args = cli.build_parser().parse_args(["verify", which, *SMALL[which]],
                                         namespace=Recording())
    declared = vars(args).keys() - {"command", "which", "func"}
    read.clear()
    assert cli.cmd_verify(args) == 0
    assert capsys.readouterr().out.rstrip().endswith("PASS")
    assert read - {"which"} == declared


@pytest.mark.parametrize("argv", [
    ("wbrion", "--count", "1", "--n", "5"),
    ("zero", "--graph", "fixtures/fig2.json", "--b", "3", "--qmax", "2"),
    ("gensingular", "--count", "1", "--n", "3"),
    ("graphsum", "--max-vertices", "3", "--trials", "2"),
    ("tmultinomial", "--n", "3", "--a", "1,0", "--trials", "2"),
    ("contribfin", "--n", "3", "--a", "1,1", "--z", "rand:5"),
    ("main", "--n", "2", "--a", "1,0", "--qmax", "1", "--count", "2"),
    ("contrib", "--n", "2", "--a", "1,1", "--qmax", "1", "--z", "rand:5"),
], ids=lambda argv: argv[0])
def test_a_check_refuses_an_option_it_does_not_read(capsys, argv):
    # each of these ran and printed PASS while the option had no effect
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", *argv])
    out = capsys.readouterr()
    assert exc.value.code == 2 and out.out == ""
    assert f"unrecognized arguments: {argv[-2]} {argv[-1]}" in out.err


def test_tmultinomial_guard_is_bad_input(capsys, monkeypatch):
    # n = 5 with five parts takes seconds; n = 6 did not finish in minutes,
    # so here the check fails at once where the guard lets it start
    def started(*args):
        raise RuntimeError("the check started")

    monkeypatch.setattr(graphs, "verify_face_euler_sum", started)
    code = cli.main(["verify", "tmultinomial", "--n", "6",
                     "--a", "1,1,1,1,1"])
    out = capsys.readouterr()
    assert code == 2 and out.out == ""
    assert out.err == ("error: n=6 beyond the tmultinomial guard "
                       "(override with --unsafe-limits)\n")


def _workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", os.path.join(ROOT, "perfbench", "workloads.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_cli_gates_reproduce_their_references():
    # the benchmark compares each gate command's exit code, stdout and
    # stderr with a digest; a drift shows here before it fails a run
    workloads = _workloads()
    with open(os.path.join(ROOT, "perfbench", "references.json")) as fh:
        refs = json.load(fh)["cli"]
    got = {workloads.cli_key(argv): workloads.digest(workloads.cli_output(argv))
           for wl in workloads.WORKLOADS.values() for argv in wl.cli}
    assert len(got) == 18
    assert got == refs
