"""The benchmark's own tests: python3 -m pytest perfbench

They run the benchmark with one-second budgets, so each workload does one
round or a few.
"""

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import hostspeed  # noqa: E402
from run import tail  # noqa: E402
from tracing import PER_LAYER, Tracer  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def bench(*args, root=ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join(root, "perfbench", "run.py"), *args],
        cwd=root, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, (json.loads(lines[-1]) if lines else None)


def copy_of_benchmark(tmp_path, with_program):
    """BENCHMARK.json and perfbench/ in tmp_path, and the program's source
    next to them when `with_program`."""
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    if with_program:
        os.symlink(os.path.join(ROOT, "src"), tmp_path / "src")
    return str(tmp_path)


def tampered_copy(tmp_path, section, prefix):
    root = copy_of_benchmark(tmp_path, with_program=True)
    path = tmp_path / "perfbench" / "references.json"
    refs = json.loads(path.read_text())
    for key in refs[section]:
        if key.startswith(prefix):
            refs[section][key] = "0" * 16
    path.write_text(json.dumps(refs))
    return root


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_traced_run_emits_every_layer_metric_and_fires_its_spans(workload):
    code, out = bench("--workload", workload, "--seed", "1", "--seconds", "1",
                      "--trace", "1")
    assert code == 0 and out["correct"] and out["failed"] == 0
    metrics = {k: v["value"] for k, v in out["metrics"].items()}
    assert list(metrics) == [m["name"] for m in SPEC["per_layer"]]
    silent = [name for name, _, _, wls in PER_LAYER
              if workload in wls and not metrics[name] > 0]
    assert silent == []
    # the named self times cover exactly the time spent inside top-level
    # spans of the timed phase; the rest of it is the unattributed remainder
    with open(os.path.join(HERE, "out", f"trace-{workload}-1.json")) as fh:
        spans = json.load(fh)["spans"]
    in_spans = sum(end - start for _, start, end, parent, case, _, _ in spans
                   if parent == -1 and case is not None)
    assert metrics["trace.unattributed_s"] >= 0
    assert metrics["trace.unattributed_s"] == pytest.approx(
        metrics["trace.timed_s"] - in_spans, abs=1e-9)


def test_untraced_run_emits_every_end_to_end_metric():
    code, out = bench("--workload", "finite-routes", "--seed", "2",
                      "--seconds", "1", "--trace", "0")
    assert code == 0 and out["correct"] and out["failed"] == 0
    assert out["attempted"] >= 11
    assert list(out["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    assert all(v["value"] > 0 for v in out["metrics"].values())


def test_tampered_case_digest_makes_cases_fail(tmp_path):
    root = tampered_copy(tmp_path, "cases", "finite:")
    code, out = bench("--workload", "finite-routes", "--seed", "2",
                      "--seconds", "1", "--trace", "0", root=root)
    assert code == 1 and not out["correct"]
    assert out["failed"] / out["attempted"] > 0


def test_tampered_cli_digest_fails_the_gate(tmp_path):
    root = tampered_copy(tmp_path, "cli", "finite ")
    code, out = bench("--workload", "finite-routes", "--seed", "2",
                      "--seconds", "1", "--trace", "0", root=root)
    assert code == 1 and not out["correct"]


def test_without_the_program_it_fails_without_a_result(tmp_path):
    root = copy_of_benchmark(tmp_path, with_program=False)
    code, out = bench("--workload", "finite-routes", "--seed", "1",
                      "--seconds", "1", "--trace", "0", root=root)
    assert code != 0 and out is None


def test_tail_is_the_highest_percentile_with_ten_cases_beyond():
    assert tail([float(i) for i in range(100)]) == (89.0, 90.0, 10)
    assert tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)


def test_times_are_scaled_by_the_host_speed_around_them():
    nominal = hostspeed.NOMINAL_S
    assert hostspeed.at_nominal(0.5, [nominal]) == pytest.approx(0.5)
    # the host ran at half speed: the bursts took twice as long
    assert hostspeed.at_nominal(0.5, [2 * nominal, 2 * nominal]) == \
        pytest.approx(0.5 / 2 ** hostspeed.SENSITIVITY)
    # one burst that a neighbour's spike slowed does not set the speed
    assert hostspeed.at_nominal(0.5, [nominal, 9 * nominal, nominal]) == \
        pytest.approx(0.5)
    assert hostspeed.burst() > 0


def test_self_time_excludes_child_spans():
    tracer = Tracer()
    inner = tracer.wrap("ring.random_point", lambda: time.sleep(0.02))
    outer = tracer.wrap("graphs.psi_is_zero",
                        lambda: (time.sleep(0.01), inner()))
    outer()                     # set-up span: not in the timed metrics
    tracer.case = 0
    outer()
    layers = tracer.aggregate(timed_s=0.05)
    assert 0.01 <= layers["graphs.psi_is_zero.self_s"] < 0.02
    assert 0.02 <= layers["ring.random_point.self_s"] < 0.03
    _, start, end, *_ = tracer.spans[-2]    # the timed outer call
    assert layers["trace.unattributed_s"] == pytest.approx(0.05 - (end - start))
