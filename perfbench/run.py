"""hlbrion benchmark: seeded identity checks, timed end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see workloads.py and BENCHMARK.json): vertex-zero,
brion-polytopes, affine-series, finite-routes.  A case is one identity check.
Every case must return a true verdict, and where its output is deterministic
the output's digest must equal the one in references.json; a fixed set of
CLI commands per workload must reproduce its references byte for byte.

Each measured process is a fresh interpreter (child.py) that runs the
workload's fixed case list: round(--seconds / round time) rounds, about
--seconds of work at the commit that defined the benchmark.

--trace 0 starts nine processes that only set up, then one that sets up,
runs the case list, then the CLI gate.  It reports setup_s (median of the nine
set-ups), cases_per_s (over the whole case list), case_p50_ms, case_tail_ms
(the highest percentile with at least ten cases beyond it) and peak_rss_mb,
and prints failed_ratio in the report; the JSON line carries it as failed /
attempted.  Every time is taken at the host's nominal speed (hostspeed.py);
the report also prints the raw figures.

--trace 1 runs the same untraced process and then a traced one over the same
case list, and reports the per-layer metrics of tracing.py.  Spans are written
to perfbench/out/.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.  The exit code is 0 when every check passed, 1 when a
check failed, 2 when the program cannot be run.  The benchmark's own tests:
python3 -m pytest perfbench
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import hostspeed  # noqa: E402
from tracing import MODULES, PER_LAYER  # noqa: E402

SETUP_SAMPLES = 9
END_TO_END = [("setup_s", "s"), ("cases_per_s", "1/s"), ("case_p50_ms", "ms"),
              ("case_tail_ms", "ms"), ("peak_rss_mb", "MB")]


class ChildFailed(RuntimeError):
    pass


def budget(mode, seconds):
    """Seconds a process may take: a measured one gets room for a program
    several times slower than the one that defined the benchmark."""
    return 60 if mode == "setup" else 30 + 4 * seconds


def spawn(mode, args):
    cmd = [sys.executable, os.path.join(HERE, "child.py"), "--mode", mode,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds),
           "--spawned-at", repr(time.monotonic())]
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=budget(mode, args.seconds))
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"{mode} process exceeded its time budget")
    if proc.returncode != 0:
        raise ChildFailed(f"{mode} process exited with {proc.returncode}:\n"
                          + proc.stderr[-2000:])
    sys.stderr.write(proc.stderr)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail(times):
    """(value, percentile, cases beyond): the highest percentile with at least
    ten cases beyond it; the slowest case when there are eleven or fewer."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, 0
    return ordered[n - 11], 100.0 * (n - 10) / n, 10


def set_up(args):
    """Set-up seconds of one fresh interpreter: measured, and at the
    nominal host speed."""
    before = hostspeed.burst()
    raw = spawn("setup", args)["setup_s"]
    return raw, hostspeed.at_nominal(raw, [before, hostspeed.burst()])


def rate(child):
    return len(child["times"]) / sum(child["times"])


def end_to_end(main, setups):
    times = main["times"]
    value, pct, beyond = tail(times)
    return {
        "setup_s": statistics.median(setups),
        "cases_per_s": rate(main),
        "case_p50_ms": 1000 * statistics.median(times),
        "case_tail_ms": 1000 * value,
        "peak_rss_mb": main["peak_rss_mb"],
    }, (pct, beyond)


def src_lines():
    out = {}
    for m in MODULES:
        with open(os.path.join(ROOT, "src", "hlbrion", m + ".py")) as fh:
            out[f"src.lines.{m}"] = sum(1 for _ in fh)
    return out


def report(args, children, metrics, units, notes):
    attempted = sum(len(c["times"]) for c in children)
    failures = [f for c in children for f in c["failures"]]
    cli_failures = [f for c in children for f in c["cli_failures"]]
    cli_checked = sum(c["cli_checked"] for c in children)
    print(f"hlbrion benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    for c in children:
        print(f"  {c['mode']} process: {c['rounds']} rounds, "
              f"{len(c['times'])} cases in {c['timed_s']:.3f} s; median burst "
              f"{1000 * c['burst_s']:.3f} ms, nominal "
              f"{1000 * hostspeed.NOMINAL_S:.3f} ms")
    for name, value in metrics.items():
        print(f"  {name:40s} {value:14.6g} {units[name]:6s} {notes.get(name, '')}")
    print(f"  {'failed_ratio':40s} {len(failures) / attempted:14.6g} "
          f"{'':6s} {len(failures)} of {attempted} cases failed")
    print(f"  cli gate: {cli_checked - len(cli_failures)} of {cli_checked} "
          "commands byte-identical to the references")
    for f in failures[:20] + cli_failures:
        print("  FAILED", f)
    correct = not failures and not cli_failures
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": len(failures),
                      "metrics": {k: {"value": v, "unit": units[k]}
                                  for k, v in metrics.items()}}))
    return 0 if correct else 1


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["vertex-zero", "brion-polytopes", "affine-series",
                             "finite-routes"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "hlbrion", "__init__.py")):
        print("error: no program source at src/hlbrion next to perfbench/",
              file=sys.stderr)
        return 2
    try:
        if args.trace == 0:
            raw_setups, setups = zip(*(set_up(args)
                                       for _ in range(SETUP_SAMPLES)))
            main_run = dict(spawn("untraced", args), mode="untraced")
            metrics, (pct, beyond) = end_to_end(main_run, setups)
            units = dict(END_TO_END)
            raw_rate = len(main_run["times"]) / main_run["timed_s"]
            notes = {"setup_s": f"median of {len(setups)} fresh interpreters"
                                f" ({statistics.median(raw_setups):.6g} raw)",
                     "cases_per_s": f"({raw_rate:.6g} raw)",
                     "case_tail_ms": f"p{pct:.1f}: {beyond} of "
                                     f"{len(main_run['times'])} cases beyond"}
            return report(args, [main_run], metrics, units, notes)
        main_run = dict(spawn("untraced", args), mode="untraced")
        traced = dict(spawn("traced", args), mode="traced")
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    metrics = dict(traced["layers"])
    metrics.update(src_lines())
    untraced_rate, traced_rate = rate(main_run), rate(traced)
    metrics["trace.cases"] = len(traced["times"])
    metrics["trace.cases_per_s"] = traced_rate
    metrics["trace.untraced_cases_per_s"] = untraced_rate
    metrics["trace.overhead_ratio"] = traced_rate / untraced_rate
    units = {name: unit for name, unit, _, _ in PER_LAYER}
    metrics = {name: metrics[name] for name, _, _, _ in PER_LAYER}
    return report(args, [main_run, traced], metrics, units, {})


if __name__ == "__main__":
    sys.exit(main())
