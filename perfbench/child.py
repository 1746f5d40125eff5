"""One measured process: import the program, set up a workload, run it.

run.py starts a fresh interpreter for every measurement, so the program's
module-level caches start empty, as they do for each CLI invocation.  The
process prints one JSON line on stdout.

Modes:
  setup     import, build the inputs, report the set-up time and exit;
  untraced  also run the timed phase, then the CLI gate;
  traced    install the spans first, then run the timed phase.

The timed phase runs a fixed case list: round(--seconds / round_s) rounds,
which take about --seconds at the commit that defined the benchmark.  A
fixed list keeps the rank of the tail percentile, the case mix and the
per-layer counts the same for a faster or slower version of the program.
Every round is built during set-up, so the timed phase runs program work
only, and short bursts of fixed work between cases that measure the host's
speed; each case's time is reported at the nominal speed (hostspeed.py).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import hostspeed  # noqa: E402

REFERENCES = os.path.join(HERE, "references.json")
# the tail percentile needs at least eleven cases
MIN_CASES = 11


def case_list(wl, state, rounds):
    """At least `rounds` rounds of cases, and at least MIN_CASES cases."""
    cases, r = [], 0
    while r < rounds or len(cases) < MIN_CASES:
        cases += wl.round(state, r)
        r += 1
    return cases, r


def timed_phase(cases, refs, digest, tracer=None):
    """Run the cases; return their raw seconds, the same at the nominal host
    speed (hostspeed.py), the failures and the burst times."""
    clock = time.perf_counter
    raw, segment, bursts, failures = [], [], [hostspeed.burst()], []
    since_burst = 0.0
    for case in cases:
        if since_burst >= hostspeed.EVERY_S:
            bursts.append(hostspeed.burst())
            since_burst = 0.0
        segment.append(len(bursts) - 1)
        if tracer is not None:
            tracer.case = len(raw)
        t0 = clock()
        try:
            ok, text = case.run()
        except Exception as exc:  # a case that raises counts as failed
            traceback.print_exc()
            why = f"{type(exc).__name__}: {exc}"
        else:
            why = None
            if ok is not True:
                why = "false verdict"
            elif case.ref is not None and digest(text) != refs.get(case.ref):
                why = f"output digest differs from reference {case.ref}"
        raw.append(clock() - t0)
        since_burst += raw[-1]
        if why is not None:
            failures.append(f"{case.label}: {why}")
    bursts.append(hostspeed.burst())
    # cases of segment k ran between bursts k and k + 1
    near = hostspeed.NEAREST
    times = [hostspeed.at_nominal(t, bursts[max(0, k + 1 - near):k + 1 + near])
             for t, k in zip(raw, segment)]
    return raw, times, failures, bursts


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--mode", choices=["setup", "untraced", "traced"],
                    required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--spawned-at", type=float, required=True,
                    help="time.monotonic() when run.py started this process")
    args = ap.parse_args(argv)

    tracer = None
    import workloads
    if args.mode == "traced":
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
    wl = workloads.WORKLOADS[args.workload]
    state = wl.setup(args.seed)
    cases, rounds = case_list(wl, state,
                              max(1, round(args.seconds / wl.round_s)))
    setup_s = time.monotonic() - args.spawned_at
    result = {"setup_s": setup_s}
    if args.mode == "setup":
        print(json.dumps(result))
        return 0

    with open(REFERENCES) as fh:
        refs = json.load(fh)
    raw, times, failures, bursts = timed_phase(cases, refs["cases"],
                                               workloads.digest, tracer)
    # ru_maxrss is in KiB on Linux; read it before the CLI gate runs
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result.update(timed_s=sum(raw), burst_s=statistics.median(bursts),
                  rounds=rounds, times=times,
                  failures=failures, peak_rss_mb=rss_mb, cli_checked=0,
                  cli_failures=[])
    if tracer is not None:
        result["layers"] = tracer.aggregate(sum(raw))
        out_dir = os.path.join(HERE, "out")
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, f"trace-{args.workload}-{args.seed}.json")
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "case",
                                  "metric", "value"],
                       "spans": tracer.spans}, fh)
    else:
        for argv_cli in wl.cli:
            key = workloads.cli_key(argv_cli)
            result["cli_checked"] += 1
            try:
                text = workloads.cli_output(argv_cli)
            except Exception as exc:  # an internal error fails the gate
                traceback.print_exc()
                result["cli_failures"].append(f"{key}: {type(exc).__name__}")
                continue
            if workloads.digest(text) != refs["cli"].get(key):
                result["cli_failures"].append(f"{key}: output differs")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
