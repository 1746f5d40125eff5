"""Recompute references.json from the program as it stands.

    python3 perfbench/make_references.py

The references hold the digest of every deterministic case output and of
every gated CLI command's exit code, stdout and stderr.  Regenerate them only
for a change that is meant to alter exact output, and say so in its log: the
benchmark exists to catch output that changes by accident.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads  # noqa: E402


def main():
    cases = {}
    for key, check in sorted(workloads.reference_inputs().items()):
        ok, text = check()
        if ok is not True:
            sys.exit(f"{key}: the identity check fails; no reference written")
        cases[key] = workloads.digest(text)
    cli = {}
    for wl in workloads.WORKLOADS.values():
        for argv in wl.cli:
            cli[workloads.cli_key(argv)] = workloads.digest(
                workloads.cli_output(argv))
    with open(os.path.join(HERE, "references.json"), "w") as fh:
        json.dump({"cases": cases, "cli": cli}, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
