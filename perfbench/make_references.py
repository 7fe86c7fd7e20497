#!/usr/bin/env python3
"""Regenerate the stored reference outputs of the benchmark.

    python3 perfbench/make_references.py [WORKLOAD ...]

For each workload (all of them by default) and each seed in
``run.REFERENCE_SEEDS`` (the default seed and one held-out seed), replays the
first rounds of requests and stores, per request, the SHA-256 of its exact
fields and its float fields.  Rerun only
when the benchmark's inputs change, never to make a changed program pass:
the references pin the outputs of the program as it was when they were made.
Every output must pass the invariant checks before it is stored.
"""

from __future__ import annotations

import json
import sys

import checks
import run
import workloads

# Enough rounds to cover a 20-second run of a program about twice as fast as
# the one the references were made with.
REFERENCE_ROUNDS = {"cli-exact": 16, "cli-float": 40, "check-exact": 60}


def main(names: list[str]) -> int:
    for workload in names or workloads.WORKLOADS:
        for seed in run.REFERENCE_SEEDS:
            session = run.Session(workload, seed)
            try:
                _, results = run.play(session, range(REFERENCE_ROUNDS[workload]))
            finally:
                session.close()
            entries = {}
            for req, code, text, _ in results:
                problems = checks.check_request(req, code, text)
                if problems:
                    sys.exit(f"{workload} seed {seed} request {req.index}: {problems}")
                entries[str(req.index)] = checks.reference_entry(text)
            path = run.HERE / "references" / f"{workload}-seed{seed}.json"
            path.write_text(json.dumps({"workload": workload, "seed": seed,
                                        "rounds": REFERENCE_ROUNDS[workload],
                                        "requests": entries}, indent=0) + "\n")
            print(f"wrote {path.name}: {len(entries)} requests")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
