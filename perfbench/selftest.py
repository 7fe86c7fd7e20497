#!/usr/bin/env python3
"""Self-test of the benchmark's output checks.

    python3 perfbench/selftest.py

Replays round 0 of cli-exact and cli-float at the default seed, confirms
that every output passes, then corrupts an exact field, a float value and a
float error column, and confirms that each corrupted request is counted as
failed, so it shows in the failed fraction.  It also confirms that
BENCHMARK.json names exactly the metrics run.py reports.  Exits 1 on the
first broken expectation.
"""

from __future__ import annotations

import json
import sys

import run

SEED = run.REFERENCE_SEEDS[0]


def expect(condition: bool, message: str):
    if not condition:
        sys.exit(f"selftest FAILED: {message}")
    print(f"ok: {message}")


def replay(workload: str):
    session = run.Session(workload, SEED)
    try:
        _, results = run.play(session, [0])
    finally:
        session.close()
    return results, run.load_references(workload, SEED)


def corrupt(results, kind_prefix: str, edit):
    """Results with the first output of the given kind passed through edit."""
    out, done = [], False
    for req, code, text, seconds in results:
        if not done and req.kind.startswith(kind_prefix):
            text, done = edit(text), True
        out.append((req, code, text, seconds))
    expect(done, f"round 0 has a {kind_prefix} request")
    return out


def bump_last_digit(text: str) -> str:
    """Change the last digit of the first data row's value, an exact p/q.

    Moment rows end with (value, error); the error is empty on exact rows.
    """
    lines = text.splitlines()
    cells = lines[1].split(",")
    cells[-2] = cells[-2][:-1] + str((int(cells[-2][-1]) + 1) % 10)
    lines[1] = ",".join(cells)
    return "\n".join(lines) + "\n"


def edit_float(column: int, change):
    """Apply change to one float cell of the first data row."""
    def edit(text: str) -> str:
        lines = text.splitlines()
        cells = lines[1].split(",")
        cells[column] = repr(change(float(cells[-2]), float(cells[column])))
        lines[1] = ",".join(cells)
        return "\n".join(lines) + "\n"
    return edit


def main() -> int:
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    expect(declared == run.END_TO_END, "BENCHMARK.json end_to_end matches run.py")
    declared = {m["name"]: m["unit"] for m in bench["per_layer"]}
    expect(declared == {k: u for k, (u, _) in run.PER_LAYER.items()},
           "BENCHMARK.json per_layer matches run.py")

    exact, exact_refs = replay("cli-exact")
    expect(run.check_all(exact, exact_refs) == 0, "cli-exact round 0 passes")
    float_, float_refs = replay("cli-float")
    expect(run.check_all(float_, float_refs) == 0, "cli-float round 0 passes")

    bad_exact = corrupt(exact, "moment-poly", bump_last_digit)
    expect(run.check_all(bad_exact, {}) == 1,
           "a corrupted exact moment fails the invariant check at any seed")
    expect(run.check_all(bad_exact, exact_refs) == 1,
           "a corrupted exact moment fails against the reference")

    # moment rows end with (value, error); tolerance 1e-6 for |t|^p
    bad_float = corrupt(float_, "moment-abs_power",
                        edit_float(-2, lambda value, cell: cell * (1 + 1e-4)))
    expect(run.check_all(bad_float, float_refs) == 1,
           "a float value 1e-4 off fails the 1e-6 reference tolerance")
    bad_error = corrupt(float_, "moment-abs_power",
                        edit_float(-1, lambda value, cell: abs(value) * 1e-4))
    expect(run.check_all(bad_error, {}) == 1,
           "an error column of 1e-4 relative fails the 1e-6 tolerance at any seed")

    failed = run.check_all(bad_exact, exact_refs) + run.check_all(bad_float, float_refs)
    attempted = len(bad_exact) + len(bad_float)
    expect(failed == 2, f"both corruptions count in failed_frac = {failed}/{attempted}")
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
