#!/usr/bin/env python3
"""valgeo benchmark: seeded CLI workloads, end-to-end and per-layer metrics.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload cli-exact --seed 1 --seconds 30 --trace 0

One client in one process and one thread drives ``valgeo.cli.main(argv)``
in a closed loop, with stdout captured; one request is one CLI command.
``VALGEO_THREADS`` is pinned to 1.  The program is imported from ``src/`` of
the checkout, never from an installed copy.

``--trace 0`` runs whole rounds until ``--seconds`` of timed wall time have
passed and at least 100 requests are done, and reports the end-to-end
metrics.  ``--trace
1`` replays a fixed number of rounds, each once untraced and once with the
span recorder installed, and reports per-layer metrics and the tracing
overhead; a fixed amount of work makes its counts repeat exactly for a seed.
Every output is checked (see checks.py); the last line of stdout is one
JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

import workloads  # noqa: E402  (benchmark-local module next to this file)

MIN_REQUESTS = 100
SETUP_REPEATS = 3
SETUP_ROUNDS = 2
TRACE_ROUNDS = {"cli-exact": 3, "cli-float": 8, "check-exact": 12}
REFERENCE_SEEDS = (1, 2)

def _per_layer():
    """name -> (unit, better) of the per-layer metrics in BENCHMARK.json.

    Every group reports calls and errors.  Self time is listed only for the
    groups that run on all three workloads, and per layer, so that no listed
    time reads 0 on some workload; the report printed above the JSON line
    has the self time of every group.
    """
    groups = {
        "geometry": ("convex_hull", "cut", "transform", "face_lattice", "triangulation",
                     "volume", "membership"),
        "slicing": ("section_profile", "dd_poly", "moment_exact", "dd_fraction",
                    "measure_transform", "moment_float", "simplex_moment", "dd_mpf",
                    "quadrature"),
        "valuations": ("euler_op", "classified_evaluate", "supp_compose", "body"),
        "harness": ("run_suite", "oracle", "rand_polytope"),
        "cli": ("main",),
    }
    out = {}
    for layer, names in groups.items():
        for name in names:
            if name not in ("face_lattice", "triangulation"):
                out[f"{layer}.{name}.calls"] = ("count", "lower")
            out[f"{layer}.{name}.errors"] = ("count", "lower")
    out.update({
        "geometry.convex_hull.points_in": ("count", "lower"),
        "geometry.convex_hull.distinct_ratio": ("ratio", "higher"),
        "geometry.face_lattice.requests": ("count", "lower"),
        "geometry.face_lattice.builds": ("count", "lower"),
        "geometry.face_lattice.hit_ratio": ("ratio", "higher"),
        "geometry.face_lattice.faces": ("count", "lower"),
        "geometry.triangulation.requests": ("count", "lower"),
        "geometry.triangulation.builds": ("count", "lower"),
        "geometry.triangulation.simplices": ("count", "lower"),
        "slicing.section_profile.pieces": ("count", "lower"),
        "harness.checks": ("count", "higher"),
        "harness.rand_polytope.attempts_ratio": ("ratio", "higher"),
        "cli.main.output_bytes": ("bytes", "lower"),
        "trace.overhead_ratio": ("ratio", "lower"),
    })
    for name in ("geometry.convex_hull", "geometry.face_lattice", "geometry.triangulation",
                 "slicing.section_profile", "slicing.dd_poly", "cli.main",
                 "geometry", "slicing", "valuations"):
        out[f"{name}.self_s"] = ("s", "lower")
    return out


PER_LAYER = _per_layer()

END_TO_END = {
    "setup_s": "s",
    "requests_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


def import_program():
    """Import valgeo.cli from this checkout's src/; exit 1 if it is absent."""
    if not (SRC / "valgeo" / "__init__.py").is_file():
        sys.exit(f"error: no valgeo sources under {SRC}; run from a source checkout")
    os.environ["VALGEO_THREADS"] = "1"
    sys.path.insert(0, str(SRC))
    import valgeo.cli as cli
    if Path(cli.__file__).resolve().parents[1] != SRC.resolve():
        sys.exit(f"error: imported valgeo from {cli.__file__}, not from {SRC}")
    return cli


def execute(cli, argv: list[str]):
    """Run one CLI command; returns (exit code or error text, stdout)."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # a failing request is counted, not fatal
        code = f"{type(exc).__name__}: {exc}"
    return code, out.getvalue()


class Session:
    """Set-up state: the imported program, the work directory, the rounds."""

    def __init__(self, workload: str, seed: int):
        self.workload, self.seed = workload, seed
        started = time.perf_counter()
        self.cli = import_program()
        self.work = HERE / "_work" / str(os.getpid())
        self.work.mkdir(parents=True, exist_ok=True)
        self.rounds: list[list[workloads.Request]] = []
        for r in range(SETUP_ROUNDS):
            self.round(r)
        for argv in workloads.warmup_requests(workload, self.work):
            code, _ = execute(self.cli, argv)
            if code != 0:
                sys.exit(f"error: warm-up request {argv[0]} failed: {code}")
        self.setup_s = time.perf_counter() - started

    def round(self, r: int) -> list[workloads.Request]:
        while len(self.rounds) <= r:
            self.rounds.append(workloads.make_round(
                self.workload, self.seed, len(self.rounds), self.work))
        return self.rounds[r]

    def close(self):
        shutil.rmtree(self.work, ignore_errors=True)


def play(session: Session, rounds, recorder=None):
    """Run whole rounds; returns (wall seconds, [(request, code, stdout, seconds)])."""
    results, wall = [], 0.0
    for r in rounds:
        requests = session.round(r)
        started = time.perf_counter()
        for req in requests:
            if recorder is not None:
                recorder.request = req.index
            t0 = time.perf_counter()
            code, text = execute(session.cli, req.argv)
            results.append((req, code, text, time.perf_counter() - t0))
            if recorder is not None:
                recorder.add_output(len(text))
        wall += time.perf_counter() - started
    return wall, results


def measure(session: Session, seconds: float):
    """Whole rounds until `seconds` of timed wall time and MIN_REQUESTS are
    done; returns (timed wall seconds, results)."""
    results, wall, r = [], 0.0, 0
    while wall < seconds or len(results) < MIN_REQUESTS:
        round_wall, res = play(session, [r])
        wall += round_wall
        results += res
        r += 1
    return wall, results


def other_setups(workload: str, seed: int) -> list[float]:
    """Cold set-up times of fresh processes doing the same set-up."""
    out = []
    for _ in range(SETUP_REPEATS - 1):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-only",
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=150)
        if proc.returncode != 0:
            sys.exit(f"error: set-up subprocess failed: {proc.stderr.strip()}")
        out.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])
    return out


def load_references(workload: str, seed: int) -> dict:
    if seed not in REFERENCE_SEEDS:
        return {}
    path = HERE / "references" / f"{workload}-seed{seed}.json"
    return {int(k): v for k, v in json.loads(path.read_text())["requests"].items()}


def check_all(results, refs: dict):
    """Check every output; returns the number of failed requests."""
    import checks
    failed = 0
    for req, code, text, _ in results:
        problems = checks.check_request(req, code, text, refs.get(req.index))
        if problems:
            failed += 1
            if failed <= 5:
                print(f"FAILED request {req.index} ({req.kind}): {'; '.join(problems)}",
                      file=sys.stderr)
    return failed


def run_timed(args, session: Session, refs: dict):
    """End-to-end metrics; returns (results, failed, metrics)."""
    setups = [session.setup_s] + other_setups(args.workload, args.seed)
    wall, results = measure(session, args.seconds)
    # read before checking, which loads the checker's own modules
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    failed = check_all(results, refs)
    lat = [r[3] for r in results]
    n = len(lat)
    values = {
        "setup_s": statistics.median(setups),
        "requests_per_s": (n - failed) / wall,
        "latency_p50_ms": statistics.median(lat) * 1000,
        "latency_p90_ms": statistics.quantiles(lat, n=10)[8] * 1000,
        "peak_rss_mb": rss_mb,
    }
    beyond = sum(x * 1000 > values["latency_p90_ms"] for x in lat)
    print(f"workload {args.workload}, seed {args.seed}: {n} requests in "
          f"{n // workloads.round_size(args.workload)} rounds, {wall:.2f} s timed")
    print(f"  setup_s        {values['setup_s']:.4f} s  (median of "
          f"{', '.join(f'{s:.4f}' for s in setups)})")
    print(f"  requests_per_s {values['requests_per_s']:.4f} 1/s")
    print(f"  latency_p50_ms {values['latency_p50_ms']:.3f} ms  ({n} samples)")
    print(f"  latency_p90_ms {values['latency_p90_ms']:.3f} ms  ({n} samples, "
          f"{beyond} beyond)")
    print(f"  failed_frac    {failed / n:.4f}  ({failed} of {n} requests)")
    print(f"  peak_rss_mb    {values['peak_rss_mb']:.1f} MB")
    return results, failed, {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}


def run_traced(args, session: Session, refs: dict):
    """Per-layer metrics and tracing overhead; returns (results, failed, metrics)."""
    import tracing
    recorder = tracing.Recorder()
    plain_wall = traced_wall = 0.0
    plain, traced = [], []
    # each round untraced and traced, alternating which goes first, so drift
    # of the host's speed over the run does not bias the overhead ratio
    for r in range(TRACE_ROUNDS[args.workload]):
        for with_trace in ((False, True) if r % 2 == 0 else (True, False)):
            if not with_trace:
                wall, res = play(session, [r])
                plain_wall += wall
                plain += res
                continue
            recorder.install()
            try:
                wall, res = play(session, [r], recorder)
            finally:
                recorder.uninstall()
            traced_wall += wall
            traced += res
    out_dir = HERE / "_out"
    out_dir.mkdir(exist_ok=True)
    recorder.write(out_dir / f"spans-{args.workload}.jsonl.gz")
    results = plain + traced
    failed = check_all(results, refs)
    values = recorder.metrics()
    values["trace.overhead_ratio"] = traced_wall / plain_wall
    print(f"workload {args.workload}, seed {args.seed}: traced {len(traced)} requests; "
          f"untraced {plain_wall:.3f} s, traced {traced_wall:.3f} s, "
          f"overhead x{values['trace.overhead_ratio']:.3f}")
    for name in sorted(values):
        print(f"  {name:45s} {values[name]}")
    return results, failed, {k: {"value": values[k], "unit": unit}
                             for k, (unit, _) in PER_LAYER.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="set up, print the set-up time as JSON and exit")
    args = ap.parse_args(argv)

    session = Session(args.workload, args.seed)
    try:
        if args.setup_only:
            print(json.dumps({"setup_s": session.setup_s}))
            return 0
        refs = load_references(args.workload, args.seed)
        runner = run_traced if args.trace else run_timed
        results, failed, metrics = runner(args, session, refs)
        print(json.dumps({"correct": failed == 0, "attempted": len(results),
                          "failed": failed, "metrics": metrics}))
        return 0
    finally:
        session.close()


if __name__ == "__main__":
    sys.exit(main())
