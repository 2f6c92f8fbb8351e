"""Benchmark revfree the way its users drive it: `revfree.cli.main(argv)`.

    python3 perfbench/run.py --workload check-long --seed 1 --seconds 20 --trace 0

One closed-loop caller in one thread runs the workload's job list pass after
pass; each job starts only after the previous one returned, and every answer
is checked.  With --trace 0 the run reports the end-to-end metrics named in
BENCHMARK.json, with --trace 1 the per-layer metrics of a traced run.  The
last line of standard output is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import math
import os
import resource
import statistics
import sys
import time
from pathlib import Path

import tracing
import workloads
from workloads import Job, WrongAnswer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = Path(".perfbench")  # inside the checkout: morphism files, span dumps
SETUPS = 7  # setup_s is the median of this many set-ups
CLIMBS = 5  # frontier_n pools the rung timings of this many ladder climbs
MIN_PASSES = 3


def import_revfree():
    """Import revfree afresh from this checkout's src/, never from elsewhere."""
    for name in [n for n in sys.modules if n.partition(".")[0] == "revfree"]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    cli = importlib.import_module("revfree.cli")
    importlib.import_module("revfree.verification")  # cli imports it lazily
    if Path(cli.__file__).resolve().parent.parent != SRC:
        raise ImportError(f"revfree was imported from {cli.__file__}")
    return cli


class Runner:
    """Runs jobs one at a time and counts the ones that fail."""

    def __init__(self) -> None:
        self.cli = None
        self.attempted = 0
        self.failures: list[str] = []

    def run(self, job: Job) -> tuple[float, int]:
        """Seconds the job took and bytes it printed.  A job fails when it
        raises, exits with another code than expected or answers wrongly."""
        gc.collect()  # start every job from the same heap state
        out = io.StringIO()
        error = None
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out):
                code = self.cli.main(list(job.argv))
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a crashing job is counted, never fatal
            code, error = None, f"raised {type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        self.attempted += 1
        text = out.getvalue()
        if error is None and code != job.exit_code:
            error = f"exit code {code}, expected {job.exit_code}"
        if error is None:
            try:
                job.check(text)
            except (WrongAnswer, ValueError, KeyError, TypeError) as exc:
                error = f"wrong answer: {exc}"
        if error is not None:
            self.failures.append(f"{' '.join(job.argv)[:120]}: {error}")
        return elapsed, len(text)


def run_pass(runner: Runner, jobs: tuple[Job, ...], tracer=None) -> tuple[float, int]:
    """Seconds for one pass over the job list, and the bytes it printed."""
    seconds = 0.0
    printed = 0
    for index, job in enumerate(jobs):
        if tracer is not None:
            tracer.job = index
        elapsed, size = runner.run(job)
        seconds += elapsed
        printed += size
    return seconds, printed


def climb(runner: Runner, ladder: tuple[Job, ...], budget_s: float) -> list[tuple[int, float]]:
    """(size, seconds) of rungs of growing size, up to the first one over the
    budget.  A failed rung (counted by the runner) ends the climb unrecorded."""
    points = []
    for job in ladder:
        failed = len(runner.failures)
        seconds = runner.run(job)[0]
        if len(runner.failures) > failed:
            break
        points.append((job.size, seconds))
        if seconds > budget_s:
            break
    return points


def frontier(points: list[tuple[int, float]], budget_s: float, top: int) -> float:
    """The size at which a job's time reaches the budget.

    Fits log time against log size over every rung timing that took at least
    a third of the budget and solves the fit for the budget.  Pooling all
    climbs of a run keeps single noisy timings from moving the result by a
    whole rung; fitting only rungs near the budget keeps fixed per-job costs
    of the small rungs from flattening the slope.  A program that fits the
    whole ladder gets the top rung.
    """
    fit = [(math.log(n), math.log(t)) for n, t in points if t >= budget_s / 3]
    if len({x for x, _ in fit}) < 2:
        fit = [(math.log(n), math.log(t)) for n, t in points]
    if len({x for x, _ in fit}) < 2:
        return float(max((n for n, _ in points), default=0))
    slope, intercept = statistics.linear_regression(*zip(*fit))
    if slope <= 0:
        return float(max(n for n, _ in points))
    return min(float(top), math.exp((math.log(budget_s) - intercept) / slope))


def measure(workload, runner: Runner, seconds: float) -> dict[str, float]:
    passes = []
    start = time.perf_counter()

    def run_passes(until: float) -> None:
        while len(passes) < MIN_PASSES or time.perf_counter() < until:
            passes.append(run_pass(runner, workload.jobs)[0])

    run_passes(start + seconds / 2)
    # Read before the ladder, whose rungs grow as the program gets faster.
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    # Climbs alternate with passes over the second half, so the frontier
    # samples the host over as long a stretch as the pass times do.
    points = []
    for i in range(1, CLIMBS + 1):
        points += climb(runner, workload.ladder, workload.budget_s)
        run_passes(start + seconds * (1 + i / CLIMBS) / 2)
    print(f"# {len(passes)} passes of {len(workload.jobs)} jobs, {len(points)} rungs in {CLIMBS} climbs")
    return {
        "wall_s": statistics.median(passes),
        "frontier_n": frontier(points, workload.budget_s, workload.ladder[-1].size),
        "peak_rss_mib": peak,
    }


def measure_traced(workload, runner: Runner, seconds: float, dump: Path) -> dict[str, float]:
    """Alternate untraced and traced passes; per-layer values are per pass."""
    tracer = tracing.Tracer()
    plain, traced, layers = [], [], []
    deadline = time.perf_counter() + seconds
    while len(traced) < MIN_PASSES or time.perf_counter() < deadline:
        plain.append(run_pass(runner, workload.jobs)[0])
        tracer.reset()
        tracer.install()
        try:
            elapsed, printed = run_pass(runner, workload.jobs, tracer)
        finally:
            tracer.uninstall()
        traced.append(elapsed)
        layer = tracer.layer_metrics()
        layer["cli.output_bytes"] = printed
        search_s = layer["search.max_valid_length.self_s"]
        nodes = layer["search.max_valid_length.nodes"]
        layer["search.nodes_per_s"] = nodes / search_s if search_s else 0.0
        layers.append(layer)
    print(f"# {len(traced)} traced and {len(plain)} untraced passes of {len(workload.jobs)} jobs")
    origin = tracer.spans[0][1] if tracer.spans else 0.0
    dump.write_text(json.dumps([
        {"name": name, "start": start - origin, "end": end - origin, "parent": parent, "job": job}
        for name, start, end, parent, job in tracer.spans
    ]))
    # Output size varies too: search reports carry their own timings.
    varying = [*tracing.TIMES, "search.nodes_per_s", "cli.output_bytes"]
    out = {name: statistics.median(layer[name] for layer in layers) for name in varying}
    for name in tracing.COUNTS:
        seen = {layer[name] for layer in layers}
        if len(seen) > 1:
            print(f"# {name} differs between passes: {sorted(seen)}")
        out[name] = layers[-1][name]
    out["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    os.chdir(ROOT)
    try:
        spec = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
        # Inputs and expected answers are the benchmark's own work: untimed.
        workload = workloads.make(args.workload, args.seed, WORKDIR)
        runner = Runner()
        setups = []
        for _ in range(SETUPS):
            gc.collect()
            start = time.perf_counter()
            runner.cli = import_revfree()
            WORKDIR.mkdir(exist_ok=True)
            workloads.write_files(workload)
            for job in workload.warmup:
                runner.run(job)
            setups.append(time.perf_counter() - start)
    except (OSError, ImportError, ValueError) as exc:
        print(f"error: cannot set up the benchmark: {exc}", file=sys.stderr)
        return 2

    if args.trace:
        dump = WORKDIR / f"spans-{args.workload}-{args.seed}.json"
        values = measure_traced(workload, runner, args.seconds, dump)
        wanted = spec["per_layer"]
        print(f"# spans of the last traced pass: {dump}")
    else:
        values = measure(workload, runner, args.seconds)
        values["setup_s"] = statistics.median(setups)
        print(f"# set-ups {setups}")
        wanted = spec["end_to_end"]
    if workload.probe is not None:
        probe = Runner()
        probe.cli = runner.cli
        probe.run(workload.probe)
        status = probe.failures[0] if probe.failures else "passes"
        print(f"# known-defect probe (not counted): {status}")

    failed = len(runner.failures)
    for failure in runner.failures[:10]:
        print(f"# FAILED {failure}")
    print(f"# error_rate {failed / runner.attempted} ({failed} of {runner.attempted} jobs)")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    for name, metric in metrics.items():
        print(f"{name} {metric['value']} {metric['unit']}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
