"""Tests of the benchmark itself: seeded inputs, recorded answers, tracing.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import expected
import reference as ref
import run
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def cli():
    return run.import_revfree()


def argvs(workload: workloads.Workload) -> str:
    jobs = workload.jobs + workload.warmup + workload.ladder + (workload.probe,) * bool(workload.probe)
    return json.dumps([job.argv for job in jobs])


def words(workload: workloads.Workload) -> list[str]:
    return [job.argv[job.argv.index("--word") + 1] for job in workload.jobs if "--word" in job.argv]


@pytest.mark.parametrize("name", workloads.NAMES)
def test_same_seed_gives_identical_argv(name, tmp_path):
    assert argvs(workloads.make(name, 7, tmp_path)) == argvs(workloads.make(name, 7, tmp_path))


def test_other_seed_moves_windows_and_inserted_squares(tmp_path):
    one = words(workloads.make("check-long", 1, tmp_path))
    two = words(workloads.make("check-long", 2, tmp_path))
    assert all(a != b for a, b in zip(one, two))
    squares = [ref.first_square(w[1])[1] for w in (one, two)]
    assert squares[0] != squares[1]


def test_inserted_square_adds_no_window():
    w = ref.t6_stream(3_000)
    squared = ref.insert_square(w, 1_234, 6)
    assert ref.first_square(squared) is not None
    assert ref.windows(squared, 6) == ref.windows(w, 6)


@pytest.mark.parametrize("name", workloads.NAMES)
def test_counts_repeat_across_traced_runs(name, tmp_path):
    counts = []
    for _ in range(2):
        runner = run.Runner()
        runner.cli = run.import_revfree()
        workload = workloads.make(name, 3, tmp_path)
        workloads.write_files(workload)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            run.run_pass(runner, workload.jobs, tracer)
        finally:
            tracer.uninstall()
        assert runner.failures == []
        counts.append({n: tracer.counts[n] for n in tracing.COUNTS})
    assert counts[0] == counts[1]
    assert any(counts[0].values())
    search = sys.modules["revfree.search"]
    assert sys.modules["revfree.cli"].enumerate_valid is search.enumerate_valid
    assert not hasattr(search.enumerate_valid, "__wrapped__")


def test_tracer_sees_calls_bound_by_from_import(tmp_path):
    runner = run.Runner()
    runner.cli = run.import_revfree()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        run.run_pass(runner, workloads.make("paper", 1, tmp_path).jobs, tracer)
    finally:
        tracer.uninstall()
    layers = tracer.layer_metrics()
    assert all(layers[f"verification.t{i}_s"] > 0 for i in range(1, 9))
    assert layers["search.max_valid_length.nodes"] == 2945 + 71  # T7's tree and T3's three
    assert layers["search.enumerate_valid.words"] == 6 + 32 + 32  # T1 seeds, T5 at 9 and 15
    assert layers["avoidance.is_valid.calls"] > 0


def test_recorded_enumerations_match_reference():
    for query in expected.ENUM_WIDE_JOBS + ((2, 6, False, 20), (2, 6, False, 21)):
        count, digest = expected.ENUMERATE[query]
        found = ref.enumerate_valid(*query)
        assert (len(found), workloads.digest(found)) == (count, digest)


def test_recorded_search_witnesses_match_reference():
    all_max = ref.enumerate_valid(4, 2, True, 20)
    assert expected.SEARCH[(4, 2, True, 64, False)][2:5:2] == (len(all_max), workloads.digest(all_max))
    assert ref.enumerate_valid(4, 2, True, 21) == []


def test_reference_streams_match_revfree(cli):
    words_mod = sys.modules["revfree.words"]
    morphisms = sys.modules["revfree.morphisms"]
    cases = (
        (ref.t8_stream, ref.T8_IMAGES, "thue-squarefree-ternary"),
        (ref.t2_stream, ref.T2_IMAGES, "nonperiodic-binary"),
        (ref.t6_stream, ref.T6_IMAGES, "nonperiodic-binary"),
    )
    for stream, images, inner in cases:
        spec = words_mod.MorphicImage(morphisms.Morphism.from_strings(images), words_mod.Builtin(inner))
        assert str(words_mod.stream_prefix(spec, 2_000)) == stream(2_000)


def test_reference_conflicts_agree_with_revfree(cli):
    avoidance = sys.modules["revfree.avoidance"]
    word_cls = sys.modules["revfree.words"].Word
    rng = random.Random(0)
    for _ in range(300):
        s, k = rng.choice(((2, 3), (3, 2), (4, 2), (5, 2)))
        w = "".join(str(rng.randrange(s)) for _ in range(rng.randrange(1, 30)))
        got = avoidance.find_conflict(word_cls.parse(w, s), avoidance.AvoidanceQuery(k, True))
        conflict, square = ref.first_reversal_conflict(w, k), ref.first_square(w)
        if conflict is not None:
            assert (str(got.x), got.position_x, got.position_xr) == conflict
        elif square is not None:
            assert (str(got.x), got.position) == square
        else:
            assert got is None


class _Crashing:
    @staticmethod
    def main(argv):
        raise RuntimeError("boom")


class _Lying:
    @staticmethod
    def main(argv):
        print(json.dumps({"word": "0", "valid": True}))
        return 0


def test_failures_are_counted_not_fatal(tmp_path):
    workload = workloads.make("check-long", 1, tmp_path)
    runner = run.Runner()
    for fake in (_Crashing, _Lying):
        runner.cli = fake
        run.run_pass(runner, workload.jobs[:3])
    assert runner.attempted == 6
    assert len(runner.failures) == 6
    assert "raised RuntimeError" in runner.failures[0]
    assert "wrong answer" in runner.failures[3]
    assert "exit code 0, expected 1" in runner.failures[4]


def test_frontier_solves_the_fitted_time_for_the_budget():
    points = [(n, 1e-8 * n**2) for n in (1_000, 2_000, 4_000, 8_000)]  # 0.25 s at 5,000
    assert run.frontier(points, 0.25, 100_000) == pytest.approx(5_000)
    assert run.frontier(points[:3], 1.0, 4_000) == 4_000  # the whole ladder fits


def test_benchmark_json_names_what_run_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(workloads.NAMES)
    assert {m["name"] for m in spec["end_to_end"]} == {"wall_s", "frontier_n", "peak_rss_mib", "setup_s"}
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    assert all(len(w["why"]) <= 200 for w in spec["workloads"])
    layers = {*tracing.TIMES, *tracing.COUNTS, "cli.output_bytes", "search.nodes_per_s",
              "trace.overhead_s"}
    assert {m["name"] for m in spec["per_layer"]} == layers


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
