"""Seeded job lists for the four workloads.

A job is the argv revfree receives, the exit code it must return and a check
of its standard output against the expected answer.  Expected answers come
from `expected.py` (recorded once, cross-checked by the benchmark's tests) or,
for seeded words, from the independent code in `reference.py`.  Witnesses
that the program reports are also verified directly against the word.
`make` builds inputs and answers without running revfree; the input files
are written separately by `write_files`, as part of the timed set-up.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import expected
import reference as ref

NAMES = ("paper", "enum-wide", "search-deep", "check-long")

# Frontier ladders: rungs of growing size, timed against the workload's
# budget.  Check rungs grow by 25% so the climb stays cheap while a faster
# square test (O(n log n) instead of quadratic) still has room.
CHECK_SIZES = tuple(round(500 * 1.25**i) for i in range(24))  # 500 .. 84,703
ENUM_LENGTHS = tuple(range(20, 35))
SEARCH_CAPS = tuple(range(50, 901, 25))  # the recursive DFS needs cap < ~990

MORPHISMS = {"t2": ref.T2_IMAGES, "t6": ref.T6_IMAGES, "t8": ref.T8_IMAGES}


class WrongAnswer(Exception):
    pass


def expect(condition: bool, what: str) -> None:
    if not condition:
        raise WrongAnswer(what)


@dataclass(frozen=True)
class Job:
    argv: tuple[str, ...]
    exit_code: int
    check: Callable[[str], None]
    size: int = 0  # the rung's size, for frontier ladders


@dataclass(frozen=True)
class Workload:
    jobs: tuple[Job, ...]  # one pass, run closed loop
    warmup: tuple[Job, ...]
    ladder: tuple[Job, ...]  # rungs of growing size
    budget_s: float
    probe: Job | None = None  # known-defect probe: reported, never counted
    files: tuple[tuple[Path, str], ...] = ()  # (path, text) the jobs read


def write_files(workload: Workload) -> None:
    for path, text in workload.files:
        path.write_text(text, encoding="utf-8")


def digest(words: list[str]) -> str:
    return hashlib.sha256("\n".join(words).encode()).hexdigest()[:16]


def make(name: str, seed: int, workdir: Path) -> Workload:
    """Generate the workload's inputs and answers from the seed.  Its input
    files are named inside workdir; `write_files` writes them."""
    builders = {
        "paper": _paper,
        "enum-wide": _enum_wide,
        "search-deep": _search_deep,
        "check-long": _check_long,
    }
    return builders[name](random.Random(seed), workdir)


# -- paper --------------------------------------------------------------------


def _check_paper(out: str) -> None:
    report = json.loads(out)
    expect(report["all_passed"] is True, "verify-paper: not all claims pass")
    results = {r["id"]: r for r in report["results"]}
    expect(sorted(results) == sorted(expected.PAPER_EVIDENCE), f"claims {sorted(results)}")
    for claim, evidence in expected.PAPER_EVIDENCE.items():
        expect(results[claim]["status"] == "pass", f"{claim} fails")
        for key, value in evidence.items():
            got = results[claim]["evidence"].get(key)
            expect(got == value, f"{claim} {key}: {got!r} != {value!r}")


def _paper(rng: random.Random, workdir: Path) -> Workload:
    # verify-paper takes no input, so the seed has nothing to vary here.  The
    # ladder is T8's prefix check, its largest part (3,000 symbols there),
    # scaled up.  Its time grows about quadratically, which halves the
    # frontier's noise against a linear ladder (see NOTES.md).
    verify = Job(("verify-paper", "--json"), 0, _check_paper)
    ladder = _check_ladder(ref.t8_stream(CHECK_SIZES[-1]), 5, 2, True, CHECK_SIZES)
    return Workload((verify,), (verify,) + ladder[:2], ladder, budget_s=0.25)


# -- enum-wide ----------------------------------------------------------------


def _enumerate_job(s: int, k: int, squarefree: bool, length: int) -> Job:
    count, words_digest = expected.ENUMERATE[(s, k, squarefree, length)]

    def check(out: str) -> None:
        report = json.loads(out)
        words = report["words"]
        expect(report["count"] == count == len(words), f"count {report['count']} != {count}")
        expect(digest(words) == words_digest, "word list differs from the recorded one")

    argv = ["enumerate", "--json", "-s", str(s), "-k", str(k), "--length", str(length)]
    return Job(tuple(argv + ["--squarefree"] * squarefree), 0, check, size=length)


def _enum_wide(rng: random.Random, workdir: Path) -> Workload:
    jobs = [_enumerate_job(*query) for query in expected.ENUM_WIDE_JOBS]
    rng.shuffle(jobs)
    ladder = tuple(_enumerate_job(2, 6, False, n) for n in ENUM_LENGTHS)
    return Workload(tuple(jobs), ladder[:2], ladder, budget_s=0.25)


# -- search-deep --------------------------------------------------------------


def _search_job(s: int, k: int, squarefree: bool, cap: int, fix_first: bool) -> Job:
    recorded = expected.SEARCH.get((s, k, squarefree, cap, fix_first))

    def check(out: str) -> None:
        report = json.loads(out)
        query = {"alphabet": s, "k": k, "squarefree": squarefree, "cap": cap}
        expect(report["query"] == query, f"query echo {report['query']}")
        if report["outcome"] == "finite":
            found = report["witnesses"]
            length = report["max_length"]
        else:
            expect(report["outcome"] == "exceeds-cap", f"outcome {report['outcome']}")
            found = [report["sample_survivor"]]
            length = cap
        for w in found:
            expect(len(w) == length and ref.is_valid(w, k, squarefree), f"witness {w} invalid")
            expect(set(w) <= set("0123456789"[:s]), f"witness {w} outside the alphabet")
        if recorded is None:  # the probe: only the outcome is known
            expect(report["outcome"] == "exceeds-cap", "probe must exceed the cap")
            return
        outcome, max_length, witnesses, nodes, words_digest = recorded
        expect(report["outcome"] == outcome, f"outcome {report['outcome']} != {outcome}")
        expect(length == max_length and len(found) == witnesses, f"{length}/{len(found)} witnesses")
        expect(report["nodes_explored"] == nodes, f"nodes {report['nodes_explored']} != {nodes}")
        expect(digest(found) == words_digest, "witnesses differ from the recorded ones")

    argv = ["search", "-s", str(s), "-k", str(k), "--cap", str(cap)]
    argv += ["--squarefree"] * squarefree + ["--fix-first"] * fix_first
    return Job(tuple(argv), 0, check, size=cap)


def _search_deep(rng: random.Random, workdir: Path) -> Workload:
    jobs = [_search_job(*query) for query in expected.SEARCH_DEEP_JOBS]
    rng.shuffle(jobs)
    ladder = tuple(_search_job(4, 3, True, cap, False) for cap in SEARCH_CAPS)
    # The budget puts the frontier near cap 330, which leaves the ladder room
    # for a search about 12 times faster before it reaches cap 900.
    # Known defect: the recursive DFS raises RecursionError at this depth
    # instead of reporting exceeds-cap.
    probe = _search_job(2, 5, False, 2048, False)
    return Workload(tuple(jobs), ladder[:2], ladder, budget_s=0.04, probe=probe)


# -- check-long ---------------------------------------------------------------


def _check_job(word: str, s: int, k: int, squarefree: bool, size: int = 0,
               square: tuple[str, int] | None = None, valid: bool = False) -> Job:
    """`check` on a word with the expected answer from the reference.  The
    caller passes the word's first square, if it has one; words cut from
    the squarefree T8 stream have none.  `valid` says the caller has
    already shown the word to be valid."""
    conflict = None if valid else ref.first_reversal_conflict(word, k)
    if conflict is not None:
        want = {"kind": "reversal", "x": conflict[0], "position_x": conflict[1],
                "position_xr": conflict[2]}
    elif squarefree and square is not None:
        want = {"kind": "square", "x": square[0], "position": square[1]}
    else:
        want = None

    def check(out: str) -> None:
        report = json.loads(out)
        expect(report["word"] == word, "word echo differs")
        expect(report["valid"] == (want is None), f"valid is {report['valid']}")
        got = report.get("conflict")
        expect(got == want, f"conflict {got} != {want}")
        if got is None:
            return
        x = got["x"]
        if got["kind"] == "reversal":
            expect(word[got["position_x"] :].startswith(x), "x not at position_x")
            expect(word[got["position_xr"] :].startswith(x[::-1]), "x^R not at position_xr")
        else:
            expect(word[got["position"] :].startswith(x + x), "xx not at position")

    argv = ["check", "--json", "-s", str(s), "-k", str(k), "--word", word]
    return Job(tuple(argv + ["--squarefree"] * squarefree), 0 if want is None else 1, check, size)


def _check_ladder(stream: str, s: int, k: int, squarefree: bool,
                  sizes: tuple[int, ...]) -> tuple[Job, ...]:
    """`check` on prefixes of a stream.  The prefixes of a valid word are
    valid, so the reference checks only the longest; the streams used here
    are squarefree where `squarefree` is asked for (T8)."""
    if ref.first_reversal_conflict(stream[: sizes[-1]], k) is not None:
        raise ValueError("ladder stream holds a reversal conflict")
    return tuple(_check_job(stream[:n], s, k, squarefree, size=n, valid=True) for n in sizes)


def _factors_job(word: str, s: int, n: int) -> Job:
    members = sorted(ref.windows(word, n))

    def check(out: str) -> None:
        report = json.loads(out)
        expect(report["length"] == n and report["members"] == members, "factor set differs")

    argv = ("factors", "--json", "-s", str(s), "--word", word, "-n", str(n))
    return Job(argv, 0, check)


def _factor_set_job(path: Path, name: str, k: int, m: int, squarefree: bool) -> Job:
    members = ref.image_windows(MORPHISMS[name], k, m, squarefree)

    def check(out: str) -> None:
        expect(json.loads(out)["members"] == members, "image factor set differs")

    argv = ["morphic", "factor-set", "--morphism", str(path), "-k", str(k),
            "--universe-length", str(m), "--json"]
    return Job(tuple(argv + ["--squarefree-universe"] * squarefree), 0, check)


def _stream_job(path: Path, length: int, inner: str, prefix: str) -> Job:
    def check(out: str) -> None:
        expect(out.strip() == prefix, "stream prefix differs")

    argv = ("morphic", "stream", "--morphism", str(path), "--length", str(length),
            "--inner-builtin", inner)
    return Job(argv, 0, check)


def _match_job(word: str) -> Job:
    want = ref.periodic_match(word)

    def check(out: str) -> None:
        report = json.loads(out)
        expect(report["matched"] == (want is not None), f"matched is {report['matched']}")
        if want is not None:
            got = (report["preamble"], report["period"])
            expect(got == want, f"match {got} != {want}")
            expect(ref.periodic(*got, len(word)) == word, "match does not regenerate the word")

    return Job(("match-periodic", "--json", "--word", word), 0 if want else 1, check)


def _check_long(rng: random.Random, workdir: Path) -> Workload:
    paths = {name: workdir / f"{name}.morphism" for name in MORPHISMS}
    files = tuple(
        (paths[name], "".join(f"{i} -> {img}\n" for i, img in enumerate(images)))
        for name, images in MORPHISMS.items()
    )
    o8, o2, o6, o_ladder = (rng.randrange(50_000) for _ in range(4))
    t8 = ref.t8_stream(max(o8 + 7_000, o_ladder + CHECK_SIZES[-1]))
    t2 = ref.t2_stream(o2 + 3_000)
    t6 = ref.t6_stream(o6 + 6_000)
    w8, w2, w6 = t8[o8 : o8 + 3_000], t2[o2 : o2 + 3_000], t6[o6 : o6 + 3_000]
    # find_conflict's square-witness fallback grows with the square's position
    # and the word's length (see NOTES.md), so the insert stays near 100.
    square8 = ref.insert_square(t8[o8 + 3_000 : o8 + 4_000], 96 + rng.randrange(32), 2)
    square6 = ref.insert_square(t6[o6 + 3_000 : o6 + 6_000], rng.randrange(2_900), 6)
    z = ref.periodic(rng.choice(ref.PREAMBLES), rng.choice(ref.rotation_family()), 3_000)
    q = rng.randrange(100, 2_900)
    jobs = (
        _check_job(w8, 5, 2, True),
        _check_job(square8, 5, 2, True, square=ref.first_square(square8)),
        _check_job(ref.mutate_to_conflict(w8, rng.randrange(2_900), 2, 5), 5, 2, True),
        _check_job(w2, 3, 3, False),
        _check_job(ref.mutate_to_conflict(w2, rng.randrange(2_900), 3, 3), 3, 3, False),
        _check_job(square6, 2, 6, False),  # the square adds no window: still valid
        _check_job(ref.mutate_to_conflict(w6, rng.randrange(2_900), 6, 2), 2, 6, False),
        _factors_job(w8, 5, 2),
        _factors_job(w6, 2, 6),
        _factor_set_job(paths["t6"], "t6", 6, 8, False),
        _factor_set_job(paths["t8"], "t8", 2, 3, True),
        _stream_job(paths["t8"], 20_000, "thue-squarefree-ternary", ref.t8_stream(20_000)),
        _stream_job(paths["t2"], 20_000, "nonperiodic-binary", ref.t2_stream(20_000)),
        _match_job(z),
        _match_job(z[:q] + "10"[int(z[q])] + z[q + 1 :]),
    )
    ladder = _check_ladder(t8[o_ladder:], 5, 2, True, CHECK_SIZES)
    return Workload(jobs, ladder[:2], ladder, budget_s=0.25, files=files)
