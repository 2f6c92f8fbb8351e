"""Command-line front end.

Each command only computes: it returns its JSON payload, its text lines and
its exit code, and `main` prints one of the two forms.  Exit codes: 0 on
success (word valid, property holds, search completed), 1 when a checked
property fails, 2 on usage errors, which include parse errors and numbers
the library rejects as out of range.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time

from . import __version__
from .avoidance import AvoidanceQuery, ConflictWitness, find_conflict
from .morphisms import (
    Morphism,
    all_words_universe,
    apply,
    image_factor_set,
    marker_sync_check,
    parse_morphism,
    squarefree_morphism_test,
    squarefree_words_universe,
)
from .search import Finite, enumerate_valid, max_valid_length
from .verification import (
    K5_PERIOD,
    match_ultimately_periodic,
    rotation_family,
    run_verification,
)
from .words import (
    BUILTIN_NAMES,
    Builtin,
    MorphicImage,
    Periodic,
    Word,
    factors,
    periodic_factors,
    stream_prefix,
)

# (JSON payload, to which main adds the version echo as the first key;
# text lines, or None when the command prints JSON only; exit code)
Result = tuple[dict, list[str] | None, int]


def _load_morphism(path: str) -> Morphism:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ValueError(f"cannot load morphism from {path}: {exc}") from exc
    return parse_morphism(text)


def _factor_set(length: int, windows: frozenset[str]) -> Result:
    members = sorted(windows)
    return {"length": length, "members": members}, members, 0


def cmd_check(args: argparse.Namespace) -> Result:
    word = Word.parse(args.word, args.alphabet)
    conflict = find_conflict(word, AvoidanceQuery(args.k, args.squarefree))
    payload: dict = {
        "word": str(word),
        "alphabet": args.alphabet,
        "k": args.k,
        "squarefree": args.squarefree,
        "valid": conflict is None,
    }
    if conflict is None:
        text = "valid"
    elif isinstance(conflict, ConflictWitness):
        payload["conflict"] = {
            "kind": "reversal",
            "x": str(conflict.x),
            "position_x": conflict.position_x,
            "position_xr": conflict.position_xr,
        }
        text = (
            f"conflict: {conflict.x} at {conflict.position_x} "
            f"reversed at {conflict.position_xr}"
        )
    else:
        payload["conflict"] = {
            "kind": "square",
            "x": str(conflict.x),
            "position": conflict.position,
        }
        text = f"square: {conflict.x}{conflict.x} at {conflict.position}"
    return payload, [text], 0 if conflict is None else 1


def cmd_factors(args: argparse.Namespace) -> Result:
    if args.word is not None:
        if args.preamble is not None:
            raise ValueError("--preamble needs --period")
        return _factor_set(args.length, factors(Word.parse(args.word, args.alphabet), args.length))
    period = Word.parse(args.period, args.alphabet)
    preamble = Word.parse(args.preamble or "", args.alphabet)
    return _factor_set(args.length, periodic_factors(Periodic(preamble, period), args.length))


def cmd_search(args: argparse.Namespace) -> Result:
    q = AvoidanceQuery(args.k, args.squarefree)
    start = time.perf_counter()
    outcome = max_valid_length(args.alphabet, q, args.cap, args.fix_first)
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    payload: dict = {
        "query": {
            "alphabet": args.alphabet,
            "k": args.k,
            "squarefree": args.squarefree,
            "cap": args.cap,
        },
        "nodes_explored": outcome.nodes_explored,
        "wall_time_ms": round(elapsed_ms, 3),
    }
    if isinstance(outcome, Finite):
        payload.update(outcome="finite", max_length=outcome.max_length,
                       witnesses=[str(w) for w in outcome.witnesses])
    else:
        payload.update(outcome="exceeds-cap", cap=outcome.cap,
                       sample_survivor=str(outcome.sample_survivor))
    return payload, None, 0


def cmd_enumerate(args: argparse.Namespace) -> Result:
    words = enumerate_valid(args.alphabet, AvoidanceQuery(args.k, args.squarefree), args.length)
    payload = {
        "alphabet": args.alphabet,
        "k": args.k,
        "squarefree": args.squarefree,
        "length": args.length,
        "count": len(words),
        "words": words,
    }
    return payload, words, 0


def cmd_morphic_apply(args: argparse.Namespace) -> Result:
    h = _load_morphism(args.morphism)
    return {}, [str(apply(h, Word.parse(args.word, h.domain_size)))], 0


def cmd_morphic_stream(args: argparse.Namespace) -> Result:
    h = _load_morphism(args.morphism)
    if args.inner_builtin is not None:
        if args.inner_preamble is not None:
            raise ValueError("--inner-preamble needs --inner-period")
        inner = Builtin(args.inner_builtin)
    else:
        period = Word.parse(args.inner_period, h.domain_size)
        inner = Periodic(Word.parse(args.inner_preamble or "", h.domain_size), period)
    return {}, [str(stream_prefix(MorphicImage(h, inner), args.length))], 0


def cmd_morphic_factor_set(args: argparse.Namespace) -> Result:
    h = _load_morphism(args.morphism)
    universe = squarefree_words_universe if args.squarefree_universe else all_words_universe
    preimages = universe(h.domain_size, args.universe_length)
    return _factor_set(args.k, image_factor_set(h, args.k, preimages))


def cmd_morphic_marker(args: argparse.Namespace) -> Result:
    h = _load_morphism(args.morphism)
    report = marker_sync_check(h, Word.parse(args.marker, h.codomain_size))
    occurrences = [{"pair": pair, "offset": offset} for pair, offset in report.occurrences]
    payload = {
        "marker": str(report.marker),
        "synchronized": report.synchronized,
        "occurrences": occurrences,
    }
    lines = ["synchronized" if report.synchronized else "not synchronized"]
    lines += [f"  in image of {o['pair']} at offset {o['offset']}" for o in occurrences]
    return payload, lines, 0 if report.synchronized else 1


def cmd_morphic_squarefree_test(args: argparse.Namespace) -> Result:
    result = squarefree_morphism_test(_load_morphism(args.morphism))
    payload = {
        "passed": result.passed,
        "preimages": [str(w) for w in result.preimages],
        "failing": None if result.failing is None else str(result.failing),
    }
    if result.passed:
        text = f"pass ({len(result.preimages)} preimages)"
    else:
        text = f"fail on {result.failing}"
    return payload, [text], 0 if result.passed else 1


def cmd_match_periodic(args: argparse.Namespace) -> Result:
    prefix = Word.parse(args.word, 2)
    match = match_ultimately_periodic(prefix, rotation_family(K5_PERIOD))
    preamble, period = (None, None) if match is None else (str(match[0]), str(match[1]))
    payload = {
        "word": str(prefix),
        "matched": match is not None,
        "preamble": preamble,
        "period": period,
    }
    text = "no match" if match is None else f"preamble={preamble} period={period}"
    return payload, [text], 0 if match is not None else 1


def cmd_verify_paper(args: argparse.Namespace) -> Result:
    report = run_verification()
    lines = [f"{r.id} {r.status} — {r.claim}" for r in report.results]
    return report.to_dict(), lines, 0 if report.all_passed else 1


# Built once per process: parsing leaves the parser unchanged, and each
# `cmd_*` reads the library functions from this module's globals when called.
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="revfree",
        description="Construct, check, and search words avoiding reversed subwords.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, alphabet: bool = True) -> None:
        if alphabet:
            # symbols print as single digits, so at most 10 of them
            p.add_argument("-s", "--alphabet", type=int, choices=range(1, 11), required=True,
                           metavar="S", help="alphabet size 1..10 (explicit, never inferred)")
        p.add_argument("--json", action="store_true", help="machine-readable output")

    p = sub.add_parser("check", help="validate one word against an avoidance query")
    p.add_argument("--word", required=True)
    p.add_argument("-k", type=int, required=True)
    p.add_argument("--squarefree", action="store_true")
    add_common(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("factors", help="length-n factor set of a word or periodic word")
    given = p.add_mutually_exclusive_group(required=True)
    given.add_argument("--word")
    given.add_argument("--period")
    p.add_argument("--preamble", help="with --period only")
    p.add_argument("-n", "--length", type=int, required=True)
    add_common(p)
    p.set_defaults(func=cmd_factors)

    p = sub.add_parser("search", help="maximum length of valid words, as a JSON report")
    p.add_argument("-k", type=int, required=True)
    p.add_argument("--squarefree", action="store_true")
    p.add_argument("--cap", type=int, required=True)
    p.add_argument("--fix-first", action="store_true",
                   help="report only words starting with 0: witnesses and "
                        "nodes under the root's child 0")
    add_common(p)
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("enumerate", help="all valid words of a given length")
    p.add_argument("-k", type=int, required=True)
    p.add_argument("--squarefree", action="store_true")
    p.add_argument("--length", type=int, required=True)
    add_common(p)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("morphic", help="morphism operations")
    msub = p.add_subparsers(dest="morphic_command", required=True)

    mp = msub.add_parser("apply", help="apply a morphism to a word")
    mp.add_argument("--morphism", required=True, metavar="FILE")
    mp.add_argument("--word", required=True)
    mp.set_defaults(func=cmd_morphic_apply)

    mp = msub.add_parser("stream", help="prefix of the morphic image of an infinite word")
    mp.add_argument("--morphism", required=True, metavar="FILE")
    mp.add_argument("--length", type=int, required=True)
    inner = mp.add_mutually_exclusive_group(required=True)
    inner.add_argument("--inner-builtin", choices=BUILTIN_NAMES)
    inner.add_argument("--inner-period")
    mp.add_argument("--inner-preamble", help="with --inner-period only")
    mp.set_defaults(func=cmd_morphic_stream)

    mp = msub.add_parser("factor-set", help="image factor set over a preimage universe")
    mp.add_argument("--morphism", required=True, metavar="FILE")
    mp.add_argument("-k", type=int, required=True)
    mp.add_argument("--universe-length", type=int, default=2)
    mp.add_argument("--squarefree-universe", action="store_true")
    add_common(mp, alphabet=False)
    mp.set_defaults(func=cmd_morphic_factor_set)

    mp = msub.add_parser("marker", help="marker synchronization report")
    mp.add_argument("--morphism", required=True, metavar="FILE")
    mp.add_argument("--marker", required=True)
    add_common(mp, alphabet=False)
    mp.set_defaults(func=cmd_morphic_marker)

    mp = msub.add_parser("squarefree-test", help="squarefreeness test for ternary morphisms "
                         "on 12 preimages, or 30 if not uniform")
    mp.add_argument("--morphism", required=True, metavar="FILE")
    add_common(mp, alphabet=False)
    mp.set_defaults(func=cmd_morphic_squarefree_test)

    p = sub.add_parser("match-periodic",
                       help="match a binary prefix against the periodic family for k=5")
    p.add_argument("--word", required=True)
    add_common(p, alphabet=False)
    p.set_defaults(func=cmd_match_periodic)

    p = sub.add_parser("verify-paper", help="re-run all eight claim verifications")
    add_common(p, alphabet=False)
    p.set_defaults(func=cmd_verify_paper)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        payload, lines, code = args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        if lines is None or getattr(args, "json", False):
            print(json.dumps({"version": __version__, **payload}))
        elif lines:
            print("\n".join(lines))
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed the pipe early, having read all it wanted: the
        # command's own code stands, and the flush at exit writes nowhere
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return code


if __name__ == "__main__":
    sys.exit(main())
