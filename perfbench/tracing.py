"""Spans and counters recorded from outside revfree, around its public functions.

`install` swaps each traced function for a wrapper in every revfree module
that holds it, because `cli` and `verification` bind library functions with
`from ... import`.  A span is (name, start, end, parent, job); spans stay in
memory until the run writes them out.  Counters record the work done next to
the time taken, so a speed-up cannot hide a change in the work itself.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter
from typing import Callable

Count = Callable[[Counter, tuple, object], None]


def _n(name: str, amount: Callable[[tuple, object], int] = lambda args, result: 1) -> Count:
    return lambda counts, args, result: counts.update({name: amount(args, result)})


def _windows(args: tuple, result: object) -> int:
    h, k, universe = args
    return sum(
        max(0, sum(len(h.images[c]) for c in u.symbols) - k + 1) for u in universe.members
    )


# (module, function) -> counter, for functions recorded as spans.
SPANS: dict[tuple[str, str], Count | None] = {
    ("revfree.cli", "main"): None,
    **{("revfree.verification", f"check_t{i}"): None for i in range(1, 9)},
    ("revfree.search", "enumerate_valid"):
        _n("search.enumerate_valid.words", lambda args, result: len(result)),
    ("revfree.search", "max_valid_length"):
        _n("search.max_valid_length.nodes", lambda args, result: result.nodes_explored),
    ("revfree.search", "forced_extension_check"): None,
    ("revfree.avoidance", "find_conflict"): _n("avoidance.find_conflict.calls"),
    ("revfree.avoidance", "verify_unavoidable"): None,
    ("revfree.words", "is_squarefree"): lambda counts, args, result: counts.update({
        "words.is_squarefree.calls": 1, "words.is_squarefree.symbols": len(args[0]),
    }),
    ("revfree.words", "stream_prefix"):
        _n("words.stream_prefix.symbols", lambda args, result: len(result)),
    ("revfree.words", "factors"): None,
    ("revfree.morphisms", "image_factor_set"): _n("morphisms.image_factor_set.windows", _windows),
    ("revfree.morphisms", "periodicity_transport_check"): None,
}

# Functions called too often for a span each: counted only.
COUNTED: dict[tuple[str, str], Count] = {
    ("revfree.avoidance", "is_valid"): _n("avoidance.is_valid.calls"),
    ("revfree.morphisms", "apply"): _n("morphisms.apply.calls"),
}

# Per-layer metric -> ("self" or "total", span name): time per pass.
TIMES = {
    "cli.self_s": ("self", "cli.main"),
    **{f"verification.t{i}_s": ("total", f"verification.check_t{i}") for i in range(1, 9)},
    "search.enumerate_valid.self_s": ("self", "search.enumerate_valid"),
    "search.max_valid_length.self_s": ("self", "search.max_valid_length"),
    "search.forced_extension_check.self_s": ("self", "search.forced_extension_check"),
    "avoidance.find_conflict.self_s": ("self", "avoidance.find_conflict"),
    "avoidance.verify_unavoidable.s": ("total", "avoidance.verify_unavoidable"),
    "words.is_squarefree.s": ("total", "words.is_squarefree"),
    "words.stream_prefix.s": ("total", "words.stream_prefix"),
    "words.factors.s": ("total", "words.factors"),
    "morphisms.image_factor_set.s": ("total", "morphisms.image_factor_set"),
    "morphisms.periodicity_transport_check.s": ("total", "morphisms.periodicity_transport_check"),
}

# Work done: the same in every pass over the same jobs.
COUNTS = (
    "search.enumerate_valid.words",
    "search.max_valid_length.nodes",
    "avoidance.is_valid.calls",
    "avoidance.find_conflict.calls",
    "words.is_squarefree.calls",
    "words.is_squarefree.symbols",
    "words.stream_prefix.symbols",
    "words.Word.constructions",
    "morphisms.image_factor_set.windows",
    "morphisms.apply.calls",
)


class Tracer:
    """Collects spans and counts while installed; `job` tags new spans."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index, job]
        self.counts: Counter = Counter()
        self.job = 0
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.spans = []
        self.counts = Counter()

    def _span(self, name: str, fn: Callable, count: Count | None) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = [name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1, self.job]
            self._stack.append(len(self.spans))
            self.spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                self._stack.pop()
            if count is not None:
                count(self.counts, args, result)
            return result

        return wrapper

    def _counted(self, fn: Callable, count: Count) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            count(self.counts, args, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every traced function wherever a revfree module binds it."""
        wrappers = {}
        for (module, name), count in SPANS.items():
            fn = getattr(sys.modules[module], name)
            wrappers[fn] = self._span(f"{module.removeprefix('revfree.')}.{name}", fn, count)
        for (module, name), count in COUNTED.items():
            fn = getattr(sys.modules[module], name)
            wrappers[fn] = self._counted(fn, count)
        for module in [m for n, m in sys.modules.items() if n.partition(".")[0] == "revfree"]:
            for attr, value in list(vars(module).items()):
                if callable(value) and value in wrappers:
                    self._swap(module, attr, wrappers[value])
                elif isinstance(value, tuple) and any(callable(v) and v in wrappers for v in value):
                    # verification.ALL_CHECKS holds the check functions themselves
                    self._swap(module, attr, tuple(wrappers.get(v, v) for v in value))
        word = sys.modules["revfree.words"].Word
        post_init = word.__post_init__

        def counted_post_init(w) -> None:
            self.counts["words.Word.constructions"] += 1
            post_init(w)

        self._swap(word, "__post_init__", counted_post_init)

    def _swap(self, owner: object, attr: str, value: object) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def layer_metrics(self) -> dict[str, float]:
        """Times and counts of the spans recorded since the last reset."""
        total: Counter = Counter()
        child: Counter = Counter()
        for name, start, end, parent, _ in self.spans:
            total[name] += end - start
            if parent >= 0:
                p = self.spans[parent]
                child[p[0]] += end - start
        out = {
            metric: float(total[span] - (child[span] if kind == "self" else 0))
            for metric, (kind, span) in TIMES.items()
        }
        out.update({name: self.counts[name] for name in COUNTS})
        return out
