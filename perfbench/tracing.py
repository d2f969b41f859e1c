"""Spans and counters for the benchmark's traced passes.

A traced pass rebinds, in this process only, the module-level names that
codedpir's layers call through (for example `codedpir.optimizer.rref`) to
timing wrappers, and restores them when the pass ends. The benchmark also
opens spans around its own calls into each layer. Spans stay in memory as
(name, start, end, parent, run id) and are written out with the results.
A function called more than SPAN_LIMIT times in one pass keeps only its
call count and summed time.
"""

from __future__ import annotations

import importlib
from contextlib import contextmanager, nullcontext
from time import perf_counter
from typing import Callable

SPAN_LIMIT = 100_000


class NullTracer:
    """Stand-in for untraced passes: spans cost one call and record nothing."""

    def span(self, name: str):
        return nullcontext()

    def count(self, name: str, n: int = 1) -> None:
        pass


NO_TRACE = NullTracer()


class Tracer:
    """Spans, call counts and summed times of one traced pass (or set-up)."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []                  # [name, start, end, parent index]
        self.calls: dict[str, list] = {}             # name -> [calls, seconds]
        self.counts: dict[str, int] = {}
        self.absent: set[str] = set()              # targets that no longer exist
        self.wrapped: set[str] = set()             # span names with at least one wrapper
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _enter(self, name: str) -> tuple:
        stat = self.calls.get(name)
        if stat is None:
            stat = self.calls[name] = [0, 0.0]
        stat[0] += 1
        idx = -1
        if stat[0] <= SPAN_LIMIT:
            idx = len(self.spans)
            self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else -1])
            self._stack.append(idx)
        return stat, idx, perf_counter()

    def _exit(self, token: tuple) -> None:
        end = perf_counter()
        stat, idx, start = token
        stat[1] += end - start
        if idx >= 0:
            self._stack.pop()
            self.spans[idx][1] = start
            self.spans[idx][2] = end

    @contextmanager
    def span(self, name: str):
        token = self._enter(name)
        try:
            yield
        finally:
            self._exit(token)

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def wrap(
        self, target: str, name: str, on_result: Callable[["Tracer", object], None] | None = None
    ) -> None:
        """Rebind `package.module.attr` to a timing wrapper until unwrap_all().

        A target that no longer exists is recorded in `absent` instead.
        """
        module_name, attr = target.rsplit(".", 1)
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            self.absent.add(target)
            return
        original = getattr(module, attr, None)
        if not callable(original):
            self.absent.add(target)
            return
        enter, leave = self._enter, self._exit

        def wrapper(*args, **kwargs):
            token = enter(name)
            try:
                result = original(*args, **kwargs)
            finally:
                leave(token)
            if on_result is not None:
                on_result(self, result)
            return result

        setattr(module, attr, wrapper)
        self._saved.append((module, attr, original))
        self.wrapped.add(name)

    def unwrap_all(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def seconds(self, name: str) -> float:
        return self.calls.get(name, (0, 0.0))[1]

    def ncalls(self, name: str) -> int:
        return self.calls.get(name, (0, 0.0))[0]

    def export(self) -> dict:
        """Spans of names under SPAN_LIMIT calls plus every counter.

        Spans of hot names were never recorded past the limit; the few
        recorded before it are dropped here and their children re-parented,
        so a hot name shows up as its count and summed time only.
        """
        hot = {name for name, (n, _) in self.calls.items() if n > SPAN_LIMIT}
        new_index: dict[int, int] = {}
        parent_of: dict[int, int] = {}
        out = []
        for i, (name, start, end, parent) in enumerate(self.spans):
            while parent in parent_of:
                parent = parent_of[parent]
            if name in hot:
                parent_of[i] = parent
                continue
            new_index[i] = len(out)
            out.append([name, start, end, new_index.get(parent, -1), self.run_id])
        return {
            "run_id": self.run_id,
            "span_fields": ["name", "start", "end", "parent", "run_id"],
            "spans": out,
            "calls": {name: {"calls": n, "seconds": s} for name, (n, s) in self.calls.items()},
            "counts": dict(self.counts),
            "absent": sorted(self.absent),
        }
