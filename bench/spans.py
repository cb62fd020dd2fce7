"""Span tracing of delaylogistic's layers from outside the package.

`traced()` replaces each traced function with a wrapper in every
delaylogistic module that holds it, not only where it is defined: `sweep`
imports `jury_verdict` by name, `jury` imports `evaluate` and
`spectral_radius`, and `simulate` calls the module-global `step`, so a
patch of the defining module alone would miss those calls. The originals
are restored on exit.

Every call records a span (id, name, start, end, parent, request), where
the request is the outermost span of the call tree. Per-name call counts
and self time (duration minus the child spans it covers) are aggregated
for every span; the span records themselves are kept up to a cap so that
long runs stay small in memory.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path
from typing import Callable, Iterator

SPAN_CAP = 20_000


class Tracer:
    def __init__(self) -> None:
        self.calls: Counter[str] = Counter()
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.edges: Counter[tuple[str, str]] = Counter()  # (parent, child) calls
        self.counters: Counter[str] = Counter()
        # [id, name, start, end, parent id, request id], in order of opening,
        # so a kept span's parent is always kept too
        self.spans: list[list] = []
        self.dropped = 0
        self._stack: list[list] = []  # open spans: [id, name, request, child time]
        self._next_id = 0

    def wrap(self, name: str, fn: Callable,
             on_result: Callable[[object], None] | None = None,
             on_error: Callable[[BaseException], None] | None = None) -> Callable:
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            span_id = self._next_id
            self._next_id += 1
            frame = [span_id, name, parent[2] if parent else span_id, 0.0]
            record = None
            if len(self.spans) < SPAN_CAP:
                record = [span_id, name, 0.0, 0.0, parent[0] if parent else None, frame[2]]
                self.spans.append(record)
            else:
                self.dropped += 1
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if on_error is not None:
                    on_error(exc)
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - start
                self.calls[name] += 1
                self.self_s[name] += duration - frame[3]
                if parent is not None:
                    parent[3] += duration
                    self.edges[(parent[1], name)] += 1
                if record is not None:
                    record[2:4] = start, end
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        keys = ("id", "name", "start", "end", "parent", "request")
        with path.open("w", encoding="utf-8") as fh:
            for record in self.spans:
                fh.write(json.dumps(dict(zip(keys, record))) + "\n")


def _targets(tracer: Tracer) -> list[tuple[str, str, str, dict]]:
    """(module, function, span name, hooks) for every traced function."""
    from delaylogistic import jury

    def count(key: str, amount: Callable[[object], int]) -> Callable[[object], None]:
        return lambda value: tracer.counters.update({key: amount(value)})

    def count_singular(exc: BaseException) -> None:
        if isinstance(exc, jury.SingularTableError):
            tracer.counters["jury.singular_tables"] += 1

    return [
        ("polynomial", "roots", "polynomial.roots",
         {"on_result": count("polynomial.roots.sweeps", lambda rs: rs.iterations)}),
        ("polynomial", "evaluate", "polynomial.evaluate", {}),
        ("jury", "jury_verdict", "jury.jury_verdict",
         {"on_result": count("jury.fallbacks", lambda v: int(v.method == "oracle"))}),
        ("jury", "jury_table", "jury.jury_table",
         {"on_result": count("jury.jury_table.rows", lambda t: len(t.rows)),
          "on_error": count_singular}),
        ("jury", "jury_conditions", "jury.jury_conditions", {}),
        ("jury", "oracle_verdict", "jury.oracle_verdict", {}),
        ("sweep", "boundary_table", "sweep.boundary_table", {}),
        ("sweep", "critical_r", "sweep.critical_r", {}),
        ("sweep", "is_stable_nontrivial", "sweep.is_stable_nontrivial", {}),
        ("delay_map", "simulate", "delay_map.simulate", {}),
        ("delay_map", "step", "delay_map.step", {}),
        ("delay_map", "char_poly", "delay_map.char_poly", {}),
        ("cli", "run", "cli.run", {}),
    ]


@contextlib.contextmanager
def traced(tracer: Tracer) -> Iterator[Tracer]:
    """Patch every traced function wherever delaylogistic looks it up."""
    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == "delaylogistic"
                                     or name.startswith("delaylogistic."))]
    patches: list[tuple[object, str, object]] = []
    try:
        for module_name, func_name, span_name, hooks in _targets(tracer):
            original = getattr(sys.modules[f"delaylogistic.{module_name}"], func_name)
            wrapper = tracer.wrap(span_name, original, **hooks)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        patches.append((module, attr, original))
                        setattr(module, attr, wrapper)
        yield tracer
    finally:
        for module, attr, original in reversed(patches):
            setattr(module, attr, original)
