"""Span recording around the program's public layer entry points.

The benchmark never edits the program.  In a traced pass it replaces a
handful of public methods with thin wrappers that record one span per
call (name, parent, start, end) and hand the call through unchanged.
Self time per layer is derived afterwards by :func:`stats.self_times`.

Wrapped entry points and the layer each belongs to:

====================================  ==================
``DsmMachine.run``                    ``machine.run``
``RunSpec.compile``                   ``runner.compile``
``RunSpec.key``                       ``runner.key``
``RunCache.get`` / ``RunCache.put``   ``runner.cache_get`` / ``runner.cache_put``
``Executor.run``                      ``runner.executor``
``ScalTool.analyze``                  ``core.analyze``
``ScalToolAnalysis.report``           ``core.render``
``format_table`` (as requests uses)   ``core.render``
====================================  ==================
"""

from __future__ import annotations

import itertools
import time

#: The layer spans.
SPAN_NAMES = (
    "cli.import",
    "machine.run",
    "runner.compile",
    "runner.key",
    "runner.cache_get",
    "runner.cache_put",
    "runner.executor",
    "core.analyze",
    "core.render",
)


class SpanRecorder:
    """Collects ``(id, parent, name, start, end)`` spans of one thread."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, int | None, str, float, float]] = []
        self.machine_runs: list[dict] = []
        self.executor_specs = 0
        self.cache_hits = 0
        self.cache_misses = 0
        self._open: list[int] = []  # ids of the spans open now, innermost last
        self._ids = itertools.count()

    def record(self, name: str, start: float, end: float) -> None:
        """Add a finished span under whatever span is open now."""
        parent = self._open[-1] if self._open else None
        self.spans.append((next(self._ids), parent, name, start, end))

    def call(self, name: str, fn, args, kwargs, on_result=None):
        span_id = next(self._ids)
        parent = self._open[-1] if self._open else None
        self._open.append(span_id)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._open.pop()
            self.spans.append((span_id, parent, name, start, end))
        if on_result is not None:
            on_result(result, span_id)
        return result

    def wrap_method(self, owner, attr: str, name: str, on_result=None) -> None:
        raw = owner.__dict__[attr]
        recorder = self
        if isinstance(raw, classmethod):
            func = raw.__func__

            def wrapped_cls(cls, *args, **kwargs):
                return recorder.call(name, func, (cls, *args), kwargs, on_result)

            setattr(owner, attr, classmethod(wrapped_cls))
            return

        def wrapped(*args, **kwargs):
            return recorder.call(name, raw, args, kwargs, on_result)

        setattr(owner, attr, wrapped)

    def wrap_function(self, module, attr: str, name: str) -> None:
        raw = getattr(module, attr)
        recorder = self

        def wrapped(*args, **kwargs):
            return recorder.call(name, raw, args, kwargs)

        setattr(module, attr, wrapped)

    # -- result hooks -------------------------------------------------------------

    def _on_machine_run(self, result, span_id: int) -> None:
        counters = result.counters
        self.machine_runs.append(
            {
                "n": int(result.n_processors),
                "span": span_id,
                "refs": counters.graduated_loads + counters.graduated_stores,
                "l2_misses": counters.l2_misses,
                "store_to_shared": counters.store_exclusive_to_shared,
                "sim_cycles": result.wall_cycles,
            }
        )

    def _on_cache_get(self, result, span_id: int) -> None:
        if result is None:
            self.cache_misses += 1
        else:
            self.cache_hits += 1

    def _on_executor_run(self, result, span_id: int) -> None:
        self.executor_specs += len(result)


def install(recorder: SpanRecorder) -> None:
    """Wrap every layer entry point of the imported program."""
    from repro.core.scaltool import ScalTool, ScalToolAnalysis
    from repro.machine.system import DsmMachine
    from repro.runner.engine import Executor, RunCache, RunSpec
    from repro.service import requests

    recorder.wrap_method(DsmMachine, "run", "machine.run", recorder._on_machine_run)
    recorder.wrap_method(RunSpec, "compile", "runner.compile")
    recorder.wrap_method(RunSpec, "key", "runner.key")
    recorder.wrap_method(RunCache, "get", "runner.cache_get", recorder._on_cache_get)
    recorder.wrap_method(RunCache, "put", "runner.cache_put")
    recorder.wrap_method(Executor, "run", "runner.executor", recorder._on_executor_run)
    recorder.wrap_method(ScalTool, "analyze", "core.analyze")
    recorder.wrap_method(ScalToolAnalysis, "report", "core.render")
    recorder.wrap_function(requests, "format_table", "core.render")
