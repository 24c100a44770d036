"""Spans recorded from outside the program, around each layer's public calls.

A :class:`Tracer` replaces a function or method with a wrapper that records
``(name, start, end, span id, parent id)`` and otherwise behaves exactly
like the original. The parent is whichever span was open in the same
context (a :class:`contextvars.ContextVar`), so nesting follows the call
stack within a thread and within an asyncio task. Spans stay in memory
until :meth:`Tracer.dump`.

Span names are ``<layer>.<call>``; the layer is what the per-layer numbers
aggregate by. Self time of a span is its duration minus the part of it that
its child spans cover.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import itertools
import json
import sys
import threading
import time
from collections import defaultdict

LAYERS = (
    "data",
    "generalization",
    "engine",
    "core",
    "backend",
    "server",
    "router",
    "client",
    "publish",
    "ledger",
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int, int | None]] = []
        self._ids = itertools.count(1)
        self._id_lock = threading.Lock()
        self._current: contextvars.ContextVar[int | None] = (
            contextvars.ContextVar("perfbench_span", default=None)
        )
        self._restore: list[tuple[object, str, object]] = []

    def _next_id(self) -> int:
        with self._id_lock:
            return next(self._ids)

    def _wrapper(self, func, name):
        """``func`` wrapped in a span named ``name`` (a string, or a
        callable of the call's first argument that returns one)."""
        current = self._current
        spans = self.spans
        naming = name if callable(name) else (lambda _self, _n=name: _n)

        def enter():
            parent = current.get()
            span_id = self._next_id()
            return parent, span_id, current.set(span_id), time.perf_counter()

        if inspect.iscoroutinefunction(func):

            @functools.wraps(func)
            async def traced_async(*args, **kwargs):
                parent, span_id, token, start = enter()
                try:
                    return await func(*args, **kwargs)
                finally:
                    end = time.perf_counter()
                    current.reset(token)
                    spans.append(
                        (naming(args[0] if args else None), start, end,
                         span_id, parent)
                    )

            return traced_async

        @functools.wraps(func)
        def traced(*args, **kwargs):
            parent, span_id, token, start = enter()
            try:
                return func(*args, **kwargs)
            finally:
                end = time.perf_counter()
                current.reset(token)
                spans.append(
                    (naming(args[0] if args else None), start, end, span_id,
                     parent)
                )

        return traced

    def replace(self, owner, attr: str, value) -> None:
        """Set ``owner.attr`` until :meth:`unwrap_all` restores it."""
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def wrap_method(self, cls, attr: str, name) -> None:
        """Trace ``cls.attr`` for every instance (and subclass)."""
        self.replace(cls, attr, self._wrapper(cls.__dict__[attr], name))

    def wrap_function(self, module, attr: str, name: str) -> None:
        """Trace ``module.attr`` and every loaded module's alias of it
        (``from x import f`` binds the same object under another module)."""
        original = getattr(module, attr)
        traced = self._wrapper(original, name)
        for mod in list(sys.modules.values()):
            for key, value in list(getattr(mod, "__dict__", {}).items()):
                if value is original:
                    self.replace(mod, key, traced)

    def unwrap_all(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def dump(self, path) -> None:
        with open(path, "w") as handle:
            json.dump(self.spans, handle)


def install_layer_spans(tracer: Tracer, *, server_side: bool) -> None:
    """Wrap the public calls of every layer this process runs.

    ``server_side`` adds the HTTP tier (server, coalescer, router) and the
    event loop's executor hop, which copies the submitting context so an
    engine call run on the executor nests under the request that awaited
    it.
    """
    import repro.data.adult as adult
    import repro.generalization.apply as apply
    import repro.generalization.search as search
    from repro.core.minimize1 import Minimize1Solver
    from repro.core.minimize2 import MinRatioComputation
    from repro.engine.backend import PersistentBackend
    from repro.engine.engine import DisclosureEngine
    from repro.publish.engine import RepublicationEngine
    from repro.publish.ledger import ReleaseLedger

    tracer.wrap_function(adult, "generate_adult", "data.generate_adult")
    tracer.wrap_function(apply, "bucketize_at", "generalization.bucketize_at")
    tracer.wrap_function(
        search, "find_minimal_safe_nodes", "generalization.search"
    )
    for attr in ("evaluate", "series", "evaluate_many", "compare", "is_safe"):
        tracer.wrap_method(DisclosureEngine, attr, f"engine.{attr}")
    tracer.wrap_method(DisclosureEngine, "load_cache", "engine.load_cache")
    tracer.wrap_method(Minimize1Solver, "tables", "core.minimize1")
    tracer.wrap_method(Minimize1Solver, "minimum", "core.minimize1")
    tracer.wrap_method(MinRatioComputation, "__init__", "core.minimize2")
    tracer.wrap_method(PersistentBackend, "run", "backend.run")
    tracer.wrap_method(RepublicationEngine, "publish", "publish.publish")
    tracer.wrap_method(ReleaseLedger, "record", "ledger.record")
    for attr in (
        "next_version",
        "get",
        "latest_accepted",
        "accepted_contents",
        "list_releases",
    ):
        tracer.wrap_method(ReleaseLedger, attr, "ledger.read")
    if not server_side:
        return

    import asyncio.base_events

    from repro.service.httpbase import JsonHttpServer
    from repro.service.router import ShardRouter
    from repro.service.server import DisclosureService

    def dispatch_name(service) -> str:
        return (
            "router.dispatch"
            if isinstance(service, ShardRouter)
            else "server.dispatch"
        )

    tracer.wrap_method(JsonHttpServer, "dispatch", dispatch_name)
    tracer.wrap_method(
        DisclosureService, "_enqueue_single", "server.coalesce_wait"
    )
    tracer.wrap_method(ShardRouter, "_forward", "router.forward")

    loop_cls = asyncio.base_events.BaseEventLoop
    original = loop_cls.run_in_executor

    def run_in_executor(self, executor, func, *args):
        return original(
            self, executor, contextvars.copy_context().run, func, *args
        )

    tracer.replace(loop_cls, "run_in_executor", run_in_executor)


# ----------------------------------------------------------------------
# Aggregation
# ----------------------------------------------------------------------
def _covered(start: float, end: float, intervals) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    total = 0.0
    cursor = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, cursor), min(hi, end)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total


def summarize(spans) -> dict[str, dict[str, float]]:
    """Per span name: ``count``, ``total_s`` (sum of durations) and
    ``self_s`` (sum of durations minus child coverage)."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for _name, start, end, _span_id, parent in spans:
        if parent is not None:
            children[parent].append((start, end))
    out: dict[str, dict[str, float]] = defaultdict(
        lambda: {"count": 0, "total_s": 0.0, "self_s": 0.0}
    )
    for name, start, end, span_id, _parent in spans:
        entry = out[name]
        entry["count"] += 1
        entry["total_s"] += end - start
        entry["self_s"] += (end - start) - _covered(
            start, end, children.get(span_id, ())
        )
    return dict(out)


def layer_self_times(summary: dict[str, dict[str, float]]) -> dict[str, float]:
    """Self time per layer (the span-name prefix). Wait spans (names
    ending in ``_wait``) measure time spent waiting on another thread, not
    work, and are left out."""
    layers = {layer: 0.0 for layer in LAYERS}
    for name, entry in summary.items():
        if name.endswith("_wait"):
            continue
        layer = name.split(".", 1)[0]
        layers[layer] = layers.get(layer, 0.0) + entry["self_s"]
    return layers


def load_spans(path) -> list:
    with open(path) as handle:
        return [tuple(span) for span in json.load(handle)]
