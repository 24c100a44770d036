"""Open-loop and closed-loop load from one process.

Open loop: request ``i`` of a step is due at ``t0 + i / rate``. A fixed set
of threads (at most ``nproc``), each with its own keep-alive
:class:`~repro.service.ServiceClient`, takes the next request, sleeps until
it is due and sends it. Latency is timed from when the request was due, so
a stall also charges the requests queued behind it. The generator's own
lateness is how long after ``max(due, thread free)`` a send started.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable

from common import percentile


@dataclass
class Op:
    """One request: ``call(client)`` performs it and returns the answer."""

    kind: str
    call: Callable[[Any], Any]
    interactive: bool = True
    #: ``expect(oracle)``: the answer a direct engine call gives
    expect: Callable[[Any], Any] | None = None
    #: ``(table, buckets)`` of a publish, checked by replay instead
    publish: tuple[str, list] | None = None
    #: filled by the generator
    due: float = 0.0
    start: float = 0.0
    end: float = 0.0
    answer: Any = None
    error: str | None = None


@dataclass
class Step:
    """One fixed-rate (or closed-loop) run of a list of ops."""

    rate: float | None
    duration: float
    ops: list[Op]
    t0: float = 0.0
    late: list[float] = field(default_factory=list)

    @property
    def t_end(self) -> float:
        return self.t0 + self.duration

    def sent(self) -> int:
        return sum(1 for op in self.ops if op.start)

    def failed(self) -> int:
        return sum(1 for op in self.ops if op.error is not None)

    def backlog_at_end(self) -> int:
        """Requests due before the step ended that had not completed."""
        return sum(
            1 for op in self.ops if op.due <= self.t_end and op.end > self.t_end
        )

    def backlog_grew(self) -> bool:
        """Whether latency from due time climbed through the step: the
        median of its last third exceeds twice that of its first third
        plus 5 ms (a queue that keeps growing; a stall that drains does
        not)."""
        done = [op for op in self.ops if op.error is None]
        third = len(done) // 3
        if third == 0:
            return False
        first = percentile([op.end - op.due for op in done[:third]], 0.5)
        last = percentile([op.end - op.due for op in done[-third:]], 0.5)
        return last > 2 * first + 0.005

    def late_p99_ms(self) -> float:
        return percentile(self.late, 0.99) * 1e3 if self.late else 0.0

    def achieved_rps(self) -> float:
        done = [op.end for op in self.ops if op.error is None]
        if not done:
            return 0.0
        return len(done) / (max(done) - self.t0)


def latencies_ms(ops: list[Op], *, interactive: bool | None = None,
                 kind: str | None = None) -> list[float]:
    """Latency from due time of the successful ``ops`` (optionally only
    interactive ones, or one kind)."""
    return [
        (op.end - op.due) * 1e3
        for op in ops
        if op.error is None
        and (interactive is None or op.interactive == interactive)
        and (kind is None or op.kind == kind)
    ]


def _run(step: Step, clients: list, pace: bool) -> None:
    cursor = iter(range(len(step.ops)))
    lock = threading.Lock()
    lateness: list[list[float]] = [[] for _ in clients]

    def worker(client, late: list[float]) -> None:
        free_since = step.t0
        while True:
            with lock:
                index = next(cursor, None)
            if index is None:
                return
            op = step.ops[index]
            op.due = step.t0 + index / step.rate if pace else time.perf_counter()
            wait = op.due - time.perf_counter()
            if wait > 0:
                time.sleep(wait)
            op.start = time.perf_counter()
            late.append(op.start - max(op.due, free_since))
            try:
                op.answer = op.call(client)
            except Exception as exc:  # a failed request is data, not a crash
                op.error = f"{type(exc).__name__}: {exc}"
            op.end = time.perf_counter()
            free_since = op.end

    threads = [
        threading.Thread(target=worker, args=(client, late), daemon=True)
        for client, late in zip(clients, lateness)
    ]
    step.t0 = time.perf_counter() + 0.01
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    step.late = [x for late in lateness for x in late]


def open_loop(ops: list[Op], rate: float, clients: list) -> Step:
    """Send ``ops`` at ``rate`` requests per second."""
    step = Step(rate=rate, duration=len(ops) / rate, ops=ops)
    _run(step, clients, pace=True)
    return step


def closed_loop(ops: list[Op], clients: list) -> Step:
    """Send ``ops`` back to back, one outstanding request per client."""
    step = Step(rate=None, duration=0.0, ops=ops)
    _run(step, clients, pace=False)
    step.duration = max(op.end for op in ops) - step.t0
    return step
