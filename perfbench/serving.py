"""The serving workloads: ``serve_mixed`` and ``shard_publish``.

Each run starts ``repro serve`` as a subprocess and drives it through the
public :class:`~repro.service.ServiceClient`:

1. prepare state untimed (``serve_mixed``: cache files written with
   :meth:`DisclosureEngine.save_cache`; ``shard_publish``: one untimed boot
   that warms the cache and records the first releases, then stops and
   saves);
2. boot five times; ``setup_s`` is the median time from spawn to the
   first 200 from ``/healthz`` (cache load and shard boot included). The
   last server stays up;
3. a short warm-up at the nominal rate; then, taking turns, eight open-loop
   chunks at the nominal rate, sixteen closed-loop passes of one client over
   a fixed number of requests (``wall_s`` is the median pass) and the open-loop
   steps of the fixed rate ladder but its top one; the top step, which
   overloads the server on purpose, comes last;
4. ``/stats``, graceful stop, then every answer is checked against a
   direct :class:`DisclosureEngine` (and every publish verdict against an
   in-process :class:`RepublicationEngine` replay), untimed.
"""

from __future__ import annotations

import contextlib
import http.client
import random
import shutil
import signal
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import common
import tracing
from common import median, percentile, ratio
from inputs import BucketDraw, bucket_pool
from loadgen import Op, closed_loop, latencies_ms, open_loop

from repro import Bucketization, DisclosureEngine
from repro.codec import decode_value
from repro.publish import RepublicationEngine
from repro.publish.ledger import ReleaseLedger
from repro.service import ServiceClient, ServiceError

#: Interactive p99 limit a ladder step must meet (with no failures and no
#: growing backlog) to count towards ``max_rate_rps``.
P99_LIMIT_MS = 50.0
#: A step where the generator itself started sends later than this (p99)
#: fell behind, and does not count.
LATE_LIMIT_MS = 10.0
BOOT_TIMEOUT_S = 60.0
#: Boots per pass; ``setup_s`` is their median and the last one serves.
BOOTS = 5
KS = (1, 2, 3)
#: Buckets per exact-mode body: exact arithmetic costs several times more
#: per bucket, so exact bodies are small.
EXACT_BUCKETS = 10
#: Buckets per batch member: a batch holds up the singles queued behind it
#: on the engine thread, so its members are smaller than singles.
BATCH_BUCKETS = 20
#: Bucketizations per ``/disclosure`` batch.
BATCH_SIZE = 4
#: Tables published to at a time, and the versions each one receives.
ACTIVE_TABLES = 16
VERSIONS_PER_TABLE = 4
#: The nominal-rate traffic is sent in this many chunks.
NOMINAL_CHUNKS = 8
#: Closed-loop passes and requests per pass; ``wall_s`` is the median pass.
#: A multiple of NOMINAL_CHUNKS, so every round holds as many passes.
CLOSED_PASSES = 16
CLOSED_OPS = 125
#: Clients of a closed-loop pass. With one per core (two on a 2-vCPU host),
#: passes of 250 requests in a single run took 0.24-0.57 s: they measured
#: where the scheduler put the client and server threads as much as the
#: server.
CLOSED_CLIENTS = 1
COMPARE_KS = [0, 1, 2, 3]
SAFETY_C = 0.9
PUBLISH_C = 0.9
PUBLISH_K = 1


@dataclass(frozen=True)
class ServingConfig:
    shards: int
    #: Nominal open-loop rate (req/s) for p50/p99.
    nominal_rps: float
    #: Fixed rates stepped through for ``max_rate_rps``.
    ladder: tuple[float, ...]
    #: ``(kind, weight)`` request mix.
    mix: tuple[tuple[str, float], ...]
    #: Buckets per single ``/disclosure`` body (hot and never-seen).
    miss_buckets: int
    #: Distinct bodies in the hot set, all in the cache before traffic.
    hot_size: int
    #: ``--workers`` for ``repro serve`` (None keeps the CLI default).
    workers: int | None = None


WORKLOADS = {
    "serve_mixed": ServingConfig(
        shards=1,
        nominal_rps=125.0,
        ladder=(125.0, 200.0, 800.0),
        mix=(
            ("hot", 0.76),
            ("miss", 0.15),
            ("exact", 0.01),
            ("compare", 0.04),
            ("safety", 0.03),
            ("batch", 0.01),
        ),
        miss_buckets=40,
        hot_size=48,
    ),
    "shard_publish": ServingConfig(
        shards=2,
        nominal_rps=70.0,
        ladder=(70.0, 120.0, 800.0),
        mix=(
            ("publish", 0.15),
            ("releases", 0.02),
            ("release", 0.14),
            ("hot", 0.10),
            ("miss", 0.59),
        ),
        miss_buckets=10,
        hot_size=32,
        # Two shards already take both cores of a 2-core box; one engine
        # thread per shard keeps the backend's worker processes out of
        # this workload, which measures the router, publish and ledger.
        workers=1,
    ),
}


# ----------------------------------------------------------------------
# Answers
# ----------------------------------------------------------------------
def same(a, b) -> bool:
    """Bit-identical equality: floats by their bits, Fractions exactly,
    containers element-wise."""
    if isinstance(a, float) or isinstance(b, float):
        return type(a) is type(b) and a.hex() == b.hex()
    if isinstance(a, Fraction) or isinstance(b, Fraction):
        return type(a) is type(b) and a == b
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(same(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return len(a) == len(b) and all(same(x, y) for x, y in zip(a, b))
    return a == b


_VERDICT_VALUES = ("value", "composition_value", "threshold", "c")


def decision(verdict: dict) -> dict:
    """A publish verdict without its ``work`` counters, values decoded."""
    out = {key: value for key, value in verdict.items() if key != "work"}
    for key in _VERDICT_VALUES:
        out[key] = decode_value(out[key])
    return out


class Oracle:
    """Direct engine answers, computed untimed from the same inputs."""

    def __init__(self) -> None:
        self.float = DisclosureEngine()
        self.exact = DisclosureEngine(exact=True)

    def engine(self, exact: bool) -> DisclosureEngine:
        return self.exact if exact else self.float


# ----------------------------------------------------------------------
# Request mix
# ----------------------------------------------------------------------
class Mix:
    """Seeded request generator for one serving workload.

    Each op carries ``expect(oracle)`` — the direct-engine answer — except
    publishes, which are checked by replay.
    """

    def __init__(self, cfg: ServingConfig, seed: int) -> None:
        self.cfg = cfg
        self.rng = random.Random(seed)
        pool = bucket_pool(seed)
        # Request bodies use mid-size buckets, so that a body's cost varies
        # little from seed to seed; publishes use diverse ones, so that
        # most versions pass the composition check.
        self.draw = BucketDraw(
            [b for b in pool if 6 <= len(b) <= 16], random.Random(seed + 1)
        )
        self.hot = [
            (self.draw.buckets(cfg.miss_buckets), self.rng.choice(KS))
            for _ in range(cfg.hot_size)
        ]
        publish_pool = [b for b in pool if len(set(b)) >= 8]
        self.publish_draw = BucketDraw(publish_pool, random.Random(seed + 2))
        self.seed = seed
        self.publishes = 0
        self.table_buckets: dict[str, list] = {}
        self.prepped: list[tuple[str, list]] = []  # prep publishes, in order
        self.prep_verdicts: dict[tuple[str, int], dict] = {}
        self.inputs: list = []  # every generated body, for the input hash

    # -- bodies ---------------------------------------------------------
    def _grow(self, table: str) -> tuple[str, list]:
        """The next version of ``table``: four buckets, then two more per
        version."""
        held = self.table_buckets.get(table, [])
        grown = held + self.publish_draw.buckets(2 if held else 4)
        self.table_buckets[table] = grown
        return table, [list(b) for b in grown]

    def _publish_body(self) -> tuple[str, list]:
        # Publishes cycle through groups of ACTIVE_TABLES tables, taking
        # each to VERSIONS_PER_TABLE versions before the next group starts,
        # so the cost of a publish (it grows with a table's versions) does
        # not drift through the run.
        j = self.publishes
        self.publishes += 1
        group = j // (ACTIVE_TABLES * VERSIONS_PER_TABLE)
        return self._grow(f"t{self.seed}g{group}x{j % ACTIVE_TABLES}")

    def prep_publishes(self, count: int) -> list[tuple[str, list]]:
        """First versions of ``count`` tables that release reads target."""
        self.prepped = [self._grow(f"p{self.seed}x{i}") for i in range(count)]
        self.inputs.append(["prep", self.prepped])
        return self.prepped

    # -- ops -------------------------------------------------------------
    def ops(self, count: int) -> list[Op]:
        """``count`` ops in the mix's exact proportions, in seeded order
        (stratified, so every step carries the same share of each kind)."""
        kinds = [
            kind
            for kind, weight in self.cfg.mix
            for _ in range(round(weight * count))
        ]
        self.rng.shuffle(kinds)
        return [getattr(self, f"_op_{kind}")() for kind in kinds]

    def _single(self, kind, buckets, k, exact=False) -> Op:
        self.inputs.append([kind, buckets, k, exact])
        return Op(
            kind,
            lambda client: client.disclosure(buckets, k, exact=exact),
            expect=lambda oracle: oracle.engine(exact).evaluate(
                Bucketization.from_value_lists(buckets), k
            ),
        )

    def _op_hot(self) -> Op:
        buckets, k = self.rng.choice(self.hot)
        return self._single("hot", buckets, k)

    def _op_miss(self) -> Op:
        return self._single(
            "miss", self.draw.buckets(self.cfg.miss_buckets),
            self.rng.choice(KS),
        )

    def _op_exact(self) -> Op:
        return self._single(
            "exact", self.draw.buckets(EXACT_BUCKETS),
            self.rng.choice(KS), exact=True,
        )

    def _op_compare(self) -> Op:
        buckets, _k = self.rng.choice(self.hot)
        self.inputs.append(["compare", buckets])
        return Op(
            "compare",
            lambda client: client.compare(buckets, COMPARE_KS),
            expect=lambda oracle: oracle.float.compare(
                Bucketization.from_value_lists(buckets), COMPARE_KS
            ),
        )

    def _op_safety(self) -> Op:
        buckets, k = self.rng.choice(self.hot)
        self.inputs.append(["safety", buckets, k])

        def call(client):
            answer = client.safety(buckets, SAFETY_C, k)
            return {"safe": answer["safe"], "value": answer["value"]}

        def expect(oracle):
            b = Bucketization.from_value_lists(buckets)
            return {
                "safe": oracle.float.is_safe(b, SAFETY_C, k),
                "value": oracle.float.evaluate(b, k),
            }

        return Op("safety", call, expect=expect)

    def _op_batch(self, exact: bool = False) -> Op:
        size = EXACT_BUCKETS if exact else BATCH_BUCKETS
        bodies = [self.draw.buckets(size) for _ in range(BATCH_SIZE)]
        self.inputs.append(["batch", bodies, exact])
        return Op(
            "batch",
            lambda client: client.disclosure_batch(
                bodies, list(KS), exact=exact
            ),
            interactive=False,
            expect=lambda oracle: oracle.engine(exact).evaluate_many(
                [Bucketization.from_value_lists(b) for b in bodies], KS
            ),
        )

    def warm_ops(self, count: int) -> list[Op]:
        """The warm-up: ``count`` ops of the mix, led (when the mix has
        batches) by one float and one exact batch, so that both engines'
        backend workers exist before anything is timed."""
        lead = []
        if any(kind == "batch" for kind, _ in self.cfg.mix):
            lead = [self._op_batch(), self._op_batch(exact=True)]
        return lead + self.ops(count)

    def _op_publish(self) -> Op:
        table, buckets = self._publish_body()
        self.inputs.append(["publish", table, buckets])
        return Op(
            "publish",
            lambda client: client.publish(
                table, buckets, c=PUBLISH_C, k=PUBLISH_K
            ),
            publish=(table, buckets),
        )

    def _op_release(self) -> Op:
        table, version = self.rng.choice(sorted(self.prep_verdicts))
        self.inputs.append(["release", table, version])
        return Op(
            "release",
            lambda client: decision(client.release(table, version)["verdict"]),
            expect=lambda oracle: self.prep_verdicts[(table, version)],
        )

    def _op_releases(self) -> Op:
        def call(client):
            listed = {
                (entry["table"], entry["version"]): entry["accepted"]
                for entry in client.releases()["releases"]
            }
            return {key: listed.get(key) for key in self.prep_verdicts}

        return Op(
            "releases",
            call,
            expect=lambda oracle: {
                key: verdict["accepted"]
                for key, verdict in self.prep_verdicts.items()
            },
        )


# ----------------------------------------------------------------------
# The server process
# ----------------------------------------------------------------------
def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class Server:
    """One ``repro serve`` subprocess (optionally through the span
    launcher), with its boot time measured to the first healthy answer."""

    def __init__(self, args: list[str], log: Path,
                 spans: Path | None = None) -> None:
        self.port = _free_port()
        if spans is None:
            argv = [sys.executable, "-m", "repro.cli"]
        else:
            argv = [sys.executable, str(Path(__file__).with_name("launch.py")),
                    str(spans)]
        argv += ["serve", "--port", str(self.port), *args]
        self.log = open(log, "ab")
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            argv,
            stdout=self.log,
            stderr=subprocess.STDOUT,
            env=common.subprocess_env(),
            cwd=common.ROOT,
        )
        self.memory = common.TreeMemory(self.proc.pid)
        with ServiceClient("127.0.0.1", self.port, timeout=5.0) as probe:
            while True:
                if self.proc.poll() is not None:
                    self.log.close()
                    raise RuntimeError(f"server exited during boot; see {log}")
                try:
                    probe.health()
                    break
                except (OSError, ServiceError, http.client.HTTPException):
                    if time.perf_counter() - start > BOOT_TIMEOUT_S:
                        self.stop()
                        raise RuntimeError(
                            f"server never became healthy; see {log}"
                        ) from None
                    time.sleep(0.005)
        self.boot_s = time.perf_counter() - start

    def client(self) -> ServiceClient:
        return ServiceClient("127.0.0.1", self.port, timeout=60.0, pool_size=1)

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.log.close()


class MemorySampler:
    """Samples a server tree's RSS every half second while traffic runs."""

    def __init__(self, memory: common.TreeMemory) -> None:
        self.memory = memory
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread.start()

    def _loop(self) -> None:
        while not self._stop.is_set():
            self.memory.sample()
            self._stop.wait(0.5)

    def stop(self) -> None:
        self._stop.set()
        self._thread.join()
        self.memory.sample()


# ----------------------------------------------------------------------
# One pass: boot, traffic, stats, stop
# ----------------------------------------------------------------------
def _prepare(cfg: ServingConfig, mix: Mix, work: Path, args: list[str]):
    """Untimed state the server boots from."""
    if cfg.shards == 1:
        # Cache files written directly by the engine's own persistence.
        warm = DisclosureEngine()
        for buckets, _k in mix.hot:
            b = Bucketization.from_value_lists(buckets)
            warm.series(b, KS)
            warm.compare(b, COMPARE_KS)
        warm.save_cache(work / "cache.float.pkl")
        DisclosureEngine(exact=True).save_cache(work / "cache.exact.pkl")
        return
    # Sharded: let the router place the warm entries and first releases.
    server = Server(args, work / "prep.log")
    try:
        with server.client() as client:
            for buckets, k in mix.hot:
                client.disclosure(buckets, k)
            for table, buckets in mix.prep_publishes(24):
                verdict = client.publish(
                    table, buckets, c=PUBLISH_C, k=PUBLISH_K
                )
                mix.prep_verdicts[(table, verdict["version"])] = decision(
                    verdict
                )
    finally:
        server.stop()


def _serve_args(cfg: ServingConfig, work: Path) -> list[str]:
    args = ["--cache-file", str(work / "cache")]
    if cfg.shards > 1:
        args += ["--shards", str(cfg.shards),
                 "--ledger-file", str(work / "ledger.sqlite")]
    if cfg.workers is not None:
        args += ["--workers", str(cfg.workers)]
    return args


def run_pass(cfg: ServingConfig, seed: int, seconds: float, work: Path,
             *, traced: bool) -> dict:
    """Everything for one untraced or traced pass; returns raw results."""
    mix = Mix(cfg, seed)
    args = _serve_args(cfg, work)
    _prepare(cfg, mix, work, args)

    chunk_s = 0.65 * seconds / NOMINAL_CHUNKS
    step_s = 0.25 * seconds / len(cfg.ladder)
    warm = mix.warm_ops(int(1.5 * cfg.nominal_rps))
    nominal = [
        mix.ops(int(chunk_s * cfg.nominal_rps)) for _ in range(NOMINAL_CHUNKS)
    ]
    ladder = [mix.ops(int(step_s * rate)) for rate in cfg.ladder]
    closed = [mix.ops(CLOSED_OPS) for _ in range(CLOSED_PASSES)]

    spans_path = work / "server-spans.json" if traced else None
    boots = []
    for attempt in range(BOOTS):
        last = attempt == BOOTS - 1
        server = Server(args, work / "server.log",
                        spans=spans_path if last else None)
        boots.append(server.boot_s)
        if not last:
            server.stop()
    threads = common.nproc()
    clients = [server.client() for _ in range(threads)]
    tracer = tracing.Tracer() if traced else None
    if tracer is not None:
        tracer.wrap_method(ServiceClient, "request", "client.request")
    sampler = MemorySampler(server.memory)
    try:
        open_loop(warm, cfg.nominal_rps, clients)
        # Nominal chunks, closed passes and ladder steps take turns, so a
        # slow spell of the host lands on a share of each, not on one. The
        # top ladder step overloads the server on purpose and runs last:
        # on some runs everything after such a step ran 40-70% slower.
        steps, passes = {}, []
        per_round = CLOSED_PASSES // NOMINAL_CHUNKS
        for i in range(NOMINAL_CHUNKS):
            steps[f"nominal_{i + 1}"] = open_loop(
                nominal[i], cfg.nominal_rps, clients
            )
            for ops in closed[i * per_round:(i + 1) * per_round]:
                passes.append(closed_loop(ops, clients[:CLOSED_CLIENTS]))
            if i < len(ladder) - 1:
                rate = cfg.ladder[i]
                steps[f"ladder_{rate:g}"] = open_loop(ladder[i], rate, clients)
        rate = cfg.ladder[-1]
        steps[f"ladder_{rate:g}"] = open_loop(ladder[-1], rate, clients)
        if tracer is not None:
            tracer.unwrap_all()
        with server.client() as client:
            stats = client.stats()
    finally:
        sampler.stop()
        if tracer is not None:
            tracer.unwrap_all()
        for client in clients:
            client.close()
        server.stop()

    all_ops = warm + [
        op for ops in nominal + ladder + closed for op in ops
    ]
    return {
        "nominal_rps": cfg.nominal_rps,
        "mix": mix,
        "boots": boots,
        "steps": steps,
        "passes": passes,
        "ops": all_ops,
        "stats": stats,
        "peak_rss_mb": server.memory.peak_mb,
        "client_spans": tracer.spans if tracer is not None else [],
        "server_spans": (
            tracing.load_spans(spans_path) if spans_path is not None else []
        ),
    }


# ----------------------------------------------------------------------
# Checking
# ----------------------------------------------------------------------
def check(result: dict) -> tuple[int, list[str]]:
    """Check every answer; returns ``(wrong, notes)``. A failed request
    is counted by the caller, not here."""
    mix: Mix = result["mix"]
    oracle = Oracle()
    wrong, notes = 0, []
    publishes: dict[str, list[tuple[int, Op]]] = {}
    for op in result["ops"]:
        if op.error is not None:
            continue
        if op.kind == "publish":
            table, _buckets = op.publish
            publishes.setdefault(table, []).append((op.answer["version"], op))
            continue
        if not same(op.answer, op.expect(oracle)):
            wrong += 1
            if len(notes) < 5:
                notes.append(f"{op.kind}: {op.answer!r} != expected")
    # Replay every table's versions, prepared ones first, in server order.
    replay = RepublicationEngine(DisclosureEngine(), ReleaseLedger())
    prep_by_table: dict[str, list[list]] = {}
    for table, buckets in mix.prepped:
        prep_by_table.setdefault(table, []).append(buckets)
    for table in sorted(set(prep_by_table) | set(publishes)):
        for buckets in prep_by_table.get(table, []):
            replay.publish(
                table, Bucketization.from_value_lists(buckets),
                c=PUBLISH_C, k=PUBLISH_K,
            )
        for _version, op in sorted(publishes.get(table, []),
                                   key=lambda item: item[0]):
            expected = replay.publish(
                table, Bucketization.from_value_lists(op.publish[1]),
                c=PUBLISH_C, k=PUBLISH_K,
            )
            if not same(decision(op.answer), decision(expected)):
                wrong += 1
                if len(notes) < 5:
                    notes.append(f"publish {table} v{_version} differs")
    replay.ledger.close()
    return wrong, notes


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def _step_summary(step) -> dict:
    lat = latencies_ms(step.ops, interactive=True)
    return {
        "rate": step.rate,
        "sent": step.sent(),
        "succeeded": step.sent() - step.failed(),
        "failed": step.failed(),
        "p50_ms": percentile(lat, 0.5),
        "p99_ms": percentile(lat, 0.99),
        "late_p99_ms": step.late_p99_ms(),
        "in_flight_at_end": step.backlog_at_end(),
        "backlog_grew": step.backlog_grew(),
        "achieved_rps": step.achieved_rps(),
    }


def _meets_limit(summary: dict) -> bool:
    return (
        summary["failed"] == 0
        and summary["p99_ms"] <= P99_LIMIT_MS
        and summary["late_p99_ms"] <= LATE_LIMIT_MS
        and not summary["backlog_grew"]
    )


def end_to_end(result: dict) -> tuple[dict, dict]:
    """``(metrics, step table)`` from one pass."""
    steps = {name: _step_summary(step) for name, step in result["steps"].items()}
    passing = [
        s for name, s in steps.items()
        if name.startswith("ladder_") and _meets_limit(s)
    ]
    if passing:
        max_rate = max(passing, key=lambda s: s["rate"])["achieved_rps"]
    else:  # nothing met the limit: report the lowest step's throughput
        max_rate = min(
            (s for n, s in steps.items() if n.startswith("ladder_")),
            key=lambda s: s["rate"],
        )["achieved_rps"]
    at_nominal = _nominal_ops(result)
    metrics = {
        "setup_s": (median(result["boots"]), "s"),
        "wall_s": (median([p.duration for p in result["passes"]]), "s"),
        "p50_ms": (median(latencies_ms(at_nominal, interactive=True)), "ms"),
        "p99_ms": (percentile(latencies_ms(at_nominal, interactive=True),
                              0.99), "ms"),
        "max_rate_rps": (max_rate, "1/s"),
        "hit_p50_ms": (median(latencies_ms(at_nominal, kind="hot")), "ms"),
        "miss_p50_ms": (median(latencies_ms(at_nominal, kind="miss")), "ms"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
    }
    return metrics, steps


def _nominal_ops(result: dict) -> list[Op]:
    """Every op sent at the nominal rate (the nominal chunks and the ladder
    step at the same rate), in due order."""
    rate = result["nominal_rps"]
    ops = [
        op for step in result["steps"].values() if step.rate == rate
        for op in step.ops
    ]
    return sorted(ops, key=lambda op: op.due)


def _kind_p50(result: dict, kind: str) -> float:
    lat = latencies_ms(_nominal_ops(result), kind=kind)
    return median(lat) if lat else 0.0


def _service_sections(stats: dict) -> list[dict]:
    """Every per-service ``/stats`` body: the service itself, or each
    shard behind a router."""
    if "router" in stats:
        return [s for s in stats["shards"] if "service" in s]
    return [stats]


def _by_endpoint(sections: list[dict]) -> dict[str, int]:
    """Request counts per endpoint, summed over ``/stats`` sections (a
    service's ``service`` part, or the router's own)."""
    out: dict[str, int] = {}
    for section in sections:
        counts = section.get("service", section)["by_endpoint"]
        for endpoint, count in counts.items():
            key = "release" if endpoint.startswith("/releases/") else (
                endpoint.strip("/")
            )
            out[key] = out.get(key, 0) + count
    return out


def per_layer(result: dict, untraced: dict) -> tuple[dict, list[str]]:
    """Per-layer metrics of a traced pass, plus cross-check failures."""
    stats = result["stats"]
    spans = result["server_spans"] + result["client_spans"]
    summary = tracing.summarize(spans)
    layers = tracing.layer_self_times(summary)

    def total(name: str, field: str = "total_s") -> float:
        return summary.get(name, {}).get(field, 0.0)

    services = _service_sections(stats)
    engines = [
        engine for s in services for engine in s["engines"].values()
    ]
    by_endpoint = _by_endpoint(services)
    svc = {
        field: sum(s["service"][field] for s in services)
        for field in (
            "requests_total",
            "single_requests",
            "cache_fast_hits",
            "coalesced_batches",
            "coalesced_singles",
            "publish_multisets_evaluated",
            "publish_multisets_reused",
            "publishes_total",
            "publishes_accepted",
        )
    }
    evaluations = sum(e["stats"]["evaluations"] for e in engines)
    cache_hits = sum(e["stats"]["cache_hits"] for e in engines)
    backend = [e["backend"] for e in engines]
    router = stats.get("router", {})
    ledger = stats.get("ledger", {})
    ops = result["ops"]
    sent = [op for op in ops if op.start]

    m: dict[str, tuple[float, str]] = {
        "engine.evaluate_calls": (
            sum(total(f"engine.{a}", "count") for a in
                ("evaluate", "series", "evaluate_many", "compare",
                 "is_safe")), "count"),
        "engine.evaluate_s": (layers["engine"], "s"),
        "engine.evaluations": (evaluations, "count"),
        "engine.hit_rate": (ratio(cache_hits, evaluations), "ratio"),
        "engine.distinct_signatures": (
            sum(e["plane_signatures"] for e in engines), "count"),
        "engine.cache_entries": (
            sum(e["cache_entries"] for e in engines), "count"),
        "engine.load_cache_s": (total("engine.load_cache"), "s"),
        "core.kernel_calls": (
            total("core.minimize1", "count")
            + total("core.minimize2", "count"), "count"),
        "core.kernel_s": (layers["core"], "s"),
        "backend.run_calls": (total("backend.run", "count"), "count"),
        "backend.run_s": (total("backend.run"), "s"),
        "backend.tasks": (
            sum(e["stats"]["parallel_tasks"] for e in engines), "count"),
        "backend.shipped_signatures": (
            sum(b.get("signatures_shipped", 0) for b in backend), "count"),
        "backend.failures": (
            sum(b.get("respawns", 0) for b in backend), "count"),
        "server.requests": (svc["requests_total"], "count"),
        "server.handle_s": (layers["server"], "s"),
        "server.coalesce_wait_s": (total("server.coalesce_wait"), "s"),
        "server.single_disclosures": (svc["single_requests"], "count"),
        "server.fast_hit_ratio": (
            ratio(svc["cache_fast_hits"], svc["single_requests"]), "ratio"),
        "server.coalesced_batches": (svc["coalesced_batches"], "count"),
        "server.singles_per_batch": (
            ratio(svc["coalesced_singles"], svc["coalesced_batches"]),
            "ratio"),
        "client.requests": (total("client.request", "count"), "count"),
        "client.request_s": (total("client.request"), "s"),
        "client.overhead_s": (
            total("client.request")
            - total("router.dispatch" if router else "server.dispatch"),
            "s"),
        "router.requests": (router.get("requests_total", 0), "count"),
        "router.fast_hit_ratio": (
            ratio(router.get("fast_hits", 0), router.get("requests_total", 0)),
            "ratio"),
        "router.memo_hit_ratio": (
            ratio(router.get("route_memo_hits", 0),
                  router.get("requests_total", 0)), "ratio"),
        "router.forward_s": (total("router.forward"), "s"),
        "router.replays": (router.get("replays", 0), "count"),
        "router.restarts": (router.get("restarts", 0), "count"),
        "publish.publishes": (svc["publishes_total"], "count"),
        "publish.publish_s": (total("publish.publish"), "s"),
        "publish.multisets": (
            svc["publish_multisets_reused"]
            + svc["publish_multisets_evaluated"], "count"),
        "publish.reuse_ratio": (
            ratio(svc["publish_multisets_reused"],
                  svc["publish_multisets_reused"]
                  + svc["publish_multisets_evaluated"]), "ratio"),
        "publish.accepted_ratio": (
            ratio(svc["publishes_accepted"], svc["publishes_total"]),
            "ratio"),
        "ledger.record_s": (total("ledger.record"), "s"),
        "ledger.read_s": (total("ledger.read"), "s"),
        "ledger.rows": (ledger.get("releases", 0), "count"),
        "p99_ms": (end_to_end(untraced)[0]["p99_ms"][0], "ms"),
        "gen.late_p99_ms": (
            max(s.late_p99_ms() for s in result["steps"].values()), "ms"),
        "batch_p50_ms": (_kind_p50(result, "batch"), "ms"),
        "publish_p50_ms": (_kind_p50(result, "publish"), "ms"),
    }
    for endpoint in ("disclosure", "compare", "safety", "publish",
                     "releases", "release"):
        m[f"server.requests.{endpoint}"] = (
            by_endpoint.get(endpoint, 0), "count")
    for layer, seconds in layers.items():
        m[f"{layer}.self_s"] = (seconds, "s")

    # Cross-checks: counters must agree with what the client sent.
    problems: list[str] = []
    sent_by_kind: dict[str, int] = {}
    for op in sent:
        sent_by_kind[op.kind] = sent_by_kind.get(op.kind, 0) + 1
    singles = sum(sent_by_kind.get(k, 0) for k in ("hot", "miss", "exact"))
    if m["client.requests"][0] != len(sent):
        problems.append(
            f"client spans {m['client.requests'][0]} != sent {len(sent)}"
        )
    sent_endpoints = {
        "disclosure": singles + sent_by_kind.get("batch", 0),
        "compare": sent_by_kind.get("compare", 0),
        "safety": sent_by_kind.get("safety", 0),
        "publish": sent_by_kind.get("publish", 0),
        "releases": sent_by_kind.get("releases", 0),
        "release": sent_by_kind.get("release", 0),
    }
    edge = _by_endpoint([router] if router else services)
    for endpoint, count in sent_endpoints.items():
        if edge.get(endpoint, 0) != count:
            problems.append(
                f"edge counted {edge.get(endpoint, 0)} {endpoint}, "
                f"client sent {count}"
            )
    if router:
        # Every routed request is answered by the cache peek or forwarded
        # (GET /releases and the /stats read fan out to every shard).
        shards = len(stats["shards"])
        routed = (
            singles
            + sent_endpoints["publish"]
            + sent_endpoints["release"]
            + shards * (sent_endpoints["releases"] + 1)
        )
        if router["fast_hits"] + router["proxied"] != routed:
            problems.append(
                f"router fast_hits {router['fast_hits']} + forwarded "
                f"{router['proxied']} != routed {routed}"
            )
    verdicts = [op.answer for op in sent
                if op.kind == "publish" and op.error is None]
    work = (
        sum(v["work"]["reused_multisets"] for v in verdicts),
        sum(v["work"]["evaluated_multisets"] for v in verdicts),
    )
    counted = (svc["publish_multisets_reused"],
               svc["publish_multisets_evaluated"])
    if counted != work:
        problems.append(
            f"publish counters (reused, evaluated) {counted} != verdict "
            f"work totals {work}"
        )
    untraced_e2e, _ = end_to_end(untraced)
    traced_e2e, _ = end_to_end(result)
    m["trace.overhead_wall_s"] = (
        traced_e2e["wall_s"][0] - untraced_e2e["wall_s"][0], "s")
    m["trace.overhead_p50_ms"] = (
        traced_e2e["p50_ms"][0] - untraced_e2e["p50_ms"][0], "ms")
    return m, problems


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark invocation of a serving workload."""
    cfg = WORKLOADS[name]
    base = common.WORK / f"{name}-{seed}-{int(time.time() * 1e3)}"
    passes = {}
    try:
        for traced in ([False, True] if trace else [False]):
            work = base / ("traced" if traced else "plain")
            work.mkdir(parents=True)
            passes[traced] = run_pass(cfg, seed, seconds, work,
                                      traced=traced)
    finally:
        shutil.rmtree(base, ignore_errors=True)
        with contextlib.suppress(OSError):
            common.WORK.rmdir()

    attempted = failed = 0
    notes: list[str] = []
    for result in passes.values():
        errors = sum(1 for op in result["ops"] if op.error is not None)
        wrong, wrong_notes = check(result)
        attempted += len(result["ops"])
        failed += errors + wrong
        notes += wrong_notes + [
            op.error for op in result["ops"] if op.error is not None
        ][:5]
    plain = passes[False]
    metrics, steps = end_to_end(plain)
    record = {
        "provenance": common.provenance(
            workload=name,
            seed=seed,
            inputs_hash=common.inputs_sha256(plain["mix"].inputs),
            kernel=_service_sections(plain["stats"])[0]["engines"]["float"][
                "stats"]["kernel"],
            shard_mode=(
                plain["stats"]["router"]["shard_mode"]
                if "router" in plain["stats"]
                else "single"
            ),
        ),
        "config": {
            "nominal_rps": cfg.nominal_rps,
            "ladder": cfg.ladder,
            "mix": cfg.mix,
            "threads": common.nproc(),
            "p99_limit_ms": P99_LIMIT_MS,
            "late_limit_ms": LATE_LIMIT_MS,
        },
        "boots_s": plain["boots"],
        "closed_loop_s": [p.duration for p in plain["passes"]],
        "steps": steps,
        "error_rate": ratio(failed, attempted),
        "notes": notes,
        "end_to_end": {k: v[0] for k, v in metrics.items()},
        "batch_p50_ms": _kind_p50(plain, "batch"),
        "publish_p50_ms": _kind_p50(plain, "publish"),
    }
    correct = failed == 0
    if trace:
        layer_metrics, problems = per_layer(passes[True], plain)
        record["cross_check_failures"] = problems
        record["traced_end_to_end"] = {
            k: v[0] for k, v in end_to_end(passes[True])[0].items()
        }
        correct = correct and not problems
        metrics = layer_metrics
    return {"record": record, "correct": correct, "attempted": attempted,
            "failed": failed, "metrics": metrics}

