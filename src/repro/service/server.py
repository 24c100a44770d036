"""The disclosure service: a stdlib-only asyncio HTTP layer over the engine.

:class:`DisclosureService` wraps two long-lived
:class:`~repro.engine.engine.DisclosureEngine` instances — one per
arithmetic mode — behind a small JSON-over-HTTP API, and adds the one thing
a serving layer can do that a library call cannot: **request coalescing**.
Concurrent single ``/disclosure`` requests are drained into groups of
``(mode, model, k)`` and evaluated as one
:meth:`~repro.engine.engine.DisclosureEngine.evaluate_many` call on the
signature plane, so N clients asking about the same (or same-shaped)
anonymization cost one computation, and a parallel execution backend sees
real batches instead of single lookups.

The HTTP dialect lives in :mod:`repro.service.httpbase`
(:class:`~repro.service.httpbase.JsonHttpServer`): **keep-alive**
HTTP/1.1 with per-request read timeouts and connection caps — one
connection carries many requests, which is what lets the pooled
:class:`~repro.service.client.ServiceClient` amortize TCP setup away.
Endpoints:

=====================  ====  ==================================================
path                   verb  body / answer
=====================  ====  ==================================================
``/disclosure``        POST  single ``{buckets, k, model?, exact?, witness?}``
                             or batch ``{bucketizations, ks, model?, exact?}``
``/safety``            POST  ``{buckets, c, k, model?, exact?}`` -> safe + value
``/compare``           POST  ``{buckets, ks, models?, exact?}`` -> per-model
                             series (Figure 5 as an endpoint)
``/publish``           POST  ``{table, buckets, c, k, model?, params?,
                             exact?, tenant?, full?, witness?}`` -> the
                             republication verdict (see
                             :mod:`repro.publish`)
``/releases``          GET   summaries of every recorded release + ledger
                             totals
``/releases/{t}/{v}``  GET   one full release record (``{t}`` may be
                             tenant-qualified as ``tenant:table``)
``/models``            GET   registry introspection (every registered
                             adversary and its contract flags)
``/stats``             GET   service counters (incl. connection/keep-alive
                             counters) + per-engine
                             :class:`~repro.engine.engine.EngineStats`,
                             cache/plane sizes, backend telemetry, ledger
                             totals
``/healthz``           GET   liveness
=====================  ====  ==================================================

Lifecycle matches the engine's: :meth:`DisclosureService.start` loads any
persisted cache (``load_cache``), :meth:`DisclosureService.stop` drains,
saves the caches and closes the engines — ``repro serve`` ties those to
process SIGTERM/SIGINT. :class:`BackgroundService` runs the whole thing on
a daemon thread for tests and benchmarks. For the horizontally sharded
topology (N of these processes behind a plane-key hash router) see
:mod:`repro.service.router`.
"""

from __future__ import annotations

import asyncio
import json
import re
import time
from collections import Counter
from collections.abc import Mapping
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Any, NamedTuple

from repro.bucketization.bucketization import Bucketization
from repro.engine.backend import PersistentBackend
from repro.engine.base import (
    AdversaryModel,
    available_adversaries,
    canonical_params,
    get_adversary,
    param_schema,
)
from repro.engine.engine import DisclosureEngine
from repro.engine.plane import CachePolicy
from repro.publish.engine import TABLE_NAME, RepublicationEngine
from repro.publish.ledger import ReleaseLedger, multiset_to_wire
from repro.service.httpbase import (
    MAX_BODY_BYTES,
    BackgroundHost,
    BadRequest,
    JsonHttpServer,
    Unavailable,
    require,
    require_ks,
)
from repro.service.wire import (
    bucketization_from_payload,
    decode_params,
    decode_value,
    encode_series,
    encode_value,
    encode_witness,
    signature_items_from_lists,
)

__all__ = [
    "MAX_BODY_BYTES",
    "ROUTES",
    "PREFIX_ROUTES",
    "Threat",
    "resolve_threat",
    "ServiceStats",
    "DisclosureService",
    "BackgroundService",
    "load_tenants",
]

#: Tenant ids become cache-file name components, so they are restricted to
#: a filename-safe alphabet up front.
_TENANT_ID = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_-]*$")
#: A shard-suffixed cache prefix (the router hands each shard
#: ``<prefix>.shard<i>``); tenants are namespaced *before* the suffix.
_SHARD_SUFFIX = re.compile(r"(\.shard\d+)$")


def load_tenants(source: str | Path | Mapping[str, Any]) -> dict[str, dict]:
    """Validate a tenant topology (a JSON file path, or its already-parsed
    mapping) into ``{tenant: {"model", "params", "params_wire"}}``.

    Each tenant entry maps a tenant id to its *default* threat model:
    an optional registered model ``name`` and an optional ``params`` wire
    object (decoded here once, and test-constructed so a bad topology
    fails at boot, not on the first request). ``params_wire`` keeps the
    original JSON shape for re-serialization (subprocess shards receive
    the topology over ``--tenants``).

    Raises :class:`ValueError` on any problem — the CLI maps that to a
    clean exit 1.
    """
    if isinstance(source, (str, Path)):
        try:
            raw = json.loads(Path(source).read_text(encoding="utf-8"))
        except OSError as exc:
            raise ValueError(f"cannot read tenants file {source}: {exc}") from None
        except json.JSONDecodeError as exc:
            raise ValueError(f"tenants file {source} is not JSON: {exc}") from None
    else:
        raw = source
    if not isinstance(raw, Mapping) or not raw:
        raise ValueError("tenants must be a non-empty JSON object")
    tenants: dict[str, dict] = {}
    for tenant, entry in raw.items():
        if not isinstance(tenant, str) or not _TENANT_ID.match(tenant):
            raise ValueError(
                f"tenant id {tenant!r} must match {_TENANT_ID.pattern} "
                "(it names cache files)"
            )
        if entry is None:
            entry = {}
        if not isinstance(entry, Mapping):
            raise ValueError(f"tenant {tenant!r} entry must be an object")
        unknown = set(entry) - {"model", "params"}
        if unknown:
            raise ValueError(
                f"tenant {tenant!r} has unknown keys {sorted(unknown)}"
            )
        name = entry.get("model", "implication")
        if name not in available_adversaries():
            raise ValueError(
                f"tenant {tenant!r} names unknown model {name!r}; "
                f"registered: {', '.join(available_adversaries())}"
            )
        params_wire = entry.get("params")
        params = decode_params(params_wire) if params_wire is not None else {}
        try:
            get_adversary(name, **params)
        except (TypeError, ValueError) as exc:
            raise ValueError(
                f"tenant {tenant!r} default params are invalid: {exc}"
            ) from None
        tenants[tenant] = {
            "model": name,
            "params": params,
            "params_wire": params_wire,
        }
    return tenants


#: The two engine modes a service always carries.
_MODES = ("float", "exact")
#: The models ``/compare`` evaluates when the request names none.
_COMPARE_MODELS = ["implication", "negation"]


class Threat(NamedTuple):
    """One request's resolved threat: what :func:`resolve_threat` returns.

    ``(tenant, mode, models, cparams)`` is the request's identity (see
    :attr:`key`); ``params`` are the decoded constructor kwargs and
    ``params_wire`` their original JSON shape (``None`` when no params
    apply), for re-encoding into an upstream request.
    """

    tenant: str | None
    mode: str
    models: tuple[str, ...]
    params: dict[str, Any]
    cparams: tuple
    params_wire: Any

    @property
    def model(self) -> str:
        """The model name of a single-model request."""
        return self.models[0]

    @property
    def key(self) -> tuple:
        """The hashable identity ``(tenant, mode, models, cparams)``."""
        return (self.tenant, self.mode, self.models, self.cparams)

    def answer(self, k: int, value: Any) -> dict[str, Any]:
        """The single ``/disclosure`` answer for an already-encoded value."""
        return {
            "model": self.model,
            "k": k,
            "exact": self.mode == "exact",
            "value": value,
        }


def resolve_threat(
    payload: Mapping[str, Any],
    tenants: Mapping[str, Mapping[str, Any]],
    *,
    compare: bool = False,
) -> Threat:
    """Validate a request body's threat fields into a :class:`Threat`.

    The one place the params-precedence rule lives, called by the service
    endpoints and by the shard router alike, so a request has one identity
    on every layer that keys on it. The rule: explicit ``model``/``params``
    fields win, and a ``tenant`` (validated against ``tenants``, as built
    by :func:`load_tenants`) supplies its defaults for whichever is absent.
    With ``compare`` the body names a ``models`` list instead (default
    implication and negation; a tenant never changes it), and one params
    object applies to every listed model.

    Raises :class:`~repro.service.httpbase.BadRequest` (or
    :class:`ValueError` from the params codec), both 400s. Whether the
    params suit the model is left to the model constructor.
    """
    tenant = require(payload, "tenant", str, optional=True, default=None)
    config = tenants.get(tenant) if tenant is not None else None
    if tenant is not None and config is None:
        raise BadRequest(
            f"unknown tenant {tenant!r}"
            + (
                f"; configured: {', '.join(sorted(tenants))}"
                if tenants
                else " (no tenants configured)"
            )
        )
    exact = require(payload, "exact", bool, optional=True, default=False)
    if compare:
        field = "models"
        names = payload.get(field, _COMPARE_MODELS)
        if not isinstance(names, list) or not names:
            raise BadRequest("'models' must be a non-empty list of names")
        if not all(isinstance(name, str) for name in names):
            raise BadRequest("'models' must be a list of model names")
    else:
        field = "model"
        default = config["model"] if config is not None else "implication"
        names = [require(payload, field, str, optional=True, default=default)]
    registered = available_adversaries()
    for name in names:
        if name not in registered:
            raise BadRequest(
                f"unknown adversary model {name!r}; registered: "
                f"{', '.join(registered)}"
            )
    if "params" in payload:
        params_wire = payload["params"]
        params = decode_params(params_wire)  # ValueError -> 400
    elif config is not None and field not in payload:
        params_wire = config["params_wire"]
        params = config["params"]
    else:
        params_wire, params = None, {}
    return Threat(
        tenant,
        "exact" if exact else "float",
        tuple(names),
        params,
        canonical_params(params),
        params_wire,
    )


#: The exact-match endpoint table: ``path -> (verb, handler attribute)``.
#: This is the single source of truth for what the tier serves — both
#: :class:`DisclosureService` and the shard router dispatch from it
#: (:meth:`~repro.service.httpbase.JsonHttpServer._route`), and
#: ``scripts/check_docs.py`` asserts ``docs/wire-protocol.md`` matches it.
ROUTES: dict[str, tuple[str, str]] = {
    "/disclosure": ("POST", "_ep_disclosure"),
    "/safety": ("POST", "_ep_safety"),
    "/compare": ("POST", "_ep_compare"),
    "/publish": ("POST", "_ep_publish"),
    "/models": ("GET", "_ep_models"),
    "/releases": ("GET", "_ep_releases"),
    "/stats": ("GET", "_ep_stats"),
    "/healthz": ("GET", "_ep_healthz"),
}

#: Parameterized endpoints, matched by path prefix. The handler receives
#: the raw path and parses its trailing segments.
PREFIX_ROUTES: dict[str, tuple[str, str]] = {
    "/releases/": ("GET", "_ep_release"),
}


class ServiceStats:
    """The serving-layer counters behind ``/stats`` (engine counters live on
    each engine's own :class:`~repro.engine.engine.EngineStats`).

    ``coalesced_batches`` counts engine calls that served **more than one**
    concurrent single request; ``coalesced_singles`` counts the singles so
    served — together they are the observable behind the coalescing claim
    tested end-to-end and benchmarked in ``benchmarks/bench_service.py``.
    """

    def __init__(self) -> None:
        self.started = time.monotonic()
        self.requests_total = 0
        self.by_endpoint: Counter[str] = Counter()
        self.by_status: Counter[int] = Counter()
        self.single_requests = 0
        self.batch_requests = 0
        self.cache_fast_hits = 0
        self.coalesced_batches = 0
        self.coalesced_singles = 0
        self.max_coalesced = 0
        self.by_tenant: Counter[str] = Counter()
        self.publishes_total = 0
        self.publishes_accepted = 0
        self.publishes_rejected = 0
        self.publish_multisets_evaluated = 0
        self.publish_multisets_reused = 0

    def note_coalesced(self, group_size: int) -> None:
        """Record one drained coalescer group of ``group_size`` singles."""
        if group_size > 1:
            self.coalesced_batches += 1
            self.coalesced_singles += group_size
        self.max_coalesced = max(self.max_coalesced, group_size)

    def note_publish(self, verdict: Mapping[str, Any]) -> None:
        """Fold one publish verdict's decision + work counters in."""
        work = verdict["work"]
        self.publishes_total += 1
        if verdict["accepted"]:
            self.publishes_accepted += 1
        else:
            self.publishes_rejected += 1
        self.publish_multisets_evaluated += work["evaluated_multisets"]
        self.publish_multisets_reused += work["reused_multisets"]

    def as_dict(self) -> dict[str, Any]:
        """The service counters as the ``/stats -> service`` JSON section."""
        return {
            "uptime_s": round(time.monotonic() - self.started, 3),
            "requests_total": self.requests_total,
            "by_endpoint": dict(self.by_endpoint),
            "by_status": {str(k): v for k, v in self.by_status.items()},
            "single_requests": self.single_requests,
            "batch_requests": self.batch_requests,
            "cache_fast_hits": self.cache_fast_hits,
            "coalesced_batches": self.coalesced_batches,
            "coalesced_singles": self.coalesced_singles,
            "max_coalesced": self.max_coalesced,
            "by_tenant": dict(self.by_tenant),
            "publishes_total": self.publishes_total,
            "publishes_accepted": self.publishes_accepted,
            "publishes_rejected": self.publishes_rejected,
            "publish_multisets_evaluated": self.publish_multisets_evaluated,
            "publish_multisets_reused": self.publish_multisets_reused,
        }


class _Pending:
    """One enqueued single evaluation awaiting a coalesced batch."""

    __slots__ = ("bucketization", "instance", "future")

    def __init__(
        self, bucketization: Bucketization, instance: AdversaryModel, future
    ) -> None:
        self.bucketization = bucketization
        #: The resolved model instance — every member of a coalescer group
        #: shares one (same name + canonical params => same engine memo).
        self.instance = instance
        self.future = future


class DisclosureService(JsonHttpServer):
    """A long-lived disclosure server over two mode-fixed engines.

    Parameters
    ----------
    host, port:
        Bind address; ``port=0`` picks an ephemeral port (read it back from
        :attr:`port` after :meth:`start` — the pattern tests and
        ``repro serve --port 0`` use).
    backend, workers, cache_limit, kernel:
        Engine construction knobs, exactly as the CLI flags: each mode's
        engine gets its own execution backend built from the ``backend``
        name, a :class:`~repro.engine.plane.CachePolicy` bounded by
        ``cache_limit``, and the MINIMIZE1/MINIMIZE2 ``kernel`` selector
        (the exact engine always resolves to scalar).
    cache_path:
        Optional path *prefix* for cache persistence. Boot loads
        ``<prefix>.float.pkl`` / ``<prefix>.exact.pkl`` when present
        (counts in :attr:`loaded_entries`); :meth:`stop` writes both back.
    batch_window:
        Seconds the coalescer waits after the first pending single request
        before draining the queue — the knob trading a little latency for
        batch size. 0 drains immediately (still coalescing whatever piled
        up while the engine thread was busy).
    request_timeout:
        Seconds a keep-alive connection may sit idle, or take to deliver a
        complete request, before it is dropped (slow-loris guard; ``None``
        disables — only for trusted loopback use).
    max_connections:
        Cap on concurrently open connections (503 beyond it; ``None`` =
        unbounded). The counters behind it appear under
        ``/stats -> service.connections``.
    ledger_file:
        Optional SQLite path for the release ledger behind ``/publish``
        (in-memory when absent — publish still works, but release history
        dies with the process). In a sharded fleet the router hands each
        subprocess shard ``<prefix>.shard<i>.sqlite``.

    Notes
    -----
    With ``backend="persistent"`` the worker processes fork lazily on the
    first coalesced batch, i.e. from a process that already runs the event
    loop and engine threads. The worker target only touches modules this
    package has already imported, so the usual fork-under-threads import
    deadlock does not apply to our own code — but a plugin model whose
    evaluation forks further, or an embedding application holding its own
    locks across threads, should prefer ``backend="serial"``/``"pool"`` or
    pass a pre-built backend with a ``spawn`` multiprocessing context.
    """

    routes = ROUTES
    prefix_routes = PREFIX_ROUTES

    def __init__(
        self,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        backend: str = "serial",
        workers: int = 1,
        kernel: str = "auto",
        cache_limit: int | None = None,
        cache_path: str | Path | None = None,
        batch_window: float = 0.002,
        request_timeout: float | None = 30.0,
        max_connections: int | None = None,
        tenants: str | Path | Mapping[str, Any] | None = None,
        ledger_file: str | Path | None = None,
    ) -> None:
        super().__init__(
            host=host,
            port=port,
            request_timeout=request_timeout,
            max_connections=max_connections,
        )
        if batch_window < 0:
            raise ValueError(f"batch_window must be >= 0, got {batch_window}")
        self.batch_window = batch_window
        self.cache_path = Path(cache_path) if cache_path is not None else None

        def _engine_pair() -> dict[str, DisclosureEngine]:
            return {
                mode: DisclosureEngine(
                    exact=(mode == "exact"),
                    policy=CachePolicy(max_entries=cache_limit),
                    workers=workers,
                    backend=backend,
                    kernel=kernel,
                )
                for mode in _MODES
            }

        self.engines: dict[str, DisclosureEngine] = _engine_pair()
        #: tenant id -> its default threat model (see :func:`load_tenants`).
        self.tenants: dict[str, dict] = (
            load_tenants(tenants) if tenants is not None else {}
        )
        #: tenant id -> its own mode-fixed engine pair. Structural cache
        #: isolation: a tenant's entries live in its own engines and
        #: persist to its own ``<prefix>.<tenant>[.shard<i>].<mode>.pkl``.
        self.tenant_engines: dict[str, dict[str, DisclosureEngine]] = {
            tenant: _engine_pair() for tenant in self.tenants
        }
        #: The release ledger behind ``/publish`` — persistent when
        #: ``ledger_file`` is given (the router hands each subprocess shard
        #: its own ``<prefix>.shard<i>.sqlite``), in-memory otherwise.
        self.ledger = ReleaseLedger(
            str(ledger_file) if ledger_file is not None else ":memory:"
        )
        #: Lazily-built ``(tenant-or-None, mode) ->``
        #: :class:`~repro.publish.engine.RepublicationEngine`, each wrapping
        #: this service's existing engine of that mode (publish work shares
        #: the engine cache with the interactive endpoints) and the shared
        #: ledger (tenant namespacing lives in the ledger rows).
        self._republishers: dict[
            tuple[str | None, str], RepublicationEngine
        ] = {}
        self.stats = ServiceStats()
        self.loaded_entries: dict[str, int] = dict.fromkeys(_MODES, 0)
        self.saved_entries: dict[str, int] = dict.fromkeys(_MODES, 0)
        self.tenant_loaded: dict[tuple[str, str], int] = {
            (tenant, mode): 0 for tenant in self.tenants for mode in _MODES
        }
        # All engine work runs on ONE executor thread: the engines are not
        # thread-safe, and the serialization is what piles concurrent
        # singles into the pending queue for the coalescer to drain.
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-engine"
        )
        #: Pending singles, grouped by everything that selects an engine
        #: call: the threat's ``(tenant, mode, models, canonical params)``
        #: identity plus ``k``.
        self._pending: dict[tuple, list[_Pending]] = {}
        self._kick: asyncio.Event | None = None
        self._dispatcher: asyncio.Task | None = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def _mode_cache_file(self, mode: str, tenant: str | None = None) -> Path:
        assert self.cache_path is not None
        base = self.cache_path.name
        if tenant is not None:
            # Tenant goes before any router-assigned shard suffix, giving
            # <prefix>.<tenant>.shard<i>.<mode>.pkl in a sharded fleet and
            # <prefix>.<tenant>.<mode>.pkl for a single service.
            if _SHARD_SUFFIX.search(base):
                base = _SHARD_SUFFIX.sub(rf".{tenant}\1", base)
            else:
                base = f"{base}.{tenant}"
        return self.cache_path.with_name(f"{base}.{mode}.pkl")

    def _all_engines(self):
        """Every ``(tenant-or-None, mode, engine)`` this service carries."""
        for mode, engine in self.engines.items():
            yield None, mode, engine
        for tenant, engines in self.tenant_engines.items():
            for mode, engine in engines.items():
                yield tenant, mode, engine

    async def start(self) -> None:
        """Load persisted caches, start the coalescer and the socket server."""
        await self.start_local()
        await self.start_http()

    async def start_local(self) -> None:
        """The socketless half of :meth:`start`: load persisted caches and
        start the coalescer — everything but the listening socket.

        This is how an **in-process shard** boots: the router embeds a
        :class:`DisclosureService` directly on its own event loop and
        feeds it through :meth:`~repro.service.httpbase.JsonHttpServer.dispatch`,
        so the engines, coalescer, stats and cache lifecycle behave exactly
        as in a subprocess shard — minus the socket and the extra process.
        """
        if self.cache_path is not None:
            for tenant, mode, engine in self._all_engines():
                path = self._mode_cache_file(mode, tenant)
                if path.exists():
                    loaded = engine.load_cache(path)
                    if tenant is None:
                        self.loaded_entries[mode] = loaded
                    else:
                        self.tenant_loaded[(tenant, mode)] = loaded
        self._kick = asyncio.Event()
        self._dispatcher = asyncio.create_task(
            self._dispatch_loop(), name="repro-coalescer"
        )

    async def stop(self) -> None:
        """Graceful shutdown: stop accepting, fail queued work with 503,
        persist both caches, close the engines."""
        await self.stop_http()
        await self.stop_local()

    async def stop_local(self) -> None:
        """The socketless half of :meth:`stop` (inverse of
        :meth:`start_local`): stop the coalescer, fail queued work with
        503, persist both caches, close the engines."""
        self._stopping = True
        if self._dispatcher is not None:
            self._dispatcher.cancel()
            try:
                await self._dispatcher
            except asyncio.CancelledError:
                pass
        for items in self._pending.values():
            for pending in items:
                if not pending.future.done():
                    pending.future.set_exception(
                        Unavailable("service is shutting down")
                    )
        self._pending.clear()
        if self.cache_path is not None:
            for tenant, mode, engine in self._all_engines():
                saved = engine.save_cache(self._mode_cache_file(mode, tenant))
                if tenant is None:
                    self.saved_entries[mode] = saved
        for _, _, engine in self._all_engines():
            engine.close()
        self._executor.shutdown(wait=True)
        self.ledger.close()

    # ------------------------------------------------------------------
    # The coalescer
    # ------------------------------------------------------------------
    async def _enqueue_single(
        self,
        threat: Threat,
        instance: AdversaryModel,
        k: int,
        bucketization: Bucketization,
    ):
        """Queue one single evaluation and await its coalesced result."""
        loop = asyncio.get_running_loop()
        future = loop.create_future()
        key = (*threat.key, k)
        self._pending.setdefault(key, []).append(
            _Pending(bucketization, instance, future)
        )
        assert self._kick is not None
        self._kick.set()
        return await future

    async def _dispatch_loop(self) -> None:
        """Drain pending singles into engine batches, one per
        ``(tenant, mode, model, canonical params, k)`` group.

        While a batch runs on the engine thread, newly arriving singles keep
        queueing; the loop re-drains until the queue is empty, so under load
        batches form organically even with ``batch_window = 0``.
        """
        assert self._kick is not None
        loop = asyncio.get_running_loop()
        while True:
            await self._kick.wait()
            self._kick.clear()
            if self.batch_window > 0:
                await asyncio.sleep(self.batch_window)
            while self._pending:
                groups, self._pending = self._pending, {}
                try:
                    for (tenant, mode, _models, _cp, k), items in groups.items():
                        engine = self._engines_for(tenant)[mode]
                        instance = items[0].instance
                        bs = [p.bucketization for p in items]
                        try:
                            if len(bs) == 1:
                                values = [
                                    await loop.run_in_executor(
                                        self._executor,
                                        lambda: engine.evaluate(
                                            bs[0], k, model=instance
                                        ),
                                    )
                                ]
                            else:
                                series = await loop.run_in_executor(
                                    self._executor,
                                    lambda: engine.evaluate_many(
                                        bs, [k], model=instance
                                    ),
                                )
                                values = [s[k] for s in series]
                        except Exception as exc:
                            for pending in items:
                                if not pending.future.done():
                                    pending.future.set_exception(exc)
                            continue
                        self.stats.note_coalesced(len(items))
                        for pending, value in zip(items, values):
                            if not pending.future.done():
                                pending.future.set_result(value)
                except asyncio.CancelledError:
                    # stop() cancelled us mid-drain: the drained groups are
                    # no longer in self._pending, so fail their unresolved
                    # futures here or their handlers would hang forever.
                    for items in groups.values():
                        for pending in items:
                            if not pending.future.done():
                                pending.future.set_exception(
                                    Unavailable("service is shutting down")
                                )
                    raise

    # ------------------------------------------------------------------
    # Routing and endpoints
    # ------------------------------------------------------------------
    def note_request(self, endpoint: str | None, status: int) -> None:
        """Count one handled request in the service stats."""
        self.stats.requests_total += 1
        if endpoint is not None and status != 404:
            # Unknown paths are counted by status only: a public socket
            # must not let probes grow the by-endpoint counter unboundedly.
            self.stats.by_endpoint[endpoint] += 1
        self.stats.by_status[status] += 1

    def _engines_for(self, tenant: str | None) -> dict[str, DisclosureEngine]:
        return self.engines if tenant is None else self.tenant_engines[tenant]

    def _bind_threat(
        self, payload: dict, *, compare: bool = False
    ) -> tuple[Threat, DisclosureEngine, list[AdversaryModel]]:
        """:func:`resolve_threat`, bound to this service: the threat, the
        engine it selects and one model instance per named model.

        Constructor failures — unknown param name (:class:`TypeError`),
        out-of-range value (:class:`ValueError`) — surface as a 400 with
        the message, never a 500.
        """
        threat = resolve_threat(payload, self.tenants, compare=compare)
        if threat.tenant is not None:
            self.stats.by_tenant[threat.tenant] += 1
        engine = self._engines_for(threat.tenant)[threat.mode]
        instances = []
        for name in threat.models:
            try:
                instances.append(engine.model(name, threat.params))
            except (TypeError, ValueError) as exc:
                raise BadRequest(
                    f"invalid params for model {name!r}: {exc}"
                ) from None
        return threat, engine, instances

    async def _ep_disclosure(self, payload: dict):
        if "bucketizations" in payload:
            return await self._ep_disclosure_batch(payload)
        threat, engine, (instance,) = self._bind_threat(payload)
        k = require(payload, "k", int)
        if k < 0:
            raise BadRequest(f"k must be non-negative, got {k}")
        raw_buckets = require(payload, "buckets", list)
        want_witness = require(
            payload, "witness", bool, optional=True, default=False
        )
        if not want_witness:
            # Cache-hit fast path: answer on the event loop, skipping both
            # the executor hop and the Bucketization build. peek_cached is
            # strictly read-only, so it is safe against the engine thread.
            cached = engine.peek_cached(
                instance, k, signature_items_from_lists(raw_buckets)
            )
            if cached is not None:
                self.stats.single_requests += 1
                self.stats.cache_fast_hits += 1
                return 200, threat.answer(k, encode_value(cached))
        bucketization = bucketization_from_payload(raw_buckets)
        self.stats.single_requests += 1
        value = await self._enqueue_single(threat, instance, k, bucketization)
        answer = threat.answer(k, encode_value(value))
        if want_witness:
            loop = asyncio.get_running_loop()
            try:
                witness = await loop.run_in_executor(
                    self._executor,
                    lambda: engine.witness(bucketization, k, model=instance),
                )
            except NotImplementedError as exc:
                raise BadRequest(str(exc)) from None
            answer["witness"] = encode_witness(witness)
        return 200, answer

    async def _ep_disclosure_batch(self, payload: dict):
        threat, engine, (instance,) = self._bind_threat(payload)
        ks = require_ks(payload)
        raw = require(payload, "bucketizations", list)
        if not raw:
            raise BadRequest("'bucketizations' must be a non-empty list")
        bs = [bucketization_from_payload(buckets) for buckets in raw]
        self.stats.batch_requests += 1
        loop = asyncio.get_running_loop()
        series = await loop.run_in_executor(
            self._executor,
            lambda: engine.evaluate_many(bs, ks, model=instance),
        )
        return 200, {
            "model": threat.model,
            "ks": sorted(set(ks)),
            "exact": threat.mode == "exact",
            "series": [encode_series(s) for s in series],
        }

    async def _ep_safety(self, payload: dict):
        threat, engine, (instance,) = self._bind_threat(payload)
        k = require(payload, "k", int)
        c = require(payload, "c", (int, float))
        raw_buckets = require(payload, "buckets", list)
        # threshold() validates c against the model's scale before any
        # engine work (bad thresholds are a 400, not a computation).
        threshold = engine.threshold(c, model=instance)
        value = engine.peek_cached(
            instance, k, signature_items_from_lists(raw_buckets)
        )
        if value is not None:
            self.stats.cache_fast_hits += 1
        else:
            bucketization = bucketization_from_payload(raw_buckets)
            value = await self._enqueue_single(
                threat, instance, k, bucketization
            )
        return 200, {
            "model": threat.model,
            "k": k,
            "c": c,
            "exact": threat.mode == "exact",
            "safe": bool(value < threshold),
            "value": encode_value(value),
        }

    async def _ep_compare(self, payload: dict):
        threat, engine, instances = self._bind_threat(payload, compare=True)
        ks = require_ks(payload)
        bucketization = bucketization_from_payload(
            require(payload, "buckets", list)
        )
        loop = asyncio.get_running_loop()
        comparison = await loop.run_in_executor(
            self._executor,
            lambda: engine.compare(bucketization, ks, models=instances),
        )
        return 200, {
            "ks": sorted(set(ks)),
            "exact": threat.mode == "exact",
            "kernel": engine.kernel,
            "series": {
                name: encode_series(series)
                for name, series in comparison.items()
            },
        }

    # ------------------------------------------------------------------
    # Republication endpoints
    # ------------------------------------------------------------------
    def _republisher(
        self, tenant: str | None, mode: str
    ) -> RepublicationEngine:
        """The ``(tenant, mode)``-bound republication engine, built lazily
        over this service's existing engine of that mode (publish work
        shares its cache and persistence) and the shared ledger."""
        key = (tenant, mode)
        republisher = self._republishers.get(key)
        if republisher is None:
            republisher = RepublicationEngine(
                self._engines_for(tenant)[mode],
                self.ledger,
                tenant=tenant or "",
            )
            self._republishers[key] = republisher
        return republisher

    async def _ep_publish(self, payload: dict):
        """``POST /publish``: check and record the next version of a table.

        Runs on the same single engine-executor thread as every other
        engine call, so a publish serializes cleanly with coalesced
        batches and shares the engine cache with them.
        """
        threat, _engine, _instances = self._bind_threat(payload)
        table = require(payload, "table", str)
        if not TABLE_NAME.match(table):
            raise BadRequest(
                f"field 'table' must match {TABLE_NAME.pattern}"
            )
        k = require(payload, "k", int)
        if k < 0:
            raise BadRequest(f"k must be non-negative, got {k}")
        if "c" not in payload:
            raise BadRequest("missing required field 'c'")
        c = decode_value(payload["c"])  # ValueError -> 400
        full = require(payload, "full", bool, optional=True, default=False)
        want_witness = require(
            payload, "witness", bool, optional=True, default=False
        )
        bucketization = bucketization_from_payload(
            require(payload, "buckets", list)
        )
        republisher = self._republisher(threat.tenant, threat.mode)
        loop = asyncio.get_running_loop()
        verdict = await loop.run_in_executor(
            self._executor,
            lambda: republisher.publish(
                table,
                bucketization,
                c=c,
                k=k,
                model=threat.model,
                params=threat.params,
                full=full,
                with_witness=want_witness,
            ),
        )
        self.stats.note_publish(verdict)
        return 200, verdict

    async def _ep_releases(self):
        """``GET /releases``: summaries of every recorded release plus the
        ledger totals."""
        loop = asyncio.get_running_loop()
        releases = await loop.run_in_executor(
            self._executor, self.ledger.list_releases
        )
        counters = await loop.run_in_executor(
            self._executor, self.ledger.counters
        )
        return 200, {"releases": releases, "ledger": counters}

    async def _ep_release(self, path: str):
        """``GET /releases/{table}/{version}``: one full release record.

        The ``{table}`` segment may be tenant-qualified as
        ``{tenant}:{table}`` (tenant ids and table names never contain
        ``:``); the bare form reads the default namespace.
        """
        parts = path.split("/")
        if len(parts) != 4 or not parts[2] or not parts[3]:
            raise BadRequest(
                "release path must be /releases/{table}/{version}"
            )
        qualified, version_raw = parts[2], parts[3]
        tenant, _, table = qualified.rpartition(":")
        try:
            version = int(version_raw)
        except ValueError:
            raise BadRequest(
                f"version must be an integer, got {version_raw!r}"
            ) from None
        loop = asyncio.get_running_loop()
        release = await loop.run_in_executor(
            self._executor,
            lambda: self.ledger.get(table, version, tenant=tenant),
        )
        if release is None:
            return 404, {
                "error": f"no recorded release {qualified!r} v{version}"
            }
        return 200, {
            "table": release.table,
            "tenant": release.tenant or None,
            "version": release.version,
            "mode": release.mode,
            "model": release.model,
            "params": release.params,
            "k": release.k,
            "c": release.c,
            "accepted": release.accepted,
            "multiset": multiset_to_wire(release.multiset),
            "verdict": release.verdict,
        }

    async def _ep_models(self):
        models = []
        for name in available_adversaries():
            model = get_adversary(name)
            models.append(
                {
                    "name": name,
                    "supports_exact": model.supports_exact,
                    "supports_witness": model.supports_witness,
                    "unbounded_scale": model.unbounded_scale,
                    "monotone": model.monotone,
                    "signature_decomposable": model.signature_decomposable(),
                    # The machine-usable tunables: name/type/default per
                    # constructor parameter (was an opaque repr of the
                    # default instance's params_key).
                    "params": param_schema(name),
                }
            )
        return 200, {"models": models}

    async def _ep_stats(self):
        engines = {}
        for mode, engine in self.engines.items():
            backend = engine.backend
            backend_info: dict[str, Any] = {
                "name": backend.name,
                "parallel": backend.parallel,
            }
            if isinstance(backend, PersistentBackend):
                backend_info.update(
                    batches_run=backend.batches_run,
                    signatures_shipped=backend.signatures_shipped,
                    respawns=backend.respawns,
                    workers_alive=backend.worker_count(),
                )
            engines[mode] = {
                "stats": engine.stats.as_dict(),
                "cache_entries": engine.cache_size(),
                "pinned_entries": engine.pinned_count(),
                "plane_signatures": len(engine.plane),
                "loaded_entries": self.loaded_entries[mode],
                "backend": backend_info,
            }
        service = self.stats.as_dict()
        service["connections"] = self.connections.as_dict()
        service["max_connections"] = self.max_connections
        loop = asyncio.get_running_loop()
        ledger = await loop.run_in_executor(
            self._executor, self.ledger.counters
        )
        answer = {"service": service, "engines": engines, "ledger": ledger}
        if self.tenants:
            answer["tenants"] = {
                tenant: {
                    "model": config["model"],
                    "requests": self.stats.by_tenant.get(tenant, 0),
                    "engines": {
                        mode: {
                            "cache_entries": engine.cache_size(),
                            "loaded_entries": self.tenant_loaded[
                                (tenant, mode)
                            ],
                        }
                        for mode, engine in self.tenant_engines[
                            tenant
                        ].items()
                    },
                }
                for tenant, config in self.tenants.items()
            }
        return 200, answer

    async def _ep_healthz(self):
        return 200, {
            "ok": True,
            "uptime_s": round(time.monotonic() - self.stats.started, 3),
        }

    # ------------------------------------------------------------------
    # In-process peek (the router's inproc fast path)
    # ------------------------------------------------------------------
    def peek_single(
        self, threat: Threat, k: int, signature_items
    ) -> dict[str, Any] | None:
        """A fully-encoded single ``/disclosure`` answer straight from the
        cache, or ``None`` when anything short of a clean cached hit —
        params the model rejects, unseen signature, cache miss — in which
        case the caller falls back to the full dispatch path, which
        computes (and turns a params failure into the real 400).

        ``threat`` comes from :func:`resolve_threat` against this service's
        tenant topology and ``k`` is a validated non-negative int.

        Bumps the same counters the endpoint's own fast path does
        (``single_requests``, ``cache_fast_hits``, plus
        :meth:`note_request`), so a shard's stats are indistinguishable
        whether its router answered from the peek or dispatched.
        """
        engine = self._engines_for(threat.tenant)[threat.mode]
        try:
            instance = engine.model(threat.model, threat.params)
        except (TypeError, ValueError):
            return None
        cached = engine.peek_cached(instance, k, signature_items)
        if cached is None:
            return None
        try:
            encoded = encode_value(cached)
        except ValueError:
            return None
        self.stats.single_requests += 1
        self.stats.cache_fast_hits += 1
        if threat.tenant is not None:
            self.stats.by_tenant[threat.tenant] += 1
        self.note_request("/disclosure", 200)
        return threat.answer(k, encoded)


class BackgroundService(BackgroundHost):
    """Run a :class:`DisclosureService` on a daemon thread (tests, benches).

    Usage::

        with BackgroundService(backend="serial") as bg:
            value = bg.client().disclosure(bucketization, k=3)

    The context manager owns the event loop: entering starts the loop
    thread and blocks until the server is bound (surfacing any startup
    error), exiting requests a graceful :meth:`DisclosureService.stop`
    and joins the thread.
    """

    def _make_service(self) -> DisclosureService:
        return DisclosureService(**self._kwargs)
