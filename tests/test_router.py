"""End-to-end tests for the sharded service tier.

The router's contract (ISSUE 5 acceptance criteria):

- a 3-shard deployment behind the plane-key hash router answers
  **bit-identically** to a direct single
  :class:`~repro.engine.engine.DisclosureEngine`, in both arithmetic
  modes, under >= 8 concurrent pooled keep-alive clients;
- batch requests are split by per-bucketization plane key and merged
  losslessly in the original order;
- routing is a *stable* function of the plane key — the same question
  always lands on the same shard (cache affinity);
- a killed shard process is restarted and the in-flight request replayed;
- ``/stats`` and ``/healthz`` aggregate across shards; shutdown persists
  one cache file pair per shard under the shared prefix.
"""

from __future__ import annotations

import json
import os
import random
import re
import signal
import subprocess
import sys
import threading
from fractions import Fraction
from http.client import HTTPConnection
from pathlib import Path

import pytest

from repro.bucketization import Bucketization
from repro.engine import DisclosureEngine, canonical_params, get_adversary
from repro.service import (
    BackgroundService,
    ServiceClient,
    ServiceError,
    ShardRouter,
)
from repro.service.router import (
    BackgroundRouter,
    resolve_shard_mode,
    shard_key,
)
from repro.service.server import PREFIX_ROUTES, ROUTES

SHARDS = 3
CLIENTS = 8


def _random_bucketizations(count: int, seed: int) -> list[Bucketization]:
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        buckets = [
            [rng.choice("abcdef") for _ in range(rng.randint(3, 9))]
            for _ in range(rng.randint(1, 4))
        ]
        out.append(Bucketization.from_value_lists(buckets))
    return out


@pytest.fixture(scope="module", params=["inproc", "process"])
def router(request):
    """One shared 3-shard deployment per shard mode: every read-mostly
    test runs against embedded shards AND subprocess shards."""
    with BackgroundRouter(
        shards=SHARDS,
        shard_mode=request.param,
        backend="serial",
        batch_window=0.01,
    ) as bg:
        yield bg


@pytest.fixture(scope="module")
def client(router) -> ServiceClient:
    return router.client()


def _raw_request(host, port, method: str, path: str, body=None):
    """One request with no client-side validation: ``(status, payload)``."""
    connection = HTTPConnection(host, port, timeout=60)
    try:
        connection.request(method, path, body=body)
        response = connection.getresponse()
        return response.status, json.loads(response.read() or b"{}")
    finally:
        connection.close()


# ---------------------------------------------------------------------------
# The hash itself: stable, deterministic, key-sensitive
# ---------------------------------------------------------------------------
class TestShardKey:
    def test_stable_across_calls(self):
        b = Bucketization.from_value_lists([["a", "a", "b"], ["c", "d"]])
        sig = b.signature_items()
        assert shard_key("float", "implication", (3,), sig) == shard_key(
            "float", "implication", (3,), sig
        )

    def test_sensitive_to_every_component(self):
        b = Bucketization.from_value_lists([["a", "a", "b"], ["c", "d"]])
        sig = b.signature_items()
        base = shard_key("float", "implication", (3,), sig)
        assert base != shard_key("exact", "implication", (3,), sig)
        assert base != shard_key("float", "negation", (3,), sig)
        assert base != shard_key("float", "implication", (4,), sig)
        other = Bucketization.from_value_lists([["a", "b", "c", "d", "e"]])
        assert base != shard_key(
            "float", "implication", (3,), other.signature_items()
        )

    def test_same_shape_same_shard(self):
        """Cache affinity survives value renaming: the plane interns
        signatures, not values, and the router hashes the same way."""
        left = Bucketization.from_value_lists([["a", "a", "b"], ["c", "d"]])
        right = Bucketization.from_value_lists([["x", "x", "y"], ["p", "q"]])
        assert left.signature_items() == right.signature_items()
        assert shard_key(
            "float", "implication", (2,), left.signature_items()
        ) == shard_key("float", "implication", (2,), right.signature_items())


# ---------------------------------------------------------------------------
# Bit-identical answers through the sharded topology
# ---------------------------------------------------------------------------
class TestShardedEquivalence:
    @pytest.mark.parametrize("exact", [False, True])
    def test_concurrent_pooled_clients_bit_identical(self, router, exact):
        bs = _random_bucketizations(CLIENTS, seed=1400 + exact)
        models = ["implication", "negation", "distribution", "weighted"]
        ks = [0, 1, 2, 3]
        jobs = [
            (bs[i], models[i % len(models)], ks[i % len(ks)])
            for i in range(CLIENTS)
        ]
        shared = ServiceClient(router.host, router.port, pool_size=CLIENTS)
        results: list = [None] * len(jobs)
        errors: list = []
        barrier = threading.Barrier(len(jobs))

        def hit(index: int) -> None:
            try:
                barrier.wait(timeout=60)
                b, model, k = jobs[index]
                results[index] = shared.disclosure(
                    b, k, model=model, exact=exact
                )
            except BaseException as exc:  # surfaces in the main thread
                errors.append(exc)

        threads = [
            threading.Thread(target=hit, args=(i,)) for i in range(len(jobs))
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        shared.close()
        assert not errors
        engine = DisclosureEngine(exact=exact)
        for (b, model, k), served in zip(jobs, results):
            assert served == engine.evaluate(b, k, model=model), (
                f"sharded value diverged for {model} k={k}"
            )

    def test_batch_split_and_merged_losslessly(self, router, client):
        bs = _random_bucketizations(12, seed=77)
        ks = [1, 3]
        before = client.stats()["router"]["split_batches"]
        served = client.disclosure_batch(bs, ks, exact=True)
        direct = DisclosureEngine(exact=True).evaluate_many(bs, ks)
        assert served == direct  # order preserved, bits preserved
        after = client.stats()["router"]["split_batches"]
        # 12 random shapes across 3 shards: the batch really was split.
        assert after == before + 1

    def test_single_shard_batch_forwarded_whole(self, router, client):
        """Every item hashing to one shard skips the split/merge machinery:
        the router forwards the original body and counts a whole batch."""
        # Same signature shape => same shard key (values are irrelevant).
        bs = [
            Bucketization.from_value_lists([[v, v, "other"], ["p", "q"]])
            for v in ("a", "b", "c", "d")
        ]
        ks = [1, 2]
        before = client.stats()["router"]
        served = client.disclosure_batch(bs, ks)
        direct = DisclosureEngine().evaluate_many(bs, ks)
        assert served == direct
        after = client.stats()["router"]
        assert after["whole_batches"] == before["whole_batches"] + 1
        assert after["split_batches"] == before["split_batches"]

    def test_safety_and_compare_and_witness_proxy(self, router, client):
        b = Bucketization.from_value_lists(
            [["Flu", "Flu", "Cancer"], ["Flu", "Mumps", "Cancer"]]
        )
        engine = DisclosureEngine()
        answer = client.safety(b, 0.9, 1)
        assert answer["safe"] == engine.is_safe(b, 0.9, 1)
        assert answer["value"] == engine.evaluate(b, 1)
        served = client.compare(b, [0, 1, 2])
        direct = engine.compare(b, [0, 1, 2])
        assert served == {name: dict(s) for name, s in direct.items()}
        witness = client.witness(b, 2, model="negation")
        assert witness["witness"]["disclosure"] == witness["value"]

    def test_models_proxied(self, router, client):
        from repro.engine import available_adversaries

        assert [m["name"] for m in client.models()] == list(
            available_adversaries()
        )


# ---------------------------------------------------------------------------
# Cache-affinity routing
# ---------------------------------------------------------------------------
class TestAffinity:
    def test_identical_requests_land_on_one_shard(self, router, client):
        b = Bucketization.from_value_lists(
            [["affinity", "affinity", "probe", "probe", "x"]]
        )
        before = {
            entry["shard"]: entry["service"]["single_requests"]
            for entry in client.stats()["shards"]
        }
        repeats = 6
        for _ in range(repeats):
            client.disclosure(b, 2, model="negation")
        after = {
            entry["shard"]: entry["service"]["single_requests"]
            for entry in client.stats()["shards"]
        }
        deltas = {index: after[index] - before[index] for index in after}
        grew = [index for index, delta in deltas.items() if delta > 0]
        assert len(grew) == 1, f"affinity broken: deltas {deltas}"
        assert deltas[grew[0]] == repeats
        # ...and the owning shard served the repeats from its cache —
        # either the engine cache proper or the serving-layer fast peek
        # over it (the router's inproc fast path and the shard's own
        # event-loop fast path both count in cache_fast_hits).
        owner = next(
            entry
            for entry in client.stats()["shards"]
            if entry["shard"] == grew[0]
        )
        hits = (
            owner["engines"]["float"]["stats"]["cache_hits"]
            + owner["service"]["cache_fast_hits"]
        )
        assert hits >= repeats - 1


# ---------------------------------------------------------------------------
# Parametric adversaries through the sharded topology
# ---------------------------------------------------------------------------
class TestParametricRouting:
    def test_params_join_the_shard_key(self):
        b = Bucketization.from_value_lists([["a", "a", "b"], ["c", "d"]])
        sig = b.signature_items()
        ordered = canonical_params({"weights": {"b": 1.0, "a": 2.0}})
        reordered = canonical_params({"weights": {"a": 2.0, "b": 1.0}})
        base = shard_key("float", "weighted", (2,), sig, ordered)
        # Request-side key order is irrelevant: one canonical identity.
        assert base == shard_key("float", "weighted", (2,), sig, reordered)
        assert base != shard_key(
            "float", "weighted", (2,), sig,
            canonical_params({"weights": {"a": 2.0, "b": 1.5}}),
        )
        # The legacy 4-arg call is the empty-params, tenantless key.
        assert shard_key("float", "implication", (3,), sig) == shard_key(
            "float", "implication", (3,), sig, (), None
        )
        assert base != shard_key("float", "weighted", (2,), sig, ordered, "t")

    def test_shard_key_is_a_pure_function_of_values(self):
        """Two canonicalizations of the same params built independently
        (fresh objects, fresh Fractions) must hash identically — the key
        may never depend on instance identity or repr-of-instance."""
        b = Bucketization.from_value_lists([["a", "a", "b"], ["c", "d"]])
        first = shard_key(
            "exact", "probabilistic", (1,), b.signature_items(),
            canonical_params({"confidence": Fraction(1, 3)}),
        )
        second = shard_key(
            "exact", "probabilistic", (1,),
            Bucketization.from_value_lists(
                [["a", "a", "b"], ["c", "d"]]
            ).signature_items(),
            canonical_params({"confidence": Fraction(2, 6)}),
        )
        assert first == second

    def test_parametric_singles_bit_identical(self, router, client):
        b = Bucketization.from_value_lists(
            [["a", "a", "b", "c"], ["a", "b", "d", "d"]]
        )
        engine = DisclosureEngine()
        low = client.disclosure(
            b, 1, model="probabilistic",
            params={"confidence": Fraction(1, 3)},
        )
        high = client.disclosure(
            b, 1, model="probabilistic",
            params={"confidence": Fraction(2, 3)},
        )
        assert low == engine.evaluate(
            b, 1, model=get_adversary("probabilistic", confidence=Fraction(1, 3))
        )
        assert high == engine.evaluate(
            b, 1, model=get_adversary("probabilistic", confidence=Fraction(2, 3))
        )
        assert low != high  # two param sets cannot share a cache entry
        weighted = client.disclosure(
            b, 2, model="weighted", params={"weights": {"a": 3.0}}
        )
        assert weighted == engine.evaluate(
            b, 2, model=get_adversary("weighted", weights={"a": 3.0})
        )
        sampled = client.disclosure(
            b, 2, model="sampling", params={"samples": 512, "seed": 9}
        )
        assert sampled == engine.evaluate(
            b, 2, model=get_adversary("sampling", samples=512, seed=9)
        )

    def test_parametric_requests_keep_cache_affinity(self, router, client):
        b = Bucketization.from_value_lists(
            [["route", "route", "probe", "x", "y"]]
        )
        params = {"weights": {"route": 2.0}}
        before = {
            entry["shard"]: entry["service"]["single_requests"]
            for entry in client.stats()["shards"]
        }
        repeats = 5
        for _ in range(repeats):
            client.disclosure(b, 2, model="weighted", params=params)
        after = {
            entry["shard"]: entry["service"]["single_requests"]
            for entry in client.stats()["shards"]
        }
        deltas = {index: after[index] - before[index] for index in after}
        grew = [index for index, delta in deltas.items() if delta > 0]
        assert len(grew) == 1, f"params affinity broken: deltas {deltas}"
        assert deltas[grew[0]] == repeats

    def test_parametric_route_stable_across_router_restarts(self):
        """The owning shard for an explicit-params request is a durable
        function of the question — a restarted router (fresh processes,
        fresh model instances) routes it to the same shard index."""
        b = Bucketization.from_value_lists(
            [["s", "s", "t", "a"], ["s", "t", "b", "b"]]
        )
        params = {"weights": {"s": 2.0, "t": 0.5}}

        def owning_shard() -> tuple[int, float]:
            with BackgroundRouter(
                shards=SHARDS,
                shard_mode="inproc",
                backend="serial",
                batch_window=0.0,
            ) as bg:
                client = bg.client()
                value = client.disclosure(
                    b, 1, model="weighted", params=params
                )
                counts = {
                    entry["shard"]: entry["service"]["single_requests"]
                    for entry in client.stats()["shards"]
                }
                (owner,) = [s for s, n in counts.items() if n > 0]
                return owner, value

        first_owner, first_value = owning_shard()
        second_owner, second_value = owning_shard()
        assert first_owner == second_owner
        assert first_value == second_value

    def test_unknown_tenant_rejected_before_routing(self, router, client):
        with pytest.raises(ServiceError) as excinfo:
            client.disclosure(
                Bucketization.from_value_lists([["a", "b"]]), 1,
                tenant="nope",
            )
        assert excinfo.value.status == 400
        assert "no tenants configured" in excinfo.value.message

    def test_bad_params_rejected_at_the_router(self, router, client):
        for payload in (
            {"buckets": [["a", "b"]], "k": 1, "params": 5},
            {"buckets": [["a", "b"]], "k": 1, "params": {"x": True}},
            {
                "buckets": [["a", "b"]],
                "k": 1,
                "model": "sampling",
                "params": {"samples": 0},
            },
        ):
            with pytest.raises(ServiceError) as excinfo:
                client.request("POST", "/disclosure", payload)
            assert excinfo.value.status == 400


# ---------------------------------------------------------------------------
# Multi-tenant topologies behind the router
# ---------------------------------------------------------------------------
ROUTER_TENANTS = {
    "acme": {"model": "weighted", "params": {"weights": {"p": 2.5}}},
    "globex": {"model": "sampling", "params": {"samples": 500, "seed": 7}},
}


class TestRouterTenants:
    @pytest.mark.parametrize("shard_mode", ["inproc", "process"])
    def test_tenants_served_and_isolated(self, tmp_path, shard_mode):
        prefix = tmp_path / "fleet"
        b = Bucketization.from_value_lists(
            [["p", "p", "q", "r"], ["p", "q", "s", "t"]]
        )
        engine = DisclosureEngine()
        with BackgroundRouter(
            shards=2,
            shard_mode=shard_mode,
            backend="serial",
            batch_window=0.0,
            cache_path=prefix,
            tenants=ROUTER_TENANTS,
        ) as bg:
            client = bg.client()
            acme = client.disclosure(b, 2, tenant="acme")
            globex = client.disclosure(b, 2, tenant="globex")
            plain = client.disclosure(b, 2)
            assert acme == engine.evaluate(
                b, 2, model=get_adversary("weighted", weights={"p": 2.5})
            )
            assert globex == engine.evaluate(
                b, 2, model=get_adversary("sampling", samples=500, seed=7)
            )
            assert plain == engine.evaluate(b, 2)
            assert acme != plain  # tenant defaults engaged through routing
            stats = client.stats()
            assert set(stats["tenants"]) == {"acme", "globex"}
            assert stats["tenants"]["acme"]["requests"] >= 1
            assert stats["tenants"]["globex"]["requests"] >= 1
            # Each tenant's questions live in that tenant's engines only.
            tenant_entries = {
                tenant: sum(
                    entry["tenants"][tenant]["engines"]["float"][
                        "cache_entries"
                    ]
                    for entry in stats["shards"]
                )
                for tenant in ROUTER_TENANTS
            }
            assert tenant_entries["acme"] >= 1
            assert tenant_entries["globex"] >= 1
        # One cache file per (tenant, shard, mode) under the shared prefix.
        for index in range(2):
            for mode in ("float", "exact"):
                assert (tmp_path / f"fleet.shard{index}.{mode}.pkl").exists()
                for tenant in ROUTER_TENANTS:
                    assert (
                        tmp_path / f"fleet.{tenant}.shard{index}.{mode}.pkl"
                    ).exists()

    def test_tenants_file_cli_topology(self, tmp_path):
        """``repro serve --shards 2 --tenants FILE`` — the subprocess-shard
        topology reads the same JSON file the router validated."""
        if not hasattr(signal, "SIGTERM"):
            pytest.skip("needs POSIX signals")
        import json as json_module

        tenants_file = tmp_path / "tenants.json"
        tenants_file.write_text(
            json_module.dumps(ROUTER_TENANTS), encoding="utf-8"
        )
        repo_root = Path(__file__).resolve().parent.parent
        env = dict(os.environ)
        env["PYTHONPATH"] = str(repo_root / "src") + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        process = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.cli",
                "serve",
                "--port",
                "0",
                "--shards",
                "2",
                "--shard-mode",
                "process",
                "--backend",
                "serial",
                "--tenants",
                str(tenants_file),
                "--cache-file",
                str(tmp_path / "fleet"),
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
            cwd=repo_root,
        )
        try:
            port_line = process.stdout.readline()
            process.stdout.readline()  # topology line
            match = re.search(r"http://[^:]+:(\d+)", port_line)
            assert match, f"no port in {port_line!r}"
            client = ServiceClient("127.0.0.1", int(match.group(1)))
            b = Bucketization.from_value_lists(
                [["p", "p", "q", "r"], ["p", "q", "s", "t"]]
            )
            engine = DisclosureEngine()
            assert client.disclosure(b, 2, tenant="acme") == engine.evaluate(
                b, 2, model=get_adversary("weighted", weights={"p": 2.5})
            )
            assert client.stats()["tenants"]["acme"]["requests"] >= 1
            client.close()
        finally:
            process.send_signal(signal.SIGTERM)
            _, err = process.communicate(timeout=120)
        assert process.returncode == 0, err

    def test_bad_tenants_file_fails_boot(self, tmp_path):
        with pytest.raises(ValueError, match="unknown model"):
            ShardRouter(
                shards=2, tenants={"t": {"model": "martian"}}
            )


# ---------------------------------------------------------------------------
# Shard modes and the routing hot path
# ---------------------------------------------------------------------------
class TestShardModes:
    def test_resolve_shard_mode(self, monkeypatch):
        assert resolve_shard_mode("process", 8) == "process"
        assert resolve_shard_mode("inproc", 1) == "inproc"
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        assert resolve_shard_mode("auto", 4) == "process"
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        assert resolve_shard_mode("auto", 4) == "inproc"
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert resolve_shard_mode("auto", 2) == "inproc"
        with pytest.raises(ValueError):
            resolve_shard_mode("martian", 2)

    def test_zero_reparse_memo_and_inproc_fast_path(self):
        """Byte-identical repeats are routed without JSON parsing
        (route_memo_hits / reparse_avoided) and, on in-process shards,
        answered straight from the cache peek (fast_hits) — bit-identical
        to the engine the whole way."""
        b = Bucketization.from_value_lists(
            [["m", "m", "e", "m", "o"], ["f", "a", "s", "t"]]
        )
        expect = DisclosureEngine().evaluate(b, 2)
        with BackgroundRouter(
            shards=2, shard_mode="inproc", backend="serial", batch_window=0.0
        ) as bg:
            client = bg.client()
            repeats = 5
            for _ in range(repeats):
                assert client.disclosure(b, 2) == expect
            stats = client.stats()
            router = stats["router"]
            assert router["shard_mode"] == "inproc"
            assert router["route_memo_hits"] >= repeats - 1
            assert router["reparse_avoided"] >= repeats - 1
            assert router["fast_hits"] >= repeats - 1
            assert stats["totals"]["cache_fast_hits"] >= repeats - 1

    def test_router_coalesces_concurrent_singles_upstream(self):
        """Concurrent identical singles bound for one process shard cost
        the socket one upstream batch, not N round trips."""
        b = Bucketization.from_value_lists(
            [["c", "o", "a", "l"], ["e", "s", "c", "e"]]
        )
        expect = DisclosureEngine().evaluate(b, 3, model="negation")
        with BackgroundRouter(
            shards=2,
            shard_mode="process",
            backend="serial",
            batch_window=0.02,
        ) as bg:
            workers = 6
            shared = ServiceClient(bg.host, bg.port, pool_size=workers)
            barrier = threading.Barrier(workers)
            results: list = [None] * workers
            errors: list = []

            def hit(index: int) -> None:
                try:
                    barrier.wait(timeout=60)
                    results[index] = shared.disclosure(b, 3, model="negation")
                except BaseException as exc:
                    errors.append(exc)

            threads = [
                threading.Thread(target=hit, args=(i,))
                for i in range(workers)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
            shared.close()
            assert not errors
            assert all(value == expect for value in results)
            router = bg.client().stats()["router"]
            assert router["shard_mode"] == "process"
            assert router["coalesced_batches"] >= 1
            assert router["coalesced_singles"] >= 2


# ---------------------------------------------------------------------------
# Validation and aggregation
# ---------------------------------------------------------------------------
class TestRouterEndpoints:
    def test_bad_bodies_are_400_at_the_router(self, router, client):
        for payload in (
            {"buckets": [], "k": 1},
            {"buckets": [["a"]], "k": "three"},
            {"buckets": [["a"]], "k": 1, "model": "martian"},
            {"bucketizations": [], "ks": [1]},
            {"bucketizations": [[["a"]]], "ks": []},
        ):
            with pytest.raises(ServiceError) as excinfo:
                client.request("POST", "/disclosure", payload)
            assert excinfo.value.status == 400

    def test_shard_400_proxied_back(self, router, client):
        with pytest.raises(ServiceError) as excinfo:
            client.disclosure(
                Bucketization.from_value_lists([["a", "b"]]), -1
            )
        assert excinfo.value.status == 400

    def test_healthz_aggregates_all_shards(self, router, client):
        health = client.health()
        assert health["ok"] is True
        assert len(health["shards"]) == SHARDS
        assert all(entry["ok"] for entry in health["shards"])

    def test_stats_aggregates_router_and_shards(self, router, client):
        client.disclosure(
            Bucketization.from_value_lists([["s", "t", "a", "t"]]), 1
        )
        stats = client.stats()
        assert {"router", "totals", "shards"} <= set(stats)
        assert stats["router"]["shards"] == SHARDS
        assert stats["router"]["proxied"] >= 1
        assert "connections" in stats["router"]
        assert len(stats["shards"]) == SHARDS
        assert stats["totals"]["single_requests"] >= 1
        for entry in stats["shards"]:
            assert {"service", "engines", "shard"} <= set(entry)

    def test_router_serves_the_service_route_table(self, router):
        """Every route the docs gate checks is served by the router too: a
        wrong verb is a 405 on each one, never a 404 or a 500."""
        paths = list(ROUTES.items()) + [
            (prefix + "t/1", entry) for prefix, entry in PREFIX_ROUTES.items()
        ]
        for path, (verb, _handler) in paths:
            wrong = "GET" if verb == "POST" else "POST"
            status, payload = _raw_request(
                router.host, router.port, wrong, path, b"{}"
            )
            assert status == 405, (path, payload)

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            ShardRouter(shards=0)
        with pytest.raises(ValueError):
            ShardRouter(shards=2, forward_timeout=0)
        with pytest.raises(ValueError):
            ShardRouter(shards=2, health_interval=-1)


@pytest.fixture(scope="module")
def service_and_router():
    """A single service and an in-process router, for conformance checks."""
    with BackgroundService(backend="serial", batch_window=0.0) as service:
        with BackgroundRouter(
            shards=2, shard_mode="inproc", backend="serial", batch_window=0.0
        ) as router:
            yield service, router


_PAIR = [["a", "b"]]


@pytest.mark.parametrize(
    "path, body, message",
    [
        ("/compare", {"buckets": _PAIR, "ks": [1], "models": "implication"},
         "'models' must be a non-empty list of names"),
        ("/compare", {"buckets": _PAIR, "ks": [1], "models": []},
         "'models' must be a non-empty list of names"),
        ("/compare", {"buckets": _PAIR, "ks": [1], "models": ["negation", 3]},
         "'models' must be a list of model names"),
        ("/compare", {"buckets": _PAIR, "ks": [1], "models": ["martian"]},
         "unknown adversary model 'martian'"),
        ("/disclosure", {"buckets": _PAIR, "k": 1, "exact": "yes"},
         "field 'exact' must be bool"),
        ("/disclosure", {"buckets": _PAIR, "k": 1, "model": "martian"},
         "unknown adversary model 'martian'"),
        ("/disclosure", {"buckets": _PAIR, "k": 1, "params": {"x": True}},
         "boolean"),
        ("/disclosure",
         {"buckets": _PAIR, "k": 1, "model": "probabilistic",
          "params": {"bogus": 1}},
         "invalid params for model 'probabilistic'"),
        ("/compare", {"buckets": _PAIR, "ks": [1], "params": {"x": True}},
         "boolean"),
        ("/compare",
         {"buckets": _PAIR, "ks": [1], "models": ["probabilistic"],
          "params": {"bogus": 1}},
         "invalid params for model 'probabilistic'"),
        ("/disclosure", {"buckets": _PAIR, "k": -1},
         "k must be non-negative"),
        ("/disclosure", {"buckets": _PAIR, "k": True},
         "field 'k' must be an integer"),
        ("/disclosure", {"buckets": _PAIR, "k": 1, "tenant": "nope"},
         "unknown tenant 'nope'"),
        ("/publish",
         {"table": "t", "buckets": _PAIR, "c": 0.9, "k": 1, "tenant": "nope"},
         "unknown tenant 'nope'"),
        ("/disclosure",
         {"bucketizations": [_PAIR], "ks": [1], "model": "martian"},
         "unknown adversary model 'martian'"),
        ("/safety", {"buckets": _PAIR, "k": 1, "c": "x"},
         "field 'c' must be a number"),
    ],
    ids=[
        "models-string", "models-empty", "models-int", "models-unknown",
        "exact-not-bool", "model-unknown", "params-bool", "params-unknown",
        "compare-params-bool", "compare-params-unknown", "k-negative",
        "k-bool", "tenant-unknown", "publish-tenant-unknown",
        "batch-model-unknown", "c-not-number",
    ],
)
def test_router_and_service_answer_identical_400s(
    service_and_router, path, body, message
):
    """A malformed body gets the same ``(status, body)`` from a single
    service and from the router: one resolver validates both."""
    raw = json.dumps(body).encode()
    answers = [
        _raw_request(server.host, server.port, "POST", path, raw)
        for server in service_and_router
    ]
    assert answers[0] == answers[1]
    status, payload = answers[0]
    assert status == 400
    assert message in payload["error"]


# ---------------------------------------------------------------------------
# Supervision: restart-and-replay, and per-shard cache persistence
# ---------------------------------------------------------------------------
class TestSupervision:
    def test_killed_shards_restart_and_replay(self):
        bs = _random_bucketizations(6, seed=9)
        engine = DisclosureEngine()
        with BackgroundRouter(
            shards=SHARDS,
            shard_mode="process",  # only subprocess shards can be killed
            backend="serial",
            batch_window=0.0,
            health_interval=0.2,
        ) as bg:
            client = bg.client()
            for b in bs:
                assert client.disclosure(b, 2) == engine.evaluate(b, 2)
            for shard in bg.service.shards:
                shard.process.kill()
            # Every request after the massacre still gets the right bits:
            # its target shard is revived on demand and the request replayed.
            for b in bs:
                assert client.disclosure(b, 2) == engine.evaluate(b, 2)
            stats = client.stats()
            assert stats["router"]["restarts"] >= 1
            assert stats["router"]["replays"] >= 1
            # The health sweep (0.2s) plus on-demand restarts revive all.
            health = client.health()
            assert health["ok"] is True

    @pytest.mark.skipif(
        not hasattr(signal, "SIGTERM"), reason="needs POSIX signals"
    )
    @pytest.mark.parametrize("shard_mode", ["process", "inproc"])
    def test_cli_sharded_serve_lifecycle(self, tmp_path, shard_mode):
        """``repro serve --shards 2 --shard-mode MODE`` boots a router
        process, serves with the right bits, and on SIGTERM shuts every
        shard down gracefully (exit 0, one persisted cache pair per
        shard) — in both shard modes."""
        repo_root = Path(__file__).resolve().parent.parent
        env = dict(os.environ)
        env["PYTHONPATH"] = str(repo_root / "src") + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        process = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.cli",
                "serve",
                "--port",
                "0",
                "--shards",
                "2",
                "--shard-mode",
                shard_mode,
                "--backend",
                "serial",
                "--cache-file",
                str(tmp_path / "fleet"),
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
            cwd=repo_root,
        )
        try:
            port_line = process.stdout.readline()
            topology_line = process.stdout.readline()
            match = re.search(r"http://[^:]+:(\d+)", port_line)
            assert match, f"no port in {port_line!r}"
            if shard_mode == "process":
                assert "2 shards on ports" in topology_line
            else:
                assert "2 in-process shards" in topology_line
            client = ServiceClient("127.0.0.1", int(match.group(1)))
            b = Bucketization.from_value_lists([["a", "a", "b"], ["c", "d"]])
            assert client.disclosure(b, 2) == DisclosureEngine().evaluate(b, 2)
            health = client.health()
            assert health["ok"] is True and len(health["shards"]) == 2
            client.close()
        finally:
            process.send_signal(signal.SIGTERM)
            _, err = process.communicate(timeout=120)
        assert process.returncode == 0, err
        for index in range(2):
            for mode in ("float", "exact"):
                assert (tmp_path / f"fleet.shard{index}.{mode}.pkl").exists()

    @pytest.mark.parametrize("shard_mode", ["inproc", "process"])
    def test_per_shard_cache_persistence(self, tmp_path, shard_mode):
        prefix = tmp_path / "fleet"
        b = Bucketization.from_value_lists(
            [["p", "p", "q", "r"], ["p", "q", "s", "t"]]
        )
        with BackgroundRouter(
            shards=SHARDS,
            shard_mode=shard_mode,
            backend="serial",
            batch_window=0.0,
            cache_path=prefix,
        ) as bg:
            first = bg.client().disclosure(b, 3)
        for index in range(SHARDS):
            for mode in ("float", "exact"):
                assert (tmp_path / f"fleet.shard{index}.{mode}.pkl").exists()
        with BackgroundRouter(
            shards=SHARDS,
            shard_mode=shard_mode,
            backend="serial",
            batch_window=0.0,
            cache_path=prefix,
        ) as bg:
            client = bg.client()
            loaded = [
                entry["engines"]["float"]["loaded_entries"]
                for entry in client.stats()["shards"]
            ]
            assert sum(loaded) >= 1  # the owning shard reloaded its slice
            assert client.disclosure(b, 3) == first
            hits = [
                entry["engines"]["float"]["stats"]["cache_hits"]
                + entry["service"]["cache_fast_hits"]
                for entry in client.stats()["shards"]
            ]
            assert sum(hits) >= 1  # answered from the reloaded cache
