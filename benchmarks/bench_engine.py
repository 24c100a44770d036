"""Engine-level shared caching across adversary models (the tentpole claim).

The :class:`~repro.engine.engine.DisclosureEngine` keeps **one** memo dict
for every registered model, keyed by ``(model, params, k, signature
multiset)``. These benchmarks sweep the full 72-node Adult lattice with the
three polynomial models and measure the cache two ways:

- ``test_shared_engine_two_epoch_sweep`` — the incremental-republication
  scenario (the same lattice swept twice, as a republishing pipeline or a
  dashboard refresh would): the second epoch must be answered from the
  cache, with **at least one hit per repeated signature multiset for every
  model** — the engine-level memoization is demonstrably shared machinery,
  not a per-model dict.
- ``test_cold_engine_baseline`` — the same work with a fresh engine per
  node: the cache never carries across nodes, so its hit rate is the floor
  the shared engine must beat.

Run with ``pytest benchmarks/bench_engine.py --benchmark-only`` for timings,
or ``--benchmark-disable`` for the assertions alone (CI does the latter).
Either way the shared-sweep benchmark writes ``BENCH_engine.json`` (wall
time, hit rate, cache size, ``bucketize_ms_per_node`` for the lattice
roll-up, ``minimize1_table_bytes`` for the solver's retained tables, and a
``kernel`` section timing the scalar vs numpy float kernels over the
sweep's real signature workload) so the numbers are tracked across PRs.
"""

from __future__ import annotations

import gc
import time
import tracemalloc
from collections import Counter

from reporting import tiny_mode, write_bench_json

from repro.core.kernel import numpy_available
from repro.core.minimize1 import Minimize1Solver
from repro.core.minimize2 import min_ratio_table
from repro.engine import DisclosureEngine
from repro.engine.plane import SignaturePlane
from repro.generalization.apply import bucketize_at

#: The polynomial / closed-form models (oracle models do not scale to Adult).
MODELS = ("implication", "negation", "weighted")
KS = (1, 3, 5)


def _bucketizations(table, lattice):
    return [bucketize_at(table, lattice, node) for node in lattice.nodes()]


def _shared_sweep(bucketizations, epochs: int) -> DisclosureEngine:
    engine = DisclosureEngine()
    for _ in range(epochs):
        for model in MODELS:
            engine.evaluate_many(bucketizations, KS, model=model)
    return engine


def _cold_sweep(bucketizations) -> tuple[int, int]:
    """(evaluations, cache_hits) with a fresh engine per bucketization."""
    evaluations = hits = 0
    for bucketization in bucketizations:
        engine = DisclosureEngine()
        for model in MODELS:
            engine.series(bucketization, KS, model=model)
        evaluations += engine.stats.evaluations
        hits += engine.stats.cache_hits
    return evaluations, hits


def _bucketize_ms_per_node(table, lattice) -> float:
    """Best of three passes of ``bucketize_at`` over every lattice node, in
    milliseconds a node. The first pass also groups the table's ground QI
    classes (once per table), so the best pass is the steady state a sweep
    sees."""
    nodes = list(lattice.nodes())
    passes = []
    for _ in range(3):
        start = time.perf_counter()
        for node in nodes:
            bucketize_at(table, lattice, node)
        passes.append(time.perf_counter() - start)
    return round(min(passes) / len(nodes) * 1e3, 3)


def _minimize1_table_bytes(bucketizations) -> int:
    """Bytes a solver retains per distinct signature once it holds the
    sweep's MINIMIZE1 tables (width ``max(KS) + 2``, what MINIMIZE2 asks
    for), measured with :mod:`tracemalloc`.

    The solver is keyed through a signature plane and fed node by node,
    as inside the engine, so growth slack is counted too; the plane's own
    signatures are interned before the measurement starts.
    """
    per_node = [[sig for sig, _ in b.signature_items()] for b in bucketizations]
    plane = SignaturePlane()
    for sigs in per_node:
        for sig in sigs:
            plane.intern(sig)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        solver = Minimize1Solver(intern=plane.intern)
        for sigs in per_node:
            solver.tables(sigs, max(KS) + 1)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    return round(retained / solver.known_signatures())


def _time_kernel(kern: str, distinct_sigs, per_node_sigs, max_m: int):
    """One timed pass of the float hot path under ``kern``.

    Covers both DPs: the batched MINIMIZE1 tables over every distinct
    signature in the sweep (the vectorized kernel proper) and the full
    MINIMIZE2 min-ratio table per lattice node.
    """
    start = time.perf_counter()
    tables = Minimize1Solver(kernel=kern).tables(distinct_sigs, max_m)
    minimize1_s = time.perf_counter() - start
    start = time.perf_counter()
    ratios = [
        min_ratio_table(sigs, max(KS), kernel=kern) for sigs in per_node_sigs
    ]
    min_ratio_s = time.perf_counter() - start
    return minimize1_s, min_ratio_s, (tables, ratios)


def _kernel_section(bucketizations) -> dict:
    """Scalar vs numpy wall time over the sweep's real signature workload.

    The committed (non-tiny) record is the ROADMAP's "raw speed" evidence:
    the batched MINIMIZE1 kernel must run >= 5x faster under numpy than
    under the scalar loops, with bit-identical results
    (``check_bench_schema.py`` gates both).
    """
    per_node_sigs = [
        [sig for sig, count in b.signature_items() for _ in range(count)]
        for b in bucketizations
    ]
    distinct_sigs = sorted({sig for sigs in per_node_sigs for sig in sigs})
    max_m = 6 if tiny_mode() else 8
    section = {
        "kernels": ["scalar", "numpy"],
        "numpy_available": numpy_available(),
        "distinct_signatures": len(distinct_sigs),
        "nodes": len(per_node_sigs),
        "max_m": max_m,
        "max_k": max(KS),
        "scalar_minimize1_s": None,
        "numpy_minimize1_s": None,
        "minimize1_speedup": None,
        "scalar_min_ratio_s": None,
        "numpy_min_ratio_s": None,
        "min_ratio_speedup": None,
        "identical_results": None,
    }
    repeats = 1 if tiny_mode() else 3  # best-of-N: timings, not noise
    warmup = [distinct_sigs[: min(16, len(distinct_sigs))]]
    for kern in ("scalar", "numpy") if numpy_available() else ("scalar",):
        _time_kernel(kern, warmup[0], warmup, max_m)  # allocator warm-up
    runs = [
        _time_kernel("scalar", distinct_sigs, per_node_sigs, max_m)
        for _ in range(repeats)
    ]
    scalar_m1 = min(run[0] for run in runs)
    scalar_mr = min(run[1] for run in runs)
    scalar_results = runs[-1][2]
    section["scalar_minimize1_s"] = round(scalar_m1, 4)
    section["scalar_min_ratio_s"] = round(scalar_mr, 4)
    if not numpy_available():
        return section  # scalar-only environment: timings stay one-sided
    runs = [
        _time_kernel("numpy", distinct_sigs, per_node_sigs, max_m)
        for _ in range(repeats)
    ]
    numpy_m1 = min(run[0] for run in runs)
    numpy_mr = min(run[1] for run in runs)
    numpy_results = runs[-1][2]
    section["numpy_minimize1_s"] = round(numpy_m1, 4)
    section["numpy_min_ratio_s"] = round(numpy_mr, 4)
    section["minimize1_speedup"] = round(scalar_m1 / numpy_m1, 2)
    section["min_ratio_speedup"] = round(scalar_mr / numpy_mr, 2)
    section["identical_results"] = numpy_results == scalar_results
    assert section["identical_results"]  # exact-ULP, not approximate
    if not tiny_mode():
        assert section["minimize1_speedup"] >= 5.0
    return section


def test_shared_engine_two_epoch_sweep(benchmark, adult_medium, lattice):
    bucketize_ms = _bucketize_ms_per_node(adult_medium, lattice)
    bucketizations = _bucketizations(adult_medium, lattice)
    epochs = 2
    start = time.perf_counter()
    engine = benchmark.pedantic(
        _shared_sweep, args=(bucketizations, epochs), rounds=1, iterations=1
    )
    wall_time = time.perf_counter() - start

    # Every signature multiset seen more than once must have produced at
    # least one cache hit *per model* (shared engine cache, not per-model).
    multiset_counts = Counter(
        frozenset(b.signature_multiset().items()) for b in bucketizations
    )
    repeats = sum(
        count * epochs - 1 for count in multiset_counts.values()
    )  # occurrences beyond the first, over both epochs
    assert repeats >= len(bucketizations)  # epoch 2 repeats everything
    assert engine.stats.cache_hits >= len(MODELS) * repeats

    # Cold baseline: a fresh engine per node cannot reuse anything across
    # nodes, so its hit rate is structurally 0 — the floor the shared engine
    # must beat — and, more substantively, the shared engine's *misses* over
    # both epochs must not exceed what one cold epoch computes (the whole
    # second epoch came from cache).
    cold_evaluations, cold_hits = _cold_sweep(bucketizations)
    cold_rate = cold_hits / cold_evaluations
    assert engine.stats.hit_rate > cold_rate
    assert engine.stats.misses <= cold_evaluations

    benchmark.extra_info["models"] = MODELS
    benchmark.extra_info["nodes"] = len(bucketizations)
    benchmark.extra_info["hit_rate"] = round(engine.stats.hit_rate, 4)
    benchmark.extra_info["cache_entries"] = engine.cache_size()

    write_bench_json(
        "engine",
        {
            "wall_time_s": round(wall_time, 4),
            "rows": len(adult_medium),
            "nodes": len(bucketizations),
            "models": list(MODELS),
            "ks": list(KS),
            "epochs": epochs,
            "cache_hit_rate": round(engine.stats.hit_rate, 4),
            "cache_entries": engine.cache_size(),
            "evictions": engine.stats.evictions,
            "stats": engine.stats.as_dict(),
            "bucketize_ms_per_node": bucketize_ms,
            "minimize1_table_bytes": _minimize1_table_bytes(bucketizations),
            "kernel": _kernel_section(bucketizations),
        },
    )


def test_cold_engine_baseline(benchmark, adult_medium, lattice):
    """Timing floor: every node pays for its own DP work."""
    bucketizations = _bucketizations(adult_medium, lattice)
    evaluations, hits = benchmark.pedantic(
        _cold_sweep, args=(bucketizations,), rounds=1, iterations=1
    )
    assert evaluations == len(MODELS) * len(KS) * len(bucketizations)
    benchmark.extra_info["hit_rate"] = hits / evaluations if evaluations else 0.0
