"""``paper_sweep``: the paper's own evaluation, in process.

On a synthetic Adult table of a quarter of the paper's 45,222 rows, with a
cold engine on its defaults: Figure 5 (k = 0..11), Figure 6 for the
implication and the negation adversary (every one of the 72 lattice nodes,
k = 1, 3, ..., 11), and one ``find_minimal_safe_nodes`` at (c = 0.7, k = 3).
Figure 6 is driven node by node through the same public calls
``run_figure6`` makes on a serial engine (``bucketize_at``,
``min_bucket_entropy``, ``DisclosureEngine.series``) so each figure point
is timed on its own.

A sweep at the full 45,222 rows takes 20-30 s, so a run could hold only one,
and one sample per run followed the host's speed from run to run. At a
quarter of the rows a sweep takes about 7 s: a run holds several sweeps and
reports medians over them.
"""

from __future__ import annotations

import random
import time

import common
import tracing
from common import median, percentile, ratio

from repro import (
    ADULT_SCHEMA,
    DisclosureEngine,
    GeneralizationLattice,
    adult_hierarchies,
    bucketize_at,
    generate_adult,
)
from repro.data.adult import ADULT_SIZE
from repro.experiments.fig5 import run_figure5
from repro.experiments.fig6 import DEFAULT_FIG6_KS
from repro.generalization.search import SearchStats
from repro.utility.entropy import min_bucket_entropy

FIG5_KS = tuple(range(12))
MODELS = ("implication", "negation")
SEARCH_C, SEARCH_K = 0.7, 3
#: Figure 6 points re-checked against a fresh scalar-kernel engine.
SAMPLE_POINTS = 4
#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 9
#: Rows of the generated table: a quarter of the paper's Adult data.
ROWS = ADULT_SIZE // 4
#: Sweeps per run at least; more while ``--seconds`` allows.
MIN_SWEEPS = 3


def setup(seed: int):
    table = generate_adult(ROWS, seed=seed)
    lattice = GeneralizationLattice(
        adult_hierarchies(), ADULT_SCHEMA.quasi_identifiers
    )
    return table, lattice


def sweep(table, lattice) -> dict:
    """One timed sweep on a cold engine."""
    engine = DisclosureEngine()
    points: dict[tuple, list[float]] = {}
    misses: list[float] = []
    fig6: dict[tuple[str, tuple], dict] = {}
    hit_times: list[float] = []
    start = time.perf_counter()
    fig5 = run_figure5(table, ks=FIG5_KS, engine=engine)
    for model in MODELS:
        for node in lattice.nodes():
            t = time.perf_counter()
            bucketization = bucketize_at(table, lattice, node)
            min_bucket_entropy(bucketization)
            hits = engine.stats.cache_hits
            t_engine = time.perf_counter()
            fig6[(model, node)] = engine.series(
                bucketization, DEFAULT_FIG6_KS, model=model
            )
            t_end = time.perf_counter()
            points.setdefault(node, []).append(t_end - t)
            if engine.stats.cache_hits == hits:
                misses.append(t_end - t_engine)
            # The same question again, now answered from the cache.
            t = time.perf_counter()
            engine.series(bucketization, DEFAULT_FIG6_KS, model=model)
            hit_times.append(time.perf_counter() - t)
    stats = SearchStats()
    minimal = engine.find_minimal_safe_nodes(
        table, lattice, SEARCH_C, SEARCH_K, stats=stats
    )
    wall = time.perf_counter() - start
    return {
        "engine": engine,
        "wall_s": wall,
        "points": points,
        "misses": misses,
        "hits": hit_times,
        "fig5": fig5,
        "fig6": fig6,
        "minimal": minimal,
        "search": stats,
    }


def check(table, lattice, result: dict, seed: int) -> tuple[int, int, list]:
    """``(checked, wrong, notes)``: a seeded sample of Figure 6 points and
    all of Figure 5 against a fresh scalar engine; every minimal safe node
    through ``is_safe`` on a fresh engine."""
    scalar = DisclosureEngine(kernel="scalar")
    rng = random.Random(seed)
    checked = wrong = 0
    notes: list[str] = []
    keys = rng.sample(sorted(result["fig6"]), SAMPLE_POINTS)
    for model, node in keys:
        expected = scalar.series(
            bucketize_at(table, lattice, node), DEFAULT_FIG6_KS, model=model
        )
        got = result["fig6"][(model, node)]
        checked += 1
        if any(got[k].hex() != expected[k].hex() for k in DEFAULT_FIG6_KS):
            wrong += 1
            notes.append(f"fig6 {model} {node} differs from scalar")
    fig5 = result["fig5"]
    expected5 = run_figure5(table, ks=FIG5_KS, engine=scalar)
    for row, exp in zip(fig5.rows, expected5.rows):
        checked += 1
        if (row.implication.hex(), row.negation.hex()) != (
            exp.implication.hex(), exp.negation.hex()
        ):
            wrong += 1
            notes.append(f"fig5 k={row.k} differs")
    fresh = DisclosureEngine()
    for node in result["minimal"]:
        checked += 1
        if not fresh.is_safe(
            bucketize_at(table, lattice, node), SEARCH_C, SEARCH_K
        ):
            wrong += 1
            notes.append(f"minimal node {node} is not safe")
    if not result["minimal"]:
        wrong += 1
        notes.append("no minimal safe node reported")
    return checked, wrong, notes


def _point_times_ms(results: list[dict]) -> list[float]:
    """Per node, the median of its Figure 6 point times over every sweep and
    both adversaries."""
    nodes: dict[tuple, list[float]] = {}
    for result in results:
        for node, times in result["points"].items():
            nodes.setdefault(node, []).extend(times)
    return [median(times) * 1e3 for times in nodes.values()]


def _operations(result: dict) -> int:
    """Lattice-node operations of a sweep: Figure 6 points and search
    checks."""
    return (
        sum(len(times) for times in result["points"].values())
        + result["search"].predicate_checks
    )


def end_to_end(setups: list[float], results: list[dict]) -> dict:
    """Medians over the sweeps of one run."""
    points = _point_times_ms(results)
    return {
        "setup_s": (median(setups), "s"),
        "wall_s": (median([r["wall_s"] for r in results]), "s"),
        "p50_ms": (median(points), "ms"),
        "p99_ms": (percentile(points, 0.99), "ms"),
        "max_rate_rps": (
            median([_operations(r) / r["wall_s"] for r in results]), "1/s"),
        "hit_p50_ms": (
            median([t for r in results for t in r["hits"]]) * 1e3, "ms"),
        "miss_p50_ms": (
            median([t for r in results for t in r["misses"]]) * 1e3, "ms"),
        "peak_rss_mb": (common.self_peak_rss_mb(), "MB"),
    }


def per_layer(tracer, traced: dict, plain: list[dict], traced_setups, setups,
              lattice) -> dict:
    summary = tracing.summarize(tracer.spans)
    layers = tracing.layer_self_times(summary)
    engine = traced["engine"]
    stats = engine.stats

    def total(name: str, field: str = "total_s") -> float:
        return summary.get(name, {}).get(field, 0.0)

    search = traced["search"]
    m = {
        "data.generate_s": (total("data.generate_adult"), "s"),
        "generalization.bucketize_calls": (
            total("generalization.bucketize_at", "count"), "count"),
        "generalization.bucketize_s": (
            total("generalization.bucketize_at"), "s"),
        "generalization.search_s": (total("generalization.search"), "s"),
        "generalization.nodes_checked": (search.predicate_checks, "count"),
        "generalization.nodes_checked_ratio": (
            ratio(search.predicate_checks, lattice.size), "ratio"),
        "engine.evaluate_calls": (
            sum(entry["count"] for name, entry in summary.items()
                if name.startswith("engine.")), "count"),
        "engine.evaluate_s": (layers["engine"], "s"),
        "engine.evaluations": (stats.evaluations, "count"),
        "engine.hit_rate": (stats.hit_rate, "ratio"),
        "engine.distinct_signatures": (len(engine.plane), "count"),
        "engine.cache_entries": (engine.cache_size(), "count"),
        "core.kernel_calls": (
            total("core.minimize1", "count")
            + total("core.minimize2", "count"), "count"),
        "core.kernel_s": (layers["core"], "s"),
    }
    for layer, seconds in layers.items():
        m[f"{layer}.self_s"] = (seconds, "s")
    traced_e2e = end_to_end(traced_setups, [traced])
    plain_e2e = end_to_end(setups, plain)
    m["p99_ms"] = plain_e2e["p99_ms"]
    m["trace.overhead_wall_s"] = (
        traced_e2e["wall_s"][0] - plain_e2e["wall_s"][0], "s")
    m["trace.overhead_p50_ms"] = (
        traced_e2e["p50_ms"][0] - plain_e2e["p50_ms"][0], "ms")
    return m


def _warm_up(table, lattice) -> None:
    """Untimed: the first engine, kernel and bucketization calls of the
    process."""
    engine = DisclosureEngine()
    run_figure5(table, ks=FIG5_KS, engine=engine)
    node = next(iter(lattice.nodes()))
    engine.series(bucketize_at(table, lattice, node), DEFAULT_FIG6_KS)


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    setups = []
    for _ in range(SETUPS):
        t = time.perf_counter()
        table, lattice = setup(seed)
        setups.append(time.perf_counter() - t)
    _warm_up(table, lattice)
    # MIN_SWEEPS sweeps at least; then another while at least half of one
    # fits in the run's time.
    start = time.perf_counter()
    results = []
    while len(results) < MIN_SWEEPS or (
        time.perf_counter() - start
        + median([r["wall_s"] for r in results]) / 2 <= seconds
    ):
        results.append(sweep(table, lattice))
    # Correctness is checked on the median-wall sweep.
    plain = sorted(results, key=lambda r: r["wall_s"])[len(results) // 2]
    checked, wrong, notes = check(table, lattice, plain, seed)
    attempted = checked + sum(_operations(r) for r in results)
    metrics = end_to_end(setups, results)
    record = {
        "provenance": common.provenance(
            workload=name,
            seed=seed,
            inputs_hash=common.inputs_sha256(
                [list(row.values()) for row in table.rows]
            ),
            kernel=plain["engine"].kernel,
            shard_mode="none",
        ),
        "rows": len(table),
        "lattice_nodes": lattice.size,
        "sweeps_s": [r["wall_s"] for r in results],
        "setups_s": setups,
        "minimal_safe_nodes": [list(n) for n in plain["minimal"]],
        "error_rate": ratio(wrong, attempted),
        "notes": notes,
        "end_to_end": {k: v[0] for k, v in metrics.items()},
    }
    if trace:
        tracer = tracing.Tracer()
        tracing.install_layer_spans(tracer, server_side=False)
        try:
            t = time.perf_counter()
            table, lattice = setup(seed)
            traced_setups = [time.perf_counter() - t]
            traced = sweep(table, lattice)
        finally:
            tracer.unwrap_all()
        metrics = per_layer(tracer, traced, results, traced_setups, setups,
                            lattice)
        record["traced_end_to_end"] = {
            k: v[0] for k, v in end_to_end(traced_setups, [traced]).items()
        }
        record["self_time_s"] = {
            k[: -len(".self_s")]: v[0]
            for k, v in metrics.items() if k.endswith(".self_s")
        }
    return {"record": record, "correct": wrong == 0, "attempted": attempted,
            "failed": wrong, "metrics": metrics}
