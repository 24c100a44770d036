"""Seeded inputs shared by the serving workloads.

Every request body is built from buckets of the synthetic Adult table
(:func:`repro.data.generate_adult`), bucketized at a few lattice nodes, so
bucket signatures have the shapes of the paper's data. The same seed gives
the same buckets and the same requests.
"""

from __future__ import annotations

import random

from repro import (
    ADULT_SCHEMA,
    GeneralizationLattice,
    adult_hierarchies,
    bucketize_at,
    generate_adult,
)

#: Lattice nodes whose buckets feed the pool: the finest ones, which give
#: the most distinct buckets.
POOL_NODES = ((0, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))


def bucket_pool(seed: int, *, rows: int = 20000) -> list[list[str]]:
    """Sensitive-value lists of the Adult buckets holding 3 to 40 rows, in
    a seeded order."""
    table = generate_adult(rows, seed=seed)
    lattice = GeneralizationLattice(
        adult_hierarchies(), ADULT_SCHEMA.quasi_identifiers
    )
    pool: list[list[str]] = []
    for node in POOL_NODES:
        for bucket in bucketize_at(table, lattice, node).buckets:
            if 3 <= len(bucket) <= 40:
                pool.append(sorted(map(str, bucket.sensitive_values)))
    random.Random(seed).shuffle(pool)
    return pool


class BucketDraw:
    """Draws request bodies (lists of buckets) from a bucket pool."""

    def __init__(self, pool: list[list[str]], rng: random.Random) -> None:
        self.pool = pool
        self.rng = rng

    def buckets(self, count: int) -> list[list[str]]:
        return [list(b) for b in self.rng.sample(self.pool, count)]
