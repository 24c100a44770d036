"""Apply a lattice node to a table: generalize, then bucketize.

Under full identification information, publishing the generalized table is
equivalent to publishing the bucketization whose buckets are the generalized
QI equivalence classes (Section 2.1); :func:`bucketize_at` produces exactly
that bucketization, which is what all disclosure computations consume.
"""

from __future__ import annotations

from collections.abc import Sequence
from itertools import chain

from repro.bucketization.bucket import Bucket
from repro.bucketization.bucketization import Bucketization
from repro.data.table import Table
from repro.generalization.lattice import GeneralizationLattice

__all__ = ["generalize_table", "bucketize_at"]


def generalize_table(
    table: Table, lattice: GeneralizationLattice, node: Sequence[int]
) -> Table:
    """Return ``table`` with every quasi-identifier coarsened to ``node``'s
    levels (the published full-domain generalization)."""
    node = lattice.validate(node)
    if set(lattice.attributes) != set(table.schema.quasi_identifiers):
        raise ValueError(
            "lattice attributes do not match the table's quasi-identifiers"
        )
    return table.map_qi(
        lambda attribute, value: lattice.generalize_value(attribute, value, node)
    )


def bucketize_at(
    table: Table, lattice: GeneralizationLattice, node: Sequence[int]
) -> Bucketization:
    """Bucketization induced by generalizing ``table`` to ``node``: one bucket
    per generalized-QI equivalence class.

    This is the object the (c,k)-safety check takes; it avoids materializing
    the generalized table. Buckets come in ``repr`` order of their
    generalized QI tuple, with person ids and sensitive values in row order
    (exactly what :meth:`Bucketization.from_table` gives for the generalized
    key).

    The rows are never regrouped: every generalized class is a union of the
    table's ground QI classes (:meth:`Table.qi_classes`, grouped once per
    table), so a node costs one mapping of each ground class key and one
    merge of their row indices.
    """
    node = lattice.validate(node)
    table.require_nonempty()
    classes = table.qi_classes()
    # Generalize each distinct ground value once per attribute, then map
    # the class keys column by column.
    generalized_columns = []
    for attribute, column in zip(
        table.schema.quasi_identifiers, zip(*(key for key, _ in classes))
    ):
        mapping = {
            value: lattice.generalize_value(attribute, value, node)
            for value in set(column)
        }
        generalized_columns.append(map(mapping.__getitem__, column))
    merged: dict[tuple, list[tuple[int, ...]]] = {}
    for generalized, (_, rows) in zip(zip(*generalized_columns), classes):
        merged.setdefault(generalized, []).append(rows)
    # Without an identifier column a person id is the row index.
    person_ids = None if table.schema.identifier is None else table.person_ids
    sensitive = table.sensitive_values()
    buckets = []
    for _, parts in sorted(merged.items(), key=lambda item: repr(item[0])):
        # Each part is sorted; timsort merges the runs in near-linear time.
        rows = parts[0] if len(parts) == 1 else sorted(chain.from_iterable(parts))
        buckets.append(
            Bucket(
                rows if person_ids is None else map(person_ids.__getitem__, rows),
                map(sensitive.__getitem__, rows),
            )
        )
    return Bucketization(buckets)
