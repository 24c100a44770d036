"""A bucketization ``B``: the published form of the table (Section 2.1).

The attacker is assumed to know, for every bucket, the set of people in it and
the multiset of sensitive values — :class:`Bucketization` is exactly that
knowledge. It also implements the paper's partial order on bucketizations
(Section 3.4): ``B <= B'`` iff every bucket of ``B'`` is a union of buckets of
``B`` (``B'`` is coarser). Theorem 14 says maximum disclosure is monotone
non-increasing along this order.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Callable, Iterable, Sequence
from typing import Any

from repro.bucketization.bucket import Bucket
from repro.data.table import Table
from repro.errors import EmptyTableError

__all__ = ["Bucketization"]


def _raise_shared_person(buckets: Sequence[Bucket]) -> None:
    """Raise for the first person found in two of ``buckets``."""
    seen: dict[Any, int] = {}
    for index, bucket in enumerate(buckets):
        for pid in bucket.person_ids:
            if pid in seen:
                raise ValueError(
                    f"person {pid!r} appears in buckets {seen[pid]} and {index}"
                )
            seen[pid] = index


class Bucketization:
    """An immutable sequence of disjoint :class:`Bucket` objects.

    Examples
    --------
    >>> b = Bucketization([Bucket.from_values(["Flu", "Flu", "Mumps"])])
    >>> b.total_size, len(b)
    (3, 1)
    """

    __slots__ = ("_buckets", "_bucket_of", "_signature_items")

    def __init__(self, buckets: Iterable[Bucket]) -> None:
        bs = tuple(buckets)
        if not bs:
            raise EmptyTableError("a bucketization needs at least one bucket")
        bucket_of: dict[Any, int] = {}
        for index, bucket in enumerate(bs):
            bucket_of.update(dict.fromkeys(bucket.person_ids, index))
        # Ids are distinct within a bucket, so a short map means a person
        # in two buckets.
        if len(bucket_of) != sum(b.size for b in bs):
            _raise_shared_person(bs)
        self._buckets = bs
        self._bucket_of = bucket_of
        self._signature_items: tuple[tuple[tuple[int, ...], int], ...] | None = None

    # ------------------------------------------------------------------
    # Container protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._buckets)

    def __iter__(self):
        return iter(self._buckets)

    def __getitem__(self, index: int) -> Bucket:
        return self._buckets[index]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Bucketization):
            return NotImplemented
        return self.partition_frozen() == other.partition_frozen() and all(
            Counter(self.bucket_of(pid).sensitive_values)
            == Counter(other.bucket_of(pid).sensitive_values)
            for pid in self._bucket_of
        )

    def __hash__(self) -> int:  # pragma: no cover - rarely hashed
        return hash(self.partition_frozen())

    def __repr__(self) -> str:
        sizes = [b.size for b in self._buckets]
        return f"Bucketization({len(self._buckets)} buckets, sizes={sizes})"

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def buckets(self) -> tuple[Bucket, ...]:
        """The buckets, in a fixed order."""
        return self._buckets

    @property
    def total_size(self) -> int:
        """Total number of tuples across buckets."""
        return sum(b.size for b in self._buckets)

    @property
    def person_ids(self) -> tuple[Any, ...]:
        """All person ids, grouped by bucket."""
        return tuple(pid for b in self._buckets for pid in b.person_ids)

    def bucket_of(self, person_id: Any) -> Bucket:
        """The bucket containing ``person_id`` (full identification info)."""
        return self._buckets[self._bucket_of[person_id]]

    def bucket_index_of(self, person_id: Any) -> int:
        """Index of the bucket containing ``person_id``."""
        return self._bucket_of[person_id]

    def partition_frozen(self) -> frozenset[frozenset]:
        """The partition of people as a hashable set of sets."""
        return frozenset(frozenset(b.person_ids) for b in self._buckets)

    def signature_multiset(self) -> Counter:
        """Multiset of bucket signatures — all the disclosure DP needs."""
        return Counter(dict(self.signature_items()))

    def signature_items(self) -> tuple[tuple[tuple[int, ...], int], ...]:
        """The signature multiset as a canonical hashable tuple of
        ``(signature, count)`` pairs, sorted by signature.

        Computed once per bucketization — this is the form the signature
        plane interns, every whole-bucketization cache keys on, and the
        parallel executor ships to worker processes.
        """
        if self._signature_items is None:
            counts = Counter(b.signature for b in self._buckets)
            self._signature_items = tuple(sorted(counts.items()))
        return self._signature_items

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_table(
        cls,
        table: Table,
        *,
        key: Callable[[dict], Any] | None = None,
    ) -> "Bucketization":
        """Bucketize ``table`` by grouping rows with equal ``key``.

        The default key is the row's quasi-identifier tuple, which models a
        published table where each QI equivalence class is one bucket (the
        full-domain generalization view; see Section 2.1 on the equivalence
        of the two sanitization methods under full identification).
        """
        table.require_nonempty()
        schema = table.schema
        key_fn = key if key is not None else schema.qi_tuple
        groups: dict[Any, tuple[list, list]] = {}
        for pid, record in zip(table.person_ids, table.rows):
            pids, values = groups.setdefault(key_fn(record), ([], []))
            pids.append(pid)
            values.append(record[schema.sensitive])
        # Sort groups by key repr so bucket order is deterministic.
        buckets = [
            Bucket(pids, values)
            for _, (pids, values) in sorted(groups.items(), key=lambda kv: repr(kv[0]))
        ]
        return cls(buckets)

    @classmethod
    def from_signature_counts(cls, counts) -> "Bucketization":
        """Synthetic bucketization realizing a signature multiset.

        ``counts`` is a mapping ``signature -> multiplicity`` or an iterable
        of ``(signature, count)`` pairs. Person ids and value labels are
        fresh placeholders (see :meth:`Bucket.from_signature`): for every
        signature-decomposable computation the result is evaluation-
        equivalent to any bucketization with the same signature multiset,
        which is how the signature plane turns an interned cache key back
        into a unit of work for a worker process.
        """
        items = counts.items() if hasattr(counts, "items") else counts
        buckets: list[Bucket] = []
        next_id = 0
        for signature, count in sorted(items):
            if count <= 0:
                raise ValueError(
                    f"signature multiplicity must be positive, got {count}"
                )
            for _ in range(count):
                bucket = Bucket.from_signature(signature, start_id=next_id)
                next_id += bucket.size
                buckets.append(bucket)
        return cls(buckets)

    @classmethod
    def from_value_lists(cls, value_lists: Sequence[Sequence[Any]]) -> "Bucketization":
        """Build from bare sensitive-value lists with global integer ids
        (convenient in tests and benchmarks)."""
        buckets = []
        next_id = 0
        for values in value_lists:
            values = tuple(values)
            buckets.append(Bucket(range(next_id, next_id + len(values)), values))
            next_id += len(values)
        return cls(buckets)

    # ------------------------------------------------------------------
    # The partial order of Section 3.4
    # ------------------------------------------------------------------
    def merge_buckets(self, indices: Iterable[int]) -> "Bucketization":
        """Merge the buckets at ``indices`` into one, moving *up* the order.

        Returns a strictly coarser bucketization; by Theorem 14 its maximum
        disclosure is at most this one's.
        """
        chosen = sorted(set(indices))
        if len(chosen) < 2:
            raise ValueError("need at least two distinct buckets to merge")
        for index in chosen:
            if not 0 <= index < len(self._buckets):
                raise IndexError(f"bucket index {index} out of range")
        merged = self._buckets[chosen[0]]
        for index in chosen[1:]:
            merged = merged.merge(self._buckets[index])
        remaining = [
            b for i, b in enumerate(self._buckets) if i not in set(chosen)
        ]
        return Bucketization(remaining + [merged])

    def refines(self, coarser: "Bucketization") -> bool:
        """True iff ``self`` <= ``coarser`` in the paper's partial order, i.e.
        every bucket of ``coarser`` is a union of buckets of ``self``.

        Both must partition the same person set.
        """
        if set(self._bucket_of) != set(coarser._bucket_of):
            raise ValueError("bucketizations cover different person sets")
        for fine_bucket in self._buckets:
            indices = {
                coarser.bucket_index_of(pid) for pid in fine_bucket.person_ids
            }
            if len(indices) != 1:
                return False
        return True
