"""Vectorized float-mode kernel for the MINIMIZE1/MINIMIZE2 hot path.

Every disclosure query bottoms out in the paper's ``O(|B| k^3)``
MINIMIZE1/MINIMIZE2 dynamic programs. This module batches those DPs over
numpy arrays:

- :func:`minimize1_tables` runs MINIMIZE1's ``(i, cap, rem)`` recursion as
  one layered array pass over **all** distinct signatures in a batch at
  once, instead of one memoized Python recursion per signature.
- :func:`min_ratio_backward` runs MINIMIZE2's backward ``fa``/``ff``
  recurrence as ``(width,)``-shaped array updates per bucket position, with
  :data:`~repro.core.minimize1.INFEASIBLE` kept as ``+inf`` so the scalar
  ``_times`` absorbing product becomes masked array arithmetic.

Both functions reproduce the scalar float path **bit-for-bit**: the same
int->float64 divisions, the same multiplication pairs, and mins over the
same candidate sets (a min over identical floats is order-independent).
The one numpy-specific hazard — ``0.0 * inf == nan`` where the scalar code
short-circuits — is masked explicitly before the product is consumed.

numpy is an *optional* dependency (the ``repro[fast]`` extra).
:func:`resolve_kernel` maps the user-facing ``kernel={auto,numpy,scalar}``
selector to a concrete kernel: exact (Fraction) mode is always scalar — the
authoritative oracle — and a ``numpy`` request without numpy installed
falls back to scalar with a one-time :class:`RuntimeWarning`.

This module is self-contained (no ``repro`` imports) so the core solvers
can import it without cycles.
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Sequence

__all__ = [
    "KERNELS",
    "numpy_available",
    "resolve_kernel",
    "minimize1_tables",
    "TableStore",
    "min_ratio_backward",
]

#: Valid values for the user-facing kernel selector.
KERNELS = ("auto", "numpy", "scalar")

_np = None
_np_checked = False
_warned_missing = False


def _numpy():
    """The numpy module, or ``None`` — imported lazily, probed once."""
    global _np, _np_checked
    if not _np_checked:
        _np_checked = True
        try:
            import numpy
        except ImportError:  # pragma: no cover - exercised in no-numpy CI leg
            _np = None
        else:
            _np = numpy
    return _np


def numpy_available() -> bool:
    """Whether the vectorized kernel can run in this environment."""
    return _numpy() is not None


def resolve_kernel(kernel: str, *, exact: bool = False) -> str:
    """Map a ``kernel`` selector to the concrete kernel that will run.

    Returns ``"numpy"`` or ``"scalar"``. Exact (Fraction) arithmetic is
    always scalar — the vectorized path is float-only and the exact oracle
    stays the correctness reference. ``"auto"`` silently picks numpy when
    available; an explicit ``"numpy"`` request without numpy installed
    falls back to scalar with a one-time :class:`RuntimeWarning`.
    """
    global _warned_missing
    if kernel not in KERNELS:
        raise ValueError(
            f"kernel must be one of {KERNELS}, got {kernel!r}"
        )
    if exact or kernel == "scalar":
        return "scalar"
    if numpy_available():
        return "numpy"
    if kernel == "numpy" and not _warned_missing:
        _warned_missing = True
        warnings.warn(
            "kernel='numpy' requested but numpy is not installed; "
            "falling back to the scalar kernel "
            "(pip install 'repro[fast]' to enable it)",
            RuntimeWarning,
            stacklevel=2,
        )
    return "scalar"


def minimize1_tables(signatures: Sequence[tuple[int, ...]], max_m: int):
    """Batched MINIMIZE1: ``[solver.table(sig, max_m) for sig in signatures]``
    as one layered numpy pass, bit-identical to the scalar float DP.

    Returns a float64 array of shape ``(len(signatures), max_m + 1)``:
    row ``s`` is the table of ``signatures[s]``.

    ``signatures`` must be validated (non-empty, positive, non-increasing)
    by the caller; they need not be distinct, but callers that deduplicate
    first do the work once per distinct signature.

    The scalar recursion ``g(i, cap, rem)`` is evaluated bottom-up over
    layers ``i = max_m .. 0`` with state arrays of shape
    ``(S, width, width)`` indexed ``[signature, cap, rem]``. At layer ``i``
    only states with ``rem <= max_m - i`` are ever consulted, so the top
    layer's boundary (1 when ``rem == 0``, else infeasible) is correct for
    every signature, including those with fewer than ``max_m`` tuples.
    """
    np = _numpy()
    if np is None:  # pragma: no cover - callers gate on resolve_kernel
        raise RuntimeError("numpy kernel requested but numpy is unavailable")
    if max_m < 0:
        raise ValueError(f"max_m must be non-negative, got {max_m}")
    sigs = [tuple(s) for s in signatures]
    if max_m == 0 or not sigs:
        return np.ones((len(sigs), max_m + 1))

    width = max_m + 1
    count = len(sigs)
    n = np.array([sum(s) for s in sigs], dtype=np.int64)
    # P[s, k] = prefix-sum of the top min(k, d_s) frequencies; zero padding
    # past each signature's last distinct value saturates the cumsum exactly
    # like the scalar ``prefix[min(k, d)]`` lookup.
    counts = np.zeros((count, max_m), dtype=np.int64)
    for row, sig in enumerate(sigs):
        head = sig[:max_m]
        counts[row, : len(head)] = head
    prefix = np.zeros((count, width), dtype=np.int64)
    prefix[:, 1:] = np.cumsum(counts, axis=1)

    k_idx = np.arange(1, width)  # candidate atoms for the current person
    rem_idx = np.arange(width)
    rem_after = rem_idx[None, :] - k_idx[:, None]  # (K, width)
    valid_k = rem_after >= 0
    gather = np.where(valid_k, rem_after, 0)

    inf = np.inf
    boundary = np.where(rem_idx == 0, 1.0, inf)  # (width,) per (cap, rem=..)
    boundary = np.broadcast_to(boundary, (width, width))
    g_layer = np.broadcast_to(boundary, (count, width, width)).copy()

    for i in range(max_m - 1, -1, -1):
        denom = n - i  # people remaining in the bucket after i placements
        safe_denom = np.where(denom > 0, denom, 1)
        # numerator for person i taking its top-k values, clamped at 0 so
        # the factor is exactly the scalar path's literal 0.0.
        numer = denom[:, None] - prefix[:, 1:]  # (S, K)
        factor = np.maximum(numer, 0) / safe_denom[:, None]
        # rest[s, k, rem] = g(i+1, k, rem - k) for each candidate k.
        rest = g_layer[:, k_idx[:, None], gather]
        with np.errstate(invalid="ignore"):
            cand = factor[:, :, None] * rest
        cand = np.where(np.isinf(rest), inf, cand)  # _times absorbing inf
        cand = np.where(valid_k[None, :, :], cand, inf)
        # Prefix-min over k <= cap gives every cap row in one accumulate.
        cum = np.minimum.accumulate(cand, axis=1)
        g_next = np.empty_like(g_layer)
        g_next[:, 0, :] = inf  # cap == 0: no candidate atom counts
        g_next[:, 1:, :] = cum
        g_next[:, :, 0] = 1.0  # rem == 0 precedes the i >= n check
        # Signatures already out of people keep the boundary pattern.
        g_layer = np.where((i < n)[:, None, None], g_next, boundary[None])

    diag = g_layer[:, rem_idx, rem_idx]  # table[s][m] = g(0, m, m)
    diag[:, 0] = 1.0
    return diag


class TableStore:
    """The float MINIMIZE1 tables of one solver, packed.

    Row ``i`` of one growing float64 array holds the table of the signature
    with dense id ``i``, NaN past the width it was solved to and on rows
    never solved (a MINIMIZE1 value is never NaN). Against one Python list
    of floats per signature this keeps 8 bytes per value instead of about
    32 and needs no key map, and :meth:`matrix` hands the MINIMIZE2 pass
    its rows without building a Python float per value.
    """

    __slots__ = ("_array",)

    def __init__(self) -> None:
        self._array = None

    def ids(self) -> set[int]:
        """The ids with a (possibly narrower) table stored."""
        if self._array is None:
            return set()
        np = _numpy()
        return set(np.flatnonzero(~np.isnan(self._array[:, 0])).tolist())

    def cells(self) -> int:
        """Number of table values stored."""
        if self._array is None:
            return 0
        return self._array.size - int(_numpy().isnan(self._array).sum())

    def value(self, sig_id: int, signature: tuple[int, ...], m: int) -> float:
        """``table(signature)[m]``, solving it first when not stored."""
        array = self._array
        if array is not None and sig_id < len(array) and m < array.shape[1]:
            value = array.item(sig_id, m)
            if not math.isnan(value):
                return value
        self._put({sig_id: signature}, m)
        return self._array.item(sig_id, m)

    def matrix(
        self,
        ids: Sequence[int],
        signatures: Sequence[tuple[int, ...]],
        max_m: int,
    ):
        """The tables of ``signatures`` (with dense ids ``ids``) to width
        ``max_m + 1``, as one ``(len(ids), max_m + 1)`` array."""
        self._ensure(ids, signatures, max_m)
        return self._array[list(ids), : max_m + 1]

    def _ensure(self, ids, signatures, max_m: int) -> None:
        """Solve, in one vectorized pass, every table not yet stored to
        ``max_m``."""
        array = self._array
        rows, columns = (0, 0) if array is None else array.shape
        missing: dict[int, tuple[int, ...]] = {}
        for sig_id, sig in zip(ids, signatures):
            # A table solved to a narrower width is NaN at ``max_m``.
            if (
                sig_id >= rows
                or max_m >= columns
                or math.isnan(array.item(sig_id, max_m))
            ):
                missing[sig_id] = sig
        if missing:
            self._put(missing, max_m)

    def _put(self, missing: dict[int, tuple[int, ...]], max_m: int) -> None:
        """Solve ``missing`` (id -> signature) and write the tables,
        growing the array as needed.

        A wider table has identical prefixes (the DP's candidate set per
        state does not depend on ``max_m``), so overwriting a narrower row
        never changes earlier values.
        """
        np = _numpy()
        solved = minimize1_tables(list(missing.values()), max_m)
        width = max_m + 1
        array = self._array
        rows, columns = (0, 0) if array is None else array.shape
        needed = max(missing) + 1
        if needed > rows or width > columns:
            if needed > rows:
                # Grow by half again so appends stay amortized O(1).
                rows = max(needed, rows + rows // 2)
            grown = np.full((rows, max(width, columns)), np.nan)
            if array is not None:
                grown[: len(array), :columns] = array
            self._array = array = grown
        array[list(missing), :width] = solved


def min_ratio_backward(
    tables,
    boosts: Sequence[float],
    max_k: int,
) -> list[tuple[list[float], list[float]]]:
    """MINIMIZE2's backward pass over pre-computed MINIMIZE1 tables.

    ``tables`` is a float64 array whose row ``i`` is the MINIMIZE1 table
    of bucket ``i`` (forward order, at least ``max_k + 2`` columns) and
    ``boosts[i] = n_i / top_i`` its consequent-hosting boost. Returns the
    ``_after`` list in the same layout the scalar
    :class:`~repro.core.minimize2.MinRatioComputation` builds *before*
    reversal: the boundary pair first, then one ``(fa, ff)`` pair per
    bucket processed back-to-front, as plain Python float lists so witness
    reconstruction walks them unchanged.
    """
    np = _numpy()
    if np is None:  # pragma: no cover - callers gate on resolve_kernel
        raise RuntimeError("numpy kernel requested but numpy is unavailable")
    width = max_k + 1
    inf = np.inf
    fa = np.full(width, inf)
    fa[0] = 1.0
    ff = np.full(width, inf)
    after: list[tuple[list[float], list[float]]] = [(fa.tolist(), ff.tolist())]

    m_idx = np.arange(width)[:, None]
    h_idx = np.arange(width)[None, :]
    valid = m_idx <= h_idx
    shift = np.where(valid, h_idx - m_idx, 0)

    def conv_min(vec, prev):
        # out[h] = min_{m <= h} _times(vec[m], prev[h - m]); MINIMIZE1
        # values are always finite, so only ``prev`` can carry infeasible.
        prev_m = prev[shift]
        with np.errstate(invalid="ignore"):
            prod = vec[:, None] * prev_m
        prod = np.where(np.isinf(prev_m), inf, prod)
        prod = np.where(valid, prod, inf)
        return prod.min(axis=0)

    for table, boost in zip(tables[::-1], reversed(boosts)):
        g = table[:width]
        ghat = table[1 : width + 1] * boost
        new_fa = conv_min(g, fa)
        new_ff = np.minimum(conv_min(g, ff), conv_min(ghat, fa))
        fa, ff = new_fa, new_ff
        after.append((fa.tolist(), ff.tolist()))
    return after
