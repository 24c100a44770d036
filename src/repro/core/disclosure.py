"""Maximum disclosure w.r.t. ``L^k_basic`` (Definition 6) in polynomial time.

This is the paper's headline algorithm: Theorem 9 restricts the worst case to
``k`` simple implications sharing one consequent, MINIMIZE1/MINIMIZE2 minimize
Formula (1) over those, and

    max disclosure = 1 / (1 + min Formula (1))

The whole computation is ``O(|B| * k^3)`` time and space (Section 3.3.3), and
in this implementation the per-bucket work is shared across equal bucket
signatures and across calls that pass a common solver.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from fractions import Fraction

from repro.bucketization.bucketization import Bucketization
from repro.core.minimize1 import INFEASIBLE, Minimize1Solver, resolve_solver
from repro.core.minimize2 import min_ratio_table

__all__ = [
    "min_formula1_ratio",
    "max_disclosure",
    "max_disclosure_series",
    "max_disclosure_series_from_counts",
    "min_k_to_breach",
]


def _to_disclosure(ratio, *, exact: bool):
    """``1 / (1 + ratio)`` with infeasible ratios mapped to disclosure 0."""
    if ratio == INFEASIBLE:  # pragma: no cover - cannot happen for |B| >= 1
        return Fraction(0) if exact else 0.0
    if exact:
        return Fraction(1) / (1 + ratio)
    return 1.0 / (1.0 + ratio)


def min_formula1_ratio(
    bucketization: Bucketization,
    k: int,
    *,
    exact: bool | None = None,
    solver: Minimize1Solver | None = None,
):
    """Minimum of Formula (1) over placements of ``k`` antecedent atoms and
    the consequent atom (Section 3.3.3)."""
    if k < 0:
        raise ValueError(f"k must be non-negative, got {k}")
    solver = resolve_solver(exact, solver)
    table = min_ratio_table(
        dict(bucketization.signature_items()), k, solver=solver
    )
    return table[k]


def max_disclosure(
    bucketization: Bucketization,
    k: int,
    *,
    exact: bool | None = None,
    solver: Minimize1Solver | None = None,
):
    """Maximum disclosure of ``bucketization`` w.r.t. ``L^k_basic``.

    Parameters
    ----------
    bucketization:
        The published buckets.
    k:
        Bound on the attacker's power: number of basic implications known.
    exact:
        Return an exact :class:`~fractions.Fraction` (float otherwise). The
        default ``None`` inherits the solver's mode; an explicit value that
        contradicts a provided solver raises :class:`ValueError`.
    solver:
        Optional shared :class:`~repro.core.minimize1.Minimize1Solver`; pass
        one instance across many bucketizations to reuse per-signature work.

    Returns
    -------
    float | Fraction
        ``max_{p, s, phi in L^k_basic} Pr(t_p[S] = s | B and phi)``.

    Examples
    --------
    The paper's Figure 3 bucketization. The paper reports 10/19 for
    ``k = 1``, via a cross-bucket implication; same-person implications,
    which its definitions admit, reach 2/3 (``docs/architecture.md``,
    "Departures from the paper", item 4):

    >>> from repro.bucketization import Bucketization
    >>> figure3 = Bucketization.from_value_lists([
    ...     ["Flu", "Flu", "Lung Cancer", "Lung Cancer", "Mumps"],
    ...     ["Flu", "Flu", "Breast Cancer", "Ovarian Cancer", "Heart Disease"],
    ... ])
    >>> max_disclosure(figure3, 0, exact=True)
    Fraction(2, 5)
    >>> max_disclosure(figure3, 1, exact=True)
    Fraction(2, 3)
    """
    solver = resolve_solver(exact, solver)
    ratio = min_formula1_ratio(bucketization, k, solver=solver)
    return _to_disclosure(ratio, exact=solver.exact)


def max_disclosure_series(
    bucketization: Bucketization,
    ks: Iterable[int],
    *,
    exact: bool | None = None,
    solver: Minimize1Solver | None = None,
) -> dict[int, object]:
    """Maximum disclosure for several ``k`` values at the cost of one.

    A single MINIMIZE2 pass computes every ``k <= max(ks)`` (the DP tables
    are shared), so sweeping ``k`` — as both Figures 5 and 6 do — costs the
    same as the largest single query. ``exact``/``solver`` resolve exactly as
    in :func:`max_disclosure` (the solver's mode wins; explicit conflicts
    raise).
    """
    return max_disclosure_series_from_counts(
        dict(bucketization.signature_items()), ks, exact=exact, solver=solver
    )


def max_disclosure_series_from_counts(
    signature_counts: Mapping[tuple[int, ...], int],
    ks: Iterable[int],
    *,
    exact: bool | None = None,
    solver: Minimize1Solver | None = None,
) -> dict[int, object]:
    """:func:`max_disclosure_series` computed purely on the signature plane.

    ``signature_counts`` maps each bucket signature to its multiplicity —
    all the implication worst case depends on (Lemma 12 / MINIMIZE2 see a
    bucketization only through its histogram shapes). This is the entry
    point the engine's parallel executor and persistence layer use: a cache
    key round-trips to a computation without ever rebuilding people."""
    ks = sorted(set(ks))
    if not ks:
        return {}
    if ks[0] < 0:
        raise ValueError(f"k must be non-negative, got {ks[0]}")
    solver = resolve_solver(exact, solver)
    table = min_ratio_table(signature_counts, ks[-1], solver=solver)
    return {
        k: _to_disclosure(table[k], exact=solver.exact) for k in ks
    }


def min_k_to_breach(
    bucketization: Bucketization,
    c: float,
    *,
    exact: bool = False,
) -> int:
    """The least attacker power ``k`` whose maximum disclosure reaches ``c``.

    This is the quantity ℓ-diversity reasons about ("it takes at least ℓ-1
    pieces of information"), generalized to implication knowledge. It is
    always well-defined for ``c <= 1``: within the bucket holding the most
    distinct sensitive values ``d``, ``d - 1`` negation-style implications
    force a certain disclosure, so the search is bounded by
    ``max_b (d_b - 1)``.

    Parameters
    ----------
    c:
        Disclosure level to reach, in (0, 1].

    Returns
    -------
    int
        Smallest ``k`` with ``max_disclosure(bucketization, k) >= c``.

    Examples
    --------
    >>> from repro.bucketization import Bucketization
    >>> b = Bucketization.from_value_lists([["a", "b", "c", "d"]])
    >>> min_k_to_breach(b, 1.0)
    3
    """
    if not 0 < c <= 1:
        raise ValueError(f"c must be in (0, 1], got {c}")
    bound = max(bucket.distinct_count for bucket in bucketization.buckets) - 1
    series = max_disclosure_series(bucketization, range(bound + 1), exact=exact)
    threshold = Fraction(c).limit_denominator() if exact else c
    for k in range(bound + 1):
        if series[k] >= threshold:
            return k
    return bound  # pragma: no cover - k = bound always reaches 1 >= c
