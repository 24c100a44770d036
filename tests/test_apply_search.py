"""Applying lattice nodes to tables, and the safe-node searches."""

from __future__ import annotations

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bucketization import Bucketization
from repro.core.safety import SafetyChecker
from repro.data.schema import Schema
from repro.data.table import Table
from repro.errors import SearchError
from repro.generalization.apply import bucketize_at, generalize_table
from repro.generalization.hierarchy import SUPPRESSED, Hierarchy
from repro.generalization.lattice import GeneralizationLattice
from repro.generalization.search import (
    SearchStats,
    binary_search_chain,
    find_best_safe_node,
    find_minimal_safe_nodes,
)
from repro.utility.metrics import precision


def row_by_row(table, lattice, node) -> Bucketization:
    """The oracle ``bucketize_at`` must reproduce: every row grouped by its
    generalized QI key, one row at a time."""
    node = lattice.validate(node)
    attributes = table.schema.quasi_identifiers

    def key(record):
        return tuple(
            lattice.generalize_value(a, record[a], node) for a in attributes
        )

    return Bucketization.from_table(table, key=key)


def assert_identical(got: Bucketization, expected: Bucketization) -> None:
    """Bucket order, person-id order, sensitive-value order and the
    signature multiset all equal."""
    assert len(got) == len(expected)
    for mine, theirs in zip(got.buckets, expected.buckets):
        assert mine.person_ids == theirs.person_ids
        assert mine.sensitive_values == theirs.sensitive_values
        assert mine.signature == theirs.signature
        assert mine.values_by_frequency == theirs.values_by_frequency
    assert got.signature_items() == expected.signature_items()


#: Small random tables for the roll-up property: two QI attributes with a
#: grouping hierarchy each, and a three-value sensitive attribute.
_SCHEMA = Schema(quasi_identifiers=("a", "b"), sensitive="s")
_LATTICE = GeneralizationLattice(
    {
        "a": Hierarchy.from_intervals("a", [2, 4], origin=0),
        "b": Hierarchy.from_grouping("b", [{"x": "xy", "y": "xy", "z": "z"}]),
    },
    ("a", "b"),
)
_rows = st.lists(
    st.fixed_dictionaries(
        {
            "a": st.integers(min_value=0, max_value=9),
            "b": st.sampled_from("xyz"),
            "s": st.sampled_from(["flu", "cold", "mumps"]),
        }
    ),
    min_size=1,
    max_size=30,
)


class TestRollUp:
    """``bucketize_at`` rolls a node up from the table's ground QI classes;
    it must be the row-by-row bucketization, bit for bit."""

    @pytest.mark.parametrize("seed", [3, 11])
    def test_every_adult_node(self, seed, adult_lattice):
        pytest.importorskip("numpy", reason="the Adult generator needs numpy")
        from repro.data.adult import generate_adult

        table = generate_adult(3000, seed=seed)
        for node in adult_lattice.nodes():
            assert_identical(
                bucketize_at(table, adult_lattice, node),
                row_by_row(table, adult_lattice, node),
            )

    def test_identifier_column(self, figure1_table):
        lattice = GeneralizationLattice(
            {
                "Zip": Hierarchy.from_grouping(
                    "Zip", [{"14850": "1485*", "14853": "1485*"}]
                ),
                "Age": Hierarchy.from_intervals("Age", [5, 10], origin=20),
                "Sex": Hierarchy.identity_or_suppress("Sex"),
            },
            ("Zip", "Age", "Sex"),
        )
        for node in lattice.nodes():
            got = bucketize_at(figure1_table, lattice, node)
            assert_identical(got, row_by_row(figure1_table, lattice, node))
            assert set(got.person_ids) == set(figure1_table.person_ids)
        # Figure 3 is the (zip prefix, any age, sex) node.
        figure3 = bucketize_at(figure1_table, lattice, (1, 3, 0))
        assert [b.person_ids for b in figure3] == [
            ("Gloria", "Hannah", "Irma", "Jessica", "Karen"),
            ("Bob", "Charlie", "Dave", "Ed", "Frank"),
        ]

    @given(rows=_rows)
    @settings(max_examples=60, deadline=None)
    def test_random_tables(self, rows):
        table = Table(rows, _SCHEMA)
        for node in _LATTICE.nodes():
            assert_identical(
                bucketize_at(table, _LATTICE, node),
                row_by_row(table, _LATTICE, node),
            )

    def test_classes_are_memoized_lazily(self, figure1_table):
        table = Table(figure1_table.rows, figure1_table.schema)
        assert table._qi_classes is None  # construction does not group
        classes = table.qi_classes()
        assert table.qi_classes() is classes
        assert sum(len(rows) for _, rows in classes) == len(table)


class TestApply:
    def test_generalize_table(self, small_adult, adult_lattice):
        node = (3, 1, 1, 0)
        generalized = generalize_table(small_adult, adult_lattice, node)
        record = generalized[0]
        assert record["age"].startswith("[")
        assert record["marital_status"] in {
            "Married",
            "Was-married",
            "Never-married",
        }
        assert record["race"] == SUPPRESSED
        assert record["sex"] in {"Male", "Female"}
        # Sensitive column untouched.
        assert generalized.sensitive_values() == small_adult.sensitive_values()

    def test_bucketize_at_matches_generalized_groups(
        self, small_adult, adult_lattice
    ):
        # Every node, against both oracles: grouping the rows one by one,
        # and bucketizing the materialized generalized table.
        for node in adult_lattice.nodes():
            direct = bucketize_at(small_adult, adult_lattice, node)
            assert_identical(direct, row_by_row(small_adult, adult_lattice, node))
            via_table = generalize_table(small_adult, adult_lattice, node)
            assert_identical(direct, Bucketization.from_table(via_table))

    def test_top_node_single_bucket(self, small_adult, adult_lattice):
        b = bucketize_at(small_adult, adult_lattice, adult_lattice.top)
        assert len(b) == 1
        assert b.total_size == len(small_adult)

    def test_coarser_nodes_merge_buckets(self, small_adult, adult_lattice):
        fine = bucketize_at(small_adult, adult_lattice, (1, 0, 0, 0))
        coarse = bucketize_at(small_adult, adult_lattice, (3, 2, 1, 1))
        assert fine.refines(coarse)

    def test_attribute_mismatch_rejected(self, small_adult, adult_lattice):
        from repro.generalization.lattice import GeneralizationLattice
        from repro.generalization.hierarchy import Hierarchy

        other = GeneralizationLattice(
            {"height": Hierarchy.identity_or_suppress("height")}, ("height",)
        )
        with pytest.raises(ValueError):
            generalize_table(small_adult, other, (0,))


class TestMinimalSafeSearch:
    def test_matches_exhaustive_scan(self, small_adult, adult_lattice):
        checker = SafetyChecker(0.7, 2)

        def is_safe(node):
            return checker.is_safe(bucketize_at(small_adult, adult_lattice, node))

        found = find_minimal_safe_nodes(adult_lattice, is_safe)
        # Exhaustive reference: evaluate safety at every node, take minima.
        safe_nodes = [n for n in adult_lattice.nodes() if is_safe(n)]
        assert set(found) == set(adult_lattice.minimal_elements(safe_nodes))

    def test_found_nodes_are_safe_and_children_unsafe(
        self, small_adult, adult_lattice
    ):
        checker = SafetyChecker(0.65, 1)

        def is_safe(node):
            return checker.is_safe(bucketize_at(small_adult, adult_lattice, node))

        for node in find_minimal_safe_nodes(adult_lattice, is_safe):
            assert is_safe(node)
            for child in adult_lattice.children(node):
                assert not is_safe(child)

    def test_pruning_reduces_checks(self, small_adult, adult_lattice):
        checker = SafetyChecker(0.9, 1)
        stats = SearchStats()
        find_minimal_safe_nodes(
            adult_lattice,
            lambda n: checker.is_safe(bucketize_at(small_adult, adult_lattice, n)),
            stats=stats,
        )
        assert stats.predicate_checks + stats.pruned == 72
        assert stats.pruned > 0

    def test_no_safe_nodes(self, adult_lattice):
        result = find_minimal_safe_nodes(adult_lattice, lambda node: False)
        assert result == []

    def test_best_safe_node_maximizes_utility(self, small_adult, adult_lattice):
        checker = SafetyChecker(0.7, 2)

        def is_safe(node):
            return checker.is_safe(bucketize_at(small_adult, adult_lattice, node))

        best = find_best_safe_node(
            adult_lattice, is_safe, lambda n: precision(adult_lattice, n)
        )
        others = find_minimal_safe_nodes(adult_lattice, is_safe)
        assert best in others
        assert all(
            precision(adult_lattice, best) >= precision(adult_lattice, n)
            for n in others
        )

    def test_best_safe_node_raises_when_none(self, adult_lattice):
        with pytest.raises(SearchError):
            find_best_safe_node(adult_lattice, lambda n: False, sum)


class TestBinarySearchChain:
    def test_finds_lowest_safe_on_chain(self, small_adult, adult_lattice):
        checker = SafetyChecker(0.75, 2)
        chain = adult_lattice.default_chain()

        def is_safe(node):
            return checker.is_safe(bucketize_at(small_adult, adult_lattice, node))

        found = binary_search_chain(chain, is_safe)
        index = chain.index(found)
        assert is_safe(found)
        assert all(not is_safe(node) for node in chain[:index])

    def test_logarithmic_checks(self, adult_lattice):
        chain = adult_lattice.default_chain()  # 10 nodes
        stats = SearchStats()
        binary_search_chain(chain, lambda n: sum(n) >= 4, stats=stats)
        assert stats.predicate_checks <= 5  # 1 top check + ceil(log2(9))

    def test_unsafe_chain_raises(self, adult_lattice):
        with pytest.raises(SearchError):
            binary_search_chain(
                adult_lattice.default_chain(), lambda n: False
            )

    def test_empty_chain_rejected(self):
        with pytest.raises(ValueError):
            binary_search_chain([], lambda n: True)

    def test_all_safe_chain_returns_bottom(self, adult_lattice):
        chain = adult_lattice.default_chain()
        assert binary_search_chain(chain, lambda n: True) == chain[0]
