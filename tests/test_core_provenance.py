"""Tests for the privacy provenance table and constraint set."""

from __future__ import annotations

import pytest

NAN, INF = float("nan"), float("inf")

from repro.core.analyst import Analyst
from repro.core.provenance import Constraints, ProvenanceTable
from repro.exceptions import ReproError, UnknownAnalyst


@pytest.fixture
def table():
    return ProvenanceTable(("alice", "bob"), ("v1", "v2", "v3"))


class TestEntries:
    def test_starts_at_zero(self, table):
        assert table.get("alice", "v1") == 0.0

    def test_add_accumulates(self, table):
        table.add("alice", "v1", 0.3)
        table.add("alice", "v1", 0.2)
        assert table.get("alice", "v1") == pytest.approx(0.5)

    def test_set_monotone(self, table):
        table.set("alice", "v1", 0.5)
        with pytest.raises(ReproError):
            table.set("alice", "v1", 0.4)

    def test_set_rejects_negative(self, table):
        with pytest.raises(ReproError):
            table.set("alice", "v1", -0.1)

    def test_unknown_analyst(self, table):
        with pytest.raises(UnknownAnalyst):
            table.get("mallory", "v1")

    def test_unknown_view(self, table):
        with pytest.raises(ReproError):
            table.get("alice", "nope")


class TestComposites:
    def test_row_total(self, table):
        table.add("alice", "v1", 0.3)
        table.add("alice", "v2", 0.2)
        assert table.row_total("alice") == pytest.approx(0.5)
        assert table.row_total("bob") == 0.0

    def test_column_total_and_max(self, table):
        table.add("alice", "v1", 0.3)
        table.add("bob", "v1", 0.5)
        assert table.column_total("v1") == pytest.approx(0.8)
        assert table.column_max("v1") == pytest.approx(0.5)

    def test_table_total(self, table):
        table.add("alice", "v1", 0.3)
        table.add("bob", "v2", 0.4)
        assert table.table_total() == pytest.approx(0.7)

    def test_table_max_composite(self, table):
        table.add("alice", "v1", 0.3)
        table.add("bob", "v1", 0.5)
        table.add("alice", "v2", 0.2)
        # max(v1) + max(v2) + max(v3) = 0.5 + 0.2 + 0 = 0.7
        assert table.table_max_composite() == pytest.approx(0.7)

    def test_as_matrix(self, table):
        table.add("bob", "v3", 0.9)
        matrix = table.as_matrix()
        assert matrix.shape == (2, 3)
        assert matrix[1, 2] == pytest.approx(0.9)
        assert matrix.sum() == pytest.approx(0.9)


class TestRegistration:
    def test_register_analyst(self, table):
        table.register_analyst("carol")
        assert table.get("carol", "v1") == 0.0
        table.add("carol", "v1", 0.1)
        assert table.row_total("carol") == pytest.approx(0.1)

    def test_register_analyst_duplicate(self, table):
        with pytest.raises(ReproError):
            table.register_analyst("alice")

    def test_register_view(self, table):
        table.register_view("v4")
        assert table.column_max("v4") == 0.0
        table.add("alice", "v4", 0.2)
        assert table.column_total("v4") == pytest.approx(0.2)

    def test_register_view_duplicate(self, table):
        with pytest.raises(ReproError):
            table.register_view("v1")

    def test_for_analysts_constructor(self):
        table = ProvenanceTable.for_analysts(
            [Analyst("a", 1), Analyst("b", 2)], ["v"]
        )
        assert table.analysts == ("a", "b")

    def test_duplicate_names_rejected(self):
        with pytest.raises(ReproError):
            ProvenanceTable(("a", "a"), ("v",))
        with pytest.raises(ReproError):
            ProvenanceTable(("a",), ("v", "v"))


class TestConstraints:
    def test_lookup(self):
        c = Constraints(analyst={"a": 0.5}, view={"v": 1.0}, table=1.0)
        assert c.analyst_limit("a") == 0.5
        assert c.view_limit("v") == 1.0

    def test_unknown_lookups(self):
        c = Constraints(analyst={"a": 0.5}, view={"v": 1.0}, table=1.0)
        with pytest.raises(UnknownAnalyst):
            c.analyst_limit("zzz")
        with pytest.raises(ReproError):
            c.view_limit("zzz")

    def test_rejects_nonpositive_table(self):
        with pytest.raises(ReproError):
            Constraints(analyst={}, view={}, table=0.0)

    def test_rejects_negative_limits(self):
        with pytest.raises(ReproError):
            Constraints(analyst={"a": -1.0}, view={}, table=1.0)
        with pytest.raises(ReproError):
            Constraints(analyst={}, view={"v": -1.0}, table=1.0)

    def test_delta_must_respect_cap(self):
        with pytest.raises(ReproError):
            Constraints(analyst={}, view={}, table=1.0, delta=1e-3,
                        delta_cap=1e-6)

    @pytest.mark.parametrize("bad", (NAN, INF, -INF))
    def test_rejects_non_finite_limits(self, bad):
        # NaN passes ``x <= 0`` and ``x < 0``; inf passes both as well.
        with pytest.raises(ReproError, match="finite"):
            Constraints(analyst={}, view={}, table=bad)
        with pytest.raises(ReproError, match="finite"):
            Constraints(analyst={"a": bad}, view={}, table=1.0)
        with pytest.raises(ReproError, match="finite"):
            Constraints(analyst={}, view={"v": bad}, table=1.0)
        with pytest.raises(ReproError, match="finite"):
            Constraints(analyst={"a": 1.0}, view={}, table=1.0,
                        groups=(frozenset({"a"}),), group_limit=bad)

    @pytest.mark.parametrize("bad", (NAN, INF, -INF))
    def test_engine_refuses_a_non_finite_budget(self, adult_bundle, bad):
        from repro.core.engine import DProvDB

        with pytest.raises(ReproError, match="finite"):
            DProvDB(adult_bundle, [Analyst("a", 2), Analyst("b", 5)],
                    epsilon=bad)
