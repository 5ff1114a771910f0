"""Integration tests: corruption-graph budgets enforced by the engine."""

from __future__ import annotations

import pytest

from repro import Analyst, DProvDB, ReproError
from repro.exceptions import QueryRejected
from repro.core.corruption import CorruptionGraph
from repro.core.provenance import Constraints

SQL = "SELECT COUNT(*) FROM adult WHERE age BETWEEN 30 AND 40"
SQL2 = "SELECT COUNT(*) FROM adult WHERE hours_per_week BETWEEN 30 AND 50"


@pytest.fixture
def four_analysts():
    return [Analyst("a1", 4), Analyst("a2", 4),
            Analyst("b1", 4), Analyst("b2", 4)]


@pytest.fixture
def graph(four_analysts):
    # Two coalitions: {a1, a2} and {b1, b2}.
    return CorruptionGraph(four_analysts,
                           edges=[("a1", "a2"), ("b1", "b2")], t=2)


class TestEngineWithCorruptionGraph:
    def test_total_budget_is_k_times_psi(self, adult_bundle, four_analysts,
                                         graph):
        engine = DProvDB.with_corruption_graph(
            adult_bundle, four_analysts, graph, epsilon=0.5, seed=1,
        )
        assert engine.constraints.table == pytest.approx(1.0)
        assert engine.constraints.group_limit == pytest.approx(0.5)
        assert len(engine.constraints.groups) == 2

    def test_each_coalition_spends_up_to_psi(self, adult_bundle,
                                             four_analysts, graph):
        epsilon = 0.5
        engine = DProvDB.with_corruption_graph(
            adult_bundle, four_analysts, graph, epsilon=epsilon, seed=1,
        )
        # Saturate both coalitions with alternating demanding queries.
        queries = [SQL, SQL2] * 20
        for name in ("a1", "a2", "b1", "b2"):
            for i, sql in enumerate(queries):
                engine.try_submit(name, sql, accuracy=4000.0 / (1 + i))
        group_a = (engine.analyst_consumed("a1")
                   + engine.analyst_consumed("a2"))
        group_b = (engine.analyst_consumed("b1")
                   + engine.analyst_consumed("b2"))
        assert group_a <= epsilon + 1e-9
        assert group_b <= epsilon + 1e-9
        # Combined spending exceeds one psi_P — the Thm. 7.2 gain.
        assert group_a + group_b > epsilon

    def test_coalition_cap_rejects(self, adult_bundle, four_analysts, graph):
        engine = DProvDB.with_corruption_graph(
            adult_bundle, four_analysts, graph, epsilon=0.3, seed=1,
        )
        # a1 consumes most of the coalition budget...
        engine.submit("a1", SQL, accuracy=8000.0)
        consumed = engine.analyst_consumed("a1")
        assert consumed > 0.1
        # ...so a2, in the same coalition, is capped even though a2's own
        # row constraint would allow more.
        answered = 0
        while engine.try_submit("a2", SQL2,
                                accuracy=3000.0 / (1 + answered)) is not None:
            answered += 1
            assert answered < 100
        total = engine.analyst_consumed("a1") + engine.analyst_consumed("a2")
        assert total <= 0.3 + 1e-9

    def test_worst_case_coalition_loss_bounded(self, adult_bundle,
                                               four_analysts, graph):
        epsilon = 0.5
        engine = DProvDB.with_corruption_graph(
            adult_bundle, four_analysts, graph, epsilon=epsilon, seed=1,
        )
        for name in ("a1", "a2", "b1", "b2"):
            for i in range(10):
                engine.try_submit(name, SQL, accuracy=8000.0 / (1 + i))
        losses = {name: engine.analyst_consumed(name)
                  for name in ("a1", "a2", "b1", "b2")}
        assert graph.collusion_bound(losses) <= epsilon + 1e-9

    def test_requires_vanilla(self, adult_bundle, four_analysts, graph):
        with pytest.raises(ReproError):
            DProvDB.with_corruption_graph(
                adult_bundle, four_analysts, graph, epsilon=0.5,
                mechanism="additive",
            )


class TestGroupedConstraints:
    def test_groups_must_be_disjoint(self):
        with pytest.raises(ReproError):
            Constraints(analyst={}, view={}, table=1.0,
                        groups=(frozenset({"a"}), frozenset({"a", "b"})),
                        group_limit=1.0)

    def test_groups_require_limit(self):
        with pytest.raises(ReproError):
            Constraints(analyst={}, view={}, table=1.0,
                        groups=(frozenset({"a"}),))

    def test_group_of(self):
        c = Constraints(analyst={}, view={}, table=1.0,
                        groups=(frozenset({"a", "b"}), frozenset({"c"})),
                        group_limit=0.5)
        assert c.group_of("a") == frozenset({"a", "b"})
        assert c.group_of("c") == frozenset({"c"})
        assert c.group_of("zzz") is None


class TestCoalitionsSurviveChanges:
    """Registering an analyst or a view, or restoring a snapshot, keeps
    the Thm. 7.2 coalition limits: every other constraint field carries
    over when the constraints are rebuilt."""

    @staticmethod
    def engine(bundle, analysts, graph, epsilon=0.3):
        return DProvDB.with_corruption_graph(bundle, analysts, graph,
                                             epsilon=epsilon, seed=1)

    @pytest.mark.parametrize("change, added", [
        pytest.param(lambda e: e.register_view(("age", "sex")), (),
                     id="register_view"),
        pytest.param(lambda e: e.register_hierarchical_view("age"), (),
                     id="register_hierarchical_view"),
        # A newcomer joins as its own singleton coalition.
        pytest.param(lambda e: e.register_analyst(Analyst("c1", 2)),
                     (frozenset({"c1"}),), id="register_analyst"),
    ])
    def test_registration_keeps_groups(self, adult_bundle, four_analysts,
                                       graph, change, added):
        engine = self.engine(adult_bundle, four_analysts, graph)
        groups = engine.constraints.groups
        assert len(groups) == 2
        change(engine)
        assert engine.constraints.groups == groups + added
        assert engine.constraints.group_limit == pytest.approx(0.3)
        assert engine.mechanism.constraints is engine.constraints

    def test_registered_analyst_is_its_own_coalition(
            self, adult_bundle, four_analysts, graph):
        engine = self.engine(adult_bundle, four_analysts, graph)
        table = engine.constraints.table
        engine.register_analyst(Analyst("c1", 4))
        assert engine.constraints.group_of("c1") == frozenset({"c1"})
        assert engine.constraints.analyst_limit("c1") <= 0.3 + 1e-12
        assert engine.constraints.table == table
        # An explicit row limit above psi is clamped to it.
        engine.register_analyst(Analyst("c2", 4), constraint=5.0)
        assert engine.constraints.analyst_limit("c2") == pytest.approx(0.3)
        # However hard c1 asks, it never loses more than one psi.
        for i in range(12):
            engine.try_submit("c1", (SQL, SQL2)[i % 2],
                              accuracy=4000.0 / (1 + i))
        assert 0.0 < engine.analyst_consumed("c1") <= 0.3 + 1e-9

    def test_restore_keeps_the_engines_groups(self, adult_bundle,
                                              four_analysts, graph):
        from repro.core.persistence import engine_state, restore_engine_state

        engine = self.engine(adult_bundle, four_analysts, graph)
        engine.submit("a1", SQL, accuracy=8000.0)
        revived = self.engine(adult_bundle, four_analysts, graph)
        groups = revived.constraints.groups
        restore_engine_state(revived, engine_state(engine))
        assert revived.constraints.groups == groups
        assert revived.constraints.group_limit == pytest.approx(0.3)
        assert revived.analyst_consumed("a1") == engine.analyst_consumed("a1")

    def test_coalition_cap_still_refuses_after_register_view(
            self, adult_bundle, four_analysts, graph):
        pair_sql = ("SELECT COUNT(*) FROM adult WHERE age BETWEEN 30 AND 40 "
                    "AND sex = 'male'")
        # Alone, a2's row limit admits the pair-view query...
        alone = self.engine(adult_bundle, four_analysts, graph)
        alone.register_view(("age", "sex"))
        alone.submit("a2", pair_sql, accuracy=8000.0)
        assert 0.1 < alone.analyst_consumed("a2") < 0.3
        # ...but after a1's charge it would take the {a1, a2} coalition
        # past its 0.3 limit.
        engine = self.engine(adult_bundle, four_analysts, graph)
        engine.register_view(("age", "sex"))
        engine.submit("a1", SQL, accuracy=8000.0)
        assert 0.1 < engine.analyst_consumed("a1") < 0.3
        with pytest.raises(QueryRejected):
            engine.submit("a2", pair_sql, accuracy=8000.0)
        assert engine.analyst_consumed("a2") == 0.0
        # The other coalition is untouched by {a1, a2}'s spending.
        engine.submit("b1", pair_sql, accuracy=8000.0)
