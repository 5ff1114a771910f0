"""Faithfulness tests: the paper's running examples, executed literally."""

from __future__ import annotations

import pytest

from repro import Analyst, DProvDB
from repro.db.sql.parser import parse
from repro.exceptions import QueryRejected
from repro.views.transform import is_answerable, transform


class TestExample1Answerability:
    """Example 1: q1, q2 answerable over a 3-way marginal V1."""

    def test_three_way_marginal_answers_both_queries(self, adult_bundle):
        engine = DProvDB(adult_bundle, [Analyst("a", 4)], epsilon=3.0,
                         seed=1)
        # V1: 3-way contingency table over (age, sex, education)
        # (the paper's age/gender/education — our schema says 'sex').
        name = engine.register_view(("age", "sex", "education"))
        view = engine.registry.view(name)

        q1 = parse("SELECT COUNT(*) FROM adult WHERE age >= 40 "
                   "AND sex = 'female'")
        q2 = parse("SELECT COUNT(*) FROM adult "
                   "WHERE education = 'doctorate'")
        for q in (q1, q2):
            assert is_answerable(q, view)
            exact_view = view.materialize(adult_bundle.database)
            transformed = transform(q, view)
            assert transformed.answer(exact_view) == \
                adult_bundle.database.execute(q).scalar()


class TestExamples3To5AdditiveFlow:
    """Examples 3-5: the privacy-oriented additive Gaussian walkthrough.

    Alice asks q1 at eps=0.5 -> global V^0.5, local V^0.5_Alice.
    Bob asks q2 at eps=0.3   -> local V^0.3_Bob from V^0.5 (Case 1).
    Bob asks q1 at eps=0.7   -> global updated to V^0.7, V^0.7_Bob (Case 2).
    Alice asks q1 at eps=0.6 -> V^0.6_Alice from V^0.7;
    both analysts' provenance on V is then accounted as 0.7.
    """

    @pytest.fixture
    def setting(self, adult_bundle):
        analysts = [Analyst("alice", 5), Analyst("bob", 5)]
        engine = DProvDB(adult_bundle, analysts, epsilon=2.0, seed=4)
        sql = "SELECT COUNT(*) FROM adult WHERE age BETWEEN 20 AND 60"
        view = engine.registry.select(engine._resolve(sql)).name
        return engine, sql, view

    def test_case_1_bob_served_from_alices_global(self, setting):
        engine, sql, view = setting
        engine.submit("alice", sql, epsilon=0.5)
        global_before = engine.mechanism.store.global_synopsis(view)
        engine.submit("bob", sql, epsilon=0.3)
        global_after = engine.mechanism.store.global_synopsis(view)
        assert global_before is global_after      # no new data access
        assert engine.provenance.get("alice", view) == pytest.approx(0.5,
                                                                     abs=0.01)
        assert engine.provenance.get("bob", view) == pytest.approx(0.3,
                                                                   abs=0.01)
        # Bob's local is noisier than Alice's.
        alice_local = engine.mechanism.store.local_synopsis("alice", view)
        bob_local = engine.mechanism.store.local_synopsis("bob", view)
        assert bob_local.variance > alice_local.variance

    def test_case_2_upgrade_and_accounting(self, setting):
        engine, sql, view = setting
        engine.submit("alice", sql, epsilon=0.5)
        engine.submit("bob", sql, epsilon=0.3)
        engine.submit("bob", sql, epsilon=0.7)     # triggers global update
        global_syn = engine.mechanism.store.global_synopsis(view)
        # Global budget grew beyond 0.5 to serve eps=0.7 (plus friction).
        assert global_syn.epsilon > 0.5
        # Bob's cost on V is capped by the global budget (Example 5).
        assert engine.provenance.get("bob", view) <= \
            global_syn.epsilon + 1e-9
        engine.submit("alice", sql, epsilon=0.6)
        assert engine.provenance.get("alice", view) <= \
            global_syn.epsilon + 1e-9
        # Collusion loss on the view equals the max entry, not the sum.
        assert engine.mechanism.collusion_bound() == pytest.approx(
            max(engine.provenance.get("alice", view),
                engine.provenance.get("bob", view))
        )

    def test_example_2_constraint_gatekeeping(self, adult_bundle):
        """Example 2: a query is answered iff the new cumulative cost stays
        within Bob's row constraint, the view and the table constraints."""
        analysts = [Analyst("bob", 1), Analyst("admin", 10)]
        engine = DProvDB(adult_bundle, analysts, epsilon=1.0, seed=4)
        sql = "SELECT COUNT(*) FROM adult WHERE age BETWEEN 20 AND 60"
        # Bob's limit is 0.1 (privilege 1 of l_max 10): eps=0.2 is refused,
        # eps=0.05 is answered and recorded.
        assert engine.try_submit("bob", sql, epsilon=0.2) is None
        answer = engine.try_submit("bob", sql, epsilon=0.05)
        assert answer is not None
        assert engine.provenance.get("bob", answer.view_name) > 0


class TestQueryLog:
    """Definition-level provenance in the paper is "the metadata about
    where the query comes from, how the query is computed, and how many
    times each result is produced".  The engine keeps no per-query trail:
    each :class:`Answer` carries who asked, which view answered, what was
    charged and whether a cached synopsis produced it; a refusal carries
    its reason; and the provenance table records whose budget paid."""

    def test_log_records_everything(self, adult_bundle):
        engine = DProvDB(adult_bundle, [Analyst("a", 2)], epsilon=0.5,
                         seed=2)
        sql = "SELECT COUNT(*) FROM adult WHERE age BETWEEN 30 AND 40"
        first = engine.submit("a", sql, accuracy=40000.0)
        second = engine.submit("a", sql, accuracy=40000.0)  # cache hit
        spent = engine.provenance.get("a", first.view_name)
        with pytest.raises(QueryRejected) as rejected:
            engine.submit("a", sql, accuracy=0.5)
        assert (first.analyst, second.analyst) == ("a", "a")
        assert not first.cache_hit and first.epsilon_charged > 0
        assert second.cache_hit and second.epsilon_charged == 0.0
        assert second.view_name == first.view_name
        assert rejected.value.reason
        assert engine.provenance.get("a", first.view_name) == spent

    def test_times_produced(self, adult_bundle):
        engine = DProvDB(adult_bundle, [Analyst("a", 2)], epsilon=2.0,
                         seed=2)
        sql = "SELECT COUNT(*) FROM adult WHERE age = 33"
        answers = [engine.submit("a", sql, accuracy=40000.0)
                   for _ in range(3)]
        # Produced three times: once fresh, then twice from the cached
        # synopsis — the same noisy value, at no further cost.
        assert [a.cache_hit for a in answers] == [False, True, True]
        assert sum(a.cache_hit for a in answers) / len(answers) \
            == pytest.approx(2 / 3)
        assert len({a.value for a in answers}) == 1
        assert [a.epsilon_charged > 0 for a in answers] == \
            [True, False, False]

    def test_delegated_queries_tagged(self, adult_bundle):
        engine = DProvDB(adult_bundle,
                         [Analyst("boss", 8), Analyst("intern", 1)],
                         epsilon=2.0, seed=2)
        grant = engine.grant_delegation("boss", "intern")
        sql = "SELECT COUNT(*) FROM adult WHERE age = 33"
        answer = engine.submit("intern", sql, accuracy=40000.0,
                               delegation=grant)
        view = answer.view_name
        assert answer.analyst == "intern"
        assert engine.provenance.get("boss", view) > 0 \
            == engine.provenance.get("intern", view)
