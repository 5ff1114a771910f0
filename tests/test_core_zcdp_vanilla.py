"""Tests for the zCDP-checked vanilla mechanism."""

from __future__ import annotations

import pytest

from repro import Analyst, DProvDB, QueryRejected
from repro.dp.zcdp import zcdp_to_approx_dp

SQL_TEMPLATE = "SELECT COUNT(*) FROM adult WHERE age BETWEEN {} AND {}"


def build(bundle, mechanism, epsilon=1.0, seed=5):
    return DProvDB(bundle, [Analyst("low", 1), Analyst("high", 4)],
                   epsilon=epsilon, mechanism=mechanism, seed=seed)


class TestZCdpVanilla:
    def test_single_release_behaves_like_vanilla(self, adult_bundle):
        zcdp = build(adult_bundle, "vanilla_zcdp")
        plain = build(adult_bundle, "vanilla")
        sql = SQL_TEMPLATE.format(30, 40)
        a = zcdp.submit("high", sql, accuracy=2500.0)
        b = plain.submit("high", sql, accuracy=2500.0)
        assert a.epsilon_charged == pytest.approx(b.epsilon_charged)

    def test_answers_more_queries_on_long_sequences(self, adult_bundle):
        """sqrt(k) composition beats linear for many small releases."""
        queries = [SQL_TEMPLATE.format(17 + i, 18 + i) for i in range(60)]
        counts = {}
        for mechanism in ("vanilla", "vanilla_zcdp"):
            engine = build(adult_bundle, mechanism, epsilon=1.0)
            answered = 0
            for i, sql in enumerate(queries):
                # Alternate analysts; escalate accuracy to defeat caching.
                analyst = "high" if i % 2 == 0 else "low"
                accuracy = 40000.0 / (1 + i)
                if engine.try_submit(analyst, sql,
                                     accuracy=accuracy) is not None:
                    answered += 1
            counts[mechanism] = answered
        assert counts["vanilla_zcdp"] > counts["vanilla"]

    def test_converted_loss_respects_constraints(self, adult_bundle):
        engine = build(adult_bundle, "vanilla_zcdp", epsilon=0.8)
        queries = [SQL_TEMPLATE.format(17 + i, 30 + i) for i in range(40)]
        for i, sql in enumerate(queries):
            analyst = "high" if i % 2 == 0 else "low"
            engine.try_submit(analyst, sql, accuracy=20000.0 / (1 + i))
        mech = engine.mechanism
        delta = mech._conversion_delta()
        assert zcdp_to_approx_dp(mech._total_rho, delta) <= 0.8 + 1e-9
        for analyst in ("low", "high"):
            rho = mech._row_rho.get(analyst, 0.0)
            if rho > 0:
                assert zcdp_to_approx_dp(rho, delta) <= \
                    engine.constraints.analyst_limit(analyst) + 1e-9

    def test_rejections_reported_with_constraint_tag(self, adult_bundle):
        engine = build(adult_bundle, "vanilla_zcdp", epsilon=0.2)
        with pytest.raises(QueryRejected) as info:
            engine.submit("low", SQL_TEMPLATE.format(17, 90), accuracy=50.0)
        assert info.value.constraint in ("row", "column", "table",
                                         "translation")

    def test_caching_still_free(self, adult_bundle):
        engine = build(adult_bundle, "vanilla_zcdp")
        sql = SQL_TEMPLATE.format(30, 40)
        engine.submit("high", sql, accuracy=2500.0)
        rho_before = engine.mechanism._total_rho
        repeat = engine.submit("high", sql, accuracy=2500.0)
        assert repeat.cache_hit
        assert engine.mechanism._total_rho == rho_before

    def test_quote_matches_charge(self, adult_bundle):
        engine = build(adult_bundle, "vanilla_zcdp")
        sql = SQL_TEMPLATE.format(25, 55)
        quoted = engine.quote("high", sql, accuracy=2500.0)
        assert quoted == pytest.approx(
            engine.submit("high", sql, accuracy=2500.0).epsilon_charged
        )

    def test_reported_consumption_is_converted(self, adult_bundle):
        engine = build(adult_bundle, "vanilla_zcdp", epsilon=2.0)
        sql = SQL_TEMPLATE.format(30, 40)
        charged = engine.submit("high", sql, accuracy=2500.0).epsilon_charged
        # One release: conversion overhead makes reported >= 0 but finite;
        # for a single release zCDP conversion is close to (above) epsilon.
        assert engine.analyst_consumed("high") > 0
        # Provenance ledger still records the raw epsilon.
        assert engine.provenance.row_total("high") == pytest.approx(charged)


class TestCoalitionLimits:
    """Regression: ``vanilla_zcdp`` used to accept ``Constraints.groups``
    and never check them.  Three analysts, coalitions {a, b} and {c} capped
    at 1.0, 40 tightening ``age`` COUNTs alternating between a and b: the
    vanilla mechanism answers 5 and keeps the coalition's epsilon sum at
    0.68, while the zCDP mechanism answered 31, charging the coalition
    6.67 in epsilon and 1.39 in converted zCDP loss.  Theorem 7.2's
    coalition budget is an epsilon sum, so the zCDP mechanism now refuses
    coalitions outright.
    """

    ANALYSTS = (Analyst("a", 2), Analyst("b", 2), Analyst("c", 2))
    GROUP_LIMIT = 1.0

    def _engine(self, bundle, mechanism):
        from dataclasses import replace

        from repro.core.policies import build_constraints
        from repro.views.registry import ViewRegistry

        registry = ViewRegistry(bundle.database)
        registry.add_attribute_views(bundle.fact_table,
                                     bundle.view_attributes)
        constraints = replace(
            build_constraints(list(self.ANALYSTS), registry.view_names, 3.0,
                              mechanism="vanilla",
                              delta_cap=bundle.delta_cap()),
            groups=(frozenset({"a", "b"}), frozenset({"c"})),
            group_limit=self.GROUP_LIMIT)
        return DProvDB(bundle, list(self.ANALYSTS), epsilon=3.0,
                       mechanism=mechanism, constraints=constraints, seed=5)

    def test_vanilla_holds_the_coalition_limit(self, adult_bundle):
        engine = self._engine(adult_bundle, "vanilla")
        answered = 0
        for i in range(40):
            answer = engine.try_submit(
                "ab"[i % 2], SQL_TEMPLATE.format(20 + i, 60),
                accuracy=40000.0 / (1 + i))
            answered += answer is not None
        row = engine.provenance.row_totals()
        assert 0 < answered < 40
        assert row["a"] + row["b"] <= self.GROUP_LIMIT + 1e-9

    def test_zcdp_refuses_coalitions(self, adult_bundle):
        from repro.exceptions import ReproError

        with pytest.raises(ReproError, match="coalition"):
            self._engine(adult_bundle, "vanilla_zcdp")
