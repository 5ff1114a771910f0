"""Tests for delegation grants, budget quotes and accuracy specs."""

from __future__ import annotations

import pytest

from repro import Analyst, DProvDB, QueryRejected, ReproError
from repro.core.accuracy import ConfidenceInterval, VarianceBound, resolve_accuracy
from repro.core.delegation import DelegationManager
from repro.dp.gaussian import minimal_epsilon

SQL = "SELECT COUNT(*) FROM adult WHERE age BETWEEN 30 AND 40"


@pytest.fixture
def engine(adult_bundle):
    return DProvDB(adult_bundle,
                   [Analyst("boss", 8), Analyst("intern", 1)],
                   epsilon=2.0, seed=21)


class TestQuote:
    def test_quote_matches_actual_charge(self, engine):
        quoted = engine.quote("boss", SQL, accuracy=2500.0)
        answer = engine.submit("boss", SQL, accuracy=2500.0)
        assert quoted == pytest.approx(answer.epsilon_charged)

    def test_quote_is_free_after_cache(self, engine):
        engine.submit("boss", SQL, accuracy=2500.0)
        assert engine.quote("boss", SQL, accuracy=2500.0) == 0.0

    def test_quote_does_not_consume(self, engine):
        engine.quote("boss", SQL, accuracy=2500.0)
        assert engine.total_consumed() == 0.0

    def test_quote_raises_on_infeasible(self, adult_bundle):
        tight = DProvDB(adult_bundle, [Analyst("a", 1)], epsilon=0.05,
                        seed=1)
        with pytest.raises(QueryRejected):
            tight.quote("a", SQL, accuracy=1.0)

    def test_vanilla_quote(self, adult_bundle):
        engine = DProvDB(adult_bundle, [Analyst("a", 4)], epsilon=2.0,
                         mechanism="vanilla", seed=1)
        quoted = engine.quote("a", SQL, accuracy=2500.0)
        assert quoted == pytest.approx(
            engine.submit("a", SQL, accuracy=2500.0).epsilon_charged
        )


class TestDelegation:
    def test_budget_accounted_to_grantor(self, engine):
        grant = engine.grant_delegation("boss", "intern")
        answer = engine.submit("intern", SQL, accuracy=2500.0,
                               delegation=grant)
        assert answer.analyst == "intern"
        assert answer.epsilon_charged > 0
        assert engine.analyst_consumed("boss") == pytest.approx(
            answer.epsilon_charged
        )
        assert engine.analyst_consumed("intern") == 0.0

    def test_grantee_uses_grantor_synopses(self, engine):
        grant = engine.grant_delegation("boss", "intern")
        engine.submit("boss", SQL, accuracy=2500.0)
        delegated = engine.submit("intern", SQL, accuracy=2500.0,
                                  delegation=grant)
        assert delegated.cache_hit  # served from the boss's local synopsis

    def test_cap_enforced(self, engine):
        grant = engine.grant_delegation("boss", "intern", epsilon_cap=1e-4)
        with pytest.raises(QueryRejected):
            engine.submit("intern", SQL, accuracy=2500.0, delegation=grant)

    def test_cap_allows_within_budget(self, engine):
        quoted = engine.quote("boss", SQL, accuracy=2500.0)
        grant = engine.grant_delegation("boss", "intern",
                                        epsilon_cap=quoted * 1.01)
        answer = engine.submit("intern", SQL, accuracy=2500.0,
                               delegation=grant)
        assert answer.epsilon_charged <= quoted * 1.01

    def test_revoked_grant_rejected(self, engine):
        grant = engine.grant_delegation("boss", "intern")
        engine.revoke_delegation(grant)
        with pytest.raises(ReproError):
            engine.submit("intern", SQL, accuracy=2500.0, delegation=grant)

    def test_wrong_grantee_rejected(self, engine):
        grant = engine.grant_delegation("boss", "intern")
        with pytest.raises(ReproError):
            engine.submit("boss", SQL, accuracy=2500.0, delegation=grant)

    def test_self_delegation_rejected(self, engine):
        with pytest.raises(ReproError):
            engine.grant_delegation("boss", "boss")

    def test_audit(self, engine):
        grant = engine.grant_delegation("boss", "intern")
        engine.submit("intern", SQL, accuracy=2500.0, delegation=grant)
        audit = engine.delegations.audit("boss")
        assert len(audit) == 1
        assert audit[0].queries == 1
        assert audit[0].consumed > 0

    def test_manager_unknown_grant(self):
        with pytest.raises(ReproError):
            DelegationManager().revoke(99)

    def test_quote_then_answer_searches_once(self, adult_bundle,
                                             gaussian_delta_calls):
        """A delegated query translates twice (``quote`` for the cap, then
        ``answer``) but runs the calibration search for one translation:
        exactly as many ``gaussian_delta`` evaluations as the same query
        submitted directly on a twin engine."""
        def evaluations(delegated: bool) -> int:
            twin = DProvDB(adult_bundle,
                           [Analyst("boss", 8), Analyst("intern", 1)],
                           epsilon=2.0, seed=21)
            minimal_epsilon.cache_clear()
            gaussian_delta_calls.clear()
            if delegated:
                grant = twin.grant_delegation("boss", "intern")
                twin.submit("intern", SQL, accuracy=2500.0, delegation=grant)
            else:
                twin.submit("boss", SQL, accuracy=2500.0)
            return len(gaussian_delta_calls)

        direct = evaluations(delegated=False)
        assert direct > 0
        assert evaluations(delegated=True) == direct


class TestAccuracySpecs:
    def test_variance_bound_passthrough(self):
        assert VarianceBound(123.0).to_variance() == 123.0
        assert resolve_accuracy(VarianceBound(123.0)) == 123.0

    def test_confidence_interval_translation(self):
        # 95% CI with half-width 1.96 sigma: variance = sigma^2.
        ci = ConfidenceInterval(half_width=19.6, confidence=0.95)
        assert ci.to_variance() == pytest.approx(100.0, rel=1e-3)

    def test_tighter_confidence_needs_smaller_variance(self):
        loose = ConfidenceInterval(10.0, confidence=0.90).to_variance()
        tight = ConfidenceInterval(10.0, confidence=0.99).to_variance()
        assert tight < loose

    def test_engine_accepts_spec_objects(self, engine, adult_bundle):
        exact = adult_bundle.database.execute(SQL).scalar()
        spec = ConfidenceInterval(half_width=150.0, confidence=0.95)
        answer = engine.submit("boss", SQL, accuracy=spec)
        assert answer.answer_variance <= spec.to_variance() * (1 + 1e-6)
        assert abs(answer.value - exact) < 6 * spec.to_variance() ** 0.5

    def test_resolve_accuracy_validates(self):
        with pytest.raises(ReproError):
            resolve_accuracy(-1.0)
        with pytest.raises(ReproError):
            resolve_accuracy(None)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_resolve_accuracy_rejects_non_finite(self, bad):
        """NaN passes ``<= 0`` checks, spec constructors included, so the
        resolved variance itself is what gets checked."""
        for accuracy in (bad, VarianceBound(bad), ConfidenceInterval(bad)):
            with pytest.raises(ReproError, match="finite"):
                resolve_accuracy(accuracy)

    def test_bad_specs(self):
        with pytest.raises(ReproError):
            VarianceBound(0.0)
        with pytest.raises(ReproError):
            ConfidenceInterval(0.0)
        with pytest.raises(ReproError):
            ConfidenceInterval(1.0, confidence=1.0)
