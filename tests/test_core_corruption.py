"""Tests for (t, n)-compromised corruption graphs (Sec. 7.1)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.analyst import Analyst
from repro.core.corruption import CorruptionGraph
from repro.exceptions import ReproError


@pytest.fixture
def five_analysts():
    return [Analyst(f"a{i}", privilege=min(10, i + 1)) for i in range(5)]


class TestConstruction:
    def test_valid_graph(self, five_analysts):
        graph = CorruptionGraph(five_analysts,
                                edges=[("a0", "a1"), ("a2", "a3")], t=3)
        assert graph.num_components == 3  # {a0,a1}, {a2,a3}, {a4}

    def test_default_allows_components_of_exactly_t(self, five_analysts):
        graph = CorruptionGraph(five_analysts,
                                edges=[("a0", "a1"), ("a1", "a2")], t=3)
        assert graph.num_components == 3

    def test_default_rejects_components_above_t(self, five_analysts):
        with pytest.raises(ReproError):
            CorruptionGraph(five_analysts,
                            edges=[("a0", "a1"), ("a1", "a2")], t=2)

    def test_strict_mode_enforces_def14_literally(self, five_analysts):
        # Component of size 3 violates "< t" with t=3 under strict=True.
        with pytest.raises(ReproError):
            CorruptionGraph(five_analysts,
                            edges=[("a0", "a1"), ("a1", "a2")],
                            t=3, strict=True)

    def test_unknown_analyst_in_edge(self, five_analysts):
        with pytest.raises(ReproError):
            CorruptionGraph(five_analysts, edges=[("a0", "zzz")], t=2)

    def test_rejects_bad_t(self, five_analysts):
        with pytest.raises(ReproError):
            CorruptionGraph(five_analysts, edges=[], t=0)

    def test_duplicate_analysts(self):
        with pytest.raises(ReproError):
            CorruptionGraph([Analyst("a", 1), Analyst("a", 2)], [], t=2)


class TestBudgets:
    def test_total_budget_scales_with_components(self, five_analysts):
        graph = CorruptionGraph(five_analysts, edges=[("a0", "a1")], t=2)
        # Components: {a0,a1}, {a2}, {a3}, {a4} -> 4 * psi_P.
        assert graph.total_budget(1.6) == pytest.approx(4 * 1.6)

    def test_no_collusion_maximises_budget(self, five_analysts):
        isolated = CorruptionGraph(five_analysts, edges=[], t=1)
        assert isolated.total_budget(1.0) == pytest.approx(5.0)

    def test_component_constraints_max_policy(self, five_analysts):
        graph = CorruptionGraph(five_analysts, edges=[("a0", "a1")], t=2)
        constraints = graph.component_constraints(1.0, policy="max")
        # a1 (privilege 2) saturates its component; a0 gets 1/2.
        assert constraints["a1"] == pytest.approx(1.0)
        assert constraints["a0"] == pytest.approx(0.5)
        # Singletons each saturate their own psi_P.
        for name in ("a2", "a3", "a4"):
            assert constraints[name] == pytest.approx(1.0)

    def test_component_constraints_proportional_policy(self, five_analysts):
        graph = CorruptionGraph(five_analysts, edges=[("a0", "a1")], t=2)
        constraints = graph.component_constraints(1.0, policy="proportional")
        assert constraints["a0"] == pytest.approx(1 / 3)
        assert constraints["a1"] == pytest.approx(2 / 3)

    def test_unknown_policy(self, five_analysts):
        graph = CorruptionGraph(five_analysts, edges=[], t=1)
        with pytest.raises(ReproError):
            graph.component_constraints(1.0, policy="bogus")

    def test_collusion_bound_is_worst_component(self, five_analysts):
        graph = CorruptionGraph(five_analysts, edges=[("a0", "a1")], t=2)
        losses = {"a0": 0.3, "a1": 0.4, "a2": 0.6, "a3": 0.1, "a4": 0.0}
        # max( a0+a1 = 0.7, 0.6, 0.1, 0.0 )
        assert graph.collusion_bound(losses) == pytest.approx(0.7)

    def test_theorem_7_2_degradation(self, five_analysts):
        """Ignoring the graph (full collusion) degrades to one component."""
        clique_edges = [(f"a{i}", f"a{j}")
                        for i in range(5) for j in range(i + 1, 5)]
        graph = CorruptionGraph(five_analysts, clique_edges, t=5,
                                strict=False)
        assert graph.num_components == 1
        assert graph.total_budget(1.0) == pytest.approx(1.0)


def _bfs_components(names, edges):
    """Test-local reference: connected components by breadth-first search."""
    neighbours = {name: set() for name in names}
    for u, v in edges:
        neighbours[u].add(v)
        neighbours[v].add(u)
    seen, components = set(), []
    for start in names:
        if start in seen:
            continue
        component, frontier = {start}, [start]
        while frontier:
            for other in neighbours[frontier.pop()] - component:
                component.add(other)
                frontier.append(other)
        seen |= component
        components.append(frozenset(component))
    return sorted(components, key=min)


class TestComponents:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.integers(1, 30).flatmap(lambda n: st.tuples(
        st.just(n), st.lists(st.tuples(st.integers(0, n - 1),
                                       st.integers(0, n - 1)),
                             max_size=2 * n))))
    def test_union_find_matches_bfs(self, graph_spec):
        n, pairs = graph_spec
        analysts = [Analyst(f"x{i:02d}", privilege=1 + i % 10)
                    for i in range(n)]
        names = [a.name for a in analysts]
        edges = [(names[u], names[v]) for u, v in pairs]
        expected = _bfs_components(names, edges)
        graph = CorruptionGraph(analysts, edges,
                                t=max(len(c) for c in expected))
        assert graph.components() == expected
        assert graph.num_components == len(expected)

    def test_components_are_a_fresh_list(self, five_analysts):
        graph = CorruptionGraph(five_analysts, edges=[("a0", "a1")], t=2)
        graph.components().clear()
        assert graph.num_components == 4

    def test_violation_message(self, five_analysts):
        with pytest.raises(ReproError) as info:
            CorruptionGraph(five_analysts,
                            edges=[("a2", "a0"), ("a1", "a2")], t=2)
        assert str(info.value) == (
            "component ['a0', 'a1', 'a2'] has 3 nodes, violating the "
            "(2, 5)-compromised assumption")

    def test_strict_violation_message(self, five_analysts):
        with pytest.raises(ReproError) as info:
            CorruptionGraph(five_analysts, edges=[("a3", "a4")], t=2,
                            strict=True)
        assert str(info.value) == (
            "component ['a3', 'a4'] has 2 nodes, violating the "
            "(2, 5)-compromised assumption")

    def test_unknown_analyst_message(self, five_analysts):
        with pytest.raises(ReproError) as info:
            CorruptionGraph(five_analysts, edges=[("a0", "zzz")], t=2)
        assert str(info.value) == \
            "edge ('a0', 'zzz') references unknown analyst"
