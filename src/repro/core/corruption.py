"""(t, n)-compromised multi-analyst settings (paper Sec. 7.1).

A corruption graph encodes the administrator's prior on who may collude:
nodes are analysts, edges mark possible collusion, and the (t, n) assumption
says every connected component has fewer than ``t`` nodes (Def. 14).  Under
this weaker threat model the overall budget can be assigned *per component*
(Theorem 7.2): with ``k`` disjoint components the system may spend up to
``k * psi_P`` in total while each colluding coalition still observes at most
``psi_P`` worth of releases.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.core.analyst import Analyst
from repro.core.policies import (
    analyst_constraints_max,
    analyst_constraints_proportional,
)
from repro.exceptions import ReproError


class CorruptionGraph:
    """A validated (t, n)-analysts corruption graph."""

    def __init__(self, analysts: Sequence[Analyst],
                 edges: Iterable[tuple[str, str]], t: int,
                 strict: bool = False) -> None:
        """``strict=False`` (default) allows components of up to ``t`` nodes —
        the "at most t of them are malicious" reading of Def. 13, as in the
        MPC literature the paper cites.  ``strict=True`` enforces Def. 14's
        literal wording (components strictly smaller than ``t``).
        """
        if t < 1:
            raise ReproError(f"t must be at least 1, got {t}")
        names = {a.name for a in analysts}
        if len(names) != len(analysts):
            raise ReproError("duplicate analyst names")

        # Union-find over analyst names (path halving); each edge merges
        # the two endpoints' components.
        parent = {name: name for name in names}

        def root(name: str) -> str:
            while parent[name] != name:
                parent[name] = parent[parent[name]]
                name = parent[name]
            return name

        for u, v in edges:
            if u not in names or v not in names:
                raise ReproError(f"edge ({u!r}, {v!r}) references unknown analyst")
            parent[root(u)] = root(v)
        members: dict[str, set[str]] = {}
        for name in names:
            members.setdefault(root(name), set()).add(name)
        components = sorted((frozenset(c) for c in members.values()), key=min)

        limit = t if strict else t + 1  # components must have < limit nodes
        for component in components:
            if len(component) >= limit:
                raise ReproError(
                    f"component {sorted(component)} has {len(component)} nodes, "
                    f"violating the ({t}, {len(names)})-compromised assumption"
                )
        self.t = t
        self.n = len(names)
        self._components = components
        self._analysts = {a.name: a for a in analysts}

    def components(self) -> list[frozenset[str]]:
        """Disjoint coalitions, deterministically ordered."""
        return list(self._components)

    @property
    def num_components(self) -> int:
        return len(self._components)

    def total_budget(self, table_budget: float) -> float:
        """Theorem 7.2: aggregate spendable budget is ``k * psi_P``."""
        return self.num_components * table_budget

    def component_constraints(self, table_budget: float,
                              policy: str = "max") -> dict[str, float]:
        """Per-analyst constraints: each component receives ``psi_P``.

        Within a component, the chosen policy (Def. 10 ``"proportional"`` or
        Def. 11 ``"max"``) splits the component's budget by privilege.
        """
        policies = {
            "max": analyst_constraints_max,
            "proportional": analyst_constraints_proportional,
        }
        if policy not in policies:
            raise ReproError(f"unknown policy {policy!r}")
        constraints: dict[str, float] = {}
        for component in self.components():
            members = [self._analysts[name] for name in sorted(component)]
            constraints.update(policies[policy](members, table_budget))
        return constraints

    def collusion_bound(self, per_analyst_loss: dict[str, float]) -> float:
        """Worst-case loss over coalitions: max over components of the
        component's summed losses (the trivial upper bound within a
        coalition, Theorem 3.2)."""
        worst = 0.0
        for component in self.components():
            worst = max(worst, sum(per_analyst_loss.get(a, 0.0)
                                   for a in component))
        return worst


__all__ = ["CorruptionGraph"]
