"""Persisting and restoring engine state.

DProvDB's whole point is being *stateful*: the provenance table and the
synopses are what survive between analyst sessions.  This module serialises
that state — provenance entries, constraints, global/local synopses, the
additive mechanism's combination bookkeeping, and delegation grants — to a
JSON document, and restores it into a freshly constructed engine over the
same dataset.

The raw data is *not* serialised (the curator re-attaches the engine to the
database); only DP-released or curator-side noisy state is stored, so the
snapshot itself is as sensitive as the synopses it contains — i.e. safe to
keep under the same access controls as the running system.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from repro.core.additive import (
    AdditiveGaussianMechanism,
    _CombinationRecord,
    _LocalMeta,
)
from repro.core.delegation import Grant
from repro.core.engine import DProvDB
from repro.core.synopsis import Synopsis
from repro.core.zcdp_vanilla import ZCdpVanillaMechanism
from repro.exceptions import ReproError

FORMAT_VERSION = 1


def _synopsis_to_dict(synopsis: Synopsis) -> dict:
    return {
        "view_name": synopsis.view_name,
        "values": synopsis.values.tolist(),
        "epsilon": synopsis.epsilon,
        "delta": synopsis.delta,
        "variance": synopsis.variance,
        "analyst": synopsis.analyst,
    }


def _synopsis_from_dict(payload: dict) -> Synopsis:
    return Synopsis(
        view_name=payload["view_name"],
        values=np.array(payload["values"], dtype=np.float64),
        epsilon=payload["epsilon"],
        delta=payload["delta"],
        variance=payload["variance"],
        analyst=payload["analyst"],
    )


def engine_state(engine: DProvDB) -> dict:
    """Snapshot an engine's mutable state as a JSON-serialisable dict.

    Safe to call while other threads submit queries: every mutable dict
    is copied (a C-level ``dict()`` copy, atomic under the GIL) before
    iteration, and a local synopsis evicted between the key snapshot and
    the value read is simply skipped — the snapshot may then straddle
    in-flight charges, which only ever *over*-states realised state (the
    durability checkpoint's safe direction); take it at quiescence for
    an exact fold.
    """
    mechanism = engine.mechanism
    local_synopses = []
    for analyst, view in mechanism.store.local_keys:
        synopsis = mechanism.store.local_synopsis(analyst, view)
        if synopsis is not None:  # concurrently evicted
            local_synopses.append(_synopsis_to_dict(synopsis))
    state = {
        "version": FORMAT_VERSION,
        "mechanism": mechanism.name,
        "dataset": engine.bundle.name,
        "analysts": {name: a.privilege
                     for name, a in engine.analysts.items()},
        "constraints": {
            "analyst": dict(engine.constraints.analyst),
            "view": dict(engine.constraints.view),
            "table": engine.constraints.table,
            "delta": engine.constraints.delta,
            "delta_cap": engine.constraints.delta_cap,
        },
        "provenance": {
            analyst: {view: engine.provenance.get(analyst, view)
                      for view in engine.provenance.views
                      if engine.provenance.get(analyst, view) > 0.0}
            for analyst in engine.provenance.analysts
        },
        "global_synopses": [
            _synopsis_to_dict(mechanism.store.global_synopsis(view))
            for view in mechanism.store.global_views
        ],
        "local_synopses": local_synopses,
        "grants": [
            {"grant_id": g.grant_id, "grantor": g.grantor,
             "grantee": g.grantee, "epsilon_cap": g.epsilon_cap,
             "consumed": g.consumed, "revoked": g.revoked,
             "queries": g.queries}
            for g in list(engine.delegations._grants.values())
        ],
        "release_counts": dict(mechanism._release_counts),
    }
    if isinstance(mechanism, AdditiveGaussianMechanism):
        state["additive"] = {
            "generation": dict(mechanism._generation),
            "last_combination": {
                view: [r.w_prev, r.w_fresh, r.v_prev, r.v_delta]
                for view, r in dict(mechanism._last_combination).items()
            },
            "local_meta": {
                f"{analyst}|{view}": [m.generation, m.noise_variance,
                                           m.fresh]
                for (analyst, view), m
                in dict(mechanism._local_meta).items()
            },
            "global_epsilon_base": {
                view: base
                for view, base in dict(mechanism._global_epsilon_base)
                .items() if base > 0.0
            },
        }
    if isinstance(mechanism, ZCdpVanillaMechanism):
        # The rho ledgers are the mechanism's real constraint state; the
        # epsilon provenance entries alone cannot reconstruct them (the
        # conversion is not invertible per entry), so snapshot them.
        with mechanism._rho_lock:
            state["zcdp"] = {
                "row_rho": dict(mechanism._row_rho),
                "column_rho": dict(mechanism._column_rho),
                "total_rho": mechanism._total_rho,
            }
    return state


def save_engine_state(engine: DProvDB, path: str | Path) -> None:
    """Write the engine's state snapshot to ``path`` (JSON)."""
    Path(path).write_text(json.dumps(engine_state(engine)))


def restore_engine_state(engine: DProvDB, state: dict) -> None:
    """Load a snapshot into a freshly constructed engine.

    The engine must be built over the same dataset with the same mechanism
    and (at least) the same analysts; mismatches raise :class:`ReproError`.
    """
    if state.get("version") != FORMAT_VERSION:
        raise ReproError(f"unsupported snapshot version {state.get('version')}")
    if state["mechanism"] != engine.mechanism.name:
        raise ReproError(
            f"snapshot is for mechanism {state['mechanism']!r}, "
            f"engine runs {engine.mechanism.name!r}"
        )
    if state["dataset"] != engine.bundle.name:
        raise ReproError(
            f"snapshot is for dataset {state['dataset']!r}, "
            f"engine uses {engine.bundle.name!r}"
        )
    for name, privilege in state["analysts"].items():
        if name not in engine.analysts:
            raise ReproError(f"snapshot analyst {name!r} not registered")
        if engine.analysts[name].privilege != privilege:
            raise ReproError(f"privilege mismatch for analyst {name!r}")

    snapshot_views = set(state["constraints"]["view"])
    missing = sorted(snapshot_views - set(engine.provenance.views))
    if missing:
        raise ReproError(
            f"snapshot references views not registered on this engine: "
            f"{missing}; re-register them (register_view / "
            f"register_hierarchical_view) before restoring"
        )

    payload = state["constraints"]
    # The snapshot holds no coalitions: the Sec. 7.1 ``groups`` and
    # ``group_limit`` are the restoring engine's own, built with it.
    engine._set_constraints(
        analyst=payload["analyst"], view=payload["view"],
        table=payload["table"], delta=payload["delta"],
        delta_cap=payload["delta_cap"],
    )

    for analyst, row in state["provenance"].items():
        for view, epsilon in row.items():
            engine.provenance.set(analyst, view, epsilon)

    store = engine.mechanism.store
    store.clear()
    for payload in state["global_synopses"]:
        store.put_global(_synopsis_from_dict(payload))
    for payload in state["local_synopses"]:
        store.put_local(_synopsis_from_dict(payload))

    for payload in state.get("grants", []):
        grant = Grant(**payload)
        engine.delegations._grants[grant.grant_id] = grant
        # Keep new ids above restored ones.
        while next(engine.delegations._counter) < grant.grant_id:
            pass

    engine.mechanism._release_counts = {
        name: int(count)
        for name, count in state.get("release_counts", {}).items()
    }

    additive = state.get("additive")
    if additive and isinstance(engine.mechanism, AdditiveGaussianMechanism):
        engine.mechanism._generation = {
            view: int(g) for view, g in additive["generation"].items()
        }
        engine.mechanism._last_combination = {
            view: _CombinationRecord(*values)
            for view, values in additive["last_combination"].items()
        }
        engine.mechanism._local_meta = {
            tuple(key.split("|")): _LocalMeta(int(g), float(s), bool(f))
            for key, (g, s, f) in additive["local_meta"].items()
        }
        engine.mechanism._global_epsilon_base = {
            view: float(base)
            for view, base in additive.get("global_epsilon_base",
                                           {}).items()
        }
    zcdp = state.get("zcdp")
    if isinstance(engine.mechanism, ZCdpVanillaMechanism) and not zcdp:
        # Older builds wrote version-1 snapshots without the rho
        # ledgers; restoring one would leave them empty and admit
        # releases past every converted constraint — re-granting budget.
        raise ReproError(
            "snapshot lacks the zCDP rho ledgers (written by an older "
            "build); restoring it would under-count the mechanism's "
            "constraint state — re-create the snapshot with this build"
        )
    if zcdp and isinstance(engine.mechanism, ZCdpVanillaMechanism):
        with engine.mechanism._rho_lock:
            engine.mechanism._row_rho = {
                name: float(rho) for name, rho in zcdp["row_rho"].items()
            }
            engine.mechanism._column_rho = {
                name: float(rho) for name, rho in zcdp["column_rho"].items()
            }
            engine.mechanism._total_rho = float(zcdp["total_rho"])


def load_engine_state(engine: DProvDB, path: str | Path) -> None:
    """Read a snapshot from ``path`` and restore it into ``engine``."""
    restore_engine_state(engine, json.loads(Path(path).read_text()))


__all__ = [
    "FORMAT_VERSION",
    "engine_state",
    "load_engine_state",
    "restore_engine_state",
    "save_engine_state",
]
