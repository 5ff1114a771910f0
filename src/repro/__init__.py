"""DProvDB reproduction: DP query processing with multi-analyst provenance.

Quick start::

    from repro import Analyst, DProvDB, load_adult

    bundle = load_adult(seed=7)
    alice = Analyst("alice", privilege=4)
    bob = Analyst("bob", privilege=1)
    engine = DProvDB(bundle, [alice, bob], epsilon=1.6, seed=7)
    answer = engine.submit(
        "alice",
        "SELECT COUNT(*) FROM adult WHERE age BETWEEN 30 AND 40",
        accuracy=2500.0,
    )

``repro.experiments.FIGURES`` holds one entry per paper table, figure,
ablation and the scalability run: its regenerator, its ``repro``
subcommand (the CLI figures) and its shape check, which
``tests/test_paper_figures.py`` runs.  The README's "Tests" section
shows how to run them.
"""

from repro.core import (
    AdditiveGaussianMechanism,
    Analyst,
    Answer,
    ConfidenceInterval,
    Constraints,
    CorruptionGraph,
    DProvDB,
    ProvenanceTable,
    Reservation,
    Synopsis,
    SynopsisStore,
    VanillaMechanism,
    VarianceBound,
    ZCdpVanillaMechanism,
    load_engine_state,
    save_engine_state,
)
from repro.baselines import ChorusBaseline, ChorusPBaseline, SimulatedPrivateSQL
from repro.datasets import DatasetBundle, load_adult, load_tpch
from repro.db import Database, Schema, Table
from repro.client import RemoteAnalyst, RemoteSession
from repro.exceptions import (
    QueryRejected,
    ReproError,
    ServiceClosed,
    SessionClosed,
    TranslationError,
    UnanswerableQuery,
)
from repro.metrics import dcfg, ndcfg, relative_error
from repro.persistence import (
    DurabilityManager,
    RecoveryReport,
    recover_service,
)
from repro.server import ReproServer, load_token_table
from repro.service import (
    QueryRequest,
    QueryResponse,
    QueryService,
    Session,
)

__version__ = "1.0.0"

__all__ = [
    "AdditiveGaussianMechanism",
    "Analyst",
    "Answer",
    "ChorusBaseline",
    "ChorusPBaseline",
    "ConfidenceInterval",
    "Constraints",
    "CorruptionGraph",
    "DProvDB",
    "Database",
    "DatasetBundle",
    "DurabilityManager",
    "ProvenanceTable",
    "QueryRejected",
    "QueryRequest",
    "QueryResponse",
    "QueryService",
    "RecoveryReport",
    "RemoteAnalyst",
    "RemoteSession",
    "ReproError",
    "ReproServer",
    "Reservation",
    "Schema",
    "ServiceClosed",
    "Session",
    "SessionClosed",
    "SimulatedPrivateSQL",
    "Synopsis",
    "SynopsisStore",
    "Table",
    "TranslationError",
    "UnanswerableQuery",
    "VanillaMechanism",
    "VarianceBound",
    "ZCdpVanillaMechanism",
    "dcfg",
    "load_adult",
    "load_engine_state",
    "load_token_table",
    "load_tpch",
    "ndcfg",
    "recover_service",
    "relative_error",
    "save_engine_state",
]
