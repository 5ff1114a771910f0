"""Synthetic Adult census dataset.

Mirrors the UCI Adult table the paper evaluates on: 15 attributes and 45,224
rows.  Values are drawn from marginal distributions shaped like the real
data's (age skewed toward working years, income correlated with education and
hours, capital gain/loss mostly zero) so that range-query answers have the
realistic mix of dense and sparse regions the BFS task relies on.
Large-cardinality numeric columns (fnlwgt, capital gain/loss) are binned into
100 buckets, matching the domain-discretisation treatment in the paper's
Appendix D.
"""

from __future__ import annotations

import functools

import numpy as np

from repro.datasets.base import TABLE_MEMO_SIZE, DatasetBundle, integer
from repro.db.database import Database
from repro.db.schema import Attribute, CategoricalDomain, IntegerDomain, Schema
from repro.db.table import Table
from repro.dp.rng import SeedLike, ensure_generator

#: Row count of the paper's Adult snapshot.
ADULT_NUM_ROWS = 45224

WORKCLASS = ("private", "self_emp_not_inc", "self_emp_inc", "federal_gov",
             "local_gov", "state_gov", "without_pay", "never_worked", "unknown")
EDUCATION = ("preschool", "grade_1st_4th", "grade_5th_6th", "grade_7th_8th",
             "grade_9th", "grade_10th", "grade_11th", "grade_12th", "hs_grad",
             "some_college", "assoc_voc", "assoc_acdm", "bachelors", "masters",
             "prof_school", "doctorate")
MARITAL = ("married_civ", "divorced", "never_married", "separated", "widowed",
           "married_absent", "married_af")
OCCUPATION = ("tech_support", "craft_repair", "other_service", "sales",
              "exec_managerial", "prof_specialty", "handlers_cleaners",
              "machine_op_inspct", "adm_clerical", "farming_fishing",
              "transport_moving", "priv_house_serv", "protective_serv",
              "armed_forces", "unknown")
RELATIONSHIP = ("wife", "own_child", "husband", "not_in_family",
                "other_relative", "unmarried")
RACE = ("white", "black", "asian_pac_islander", "amer_indian_eskimo", "other")
SEX = ("female", "male")
COUNTRIES = tuple(f"country_{i:02d}" for i in range(42))
INCOME = ("le_50k", "gt_50k")


def adult_schema() -> Schema:
    """The 15-attribute Adult schema with explicit finite domains."""
    return Schema([
        Attribute("age", IntegerDomain(17, 90)),
        Attribute("workclass", CategoricalDomain(WORKCLASS)),
        Attribute("fnlwgt", IntegerDomain(0, 99)),
        Attribute("education", CategoricalDomain(EDUCATION)),
        Attribute("education_num", IntegerDomain(1, 16)),
        Attribute("marital_status", CategoricalDomain(MARITAL)),
        Attribute("occupation", CategoricalDomain(OCCUPATION)),
        Attribute("relationship", CategoricalDomain(RELATIONSHIP)),
        Attribute("race", CategoricalDomain(RACE)),
        Attribute("sex", CategoricalDomain(SEX)),
        Attribute("capital_gain", IntegerDomain(0, 99)),
        Attribute("capital_loss", IntegerDomain(0, 99)),
        Attribute("hours_per_week", IntegerDomain(1, 99)),
        Attribute("native_country", CategoricalDomain(COUNTRIES)),
        Attribute("income", CategoricalDomain(INCOME)),
    ])


def _categorical(rng: np.random.Generator, n: int, size: int,
                 concentration: float = 1.2) -> np.ndarray:
    """Skewed categorical codes via a Dirichlet-weighted draw."""
    weights = rng.dirichlet(np.full(size, concentration))
    # Sort descending so code 0 is always the modal class (like "private").
    weights = np.sort(weights)[::-1]
    return rng.choice(size, size=n, p=weights)


def generate_adult_table(num_rows: int = ADULT_NUM_ROWS,
                         seed: SeedLike = 0) -> Table:
    """Generate the synthetic Adult relation deterministically from ``seed``."""
    rng = ensure_generator(seed)
    schema = adult_schema()
    n = num_rows

    age = np.clip(rng.normal(38.5, 13.5, n).round().astype(np.int64), 17, 90)
    education_codes = _categorical(rng, n, len(EDUCATION), concentration=0.8)
    # education_num tracks education with mild jitter, clipped to its domain.
    education_num = np.clip(education_codes + 1
                            + rng.integers(-1, 2, n), 1, 16).astype(np.int64)
    hours = np.clip(rng.normal(40.4, 12.3, n).round().astype(np.int64), 1, 99)

    # Capital gain/loss: zero-inflated, binned to 100 buckets.
    gain = np.where(rng.random(n) < 0.92, 0,
                    rng.integers(1, 100, n)).astype(np.int64)
    loss = np.where(rng.random(n) < 0.95, 0,
                    rng.integers(1, 100, n)).astype(np.int64)

    # Income correlates with education, hours and age (logistic score).
    score = (0.25 * (education_num - 8) + 0.04 * (hours - 40)
             + 0.02 * (age - 38) + rng.normal(0.0, 1.0, n) - 1.1)
    income = (score > 0).astype(np.int64)

    columns = {
        "age": age,
        "workclass": _categorical(rng, n, len(WORKCLASS), 0.7),
        "fnlwgt": rng.integers(0, 100, n),
        "education": education_codes,
        "education_num": education_num,
        "marital_status": _categorical(rng, n, len(MARITAL)),
        "occupation": _categorical(rng, n, len(OCCUPATION)),
        "relationship": _categorical(rng, n, len(RELATIONSHIP)),
        "race": _categorical(rng, n, len(RACE), 0.5),
        "sex": rng.choice(2, size=n, p=[0.33, 0.67]),
        "capital_gain": gain,
        "capital_loss": loss,
        "hours_per_week": hours,
        "native_country": _categorical(rng, n, len(COUNTRIES), 0.25),
        "income": income,
    }
    return Table(schema, columns)


#: Attributes the experiments build one histogram view over each.
ADULT_VIEW_ATTRIBUTES = (
    "age", "workclass", "education", "education_num", "marital_status",
    "occupation", "relationship", "race", "sex", "hours_per_week",
    "native_country", "income", "fnlwgt", "capital_gain", "capital_loss",
)


@functools.lru_cache(maxsize=TABLE_MEMO_SIZE)
def _adult_table(rows: int, seed: int) -> Table:
    return generate_adult_table(rows, seed)


def load_adult(num_rows: int = ADULT_NUM_ROWS, seed: SeedLike = 0) -> DatasetBundle:
    """Build the Adult dataset bundle used throughout the experiments.

    The table is generated once per ``(num_rows, int seed)`` per process
    and shared, read-only, by every bundle loaded with those arguments.
    """
    rows, int_seed = integer(num_rows), integer(seed)
    if rows is None or int_seed is None:
        table = generate_adult_table(num_rows, seed)
    else:
        table = _adult_table(rows, int_seed)
    db = Database({"adult": table})
    return DatasetBundle("adult", db, "adult", ADULT_VIEW_ATTRIBUTES)


__all__ = [
    "ADULT_NUM_ROWS",
    "ADULT_VIEW_ATTRIBUTES",
    "adult_schema",
    "generate_adult_table",
    "load_adult",
]
