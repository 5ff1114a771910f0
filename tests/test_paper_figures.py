"""Paper-figure tests: every bench-scale case of every
:data:`repro.experiments.FIGURES` entry regenerates its artifact, prints
it (``-s`` shows the tables) and passes the entry's shape check."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.experiments import FIGURES


@pytest.mark.parametrize("figure, kwargs", [
    pytest.param(figure, kwargs, id=case)
    for figure in FIGURES.values() for case, kwargs in figure.cases.items()
])
def test_figure(figure, kwargs):
    result = figure.run(**kwargs)
    print("\n" + figure.format(result, kwargs) + "\n")
    figure.check(result, kwargs)


def test_import_repro_loads_neither_the_table_nor_the_cli():
    src = Path(__file__).resolve().parents[1] / "src"
    probe = ("import sys, repro; print(sorted({'repro.experiments', "
             "'repro.cli'} & set(sys.modules)))")
    result = subprocess.run([sys.executable, "-c", probe],
                            env=dict(os.environ, PYTHONPATH=str(src)),
                            capture_output=True, text=True, timeout=120,
                            check=True)
    assert result.stdout.strip() == "[]"
