"""Experiment harness reproducing every figure of the paper's section 6.

Each figure lives in :mod:`repro.bench.figures` as a ``run()`` function
returning an :class:`repro.bench.harness.ExperimentTable`;
``python -m repro.bench.run_all`` regenerates all of them and prints
the tables the paper plots.  ``python -m repro.bench.gates`` runs every
pass/fail benchmark gate (:data:`repro.bench.gates.GATES`).
"""

from repro.bench.harness import ExperimentTable, Row
from repro.bench.profiling import (
    cpu_tree_performance,
    profile_fast,
    profile_implicit,
    profile_regular,
)

__all__ = [
    "ExperimentTable",
    "Row",
    "cpu_tree_performance",
    "profile_implicit",
    "profile_regular",
    "profile_fast",
]
