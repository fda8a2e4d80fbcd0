"""Experiment harness: scenario registry, sweep runner and tables.

The layers:

* :mod:`repro.harness.experiments` — one module per canonical
  experiment (DESIGN.md's index); each scenario builder is registered
  with :mod:`repro.harness.registry` under a stable name, with a
  parameter schema, the paper's default sweep grid and a declared
  :class:`~repro.harness.result.ScenarioResult` return type.
* :mod:`repro.harness.runner` — :func:`run_matrix` fans a parameter
  grid out across multiprocessing workers with deterministic per-run
  seeds and memoizes completed runs on disk, so benchmarks declare
  sweeps instead of hand-rolling loops and re-runs are free.
* the CLI — ``python -m repro.harness run <scenario> --sweep ...
  --format table|csv|json`` (see :mod:`repro.harness.cli`).
* :mod:`repro.harness.probes` — the golden trace probes that pin the
  simulator's exact behavior (``benchmarks/goldens/core_goldens.json``).
  Speed is measured in one place, outside this package: ``perf/`` and
  ``BENCHMARK.json`` at the repository root.

:mod:`repro.api` (``Experiment`` / ``ResultSet``) is the public front
door over all of this; prefer it for new code.  The scenario functions
are importable flat from this package (``from repro.harness import
af_dumbbell_scenario``); everything else lives in its
``repro.harness.experiments`` module.
"""

from repro.harness.experiments.ablation import gtfrc_ablation_scenario
from repro.harness.experiments.af_assurance import AfResult, af_dumbbell_scenario
from repro.harness.experiments.convergence import convergence_scenario
from repro.harness.experiments.estimation import estimation_accuracy_scenario
from repro.harness.experiments.friendliness import friendliness_scenario
from repro.harness.experiments.lossy_path import (
    LossyPathResult,
    lossy_path_scenario,
)
from repro.harness.experiments.negotiation_matrix import negotiation_scenario
from repro.harness.experiments.receiver_load import receiver_load_scenario
from repro.harness.experiments.reliability import reliability_scenario
from repro.harness.experiments.selfish import selfish_receiver_scenario
from repro.harness.experiments.smoothness import smoothness_scenario
from repro.harness.registry import (
    ScenarioSpec,
    get_scenario,
    list_scenarios,
    register,
)
from repro.harness.result import MappingResult, ScenarioResult
from repro.harness.runner import RunRecord, code_version, expand_grid, run_matrix
from repro.harness.tables import format_table

__all__ = [
    "MappingResult",
    "ScenarioResult",
    "af_dumbbell_scenario",
    "convergence_scenario",
    "gtfrc_ablation_scenario",
    "lossy_path_scenario",
    "negotiation_scenario",
    "smoothness_scenario",
    "friendliness_scenario",
    "receiver_load_scenario",
    "estimation_accuracy_scenario",
    "selfish_receiver_scenario",
    "reliability_scenario",
    "AfResult",
    "LossyPathResult",
    "format_table",
    "ScenarioSpec",
    "register",
    "get_scenario",
    "list_scenarios",
    "RunRecord",
    "run_matrix",
    "expand_grid",
    "code_version",
]
