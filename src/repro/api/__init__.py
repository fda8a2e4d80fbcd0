"""``repro.api`` — the unified experiment front door (PR 5).

One import gives the whole define → run → analyze → export workflow
over the scenario registry, the warm sweep runner and the table
formatter:

* :class:`Experiment` — fluent, schema-validated sweep builder
  (``Experiment("af_assurance").sweep(...).seeds(...).workers(...)``),
  executing through :func:`repro.harness.runner.run_matrix` (warm
  worker pool, deterministic grid order, on-disk memo);
* :class:`ResultSet` — the typed, queryable result container:
  ``.one()/.value()`` lookups, ``.filter()/.group_by()`` slicing,
  ``.aggregate()`` over seeds, ``.table()/.to_rows()/.to_csv()/
  .to_json()`` presentation;
* :class:`ScenarioResult` — the contract scenario return values
  declare their metrics through (see :mod:`repro.harness.result`);
* :class:`RunFailure` — the structured terminal failure a cell carries
  when a sweep runs with ``on_failure="keep"``/``"retry"`` (PR 7):
  ``rs.failures()`` / ``rs.ok()`` / ``rs.coverage()`` surface partial
  results instead of aborting the whole sweep.

Quickstart::

    from repro.api import Experiment

    rs = (
        Experiment("lossy_path")
        .sweep(protocol=("tcp", "tfrc"), loss_rate=(0.01, 0.05))
        .configure(duration=30.0)
        .seeds(range(3))
        .run()
    )
    print(rs.aggregate("goodput_bps", over="seed").table(title="goodput"))
    rs.to_csv("lossy_path.csv")

``examples/experiment_api.py`` is the full walkthrough; the CLI
(``python -m repro.harness run ... --format table|csv|json``) and the
benchmark table suites are built on the same two classes.
"""

from repro.api.experiment import Experiment
from repro.api.resultset import ResultSet, UnknownMetricError
from repro.harness.result import MappingResult, RunFailure, ScenarioResult

__all__ = [
    "Experiment",
    "MappingResult",
    "ResultSet",
    "RunFailure",
    "ScenarioResult",
    "UnknownMetricError",
]
