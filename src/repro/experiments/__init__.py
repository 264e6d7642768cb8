"""The experiment harness: every table and figure of the evaluation.

* :mod:`repro.experiments.study`     -- named points of named runs, run
  as one job batch (:func:`run_study`), plus the direct :func:`run_pair`,
* :mod:`repro.experiments.sweeps`    -- the four Table-II parameter sweeps
  (shared by Figs. 3, 4 and 5, exactly as in the paper),
* :mod:`repro.experiments.figures`   -- regenerate Figs. 3-6,
* :mod:`repro.experiments.tables`    -- regenerate Tables I and II,
* :mod:`repro.experiments.ablations` -- ablations beyond the paper
  (idle threshold, hints, disks per node, predictors, replay modes),
* :mod:`repro.experiments.metaplane` -- metadata-plane chaos drills and
  the shard x replica availability sweep.
"""

from repro.experiments.figures import (
    figure3,
    figure4,
    figure5,
    figure6,
    figure6_study,
)
from repro.experiments.metaplane import metaplane_study
from repro.experiments.paper import generate_report
from repro.experiments.repetition import repeat_pair
from repro.experiments.sensitivity import power_model_sensitivity
from repro.experiments.study import compared, group, records, run_pair, run_study
from repro.experiments.sweeps import sweep_study
from repro.experiments.tables import table1, table2
from repro.experiments.validation import validate_reproduction

__all__ = [
    "compared",
    "figure3",
    "figure4",
    "figure5",
    "figure6",
    "figure6_study",
    "generate_report",
    "group",
    "metaplane_study",
    "power_model_sensitivity",
    "records",
    "repeat_pair",
    "run_pair",
    "run_study",
    "sweep_study",
    "table1",
    "table2",
    "validate_reproduction",
]
