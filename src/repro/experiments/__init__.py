"""The experiment harness: every table and figure of the evaluation.

* :mod:`repro.experiments.runner`    -- run paired PF/NPF experiments,
* :mod:`repro.experiments.sweeps`    -- the four Table-II parameter sweeps
  (shared by Figs. 3, 4 and 5, exactly as in the paper),
* :mod:`repro.experiments.figures`   -- regenerate Figs. 3-6,
* :mod:`repro.experiments.tables`    -- regenerate Tables I and II,
* :mod:`repro.experiments.ablations` -- ablations beyond the paper
  (idle threshold, hints, disks per node, predictors, replay modes),
* :mod:`repro.experiments.metaplane` -- metadata-plane chaos drills and
  the shard x replica availability sweep.
"""

from repro.experiments.crossover import find_min_effective_k
from repro.experiments.figures import figure3, figure4, figure5, figure6
from repro.experiments.metaplane import metaplane_sweep, run_metadata_drill
from repro.experiments.paper import generate_report
from repro.experiments.repetition import repeat_pair
from repro.experiments.runner import PairResult, run_pair
from repro.experiments.sensitivity import power_model_sensitivity
from repro.experiments.sweeps import run_all_sweeps, run_sweep, SweepSet
from repro.experiments.tables import table1, table2
from repro.experiments.validation import validate_reproduction

__all__ = [
    "PairResult",
    "SweepSet",
    "figure3",
    "figure4",
    "figure5",
    "figure6",
    "find_min_effective_k",
    "generate_report",
    "metaplane_sweep",
    "power_model_sensitivity",
    "repeat_pair",
    "run_all_sweeps",
    "run_metadata_drill",
    "run_pair",
    "run_sweep",
    "table1",
    "table2",
    "validate_reproduction",
]
