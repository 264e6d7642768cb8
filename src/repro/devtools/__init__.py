"""Developer tooling: the ``simlint`` static-analysis suite and the
runtime determinism sanitizer.

The reproduction's headline claims (EEVFS energy savings, PF-vs-NPF
parity, serial-vs-parallel byte-identical metrics) rest on invariants
nothing in the language enforces: every stochastic draw must flow
through named :class:`~repro.sim.rng.RandomStreams`, simulation code
must never read the wall clock, and everything crossing the
``repro.parallel`` process-pool boundary must be picklable.  This
package turns those conventions into tooling:

* :mod:`repro.devtools.diagnostics` -- file/line-anchored findings,
* :mod:`repro.devtools.suppress`    -- ``# simlint: ignore[rule]`` comments,
* :mod:`repro.devtools.rules`       -- the rule engine and registry,
* :mod:`repro.devtools.checks`      -- the DET/PAR/SIM rule implementations,
* :mod:`repro.devtools.runner`      -- file walking, rendering, fixing,
* :mod:`repro.devtools.symbols`     -- the cross-module scheduling symbol table,
* :mod:`repro.devtools.checks_sched` -- the CONT/SIM003/DET004/LNT001 rules,
* :mod:`repro.devtools.sanitizer`   -- runtime event-stream digests and the
  schedule-perturbation sanitizer,
* :mod:`repro.devtools.racesuite`   -- the whole-model chaos-scheduler suite
  (imported lazily: it pulls in the full EEVFS stack).

Run it as ``eevfs lint [paths...]`` (static checks) or ``eevfs lint
--races`` (chaos-scheduler suite); see :mod:`repro.cli`.
"""

from repro.devtools.diagnostics import Diagnostic
from repro.devtools.rules import all_rules, LintConfig, Rule
from repro.devtools.runner import lint_paths, render_json, render_text
from repro.devtools.sanitizer import (
    assert_deterministic,
    assert_schedule_invariant,
    DeterminismError,
    digest_run,
    EventStreamHasher,
    perturbed_digest_run,
    ScheduleProbe,
    ScheduleRaceError,
    TimeBucketHasher,
)

__all__ = [
    "DeterminismError",
    "Diagnostic",
    "EventStreamHasher",
    "LintConfig",
    "Rule",
    "ScheduleProbe",
    "ScheduleRaceError",
    "TimeBucketHasher",
    "all_rules",
    "assert_deterministic",
    "assert_schedule_invariant",
    "digest_run",
    "lint_paths",
    "perturbed_digest_run",
    "render_json",
    "render_text",
]
