"""The sleep threshold of the §III-C prediction.

"The storage node uses the file access pattern to predict periods when
each of its data disks will be idle for long periods of time. ... The
storage node uses an energy prediction model that takes into account the
number of files to prefetch and the file access pattern."

The node's :class:`~repro.core.power.PowerManager` makes that prediction
online from the hinted future accesses of each disk; this module gives
it the one number the energy model decides with: the shortest idle
window that is worth sleeping through.
"""

from __future__ import annotations

from repro.disk.energy import break_even_time, PowerEnvelope


def effective_threshold(spec: PowerEnvelope, idle_threshold_s: float) -> float:
    """The window length below which the policy will not sleep a disk.

    The configured idle threshold (Table II: 5 s) is lower-bounded by the
    drive's break-even time -- sleeping shorter windows would *cost*
    energy regardless of policy intent.
    """
    if idle_threshold_s < 0:
        raise ValueError(f"idle_threshold_s must be >= 0, got {idle_threshold_s!r}")
    return max(idle_threshold_s, break_even_time(spec))
