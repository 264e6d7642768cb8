"""Always-on: prefetching enabled, power management disabled.

This comparator is not in the paper but isolates the two halves of
EEVFS: relative to NPF it shows what the buffer-disk *cache* alone buys
(load shifting, response time); relative to PF it shows what the *sleep
policy* alone buys (all of the energy savings).  It also bounds the
transition count at zero by construction.
"""

from __future__ import annotations

from repro.core.config import EEVFSConfig


def alwayson_config() -> EEVFSConfig:
    """Prefetch on, every disk permanently spinning."""
    return EEVFSConfig(prefetch_enabled=True, power_management_enabled=False)
