"""PDC-style popular data concentration (Pinheiro & Bianchini [15]).

§II: "The goal of PDC is to load the first disk with the most popular
data, the second disk with the second most popular data, and continue
this process for the remaining disks."  Our cluster-scale rendering
packs the popularity ranking contiguously across nodes and, within each
node, across its data disks; cold disks then see long idle stretches and
their idle timers sleep them.

No buffer-disk copies are made -- PDC is "a migratory strategy" that
changes the *layout* rather than caching, which is exactly the contrast
the paper draws (layout churn and whole-system metadata vs EEVFS's
copy-only prefetch).
"""

from __future__ import annotations

from repro.core.config import EEVFSConfig


def pdc_config() -> EEVFSConfig:
    """PDC policy: concentrated layout, idle-timer power management."""
    return EEVFSConfig(
        prefetch_enabled=False,
        power_manage_without_prefetch=True,
        use_hints=False,
        wake_ahead=False,
        placement_policy="concentrate",
    )
