"""Backend construction: spec -> device, config -> tier spec.

The storage node does not name device classes; it resolves each tier's
spec from the run config (:func:`tier_spec`) and hands it to
:func:`build_backend`, which dispatches on the spec type.  Adding a
backend means adding a spec type and a branch here -- the node, power
manager and report assembly stay untouched.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional, TYPE_CHECKING, Union

from repro.backend.ssd import SATA_SSD_32GB, SSDBackend, SSDSpec
from repro.disk.drive import SimDisk, StorageBackend
from repro.disk.specs import DiskSpec
from repro.sim.engine import Simulator

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np

    from repro.core.config import EEVFSConfig

#: What a tier's spec can resolve to.
TierSpec = Union[DiskSpec, SSDSpec]


def build_backend(
    sim: Simulator,
    spec: TierSpec,
    name: str,
    auto_sleep_after: Optional[float] = None,
    idle_action: str = "standby",
    second_stage_after: Optional[float] = None,
    spinup_jitter: float = 0.0,
    rng: Optional["np.random.Generator"] = None,
) -> StorageBackend:
    """Construct the backend a spec describes.

    The keyword surface is ``SimDisk``'s; the SSD branch rejects the
    spindle-only knobs (low-speed idle action, second stage) instead of
    silently ignoring them.
    """
    if isinstance(spec, SSDSpec):
        if idle_action != "standby":
            raise ValueError(
                f"{name}: idle_action={idle_action!r} needs a spinning drive; "
                f"an SSD has no low-RPM operating point"
            )
        if second_stage_after is not None:
            raise ValueError(f"{name}: second_stage_after needs a spinning drive")
        return SSDBackend(
            sim,
            spec,
            name=name,
            auto_sleep_after=auto_sleep_after,
            spinup_jitter=spinup_jitter,
            rng=rng,
        )
    return SimDisk(
        sim,
        spec,
        name=name,
        auto_sleep_after=auto_sleep_after,
        idle_action=idle_action,
        second_stage_after=second_stage_after,
        spinup_jitter=spinup_jitter,
        rng=rng,
    )


def resolve_ssd_spec(config: "EEVFSConfig") -> SSDSpec:
    """``SATA_SSD_32GB`` with the config's sweep overrides applied."""
    overrides: dict = {}
    if config.ssd_capacity_mb is not None:
        overrides["capacity_bytes"] = config.ssd_capacity_mb * 1024 * 1024
    if config.ssd_channels is not None:
        overrides["n_channels"] = config.ssd_channels
    if config.ssd_gc_free_fraction is not None:
        overrides["gc_free_fraction"] = config.ssd_gc_free_fraction
    if not overrides:
        return SATA_SSD_32GB
    return replace(SATA_SSD_32GB, **overrides)


def tier_spec(
    config: "EEVFSConfig", tier: str, hdd_spec: DiskSpec
) -> TierSpec:
    """Resolve one tier's device spec from the run config.

    *tier* is ``"buffer"`` or ``"data"``; *hdd_spec* is the node's
    drive spec for that tier, used verbatim when the tier stays on the
    HDD backend.
    """
    if tier == "buffer":
        backend = config.buffer_backend
    elif tier == "data":
        backend = config.data_backend
    else:
        raise ValueError(f"unknown tier: {tier!r}")
    if backend == "hdd":
        return hdd_spec
    return resolve_ssd_spec(config)
