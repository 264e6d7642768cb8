"""SSD data disks (``EEVFSConfig(data_backend="ssd")``) on a whole run.

No CLI command, study or example sets ``data_backend``.  An all-flash
data tier must complete, repeat byte for byte at the same seed, and be
power-managed under PF, while NPF never moves a data device.
"""

from dataclasses import replace

from repro.backend.ssd import SSDBackend
from repro.core.config import EEVFSConfig
from repro.core.filesystem import canonical_json
from repro.parallel import JobSpec, TraceSpec
from repro.traces.synthetic import SyntheticWorkload

#: 150 requests at 30 % writes from the generator's default stream, seed 7.
PF = JobSpec(
    trace=TraceSpec(workload=SyntheticWorkload(n_requests=150, write_fraction=0.3), seed=0),
    config=EEVFSConfig(data_backend="ssd"),
    seed=7,
)


def run(spec):
    cluster = spec.build()
    return cluster, cluster.run(spec.trace.generate())


def test_ssd_data_tier_is_power_managed_under_pf_only():
    cluster, pf = run(PF)
    assert all(
        isinstance(disk, SSDBackend) for node in cluster.nodes for disk in node.data_disks
    )
    assert canonical_json(pf.record()) == canonical_json(run(PF)[1].record())
    assert pf.response_times.count == 150
    assert pf.requests_failed == 0
    assert pf.ssd_host_pages_written > 0
    assert pf.transitions > 0
    _, npf = run(replace(PF, config=PF.config.as_npf()))
    assert npf.response_times.count == 150
    assert npf.transitions == 0
