"""Tests for disk request priorities (demand > prefetch > background)."""


from repro.disk import ATA_80GB_TYPE1, SimDisk
from repro.disk.drive import PRIORITY_BACKGROUND, PRIORITY_DEMAND, PRIORITY_PREFETCH
from repro.sim import Simulator

MB = 1024 * 1024
SPEC = ATA_80GB_TYPE1


def _watch(order):
    """``watch(request, tag)``: note *tag* in *order* when *request* is
    done."""

    def watch(req, tag):
        req.done.callbacks.append(lambda _event: order.append(tag))

    return watch


def test_demand_overtakes_queued_background():
    sim = Simulator()
    disk = SimDisk(sim, SPEC)
    order = []
    watch = _watch(order)

    def client(_value):
        # First request occupies the disk; the rest queue.
        watch(disk.submit(20 * MB), "first")
        watch(disk.submit(20 * MB, priority=PRIORITY_BACKGROUND), "bg1")
        watch(disk.submit(20 * MB, priority=PRIORITY_BACKGROUND), "bg2")
        sim.call_later(
            0.01,
            lambda _value: watch(disk.submit(20 * MB, priority=PRIORITY_DEMAND), "demand"),
        )

    sim.call_soon(client)
    sim.run()
    assert order == ["first", "demand", "bg1", "bg2"]


def test_three_level_ordering():
    sim = Simulator()
    disk = SimDisk(sim, SPEC)
    order = []
    watch = _watch(order)

    def client(_value):
        watch(disk.submit(10 * MB), "head")
        watch(disk.submit(1 * MB, priority=PRIORITY_BACKGROUND), "bg")
        watch(disk.submit(1 * MB, priority=PRIORITY_PREFETCH), "pf")
        watch(disk.submit(1 * MB, priority=PRIORITY_DEMAND), "rd")

    sim.call_soon(client)
    sim.run()
    assert order == ["head", "rd", "pf", "bg"]


def test_equal_priority_stays_fifo():
    sim = Simulator()
    disk = SimDisk(sim, SPEC)
    order = []
    watch = _watch(order)

    def client(_value):
        for tag in ("a", "b", "c"):
            watch(disk.submit(1 * MB), tag)

    sim.call_soon(client)
    sim.run()
    assert order == ["a", "b", "c"]


def test_destage_does_not_delay_demand_reads(monkeypatch):
    """End to end: a node's background destage queued on the buffer disk
    must not stall a client read of a dirty file."""
    import numpy as np

    from repro.core import EEVFSConfig, run_eevfs
    from repro.core import node as node_module
    from repro.traces.synthetic import MB as TMB
    from repro.traces.synthetic import SyntheticWorkload, generate_synthetic_trace

    trace = generate_synthetic_trace(
        SyntheticWorkload(
            n_requests=150,
            write_fraction=0.5,
            data_size_bytes=4 * TMB,
            inter_arrival_s=0.3,
            mu=50,
            n_files=100,
        ),
        rng=np.random.default_rng(3),
    )
    monkeypatch.setattr(node_module, "DESTAGE_CHECK_INTERVAL_S", 1.0)
    monkeypatch.setattr(node_module, "DESTAGE_MAX_DIRTY_AGE_S", 2.0)
    eager = run_eevfs(trace, EEVFSConfig())
    # Lazy: the first destage check falls after the end of the run.
    monkeypatch.setattr(node_module, "DESTAGE_CHECK_INTERVAL_S", 1e6)
    lazy = run_eevfs(trace, EEVFSConfig())
    # Aggressive destaging must cost little response time thanks to
    # background priority.
    assert eager.mean_response_s < lazy.mean_response_s * 1.25
