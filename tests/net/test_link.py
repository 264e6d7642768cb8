"""Unit tests for point-to-point links."""

import pytest

from repro.net import FAST_ETHERNET_BPS, GIGABIT_ETHERNET_BPS, Link
from repro.sim import Simulator

MB = 1024 * 1024


@pytest.fixture
def sim():
    return Simulator()


def test_ethernet_rates_are_bytes_per_second():
    assert GIGABIT_ETHERNET_BPS == pytest.approx(125e6)
    assert FAST_ETHERNET_BPS == pytest.approx(12.5e6)


def test_validation(sim):
    with pytest.raises(ValueError):
        Link(sim, bandwidth_bps=0)
    with pytest.raises(ValueError):
        Link(sim, bandwidth_bps=1e6, latency_s=-1)


def test_transmission_time(sim):
    link = Link(sim, bandwidth_bps=1e6, latency_s=0.001)
    assert link.transmission_time(1e6) == pytest.approx(1.001)
    with pytest.raises(ValueError):
        link.transmission_time(-1)


def test_transfer_takes_wire_time(sim):
    link = Link(sim, bandwidth_bps=10 * MB, latency_s=0.0)
    done = {}

    def client():
        yield link.transfer(10 * MB)
        done["t"] = sim.now

    sim.process(client())
    sim.run()
    assert done["t"] == pytest.approx(1.0)


def test_transfers_serialise(sim):
    link = Link(sim, bandwidth_bps=10 * MB, latency_s=0.0)
    times = []

    def client(tag):
        yield link.transfer(10 * MB)
        times.append(sim.now)

    sim.process(client("a"))
    sim.process(client("b"))
    sim.run()
    assert times == [pytest.approx(1.0), pytest.approx(2.0)]


def test_rate_cap_slows_transfer(sim):
    link = Link(sim, bandwidth_bps=100 * MB, latency_s=0.0)
    done = {}

    def client():
        yield link.transfer(10 * MB, rate_cap_bps=10 * MB)
        done["t"] = sim.now

    sim.process(client())
    sim.run()
    assert done["t"] == pytest.approx(1.0)


def test_rate_cap_above_bandwidth_is_ignored(sim):
    link = Link(sim, bandwidth_bps=10 * MB, latency_s=0.0)
    done = {}

    def client():
        yield link.transfer(10 * MB, rate_cap_bps=1000 * MB)
        done["t"] = sim.now

    sim.process(client())
    sim.run()
    assert done["t"] == pytest.approx(1.0)


def test_invalid_rate_cap_rejected(sim):
    link = Link(sim, bandwidth_bps=10 * MB)
    with pytest.raises(ValueError):
        link.transfer(1, rate_cap_bps=0)


def test_negative_transfer_rejected(sim):
    link = Link(sim, bandwidth_bps=10 * MB)
    with pytest.raises(ValueError):
        link.transfer(-1)


def test_bytes_and_stats_accounted(sim):
    link = Link(sim, bandwidth_bps=10 * MB, latency_s=0.0)

    def client():
        yield link.transfer(5 * MB)
        yield link.transfer(5 * MB)

    sim.process(client())
    sim.run()
    assert link.bytes_sent == 10 * MB
    assert link.transfers.count == 2


def test_queue_length_visible_while_contended(sim):
    link = Link(sim, bandwidth_bps=1 * MB, latency_s=0.0)
    observed = {}

    def sender():
        link.transfer(10 * MB)
        link.transfer(10 * MB)
        link.transfer(10 * MB)
        yield sim.timeout(0.5)
        observed["queue"] = link.queue_length

    sim.process(sender())
    sim.run()
    assert observed["queue"] == 2


def test_acquire_grants_the_wire_fifo_on_release(sim):
    link = Link(sim, bandwidth_bps=1.0)
    granted = []

    def holder(tag):
        def on_grant(_value):
            granted.append((tag, sim.now))
            sim.call_later(1.0, lambda _value: link.release())

        return on_grant

    for tag in "abc":
        link.acquire(holder(tag))
    assert link.queue_length == 2
    sim.run()
    assert granted == [("a", 0.0), ("b", 1.0), ("c", 2.0)]
    assert link.queue_length == 0
