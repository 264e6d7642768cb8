"""Unit tests for point-to-point links.

A link is a FIFO one-frame wire claimed with ``acquire`` and freed with
``release``; the fabric's deliveries are its only users, so transfer
timing is observed through :meth:`Fabric.send`, as the receiving
handler's clock.
"""

import pytest

from repro.net import FAST_ETHERNET_BPS, GIGABIT_ETHERNET_BPS, Fabric, Link
from repro.sim import Simulator

MB = 1024 * 1024


@pytest.fixture
def sim():
    return Simulator()


def _pair(sim, tx_bps, rx_bps, latency_s=0.0):
    """A fabric (zero-latency by default) with a sender ``a`` and a
    receiver ``b`` whose handler records each delivery as
    ``(payload, time)``."""
    fabric = Fabric(sim, latency_s=latency_s)
    fabric.add_endpoint("a", tx_bps)
    fabric.add_endpoint("b", rx_bps)
    delivered = []
    inbox = fabric.endpoint("b").inbox

    def handle(msg):
        delivered.append((msg.payload, sim.now))
        inbox.take(handle)

    inbox.take(handle)
    return fabric, delivered


def test_ethernet_rates_are_bytes_per_second():
    assert GIGABIT_ETHERNET_BPS == pytest.approx(125e6)
    assert FAST_ETHERNET_BPS == pytest.approx(12.5e6)


def test_validation(sim):
    with pytest.raises(ValueError):
        Link(sim, bandwidth_bps=0)
    with pytest.raises(ValueError):
        Link(sim, bandwidth_bps=-1e6)


def test_nan_bandwidth_rejected(sim):
    # `bandwidth_bps <= 0` passes NaN; every transfer time would be NaN.
    with pytest.raises(ValueError):
        Link(sim, bandwidth_bps=float("nan"))


def test_transmission_time(sim):
    # One transfer takes the fixed latency plus size over line rate.
    fabric, delivered = _pair(sim, 1e6, 1e6, latency_s=0.001)
    fabric.send_nowait("a", "b", "x", size_bytes=int(1e6))
    sim.run()
    assert delivered == [("x", pytest.approx(1.001))]
    with pytest.raises(ValueError):
        fabric.send_nowait("a", "b", None, size_bytes=-1)


def test_transfer_takes_wire_time(sim):
    fabric, delivered = _pair(sim, 10 * MB, 10 * MB)
    fabric.send_nowait("a", "b", "x", size_bytes=10 * MB)
    sim.run()
    assert delivered == [("x", pytest.approx(1.0))]


def test_transfers_serialise(sim):
    fabric, delivered = _pair(sim, 10 * MB, 10 * MB)
    fabric.send_nowait("a", "b", "first", size_bytes=10 * MB)
    fabric.send_nowait("a", "b", "second", size_bytes=10 * MB)
    sim.run()
    assert delivered == [("first", pytest.approx(1.0)), ("second", pytest.approx(2.0))]


def test_rate_cap_slows_transfer(sim):
    # The slower receiving NIC caps the rate of a fast sender.
    fabric, delivered = _pair(sim, 100 * MB, 10 * MB)
    fabric.send_nowait("a", "b", "x", size_bytes=10 * MB)
    sim.run()
    assert delivered == [("x", pytest.approx(1.0))]


def test_rate_cap_above_bandwidth_is_ignored(sim):
    # A faster receiving NIC does not speed up a slow sender.
    fabric, delivered = _pair(sim, 10 * MB, 1000 * MB)
    fabric.send_nowait("a", "b", "x", size_bytes=10 * MB)
    sim.run()
    assert delivered == [("x", pytest.approx(1.0))]


def test_invalid_rate_cap_rejected(sim):
    # The rate cap is the far NIC's line rate, which must be positive.
    fabric = Fabric(sim)
    with pytest.raises(ValueError):
        fabric.add_endpoint("b", 0)


def test_negative_transfer_rejected(sim):
    fabric, _ = _pair(sim, 10 * MB, 10 * MB)
    with pytest.raises(ValueError):
        fabric.send("a", "b", None, size_bytes=-1)


def test_bytes_and_stats_accounted(sim):
    fabric, delivered = _pair(sim, 10 * MB, 10 * MB)
    fabric.send_nowait("a", "b", 1, size_bytes=5 * MB)
    fabric.send_nowait("a", "b", 2, size_bytes=5 * MB)
    sim.run()
    assert fabric.bytes_sent == 10 * MB
    assert fabric.messages_sent == 2
    assert [payload for payload, _ in delivered] == [1, 2]


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
    sim.run()
    assert granted == [("a", 0.0), ("b", 1.0), ("c", 2.0)]
    # The last release left the wire free: the next claim is granted
    # without the clock moving.
    link.acquire(holder("d"))
    sim.step()
    assert granted[-1] == ("d", 3.0)
