"""Unit tests for network messages."""

import pytest

from repro.net import Fabric, Message
from repro.net.message import CONTROL_MESSAGE_BYTES
from repro.sim import Simulator


def test_default_size_is_control_message():
    msg = Message(src="a", dst="b", payload={"op": "request"})
    assert msg.size_bytes == CONTROL_MESSAGE_BYTES


def test_negative_size_rejected():
    with pytest.raises(ValueError):
        Message(src="a", dst="b", payload=None, size_bytes=-1)


def test_empty_addresses_rejected():
    with pytest.raises(ValueError):
        Message(src="", dst="b", payload=None)
    with pytest.raises(ValueError):
        Message(src="a", dst="", payload=None)


def test_latency_is_delivery_minus_send():
    # A message carries no timestamps: its latency is the receiving
    # handler's clock minus the send time.
    sim = Simulator()
    fabric = Fabric(sim, latency_s=0.5)
    fabric.add_endpoint("a", 1000.0)
    fabric.add_endpoint("b", 1000.0)
    delivered = []
    fabric.endpoint("b").inbox.take(lambda msg: delivered.append((msg.payload, sim.now)))
    sim.call_later(1.0, lambda _value: fabric.send("a", "b", "x", size_bytes=2000))
    sim.run()
    assert delivered == [("x", pytest.approx(1.0 + 0.5 + 2.0))]
