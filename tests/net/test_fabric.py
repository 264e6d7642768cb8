"""Unit and property tests for the switching fabric."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from repro.net import Fabric, FAST_ETHERNET_BPS, GIGABIT_ETHERNET_BPS
from repro.sim import Simulator

MB = 1024 * 1024


@pytest.fixture
def sim():
    return Simulator()


@pytest.fixture
def fabric(sim):
    f = Fabric(sim, latency_s=0.0, connect_s=0.0005)
    f.add_endpoint("server", GIGABIT_ETHERNET_BPS)
    f.add_endpoint("node1", GIGABIT_ETHERNET_BPS)
    f.add_endpoint("node2", FAST_ETHERNET_BPS)
    return f


class TestTopology:
    def test_duplicate_endpoint_rejected(self, sim):
        f = Fabric(sim)
        f.add_endpoint("a", 1e6)
        with pytest.raises(ValueError):
            f.add_endpoint("a", 1e6)

    def test_unknown_endpoint_lookup_raises(self, fabric):
        with pytest.raises(KeyError):
            fabric.endpoint("nope")

    def test_endpoints_sorted(self, fabric):
        assert fabric.endpoints() == ["node1", "node2", "server"]

    def test_negative_latency_rejected(self, sim):
        with pytest.raises(ValueError):
            Fabric(sim, latency_s=-1)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"latency_s": math.nan},
            {"latency_s": math.inf},
            {"connect_s": math.nan},
            {"connect_s": math.inf},
        ],
        ids=["nan-latency", "inf-latency", "nan-connect", "inf-connect"],
    )
    def test_non_finite_latency_rejected(self, sim, kwargs):
        # `latency_s < 0` passes NaN, and an infinite latency sends the
        # clock to inf on the first delivery.
        with pytest.raises(ValueError):
            Fabric(sim, **kwargs)

    @pytest.mark.parametrize("send", ["send", "send_nowait"])
    @pytest.mark.parametrize("size", [math.nan, math.inf], ids=["nan", "inf"])
    def test_non_finite_size_rejected(self, sim, fabric, send, size):
        # Rejected by the send itself, before anything is scheduled.
        with pytest.raises(ValueError, match="message size"):
            getattr(fabric, send)("server", "node1", None, size_bytes=size)
        assert sim.queue_size == 0

    def test_nan_line_rate_rejected(self, sim):
        with pytest.raises(ValueError):
            Fabric(sim).add_endpoint("a", math.nan)


class TestTransfers:
    def test_delivery_into_inbox(self, sim, fabric):
        got = []
        fabric.endpoint("node1").inbox.take(lambda msg: got.append((msg.payload, sim.now)))

        fabric.send("server", "node1", payload="hello", size_bytes=0)
        sim.run()
        assert got == [("hello", 0.0)]

    def test_transfer_rate_is_min_of_nics(self, sim, fabric):
        done = {}
        fabric.endpoint("node2").inbox.take(lambda msg: done.setdefault("rx", sim.now))

        # 12.5e6 B at the 100 Mb/s (12.5e6 B/s) node-2 NIC: 1 s.
        sim.run(until=fabric.send("server", "node2", payload=b"", size_bytes=125 * 10**5))
        done["t"] = sim.now
        sim.run()
        assert done["t"] == pytest.approx(1.0)
        assert done["rx"] == pytest.approx(1.0)

    def test_gigabit_pair_runs_at_gigabit(self, sim, fabric):
        sim.run(until=fabric.send("server", "node1", payload=b"", size_bytes=125 * 10**6))
        assert sim.now == pytest.approx(1.0)

    def test_self_send_rejected(self, fabric):
        with pytest.raises(ValueError):
            fabric.send("server", "server", payload=None)

    def test_latency_added_once(self, sim):
        f = Fabric(sim, latency_s=0.010)
        f.add_endpoint("a", 1e9)
        f.add_endpoint("b", 1e9)
        sim.run(until=f.send("a", "b", payload=None, size_bytes=0))
        assert sim.now == pytest.approx(0.010)

    def test_sender_tx_serialises_two_receivers(self, sim, fabric):
        """One gigabit sender feeding two nodes cannot exceed its NIC."""
        times = []
        for _ in range(2):
            sent = fabric.send("server", "node1", payload=b"", size_bytes=125 * 10**6)
            sent.callbacks.append(lambda _event: times.append(sim.now))
        sim.run()
        assert sorted(times) == [pytest.approx(1.0), pytest.approx(2.0)]

    def test_distinct_pairs_transfer_in_parallel(self, sim, fabric):
        times = []
        # Full duplex: the second flow runs in the opposite direction.
        for src, dst in (("server", "node1"), ("node1", "server")):
            sent = fabric.send(src, dst, payload=b"", size_bytes=125 * 10**6)
            sent.callbacks.append(lambda _event: times.append(sim.now))
        sim.run()
        assert times == [pytest.approx(1.0), pytest.approx(1.0)]

    def test_connect_costs_handshake(self, sim, fabric):
        done = {}
        fabric.connect("server", "node1", lambda _value: done.setdefault("t", sim.now))
        sim.run()
        assert done["t"] == pytest.approx(0.0005)

    def test_accounting(self, sim, fabric):
        sim.run(until=fabric.send("server", "node1", payload=None, size_bytes=100))
        fabric.send("server", "node2", payload=None, size_bytes=50)
        sim.run()
        assert fabric.messages_sent == 2
        assert fabric.bytes_sent == 150
        assert [m.size_bytes for m in fabric.endpoint("node1").inbox.items] == [100]

    def test_receive_matching_filters(self, sim, fabric):
        # The inbox's one handler filters what it takes.
        got = []
        inbox = fabric.endpoint("node1").inbox

        def handle(msg):
            if msg.payload == "wanted":
                got.append(msg.payload)
            else:
                inbox.take(handle)

        inbox.take(handle)
        sim.run(until=fabric.send("server", "node1", payload="other", size_bytes=0))
        fabric.send("server", "node1", payload="wanted", size_bytes=0)
        sim.run()
        assert got == ["wanted"]


@settings(max_examples=25, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from(["a", "b", "c"]),
            st.sampled_from(["a", "b", "c"]),
            st.integers(min_value=0, max_value=10 * MB),
        ).filter(lambda t: t[0] != t[1]),
        min_size=1,
        max_size=20,
    )
)
def test_fabric_conserves_messages(transfers):
    """Every sent message is delivered exactly once, whatever the pattern."""
    sim = Simulator()
    fabric = Fabric(sim, latency_s=1e-4)
    for name in "abc":
        fabric.add_endpoint(name, 10 * MB)
    delivered = []

    def receiver(name):
        inbox = fabric.endpoint(name).inbox

        def handle(msg):
            delivered.append(msg.payload)
            inbox.take(handle)

        inbox.take(handle)

    for name in "abc":
        receiver(name)
    events = [
        fabric.send(src, dst, payload=i, size_bytes=size)
        for i, (src, dst, size) in enumerate(transfers)
    ]
    sim.run(until=sim.all_of(events))
    sim.run(until=sim.now + 1.0)  # drain inbox consumers
    assert sorted(delivered) == list(range(len(transfers)))
