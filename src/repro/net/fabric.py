"""The switching fabric: endpoints joined by a non-blocking switch.

Each endpoint owns a full-duplex NIC (independent transmit and receive
links).  A transfer occupies the sender's TX channel and the receiver's RX
channel simultaneously and proceeds at the slower of the two rates -- so a
gigabit server feeding a 100 Mb/s type-2 node is throttled to 100 Mb/s,
exactly as on the testbed.  The switch itself is non-blocking (no shared
backplane contention), which matches small dedicated cluster switches.
"""

from __future__ import annotations

from heapq import heappush
from math import inf
from typing import Any, Callable, Dict, Optional, Set

from repro.net.link import DEFAULT_CONNECT_S, DEFAULT_LATENCY_S, Link
from repro.net.message import Message
from repro.sim.engine import hold_slot, Simulator
from repro.sim.events import Event, NORMAL, URGENT
from repro.sim.resources import Mailbox


class _Delivery:
    """Continuation state machine for one message transfer.

    A delivery claims the sender's TX wire, then the receiver's RX wire,
    holds RX for the bytes' time at RX's line rate, and frees TX once the
    latency and the rate-capped transfer are over; the message then goes
    into the receiver's inbox.  Each stage is a plain bound method and
    runs in exactly the event slot where a per-message generator process
    would have resumed (pinned by the goldens in tests/golden/).

    Every stage writes its own schedule entry, the way ``Event.succeed``
    and ``Mailbox.put`` do, in the slot ``call_soon`` or ``call_later``
    would have used: the kick-off goes onto the URGENT lane, the
    :class:`Link` grants onto the NORMAL lane, and the RX hold and the
    rest of the transfer onto the heap (a zero-length hold onto the
    NORMAL lane).  Sizes, rates and latencies are checked where they
    enter (:class:`Message`, :class:`Link`, :class:`Fabric`), so no delay
    here is negative or non-finite.

    ``done`` is the completion event handed back to ``Fabric.send``
    callers; ``Fabric.send_nowait`` passes ``None`` and skips the final
    completion event entirely (fire-and-forget sends are the common
    case on the request path).
    """

    __slots__ = (
        "fabric",
        "sender",
        "receiver",
        "message",
        "done",
        "span",
        "rx_hold",
        "remaining",
    )

    def __init__(
        self,
        fabric: "Fabric",
        src: str,
        dst: str,
        payload: Any,
        size_bytes: Optional[int],
        done: Optional[Event],
    ) -> None:
        endpoints = fabric._endpoints
        try:
            self.sender = endpoints[src]
            self.receiver = endpoints[dst]
        except KeyError as missing:
            raise KeyError(f"unknown endpoint: {missing.args[0]!r}") from None
        if src == dst:
            raise ValueError(f"endpoint {src!r} cannot send to itself")
        self.message = (
            Message(src, dst, payload)
            if size_bytes is None
            else Message(src, dst, payload, size_bytes)
        )
        self.fabric = fabric
        self.done = done
        # Kicked off URGENT at the current time -- the same schedule slot
        # a Process kick-off event would occupy.
        sim = fabric.sim
        sim._lanes[URGENT].append((sim._seq, self._start, None))
        sim._seq += 1

    def _start(self, _value: Any) -> None:
        fabric = self.fabric
        message = self.message
        sender = self.sender
        receiver = self.receiver
        tracer = fabric.sim.tracer
        self.span = None
        if tracer is not None:
            request_id = getattr(message.payload, "request_id", None)
            self.span = tracer.begin(
                "net.transfer",
                f"net:{sender.name}",
                parent=(
                    None if request_id is None else tracer.request_span(request_id)
                ),
                src=message.src,
                dst=message.dst,
                bytes=message.size_bytes,
                payload=type(message.payload).__name__,
            )
        rate = min(sender.tx.bandwidth_bps, receiver.rx.bandwidth_bps)
        duration = fabric.latency_s + message.size_bytes / rate
        # The sender's TX is busy for the whole (possibly rate-capped)
        # transfer; the receiver's RX is only occupied for the time the
        # bytes take at *its* line rate -- a fast receiver ingesting from a
        # slow sender interleaves other flows meanwhile, as real switched
        # Ethernet does.
        self.rx_hold = message.size_bytes / receiver.rx.bandwidth_bps
        self.remaining = duration - self.rx_hold
        sender.tx.acquire(self._tx_granted)

    def _tx_granted(self, _value: Any) -> None:
        self.receiver.rx.acquire(self._rx_granted)

    def _rx_granted(self, _value: Any) -> None:
        sim = self.fabric.sim
        hold = self.rx_hold
        if hold == 0.0:
            sim._lanes[NORMAL].append((sim._seq, self._rx_done, None))
        else:
            heappush(sim._heap, (sim.now + hold, NORMAL, sim._seq, self._rx_done, None))
        sim._seq += 1

    def _rx_done(self, _value: Any) -> None:
        self.receiver.rx.release()
        remaining = self.remaining
        if remaining > 0:
            sim = self.fabric.sim
            heappush(
                sim._heap, (sim.now + remaining, NORMAL, sim._seq, self._tx_done, None)
            )
            sim._seq += 1
        else:
            self._tx_done(None)

    def _tx_done(self, _value: Any) -> None:
        fabric = self.fabric
        message = self.message
        fabric.messages_sent += 1
        fabric.bytes_sent += message.size_bytes
        self.sender.tx.release()
        tracer = fabric.sim.tracer
        if fabric._partitioned and (
            message.src in fabric._partitioned or message.dst in fabric._partitioned
        ):
            # Partition check happens at delivery time so a cut that
            # lands mid-flight still eats the message.
            fabric.messages_dropped += 1
            if self.span is not None and tracer is not None:
                tracer.end(self.span, dropped=True)
            if self.done is not None:
                self.done.succeed(None)
            return
        if self.span is not None and tracer is not None:
            tracer.end(self.span)
        self.receiver.inbox.put(message, hold_slot if self.done is None else self._delivered)

    def _delivered(self, message: Message) -> None:
        assert self.done is not None
        self.done.succeed(message)


class Endpoint:
    """A named host on the fabric with a full-duplex NIC and an inbox."""

    def __init__(self, sim: Simulator, name: str, bandwidth_bps: float) -> None:
        self.sim = sim
        self.name = name
        self.tx = Link(sim, bandwidth_bps, name=f"{name}:tx")
        self.rx = Link(sim, bandwidth_bps, name=f"{name}:rx")
        #: Inbound :class:`Message` objects, FIFO, for the one handler
        #: that takes them.
        self.inbox = Mailbox(sim)

    @property
    def bandwidth_bps(self) -> float:
        """NIC line rate."""
        return self.tx.bandwidth_bps

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Endpoint {self.name} {self.bandwidth_bps:.3g} B/s>"


class Fabric:
    """A set of endpoints and the send primitive connecting them.

    Each delivery runs as a flat :class:`_Delivery` continuation.
    """

    def __init__(
        self,
        sim: Simulator,
        latency_s: float = DEFAULT_LATENCY_S,
        connect_s: float = DEFAULT_CONNECT_S,
    ) -> None:
        if not (0 <= latency_s < inf and 0 <= connect_s < inf):  # also rejects NaN
            raise ValueError(
                f"latencies must be finite and >= 0, got {latency_s!r} and {connect_s!r}"
            )
        self.sim = sim
        self.latency_s = float(latency_s)
        self.connect_s = float(connect_s)
        self._endpoints: Dict[str, Endpoint] = {}
        #: Endpoints currently cut off by a network partition fault: any
        #: message to or from one of these is dropped at delivery time
        #: (the bytes still burn link time -- the network does not know a
        #: frame is doomed until it fails to arrive).
        self._partitioned: Set[str] = set()
        self.messages_sent = 0
        self.bytes_sent = 0
        self.messages_dropped = 0

    # -- topology ---------------------------------------------------------------

    def add_endpoint(self, name: str, bandwidth_bps: float) -> Endpoint:
        """Attach a host; names must be unique."""
        if name in self._endpoints:
            raise ValueError(f"duplicate endpoint name: {name!r}")
        endpoint = Endpoint(self.sim, name, bandwidth_bps)
        self._endpoints[name] = endpoint
        return endpoint

    def endpoint(self, name: str) -> Endpoint:
        """Look up an endpoint by name."""
        try:
            return self._endpoints[name]
        except KeyError:
            raise KeyError(f"unknown endpoint: {name!r}") from None

    def endpoints(self) -> list[str]:
        """All endpoint names, sorted."""
        return sorted(self._endpoints)

    def set_partitioned(self, name: str, isolated: bool) -> None:
        """Cut *name* off from (or rejoin it to) the switching fabric."""
        self.endpoint(name)  # fail fast on typos
        if isolated:
            self._partitioned.add(name)
        else:
            self._partitioned.discard(name)

    # -- data plane ---------------------------------------------------------------

    def send(
        self,
        src: str,
        dst: str,
        payload: Any,
        size_bytes: Optional[int] = None,
    ) -> Event:
        """Transfer *payload* from *src* to *dst*.

        Returns an event that succeeds (with the :class:`Message`) once the
        message has been appended to the destination inbox.
        """
        done = Event(self.sim)
        _Delivery(self, src, dst, payload, size_bytes, done)
        return done

    def send_nowait(
        self,
        src: str,
        dst: str,
        payload: Any,
        size_bytes: Optional[int] = None,
    ) -> None:
        """Fire-and-forget :meth:`send`: no completion event is created.

        Most protocol sends never wait on delivery (the reply arriving in
        the inbox *is* the acknowledgement), so skipping the completion
        event avoids one Event allocation plus one scheduled slot per
        message.  Dropping an event from the schedule only renumbers the
        sequence counter -- relative order of all surviving events is
        unchanged, so metrics are identical to ``send`` with the result
        ignored.
        """
        _Delivery(self, src, dst, payload, size_bytes, None)

    def connect(self, src: str, dst: str, then: Callable[[Any], None]) -> None:
        """Pay one connection-setup round trip (TCP handshake), then ``then``."""
        self.endpoint(src)
        self.endpoint(dst)
        self.sim.call_later(self.connect_s, then)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Fabric endpoints={len(self._endpoints)} sent={self.messages_sent}>"
