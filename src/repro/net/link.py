"""Point-to-point links (NICs).

A :class:`Link` serialises transmissions: one frame at a time at the link
bandwidth, plus a fixed propagation/stack latency per transfer.  A
connection-setup cost approximates the TCP handshakes the prototype's
storage server performs when contacting storage nodes (Fig. 2, step 1).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Optional

from repro.sim.engine import Simulator
from repro.sim.events import Event
from repro.sim.monitor import TallyStat

#: Table I NIC rates, in *bytes* per second (the table quotes megabits).
GIGABIT_ETHERNET_BPS = 1000e6 / 8
FAST_ETHERNET_BPS = 100e6 / 8

#: Per-transfer fixed latency: switch + kernel network stack, one way.
DEFAULT_LATENCY_S = 200e-6

#: One TCP connect round trip on a quiet LAN.
DEFAULT_CONNECT_S = 500e-6


class Link:
    """A FIFO one-frame wire with fixed per-transfer latency.

    One frame holds the wire at a time.  :meth:`acquire` grants it to a
    callback and :meth:`release` passes it to the next waiter in arrival
    order.  Each grant is a :meth:`Simulator.call_soon` continuation,
    scheduled in the slot where a capacity-1 ``Resource`` would have
    succeeded its ``Request``, so a grant costs no event object.
    """

    __slots__ = (
        "sim",
        "name",
        "bandwidth_bps",
        "latency_s",
        "bytes_sent",
        "transfers",
        "_busy",
        "_waiting",
    )

    def __init__(
        self,
        sim: Simulator,
        bandwidth_bps: float,
        latency_s: float = DEFAULT_LATENCY_S,
        name: str = "link",
    ) -> None:
        if bandwidth_bps <= 0:
            raise ValueError(f"bandwidth must be > 0, got {bandwidth_bps!r}")
        if latency_s < 0:
            raise ValueError(f"latency must be >= 0, got {latency_s!r}")
        self.sim = sim
        self.name = name
        self.bandwidth_bps = float(bandwidth_bps)
        self.latency_s = float(latency_s)
        self.bytes_sent = 0
        self.transfers = TallyStat(name=f"{name}:transfer_s")
        self._busy = False
        self._waiting: Deque[Callable[[Any], None]] = deque()

    def acquire(self, fn: Callable[[Any], None]) -> None:
        """Call ``fn(None)`` once the wire is this caller's (FIFO)."""
        if self._busy:
            self._waiting.append(fn)
        else:
            self._busy = True
            self.sim.call_soon(fn)

    def release(self) -> None:
        """Free the wire, granting it to the longest waiter if any."""
        if self._waiting:
            self.sim.call_soon(self._waiting.popleft())
        else:
            self._busy = False

    def transmission_time(self, size_bytes: float) -> float:
        """Pure wire time for *size_bytes* (no queueing)."""
        if size_bytes < 0:
            raise ValueError(f"negative transfer size: {size_bytes!r}")
        return self.latency_s + size_bytes / self.bandwidth_bps

    def transfer(self, size_bytes: int, rate_cap_bps: Optional[float] = None) -> Event:
        """Occupy the link for one transfer; returns a completion event.

        ``rate_cap_bps`` lowers the effective rate (used by the fabric when
        the far end's NIC is slower than this link).
        """
        if size_bytes < 0:
            raise ValueError(f"negative transfer size: {size_bytes!r}")
        rate = self.bandwidth_bps
        if rate_cap_bps is not None:
            if rate_cap_bps <= 0:
                raise ValueError(f"rate cap must be > 0, got {rate_cap_bps!r}")
            rate = min(rate, rate_cap_bps)
        duration = self.latency_s + size_bytes / rate
        done = self.sim.event()
        sim = self.sim

        def granted(_value: Any) -> None:
            sim.call_later(duration, finished, sim.now)

        def finished(start: float) -> None:
            self.bytes_sent += size_bytes
            self.transfers.record(sim.now - start)
            self.release()
            done.succeed()

        self.acquire(granted)
        return done

    @property
    def queue_length(self) -> int:
        """Transfers waiting for the wire (diagnostic)."""
        return len(self._waiting)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Link {self.name} {self.bandwidth_bps:.3g} B/s>"
