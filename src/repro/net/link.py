"""Point-to-point links (NICs).

A :class:`Link` serialises transmissions: one frame at a time at the link
bandwidth; the fabric adds a fixed propagation/stack latency per
transfer.  A connection-setup cost approximates the TCP handshakes the
prototype's storage server performs when contacting storage nodes
(Fig. 2, step 1).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque

from repro.sim.engine import Simulator

#: Table I NIC rates, in *bytes* per second (the table quotes megabits).
GIGABIT_ETHERNET_BPS = 1000e6 / 8
FAST_ETHERNET_BPS = 100e6 / 8

#: Per-transfer fixed latency: switch + kernel network stack, one way.
DEFAULT_LATENCY_S = 200e-6

#: One TCP connect round trip on a quiet LAN.
DEFAULT_CONNECT_S = 500e-6


class Link:
    """A FIFO one-frame wire at a fixed line rate.

    One frame holds the wire at a time.  :meth:`acquire` grants it to a
    callback and :meth:`release` passes it to the next waiter in arrival
    order.  Each grant is a :meth:`Simulator.call_soon` continuation, so
    a grant costs no event object; the fabric's deliveries
    (:class:`repro.net.fabric.Fabric`) are its only users.
    """

    __slots__ = ("sim", "name", "bandwidth_bps", "_busy", "_waiting")

    def __init__(self, sim: Simulator, bandwidth_bps: float, name: str = "link") -> None:
        if bandwidth_bps <= 0:
            raise ValueError(f"bandwidth must be > 0, got {bandwidth_bps!r}")
        self.sim = sim
        self.name = name
        self.bandwidth_bps = float(bandwidth_bps)
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

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Link {self.name} {self.bandwidth_bps:.3g} B/s>"
