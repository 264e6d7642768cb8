"""The trace-replaying client (Fig. 2 steps 5-6).

The client issues requests *open loop* at the trace's timestamps -- it
never waits for one response before sending the next, which is what lets
queues build at the server/nodes under heavy load (the 50 MB / 700 ms
saturation the paper observes in §VI-A).  Response time is measured from
issue to full data delivery at the client.

Failure handling (robustness extension): a :class:`RequestFailed` reply
or a per-attempt timeout no longer ends the request.  The client re-sends
it -- against whatever endpoint its router now suggests -- after a capped
exponential backoff with seeded jitter, up to ``max_retries`` times.
Only exhausted retries settle the request as a *failure* (recorded
unavailability); nothing in the retry path ever raises.  Response time
for a retried request runs from the ORIGINAL issue to final delivery, so
retries show up as latency, exactly as a real client would experience.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Set, Tuple

import numpy as np

from repro.core.config import EEVFSConfig
from repro.core.protocol import (
    FileData,
    FileRequest,
    next_request_id,
    RequestFailed,
    WriteAck,
)
from repro.net.fabric import Fabric
from repro.net.message import Message
from repro.sim.engine import Simulator
from repro.sim.events import Event, URGENT
from repro.sim.monitor import TallyStat
from repro.traces.model import OPS, RequestOp, Trace

#: Rejection reason a non-leader metadata server sends; the only failure
#: that is a *routing* problem (follow the hint / rotate) rather than a
#: data-plane one (retry the same place and hope the fault healed).
NOT_LEADER = "not leader"


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retry with capped exponential backoff and seeded jitter.

    ``max_retries`` counts *re*-sends: a request is attempted at most
    ``1 + max_retries`` times.  ``timeout_s`` is the per-attempt response
    deadline (None disables timeout watchers entirely -- no extra events
    in fault-free runs).  The n-th retry waits
    ``min(cap, base * 2**(n-1))`` scaled by a jitter factor drawn from
    the client's dedicated RNG stream (``jitter`` is a fraction of the
    delay; :meth:`from_config` keeps the default).
    """

    max_retries: int = 2
    timeout_s: Optional[float] = None
    backoff_base_s: float = 0.1
    backoff_cap_s: float = 2.0
    jitter: float = 0.1

    @classmethod
    def from_config(cls, config: EEVFSConfig) -> "RetryPolicy":
        return cls(
            max_retries=config.request_max_retries,
            timeout_s=config.request_timeout_s,
            backoff_base_s=config.request_backoff_base_s,
            backoff_cap_s=config.request_backoff_cap_s,
        )


class StaticRouter:
    """Route every request to the one storage server (the paper's layout)."""

    def __init__(self, server_name: str) -> None:
        self.server_name = server_name

    def route(self, file_id: int) -> str:
        return self.server_name

    def note_failure(self, file_id: int, hint: Optional[str] = None) -> None:
        """Nothing to learn: there is only one place to send requests."""


class ClientDriver:
    """Replays a trace against the storage server and collects timings."""

    def __init__(
        self,
        sim: Simulator,
        fabric: Fabric,
        nic_bps: float,
        name: str = "client",
        server_name: str = "server",
        max_outstanding: int = 2,
        retry: Optional[RetryPolicy] = None,
        router: Optional[object] = None,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        if max_outstanding < 1:
            raise ValueError(f"max_outstanding must be >= 1, got {max_outstanding!r}")
        self.max_outstanding = max_outstanding
        self.sim = sim
        self.fabric = fabric
        self.name = name
        self.server_name = server_name
        self.retry = retry if retry is not None else RetryPolicy()
        #: Where to send each request; pluggable so the metadata plane's
        #: ShardRouter can replace the single-server default.
        self.router = router if router is not None else StaticRouter(server_name)
        #: Jitter source for retry backoff (None = deterministic backoff).
        self.rng = rng
        self.endpoint = fabric.add_endpoint(name, nic_bps)
        self.response_times = TallyStat(name=f"{name}:response_s", keep_samples=True)
        #: Response-time decomposition over FileData replies: time on the
        #: disk, the rest of the node's handling, and everything outside
        #: the node (client->server->node control path + data transfer).
        self.latency_components = {
            "disk_s": TallyStat(name="disk_s"),
            "node_other_s": TallyStat(name="node_other_s"),
            "network_server_s": TallyStat(name="network_server_s"),
        }
        # Per-request state lives only while the request is in flight:
        # settling (success OR terminal failure) drops its entries, so a
        # request is *settled* exactly when it was issued and is no longer
        # pending -- which is how a late reply from a superseded attempt
        # is recognised.
        #: request_id -> ORIGINAL issue time of requests awaiting settlement
        #: (retries do not reset it: response time is end to end).
        self._pending: Dict[int, float] = {}
        #: request_id -> (file_id, op), kept for re-sends.
        self._requests: Dict[int, Tuple[int, RequestOp]] = {}
        #: request_id -> attempts sent so far (1 = the initial send).
        self._attempts: Dict[int, int] = {}
        #: Every request id this client issued, ascending (ids only grow):
        #: tells a late reply from one for a request never issued here.
        self._issued: array[int] = array("q")
        #: Requests with a backoff sleep in flight (suppresses duplicate
        #: failure signals from racing timeout watchers / late replies).
        self._retry_scheduled: Set[int] = set()
        #: request_id -> called once when the request settles (paced and
        #: closed-loop replay only).
        self._waiters: Dict[int, Callable[[], Any]] = {}
        self._replay_finished = False
        self._drained = sim.event()
        #: (request_id, file_id, reason) per terminally failed request.
        self.failures: list[tuple[int, int, str]] = []
        # -- retry-path counters (ride onto RunResult) ------------------------
        self.requests_retried = 0
        self.request_timeouts = 0
        self.requests_abandoned = 0
        self.duplicate_replies = 0
        # Kicked off URGENT now: the slot a main-loop process would
        # start in.
        self.sim.call_soon(self._await_message, priority=URGENT)

    # -- public API --------------------------------------------------------------------

    def replay(
        self, trace: Trace, epoch_s: float = 0.0, mode: str = "open"
    ) -> Event:
        """Start replaying *trace* offset to begin at *epoch_s*.

        Three replay disciplines:

        * ``"open"`` -- issue at the trace timestamps regardless of
          completions; queues may grow without bound.
        * ``"paced"`` (the canonical mode) -- a small-thread-pool replayer
          (``max_outstanding`` workers): issue at the trace timestamp but
          never exceed the window.  Under light load this equals open-loop
          pacing; under overload the schedule drifts and the run outlasts
          the trace, which is the §VI-A observation that the 50 MB test
          "runs longer than the original trace time causing the overall
          energy output to increase".
        * ``"closed"`` -- issue, block for the response, sleep the trace's
          inter-arrival gap, repeat (timestamps ignored, gaps honoured).

        Returns an event that succeeds, with :attr:`response_times`, once
        every response has arrived.
        """
        if epoch_s < self.sim.now:
            raise ValueError(
                f"epoch {epoch_s!r} is in the past (now={self.sim.now!r})"
            )
        if mode == "open":
            return _Replay(self, trace, epoch_s).done
        if mode == "paced":
            return _PacedReplay(self, trace, epoch_s).done
        if mode == "closed":
            return _ClosedReplay(self, trace, epoch_s).done
        raise ValueError(f"unknown replay mode: {mode!r}")

    @property
    def outstanding(self) -> int:
        """Requests issued but not yet settled."""
        return len(self._pending)

    # -- internals -------------------------------------------------------------------------

    # -- issue / retry machinery --------------------------------------------------------

    def _issue(self, request_id: int, file_id: int, op: RequestOp) -> None:
        """First send of a request: record it, route it, arm its watcher."""
        self._pending[request_id] = self.sim.now
        self._requests[request_id] = (file_id, op)
        self._attempts[request_id] = 1
        self._issued.append(request_id)
        self._trace_issue(request_id, file_id, op)
        self._send_attempt(request_id)

    def _send_attempt(self, request_id: int) -> None:
        file_id, op = self._requests[request_id]
        self.fabric.send_nowait(
            self.name,
            self.router.route(file_id),
            # (request_id, file_id, op, client, issued_at), positional:
            # keywords would cost a dict per request.
            FileRequest(request_id, file_id, op, self.name, self.sim.now),
        )
        if self.retry.timeout_s is not None:
            # Two-step continuation mirroring the schedule slots the old
            # watcher Process used: the URGENT kick-off fires now, and the
            # deadline timer is allocated *inside* it so its sequence
            # number (hence its ordering against other events landing at
            # the same future timestamp) is unchanged.
            attempt = self._attempts[request_id]
            self.sim.call_soon(
                lambda _v: self.sim.call_later(
                    self.retry.timeout_s,
                    lambda _w: self._watch_expired(request_id, attempt),
                ),
                priority=URGENT,
            )

    def _watch_expired(self, request_id: int, attempt: int) -> None:
        """Per-attempt deadline: a silent loss (crashed or partitioned
        server eating the message) becomes a retryable failure."""
        if request_id not in self._pending:
            return  # settled
        if self._attempts.get(request_id) != attempt:
            return  # a newer attempt superseded the one we watched
        if request_id in self._retry_scheduled:
            return  # a reply-borne failure already triggered the retry
        self.request_timeouts += 1
        # No reply at all: whoever we sent to may be gone -- rotate.
        self.router.note_failure(self._requests[request_id][0], None)
        self._failure_signal(request_id, "timeout")

    def _failure_signal(self, request_id: int, reason: str) -> None:
        """A failed attempt: schedule a retry or settle as unavailability."""
        if request_id not in self._pending or request_id in self._retry_scheduled:
            return
        attempts = self._attempts[request_id]
        if attempts <= self.retry.max_retries:
            self.requests_retried += 1
            self._retry_scheduled.add(request_id)
            # Same two-step slot pattern as the timeout watcher (see
            # _send_attempt): kick off URGENT, allocate the backoff timer
            # inside the kick-off so its sequence number matches the old
            # Process path exactly.
            delay = self._backoff_delay(attempts)
            self.sim.call_soon(
                lambda _v: self.sim.call_later(
                    delay, lambda _w: self._retry_fire(request_id)
                ),
                priority=URGENT,
            )
        else:
            self.requests_abandoned += 1
            self._settle_failure(
                request_id, f"{reason} (abandoned after {attempts} attempts)"
            )

    def _backoff_delay(self, attempts: int) -> float:
        delay = min(
            self.retry.backoff_cap_s,
            self.retry.backoff_base_s * 2 ** (attempts - 1),
        )
        if self.rng is not None and self.retry.jitter > 0 and delay > 0:
            # Drawn only on actual retries: fault-free runs consume
            # nothing from the stream.
            delay *= 1.0 + self.retry.jitter * (2.0 * float(self.rng.random()) - 1.0)
        return delay

    def _retry_fire(self, request_id: int) -> None:
        self._retry_scheduled.discard(request_id)
        if request_id not in self._pending:
            return  # a slow earlier attempt answered during the backoff
        self._attempts[request_id] += 1
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.instant(
                "client.retry",
                self.name,
                parent=tracer.request_span(request_id),
                attempt=self._attempts[request_id],
            )
        self._send_attempt(request_id)

    def _settle_failure(self, request_id: int, reason: str) -> None:
        del self._pending[request_id]
        del self._attempts[request_id]
        file_id = self._requests.pop(request_id)[0]
        self.failures.append((request_id, file_id, reason))
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.end_request(request_id, ok=False, reason=reason)
        waiter = self._waiters.pop(request_id, None)
        if waiter is not None:
            waiter()
        if self._replay_finished and not self._pending:
            self._drained.succeed()

    def _trace_issue(self, request_id: int, file_id: int, op: RequestOp) -> None:
        """Open the root ``request`` span when observability is attached."""
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.begin_request(request_id, self.name, file_id=file_id, op=op.name)

    # -- the response plane ----------------------------------------------------------------

    def _await_message(self, _value: Any = None) -> None:
        """Kick-off: park :meth:`_on_message` on the inbox."""
        self.endpoint.inbox.take(self._on_message)

    def _on_message(self, message: Message) -> None:
        payload = message.payload
        if isinstance(payload, (FileData, WriteAck)):
            request_id = payload.request_id
            issued = self._pending.pop(request_id, None)
            if issued is None:
                at = bisect_left(self._issued, request_id)
                if at == len(self._issued) or self._issued[at] != request_id:
                    raise KeyError(f"response for unknown request {payload!r}")
                # A superseded attempt answering after the request
                # already settled (e.g. a timed-out server came back).
                self.duplicate_replies += 1
            else:
                del self._requests[request_id]
                del self._attempts[request_id]
                elapsed = self.sim.now - issued
                self.response_times.record(elapsed)
                if isinstance(payload, FileData):
                    self.latency_components["disk_s"].record(payload.disk_time_s)
                    self.latency_components["node_other_s"].record(
                        max(0.0, payload.node_time_s - payload.disk_time_s)
                    )
                    self.latency_components["network_server_s"].record(
                        max(0.0, elapsed - payload.node_time_s)
                    )
                tracer = self.sim.tracer
                if tracer is not None:
                    tracer.end_request(request_id, ok=True, served_by=payload.served_by)
                waiter = self._waiters.pop(request_id, None)
                if waiter is not None:
                    waiter()
                if self._replay_finished and not self._pending:
                    self._drained.succeed()
        elif isinstance(payload, RequestFailed):
            if payload.request_id not in self._pending:
                self.duplicate_replies += 1
            else:
                if payload.reason == NOT_LEADER:
                    # Routing problem: learn where leadership went.
                    self.router.note_failure(payload.file_id, payload.hint)
                self._failure_signal(payload.request_id, payload.reason)
        else:  # pragma: no cover - defensive
            raise TypeError(f"client cannot handle {payload!r}")
        self.endpoint.inbox.take(self._on_message)


class _Replay:
    """A replayer (:meth:`ClientDriver.replay`) as flat callbacks; this
    one is ``"open"``: it issues at the trace timestamps, whatever is
    outstanding.

    Every step runs in the slot the generator replayer used: kick-off
    URGENT, ``call_later`` where it slept, a ``call_soon`` where a
    settled request's waiter event or a pacing slot's grant fired.
    :attr:`done` succeeds, with the client's response-time tally, where
    the replayer's process completed: once every response has arrived.
    """

    __slots__ = ("client", "trace", "epoch_s", "next", "done")

    def __init__(self, client: ClientDriver, trace: Trace, epoch_s: float) -> None:
        self.client = client
        self.trace = trace
        self.epoch_s = epoch_s
        #: Index of the next request to issue.
        self.next = 0
        self.done = client.sim.event()
        client.sim.call_soon(self._pace, priority=URGENT)

    def _pace(self, _value: Any = None) -> None:
        """Issue every due request; sleep until the next is due."""
        sim = self.client.sim
        times = self.trace.times
        while self.next < len(times):
            target = self.epoch_s + times[self.next]
            if target > sim.now:
                sim.call_later(target - sim.now, self._wake)
                return
            self._send(None)
        self._drain()

    def _wake(self, _value: Any) -> None:
        self._send(None)
        self._pace()

    def _send(self, waiter: Optional[Callable[[], None]]) -> None:
        """Issue the next request; *waiter* runs when it settles."""
        trace = self.trace
        index = self.next
        self.next += 1
        request_id = next_request_id()
        client = self.client
        if waiter is not None:
            client._waiters[request_id] = waiter
        client._issue(request_id, trace.file_ids[index], OPS[trace.writes[index]])

    def _drain(self) -> None:
        """Every request is issued: finish once none is outstanding."""
        client = self.client
        client._replay_finished = True
        if client._pending:
            drained = client._drained
            assert drained.callbacks is not None
            drained.callbacks.append(self._finish)
        else:
            self._finish()

    def _finish(self, _value: Any = None) -> None:
        self.done.succeed(self.client.response_times)


class _ClosedReplay(_Replay):
    """``"closed"``: issue, wait for the response, sleep the trace's
    inter-arrival gap, repeat."""

    __slots__ = ()

    def _pace(self, _value: Any = None) -> None:
        """Kick-off: sleep until the epoch, then issue the first request."""
        sim = self.client.sim
        if self.epoch_s > sim.now:
            sim.call_later(self.epoch_s - sim.now, self._next)
        else:
            self._next()

    def _next(self, _value: Any = None) -> None:
        """Issue the next request, or finish after the last response."""
        if self.next < len(self.trace.times):
            self._send(self._on_settled)
        else:
            self.client._replay_finished = True
            self._finish()

    def _on_settled(self) -> None:
        self.client.sim.call_soon(self._settled)

    def _settled(self, _value: Any) -> None:
        """A response arrived: sleep the gap to the next request."""
        times = self.trace.times
        index = self.next
        if index < len(times):
            gap = times[index] - times[index - 1]
            if gap > 0:
                self.client.sim.call_later(gap, self._next)
                return
        self._next()


class _PacedReplay(_Replay):
    """``"paced"``: each request waits for its trace timestamp, then for
    one of the client's ``max_outstanding`` pacing slots, and is issued
    when the slot is granted; its settlement frees the slot.

    A free-slot count stands in for a slot resource: the replayer is the
    slots' only claimant, so at most one claim ever waits.
    """

    __slots__ = ("free", "claiming")

    def __init__(self, client: ClientDriver, trace: Trace, epoch_s: float) -> None:
        self.free = client.max_outstanding
        #: The next request holds a claim that waits for a free slot.
        self.claiming = False
        super().__init__(client, trace, epoch_s)

    def _pace(self, _value: Any = None) -> None:
        """Wait for the next request's timestamp, or finish."""
        sim = self.client.sim
        times = self.trace.times
        if self.next < len(times):
            target = self.epoch_s + times[self.next]
            if target > sim.now:
                sim.call_later(target - sim.now, self._claim)
            else:
                self._claim()
            return
        self._drain()

    def _claim(self, _value: Any = None) -> None:
        """Claim a pacing slot for the next request."""
        if self.free:
            self.free -= 1
            self.client.sim.call_soon(self._issue)
        else:
            self.claiming = True

    def _issue(self, _value: Any) -> None:
        """The slot is granted: issue the request and pace the next one."""
        trace = self.trace
        index = self.next
        self.next += 1
        request_id = next_request_id()
        client = self.client
        client._waiters[request_id] = self._on_settled
        client._issue(request_id, trace.file_ids[index], OPS[trace.writes[index]])
        self._pace()

    def _on_settled(self) -> None:
        self.client.sim.call_soon(self._release)

    def _release(self, _value: Any) -> None:
        """A settled request frees its slot; a waiting claim takes it."""
        if self.claiming:
            self.claiming = False
            self.client.sim.call_soon(self._issue)
        else:
            self.free += 1
