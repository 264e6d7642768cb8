"""One metadata-server replica: election, log replication, routing.

A :class:`MetadataServer` is a member of one shard's replica group.  It
owns a fabric endpoint (``meta-s<shard>-r<replica>``), a full copy of the
shard's :class:`~repro.core.metadata.ServerMetadata` state machine, and a
Raft-lite consensus role:

* **follower** -- resets its election timer on every heartbeat; when the
  timer fires (the leader went quiet), it stands for election.
* **candidate** -- solicits votes for an incremented term; a majority
  makes it leader, a newer term or a valid heartbeat demotes it.
* **leader** -- sends heartbeats (empty AppendEntries) every
  :data:`HEARTBEAT_INTERVAL_S`, replicates placement updates through the
  log, commits them on majority match, and serves the request plane:
  lookups are answered from its local state machine exactly the way the
  monolithic :class:`~repro.core.server.StorageServer` answers them
  (per-request CPU overhead serialised in the main loop, so sharding
  genuinely divides the §III-A server bottleneck).

Election timeouts are drawn from the replica's own named RNG stream
(``meta:<name>``) over ``[ELECTION_TIMEOUT_MIN_S, ELECTION_TIMEOUT_MAX_S]``,
so they are randomized *and* seeded: two same-seed runs elect the same
leaders at the same simulated times.  They are drawn
:data:`ELECTION_TIMEOUT_BLOCK` at a time; a block holds the doubles that
many scalar draws would give, in the same order.

The election timer and the leader's heartbeat round are flat callbacks
that keep the schedule slots of the generator loops they replaced (see
"Schedule-isomorphic dispatch" in docs/performance.md).  A heartbeat in
steady state repeats the last one, so the leader's ``AppendEntries`` and
a follower's ``AppendReply`` are built once per change and resent while
unchanged; both are frozen, so sharing one between sends is safe.

A crash (``crash()``) silences the replica -- inbound messages drain to
nowhere, no timers act -- but preserves term, vote and log, mirroring a
process restart with persistent Raft state: an outage is not data loss.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Set, Tuple, TYPE_CHECKING

import numpy as np

from repro.core.config import SERVER_OVERHEAD_S
from repro.core.metadata import ServerMetadata
from repro.core.protocol import FileRequest, ForwardedRequest, RequestFailed
from repro.metaplane.messages import (
    AppendEntries,
    AppendReply,
    LogEntry,
    OP_ADD_REPLICA,
    VoteRequest,
    VoteReply,
)
from repro.net.fabric import Fabric
from repro.net.message import Message
from repro.sim.engine import hold_slot, Simulator
from repro.sim.events import URGENT
from repro.traces.model import RequestOp

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.metaplane.plane import MetaPlane
    from repro.obs.tracer import Span

FOLLOWER = "follower"
CANDIDATE = "candidate"
LEADER = "leader"

#: Leader heartbeat period of the shard consensus protocol.
HEARTBEAT_INTERVAL_S = 0.5
#: Election timeout range, drawn per replica from its seeded stream.  The
#: minimum comfortably exceeds the heartbeat interval, or healthy
#: followers would depose live leaders.
ELECTION_TIMEOUT_MIN_S = 1.5
ELECTION_TIMEOUT_MAX_S = 3.0
#: Election timeouts drawn per RNG call.  Small, since each replica holds
#: one part-used block.
ELECTION_TIMEOUT_BLOCK = 32


class MetadataServer:
    """One replica of one metadata shard."""

    def __init__(
        self,
        sim: Simulator,
        fabric: Fabric,
        plane: "MetaPlane",
        shard: int,
        replica_index: int,
        group: Tuple[str, ...],
        rng: np.random.Generator,
        nic_bps: float,
    ) -> None:
        self.sim = sim
        self.fabric = fabric
        self.plane = plane
        self.shard = shard
        self.replica_index = replica_index
        self.name = group[replica_index]
        self.group = group
        self.peers: Tuple[str, ...] = tuple(
            name for name in group if name != self.name
        )
        self.rng = rng
        self.endpoint = fabric.add_endpoint(self.name, nic_bps)
        #: This replica's copy of the shard's state machine.
        self.state = ServerMetadata()
        self.alive = True

        # -- Raft persistent state (survives crash()/repair()) ---------------
        self.term = 0
        self.voted_for: Optional[str] = None
        self.log: List[LogEntry] = []

        # -- Raft volatile state ----------------------------------------------
        self.role = FOLLOWER
        self.commit_index = -1
        self.last_applied = -1
        self.next_index: Dict[str, int] = {}
        self.match_index: Dict[str, int] = {}
        self._votes: Set[str] = set()
        #: Where this replica last saw leadership (returned to clients as a
        #: routing hint on not-leader rejections).
        self.leader_hint: Optional[str] = None
        #: Drawn election timeouts not yet used, last one first.
        self._timeouts: List[float] = []
        self._election_deadline = 0.0
        self._reset_election_deadline()
        #: The last heartbeat payload sent (leader) or reply sent
        #: (follower), with the key that fixes its every field.
        self._append: Optional[AppendEntries] = None
        self._append_key: Optional[Tuple[int, int, int, int]] = None
        self._reply: Optional[AppendReply] = None
        self._reply_key: Optional[Tuple[int, bool, int]] = None
        #: Open ``server.lookup`` span of the request being routed.
        self._lookup: Optional[Span] = None
        # Both kicked off URGENT now: the slots a main-loop process and
        # an election-loop process would start in.
        self.sim.call_soon(self._await_message, priority=URGENT)
        self.sim.call_soon(self._election_tick, priority=URGENT)

    @property
    def _majority(self) -> int:
        return len(self.group) // 2 + 1

    def is_leader(self) -> bool:
        return self.alive and self.role == LEADER

    # -- bootstrap -----------------------------------------------------------------

    def load_snapshot(
        self,
        entries: List[Tuple[int, str, int, Tuple[str, ...]]],
        down_nodes: List[str],
    ) -> None:
        """Install the setup-time metadata for this shard's files.

        Called once by the plane after cluster setup, before replay: every
        replica receives the identical snapshot directly (the initial
        placement is setup output, not runtime consensus traffic).
        """
        for file_id, node, size_bytes, replicas in entries:
            self.state.register(file_id, node, size_bytes)
            for holder in replicas:
                self.state.add_replica(file_id, holder)
        for node in down_nodes:
            self.state.mark_node_down(node)

    # -- fault hooks (driven by FaultInjector via the plane) -------------------------

    def crash(self) -> None:
        """Kill the replica: it stops speaking and hearing until repaired."""
        if not self.alive:
            return
        self.alive = False
        if self.role == LEADER:
            self.plane.note_leader_lost(self.shard, self.name, self.sim.now)
        self.role = FOLLOWER

    def repair(self) -> None:
        """Restart the replica as a follower with its persistent state."""
        if self.alive:
            return
        self.alive = True
        self.role = FOLLOWER
        self._reset_election_deadline()

    # -- election timer -------------------------------------------------------------

    def _reset_election_deadline(self) -> None:
        timeouts = self._timeouts
        if not timeouts:
            timeouts = self.rng.uniform(
                ELECTION_TIMEOUT_MIN_S, ELECTION_TIMEOUT_MAX_S, ELECTION_TIMEOUT_BLOCK
            ).tolist()
            timeouts.reverse()
            self._timeouts = timeouts
        self._election_deadline = self.sim.now + timeouts.pop()

    def _election_tick(self, _value: Any = None) -> None:
        """The election timer: sleep until the deadline, which heartbeats
        keep pushing back; stand for election when it passes."""
        while True:
            delay = self._election_deadline - self.sim.now
            if delay > 0:
                self.sim.call_later(delay, self._election_tick)
                return
            if self.alive and self.role != LEADER:
                self._start_election()
            self._reset_election_deadline()

    def _start_election(self) -> None:
        self.term += 1
        self.role = CANDIDATE
        self.voted_for = self.name
        self._votes = {self.name}
        self.leader_hint = None
        self.plane.note_election(self.shard)
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.instant("meta.election", self.name, term=self.term)
        if len(self.group) == 1:
            self._become_leader()
            return
        last_index = len(self.log) - 1
        last_term = self.log[last_index].term if last_index >= 0 else 0
        for peer in self.peers:
            self.fabric.send_nowait(
                self.name,
                peer,
                VoteRequest(
                    term=self.term,
                    candidate=self.name,
                    last_log_index=last_index,
                    last_log_term=last_term,
                ),
            )

    # -- role transitions -------------------------------------------------------------

    def _observe_term(self, term: int) -> None:
        """A higher term (or an equal-term leader) demotes us to follower."""
        was_leader = self.role == LEADER
        if term > self.term:
            self.term = term
            self.voted_for = None
        self.role = FOLLOWER
        if was_leader:
            self.plane.note_leader_lost(self.shard, self.name, self.sim.now)

    def _become_leader(self) -> None:
        self.role = LEADER
        self.leader_hint = self.name
        last = len(self.log)
        self.next_index = {peer: last for peer in self.peers}
        self.match_index = {peer: -1 for peer in self.peers}
        self._append_key = None
        self.plane.note_leader(self.shard, self.name, self.sim.now)
        # Placement updates that arrived while the shard was leaderless.
        for op, file_id, node in self.plane.drain_pending(self.shard):
            self.log.append(LogEntry(term=self.term, op=op, file_id=file_id, node=node))
        self._advance_commit()
        if self.peers:
            self.sim.call_soon(self._heartbeat, self.term, priority=URGENT)

    def _heartbeat(self, term: int) -> None:
        """Heartbeat + replication round every heartbeat interval, while
        this replica leads *term*."""
        if not (self.alive and self.role == LEADER and self.term == term):
            # The slot the finished leader loop's completion event held.
            self.sim.call_soon(hold_slot)
            return
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.instant("meta.heartbeat", self.name, term=term)
        for peer in self.peers:
            self._send_append(peer)
        self.sim.call_later(HEARTBEAT_INTERVAL_S, self._heartbeat, term)

    def _send_append(self, peer: str) -> None:
        next_index = self.next_index[peer]
        # Within a term a leader's log only grows, so these four fix
        # every field of the message.
        key = (self.term, next_index, len(self.log), self.commit_index)
        if key != self._append_key:
            prev_index = next_index - 1
            self._append_key = key
            self._append = AppendEntries(
                term=self.term,
                leader=self.name,
                prev_index=prev_index,
                prev_term=self.log[prev_index].term if prev_index >= 0 else 0,
                entries=tuple(self.log[next_index:]),
                commit_index=self.commit_index,
            )
        self.fabric.send_nowait(self.name, peer, self._append)

    # -- the replicated log -------------------------------------------------------------

    def local_append(self, op: str, file_id: int, node: str) -> None:
        """Leader-side entry point for a new placement update.

        The entry replicates to followers on the next heartbeat round and
        commits on majority match; a single-replica group commits at once.
        """
        if self.role != LEADER:
            raise RuntimeError(f"{self.name} is not leader")
        self.log.append(
            LogEntry(term=self.term, op=op, file_id=file_id, node=node)
        )
        self._advance_commit()

    def _advance_commit(self) -> None:
        """Leader: commit the highest index a majority has matched."""
        ranked = sorted(
            [len(self.log) - 1, *self.match_index.values()], reverse=True
        )
        candidate = ranked[self._majority - 1]
        # Raft §5.4.2: only entries from the *current* term commit by
        # counting; earlier-term entries commit transitively behind them.
        if candidate > self.commit_index and self.log[candidate].term == self.term:
            self.commit_index = candidate
            self._apply_committed()

    def _apply_committed(self) -> None:
        while self.last_applied < self.commit_index:
            self.last_applied += 1
            self._apply(self.log[self.last_applied])
            if self.role == LEADER:
                self.plane.note_commit(self.shard)

    def _apply(self, entry: LogEntry) -> None:
        if entry.op == OP_ADD_REPLICA:
            # Idempotent: a leader change can re-deliver the same update.
            if (
                entry.file_id in self.state
                and entry.node not in self.state.holders(entry.file_id)
            ):
                self.state.add_replica(entry.file_id, entry.node)
        else:  # pragma: no cover - closed op vocabulary
            raise ValueError(f"unknown log op: {entry.op!r}")

    # -- message plane -------------------------------------------------------------------

    def _await_message(self, _value: Any = None) -> None:
        """Kick-off: park :meth:`_on_message` on the inbox."""
        self.endpoint.inbox.take(self._on_message)

    def _on_message(self, message: Message) -> None:
        if self.alive:  # a crashed process answers nothing
            payload = message.payload
            # Heartbeats and their replies first: they are most of the
            # traffic.
            if isinstance(payload, AppendEntries):
                self._on_append(payload)
            elif isinstance(payload, AppendReply):
                self._on_append_reply(payload)
            elif isinstance(payload, FileRequest):
                if self._handle_request(payload):
                    return
            elif isinstance(payload, VoteRequest):
                self._on_vote_request(payload)
            elif isinstance(payload, VoteReply):
                self._on_vote_reply(payload)
            else:  # pragma: no cover - defensive
                raise TypeError(f"metadata server cannot handle {payload!r}")
        self.endpoint.inbox.take(self._on_message)

    # -- consensus handlers ----------------------------------------------------------

    def _on_vote_request(self, msg: VoteRequest) -> None:
        if msg.term > self.term:
            self._observe_term(msg.term)
        granted = False
        if (
            msg.term == self.term
            and self.voted_for in (None, msg.candidate)
            and self._log_up_to_date(msg)
        ):
            granted = True
            self.voted_for = msg.candidate
            self._reset_election_deadline()
        self.fabric.send_nowait(
            self.name,
            msg.candidate,
            VoteReply(term=self.term, voter=self.name, granted=granted),
        )

    def _log_up_to_date(self, msg: VoteRequest) -> bool:
        last_index = len(self.log) - 1
        last_term = self.log[last_index].term if last_index >= 0 else 0
        return (msg.last_log_term, msg.last_log_index) >= (last_term, last_index)

    def _on_vote_reply(self, msg: VoteReply) -> None:
        if msg.term > self.term:
            self._observe_term(msg.term)
            return
        if self.role != CANDIDATE or msg.term != self.term:
            return
        if msg.granted:
            self._votes.add(msg.voter)
            if len(self._votes) >= self._majority:
                self._become_leader()

    def _on_append(self, msg: AppendEntries) -> None:
        if msg.term < self.term:
            ok, match = False, -1
        else:
            if msg.term > self.term or self.role != FOLLOWER:
                self._observe_term(msg.term)
            self.leader_hint = msg.leader
            self._reset_election_deadline()
            if msg.prev_index >= 0 and (
                msg.prev_index >= len(self.log)
                or self.log[msg.prev_index].term != msg.prev_term
            ):
                # Log mismatch: the leader backs next_index up and retries.
                ok, match = False, -1
            else:
                del self.log[msg.prev_index + 1 :]
                self.log.extend(msg.entries)
                ok, match = True, msg.prev_index + len(msg.entries)
                if msg.commit_index > self.commit_index:
                    self.commit_index = min(msg.commit_index, len(self.log) - 1)
                    self._apply_committed()
        key = (self.term, ok, match)
        if key != self._reply_key:
            self._reply_key = key
            self._reply = AppendReply(
                term=self.term, follower=self.name, ok=ok, match_index=match
            )
        self.fabric.send_nowait(self.name, msg.leader, self._reply)

    def _on_append_reply(self, msg: AppendReply) -> None:
        if msg.term > self.term:
            self._observe_term(msg.term)
            return
        if self.role != LEADER or msg.term != self.term:
            return
        if msg.ok:
            follower = msg.follower
            if msg.match_index > self.match_index[follower]:
                self.match_index[follower] = msg.match_index
                # Log, term and commit index change only on paths that
                # advance the commit themselves, so an unmoved match
                # index cannot commit anything.
                self._advance_commit()
            self.next_index[follower] = self.match_index[follower] + 1
        else:
            self.next_index[msg.follower] = max(0, self.next_index[msg.follower] - 1)

    # -- request plane (the StorageServer forwarding path, sharded) ---------------------

    def _handle_request(self, payload: FileRequest) -> bool:
        """Start routing *payload*.  True while its per-request CPU cost
        runs; :meth:`_route` then finishes it and resumes the inbox."""
        if self.role != LEADER:
            self.plane.note_rejection(self.shard)
            self.fabric.send_nowait(
                self.name,
                payload.client,
                RequestFailed(
                    request_id=payload.request_id,
                    file_id=payload.file_id,
                    reason="not leader",
                    hint=None if self.leader_hint == self.name else self.leader_hint,
                ),
            )
            return False
        tracer = self.sim.tracer
        if tracer is not None:
            self._lookup = tracer.begin(
                "server.lookup",
                self.name,
                parent=tracer.request_span(payload.request_id),
                file_id=payload.file_id,
                shard=self.shard,
            )
        # Serialised on the inbox: the per-request CPU cost queues here,
        # so each shard is its own (smaller) §III-A bottleneck.
        self.sim.call_later(SERVER_OVERHEAD_S, self._route, payload)
        return True

    def _route(self, payload: FileRequest) -> None:
        self._forward(payload)
        self.endpoint.inbox.take(self._on_message)

    def _forward(self, payload: FileRequest) -> None:
        """Send *payload* to its first live holder (the StorageServer
        forwarding path, sharded)."""
        lookup, self._lookup = self._lookup, None
        tracer = self.sim.tracer
        self.plane.note_request(self.shard)
        if payload.file_id not in self.state:
            holders: List[str] = []
        else:
            holders = self.state.live_holders(payload.file_id)
        if not holders:
            self.plane.requests_unroutable += 1
            self.fabric.send_nowait(
                self.name,
                payload.client,
                RequestFailed(
                    request_id=payload.request_id,
                    file_id=payload.file_id,
                    reason="no live holder",
                ),
            )
            if lookup is not None and tracer is not None:
                tracer.end(lookup, routed=False)
            return
        primary, backups = holders[0], tuple(holders[1:])
        self.fabric.send_nowait(
            self.name,
            primary,
            ForwardedRequest(payload, backups),  # (request, failover)
        )
        if lookup is not None and tracer is not None:
            tracer.end(lookup, routed=True, node=primary)
        if payload.op is RequestOp.WRITE and backups:
            for holder in backups:
                self.fabric.send_nowait(
                    self.name,
                    holder,
                    ForwardedRequest(request=payload, silent=True),
                )
                self.plane.writes_fanned_out += 1

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<MetadataServer {self.name} {self.role} term={self.term}>"
