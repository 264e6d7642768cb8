"""Background re-replication: restore factor *k* after failures.

The :class:`ReplicationManager` runs next to the storage server.  Every
check interval it scans the server's metadata for files with fewer than
``replication_factor`` *live* holders and dispatches repairs: for each
deficit file it picks a surviving source holder and a live target node
(least-loaded, not yet holding the file) and sends the target a
:class:`~repro.core.protocol.RepairCommand`.  The target pulls the bytes
from the source over the fabric and answers the server with
:class:`~repro.core.protocol.RepairComplete`, at which point the replica
is registered.

Energy awareness lives where the disks live (§IV-D): the *source* node
serves the pull from its buffer disk when the file is prefetched (the
buffer disk never sleeps, so no spindle wakes), and the *target* node
writes the new replica to an already-awake data disk when one exists.
The server only throttles: at most :data:`REREPLICATION_BATCH` repairs
in flight per :data:`REREPLICATION_CHECK_INTERVAL_S`, so recovery I/O
trickles instead of stampeding every sleeping disk awake at once.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, TYPE_CHECKING

from repro.core.protocol import RepairCommand, RepairComplete
from repro.sim.events import URGENT

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.server import StorageServer

#: Seconds between scans for under-replicated files.
REREPLICATION_CHECK_INTERVAL_S = 5.0
#: Repairs in flight at most -- throttles recovery I/O so it trickles
#: instead of waking every sleeping disk at once.
REREPLICATION_BATCH = 4


class ReplicationManager:
    """The server-side repair loop of the replication subsystem."""

    def __init__(self, server: "StorageServer") -> None:
        self.server = server
        self.sim = server.sim
        self.factor = server.config.replication_factor
        #: file_id -> dispatch time of repairs awaiting completion.
        self._inflight: Dict[int, float] = {}
        self.repairs_completed = 0
        self.bytes_recopied = 0
        self.sim.call_soon(
            lambda _value: self.sim.call_later(REREPLICATION_CHECK_INTERVAL_S, self._scan),
            priority=URGENT,
        )

    # -- the repair loop -------------------------------------------------------

    def _scan(self, _value: Any) -> None:
        """Dispatch repairs for under-replicated files, within budget."""
        now = self.sim.now
        # A repair whose node died mid-copy never completes; give the
        # slot back so the file can be retried elsewhere.
        for file_id, started in list(self._inflight.items()):
            if now - started > 10.0 * REREPLICATION_CHECK_INTERVAL_S:
                del self._inflight[file_id]
        budget = REREPLICATION_BATCH - len(self._inflight)
        if budget > 0:
            for file_id in self.server.metadata.under_replicated(self.factor):
                if budget <= 0:
                    break
                if file_id in self._inflight:
                    continue
                if self._dispatch(file_id):
                    budget -= 1
        self.sim.call_later(REREPLICATION_CHECK_INTERVAL_S, self._scan)

    def _dispatch(self, file_id: int) -> bool:
        """Send one RepairCommand for *file_id*; False if impossible now."""
        metadata = self.server.metadata
        sources = metadata.live_holders(file_id)
        if not sources:
            return False  # nothing survives to copy from
        target = self._choose_target(file_id)
        if target is None:
            return False  # no live node has room for another holder
        entry = metadata.lookup(file_id)
        self._inflight[file_id] = self.sim.now
        self.server.fabric.send_nowait(
            self.server.name,
            target,
            RepairCommand(
                file_id=file_id, size_bytes=entry.size_bytes, source=sources[0]
            ),
        )
        return True

    def _choose_target(self, file_id: int) -> Optional[str]:
        """Least-loaded live node that does not already hold the file."""
        metadata = self.server.metadata
        holders = set(metadata.holders(file_id))
        candidates: List[str] = [
            node
            for node in self.server.node_names
            if metadata.is_live(node) and node not in holders
        ]
        if not candidates:
            return None
        return min(candidates, key=lambda node: (metadata.bytes_on(node), node))

    # -- completions (called from the server's message loop) -------------------

    def on_complete(self, payload: RepairComplete) -> None:
        self._inflight.pop(payload.file_id, None)
        if not payload.ok:
            return
        metadata = self.server.metadata
        if payload.node not in metadata.holders(payload.file_id):
            metadata.add_replica(payload.file_id, payload.node)
            if self.server.metaplane is not None:
                # The plane's shards learn of the new holder through
                # their replicated log (queued while leaderless).
                self.server.metaplane.propose_add_replica(
                    payload.file_id, payload.node
                )
        self.repairs_completed += 1
        self.bytes_recopied += metadata.lookup(payload.file_id).size_bytes
