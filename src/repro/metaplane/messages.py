"""The consensus wire vocabulary of the metadata plane.

These ride the same :mod:`repro.net.fabric` as the EEVFS protocol
messages -- control-sized payloads between metadata-server replicas, and
like them slotted (SIM002).
The vocabulary is the minimal Raft subset the plane needs: vote
solicitation and log replication (heartbeats are empty AppendEntries,
exactly as in Raft).

Log entries carry *placement updates* -- the only metadata that changes
after setup is which nodes hold which file (background re-replication);
reads are served from the leader's state machine and never enter the log.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

#: The only state-machine operation the log carries today.  A closed
#: vocabulary (like ``SPAN_KINDS``) so fingerprints and fixtures stay
#: stable as operations are added.
OP_ADD_REPLICA = "add_replica"


@dataclass(frozen=True, slots=True)
class LogEntry:
    """One replicated state-machine command (a placement update)."""

    term: int
    op: str
    file_id: int
    node: str


@dataclass(frozen=True, slots=True)
class VoteRequest:
    """Candidate -> peers: elect me for *term*.

    ``last_log_index``/``last_log_term`` implement Raft's election
    restriction: a voter refuses candidates whose log is behind its own,
    so a stale replica can never win leadership and roll back commits.
    """

    term: int
    candidate: str
    last_log_index: int
    last_log_term: int


@dataclass(frozen=True, slots=True)
class VoteReply:
    """Peer -> candidate: my vote for *term* (or a newer-term rebuff)."""

    term: int
    voter: str
    granted: bool


@dataclass(frozen=True, slots=True)
class AppendEntries:
    """Leader -> followers: replicate log entries / assert leadership.

    An empty ``entries`` tuple is a pure heartbeat.  ``prev_index`` /
    ``prev_term`` are the consistency check: the follower accepts only if
    its log matches at that point, otherwise the leader backs
    ``next_index`` up and retries from earlier.
    """

    term: int
    leader: str
    prev_index: int
    prev_term: int
    entries: Tuple[LogEntry, ...]
    commit_index: int


@dataclass(frozen=True, slots=True)
class AppendReply:
    """Follower -> leader: append outcome.

    ``match_index`` (valid when ``ok``) is the highest log index now
    known replicated on the follower; the leader advances its commit
    point once a majority matches.
    """

    term: int
    follower: str
    ok: bool
    match_index: int
