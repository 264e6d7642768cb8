"""The EEVFS wire protocol (Fig. 2's message vocabulary).

Every payload travelling the fabric between clients, the storage server
and storage nodes is one of these dataclasses.  Control messages ride at
the default control size; only :class:`FileData` carries a real payload
size (set by the sender to the file size).  One is built per message, so
each is slotted (no per-instance ``__dict__``; simlint's SIM002 holds it).
The five built per request also set their slots directly
(:func:`_sets_slots_directly`).
"""

from __future__ import annotations

from dataclasses import dataclass, fields, MISSING
import itertools
from typing import Any, Dict, Optional, Tuple

from repro.traces.model import RequestOp

_request_ids = itertools.count()


def _sets_slots_directly(cls: Any) -> Any:
    """Give frozen slotted dataclass *cls* an ``__init__`` that sets each
    slot through its member descriptor.

    The ``__init__`` that ``dataclass(frozen=True)`` writes sets every
    field with ``object.__setattr__(self, name, value)``, a lookup by
    name per field; the slot's own ``__set__`` skips it, which takes
    about 40% off building a record (docs/performance.md, "Host
    memory").  The signature and its defaults are the dataclass one;
    equality, hashing, repr, pickling and the ``FrozenInstanceError`` on
    assignment stay ``dataclass``'s own.  Like ``dataclass``, this
    compiles the constructor from source it writes, so the constructor
    has no source file, and profiles charge it to no module, as they
    did the one it replaces.
    """
    names = [field.name for field in fields(cls)]
    namespace: Dict[str, Any] = {f"_set_{name}": cls.__dict__[name].__set__ for name in names}
    params = []
    for field in fields(cls):
        if field.default is MISSING:
            params.append(field.name)
        else:
            namespace[f"_default_{field.name}"] = field.default
            params.append(f"{field.name}=_default_{field.name}")
    source = f"def __init__(self, {', '.join(params)}):\n" + "".join(
        f"    _set_{name}(self, {name})\n" for name in names
    )
    exec(source, namespace)
    init = namespace["__init__"]
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    setattr(cls, "__init__", init)
    return cls


def next_request_id() -> int:
    """Globally unique id correlating a request with its data response."""
    return next(_request_ids)


@dataclass(frozen=True, slots=True)
class CreateFile:
    """Server -> node: create a file (Fig. 2 step 3).

    Creation requests arrive in descending popularity order, which is what
    lets the node's round-robin local placement load-balance (§III-B).
    ``target_disk`` is only set by placement policies that centralise disk
    assignment (the PDC baseline); EEVFS leaves it None and the node
    decides locally (§IV-D).
    """

    file_id: int
    size_bytes: int
    popularity_rank: int
    target_disk: "int | None" = None


@dataclass(frozen=True, slots=True)
class PrefetchCommand:
    """Server -> node: copy these files into the buffer disk (step 3).

    ``replace=True`` turns the command into a *re-prefetch* (the dynamic
    PRE-BUD behaviour): buffer copies not in ``file_ids`` are dropped
    before the missing ones are copied.  ``ack=False`` suppresses the
    :class:`PrefetchComplete` reply (re-prefetches run concurrently with
    the workload; the server must not block on them).
    """

    file_ids: Tuple[int, ...]
    replace: bool = False
    ack: bool = True


@dataclass(frozen=True, slots=True)
class PrefetchComplete:
    """Node -> server: buffer-disk copies done (end of step 3)."""

    node: str
    files_copied: int
    bytes_copied: int


@dataclass(frozen=True, slots=True)
class AccessHints:
    """Server -> node: the application hints (step 4).

    ``arrivals`` maps file_id -> trace-relative arrival times of future
    requests for that file; ``epoch_s`` is the absolute simulation time at
    which trace replay begins, so nodes can convert to absolute times.
    """

    arrivals: Dict[int, Tuple[float, ...]]
    epoch_s: float


@_sets_slots_directly
@dataclass(frozen=True, slots=True)
class FileRequest:
    """Client -> server: read/write a file (step 5)."""

    request_id: int
    file_id: int
    op: RequestOp
    client: str
    issued_at: float


@_sets_slots_directly
@dataclass(frozen=True, slots=True)
class ForwardedRequest:
    """Server -> node: serve this client's request (step 5->6).

    The server knows only which *node* holds the file -- never which disk
    or whether it was prefetched (§IV-D distributed metadata).

    ``failover`` lists the other live holders of the file (replication
    extension): a node whose local disks cannot serve the read hands the
    request to the next holder instead of failing it.  ``silent`` marks
    the fan-out copy of a replicated write -- apply the write, send no
    reply (the primary answers the client).
    """

    request: FileRequest
    failover: Tuple[str, ...] = ()
    silent: bool = False


@_sets_slots_directly
@dataclass(frozen=True, slots=True)
class FileData:
    """Node -> client: the file contents (step 6)."""

    request_id: int
    file_id: int
    size_bytes: int
    #: Which medium served it ("buffer" or "dataN") -- measurement only.
    served_by: str
    #: Time spent inside the storage node (entry to reply send) and the
    #: disk-I/O portion of it -- measurement only, lets the client split
    #: response time into network/server vs node vs disk components.
    node_time_s: float = 0.0
    disk_time_s: float = 0.0


@_sets_slots_directly
@dataclass(frozen=True, slots=True)
class RequestFailed:
    """Node/server -> client: the request could not be served.

    ``hint`` optionally names the endpoint the client should retry
    against (a non-leader metadata server pointing at the leader it last
    heard from); None means the sender has no better idea.
    """

    request_id: int
    file_id: int
    reason: str
    hint: Optional[str] = None


@_sets_slots_directly
@dataclass(frozen=True, slots=True)
class WriteAck:
    """Node -> client: write durably buffered/applied (step 6, writes)."""

    request_id: int
    file_id: int
    served_by: str


# -- re-replication control plane (repro.replication) ---------------------------


@dataclass(frozen=True, slots=True)
class RepairCommand:
    """Server -> node: restore a replica of *file_id* onto yourself.

    The receiving node pulls the bytes from *source* (a surviving
    holder); the server never moves data itself (§III-A: data flows
    between nodes and clients only).
    """

    file_id: int
    size_bytes: int
    source: str


@dataclass(frozen=True, slots=True)
class ReplicaPull:
    """Repair-target node -> source node: send me *file_id*."""

    file_id: int
    requester: str


@dataclass(frozen=True, slots=True)
class ReplicaData:
    """Source node -> repair-target node: the replica bytes (or a refusal
    when the source's own disks could not serve the read)."""

    file_id: int
    size_bytes: int
    ok: bool = True


@dataclass(frozen=True, slots=True)
class RepairComplete:
    """Repair-target node -> server: replica restored (or attempt failed,
    ``ok=False`` -- the replication manager will retry elsewhere)."""

    file_id: int
    node: str
    ok: bool = True
