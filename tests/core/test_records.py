"""The per-request records keep their dataclass contract.

One of each is built per request (``DiskRequest`` per disk I/O), so how
they are constructed is a hot-path detail; what they are is not.  Each
keeps its field order and defaults, equality with its own type only,
repr, slots and a pickle round trip; the wire records stay frozen and
hashable.
"""

import dataclasses
import pickle

import pytest

from repro.core.protocol import (
    FileData,
    FileRequest,
    ForwardedRequest,
    RequestFailed,
    WriteAck,
)
from repro.disk.drive import DiskRequest, PRIORITY_DEMAND, RequestKind
from repro.traces.model import RequestOp

REQUEST = FileRequest(7, 3, RequestOp.WRITE, "client", 1.5)

#: (type, required arguments, every field with its value when only the
#: required arguments are given)
RECORDS = [
    (
        FileRequest,
        (7, 3, RequestOp.WRITE, "client", 1.5),
        {"request_id": 7, "file_id": 3, "op": RequestOp.WRITE, "client": "client",
         "issued_at": 1.5},
    ),
    (
        ForwardedRequest,
        (REQUEST,),
        {"request": REQUEST, "failover": (), "silent": False},
    ),
    (
        FileData,
        (7, 3, 1024, "buffer"),
        {"request_id": 7, "file_id": 3, "size_bytes": 1024, "served_by": "buffer",
         "node_time_s": 0.0, "disk_time_s": 0.0},
    ),
    (
        RequestFailed,
        (7, 3, "no live holder"),
        {"request_id": 7, "file_id": 3, "reason": "no live holder", "hint": None},
    ),
    (
        WriteAck,
        (7, 3, "data0"),
        {"request_id": 7, "file_id": 3, "served_by": "data0"},
    ),
]

WIRE_RECORDS = [cls for cls, _, _ in RECORDS]


def _ids(cases):
    return [case[0].__name__ for case in cases]


@pytest.mark.parametrize("cls, args, expected", RECORDS, ids=_ids(RECORDS))
class TestWireRecords:
    def test_fields_in_order_with_defaults(self, cls, args, expected):
        record = cls(*args)
        assert [f.name for f in dataclasses.fields(cls)] == list(expected)
        assert {name: getattr(record, name) for name in expected} == expected
        assert cls(**expected) == record

    def test_equal_only_to_its_own_type(self, cls, args, expected):
        record = cls(*args)
        assert record == cls(*args)
        assert record != dataclasses.astuple(record)
        assert record != tuple(expected.values())
        for other in WIRE_RECORDS:
            if other is not cls:
                assert record != _sample(other)
        changed = dataclasses.replace(record, **{next(iter(expected)): "changed"})
        assert changed != record

    def test_hash_follows_equality(self, cls, args, expected):
        assert hash(cls(*args)) == hash(cls(*args))
        assert len({cls(*args), cls(*args)}) == 1

    def test_repr_names_every_field(self, cls, args, expected):
        fields = ", ".join(f"{name}={value!r}" for name, value in expected.items())
        assert repr(cls(*args)) == f"{cls.__name__}({fields})"

    def test_frozen(self, cls, args, expected):
        record = cls(*args)
        for name in expected:
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(record, name, None)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(record, name)
        assert {name: getattr(record, name) for name in expected} == expected

    def test_slotted(self, cls, args, expected):
        assert not hasattr(cls(*args), "__dict__")

    def test_pickle_round_trip(self, cls, args, expected):
        record = cls(*args)
        copy = pickle.loads(pickle.dumps(record))
        assert type(copy) is cls
        assert copy == record
        assert hash(copy) == hash(record)


def _sample(cls):
    """A record of *cls* built from that type's own sample arguments."""
    for case_cls, args, _ in RECORDS:
        if case_cls is cls:
            return cls(*args)
    raise AssertionError(cls)


class TestDiskRequest:
    DEFAULTS = {
        "kind": RequestKind.READ,
        "sequential": False,
        "priority": PRIORITY_DEMAND,
        "tag": None,
        "issued_at": 0.0,
        "done": None,
    }

    def test_fields_in_order_with_defaults(self):
        request = DiskRequest(4096)
        assert [f.name for f in dataclasses.fields(DiskRequest)] == [
            "size_bytes", "kind", "sequential", "priority", "tag", "issued_at",
            "request_id", "done",
        ]
        assert request.size_bytes == 4096
        assert {name: getattr(request, name) for name in self.DEFAULTS} == self.DEFAULTS

    def test_ids_are_drawn_in_construction_order(self):
        first = DiskRequest(1).request_id
        assert [DiskRequest(1).request_id for _ in range(3)] == [
            first + 1, first + 2, first + 3
        ]

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError, match="negative request size: -1"):
            DiskRequest(-1)

    def test_keyword_construction(self):
        request = DiskRequest(
            size_bytes=8, kind=RequestKind.WRITE, sequential=True, priority=2,
            tag=("write", 5), issued_at=3.5,
        )
        assert (request.kind, request.sequential, request.priority) == (
            RequestKind.WRITE, True, 2
        )
        assert (request.tag, request.issued_at, request.done) == (("write", 5), 3.5, None)

    def test_equality_repr_and_pickle(self):
        request = DiskRequest(16, tag=("read", 1))
        copy = pickle.loads(pickle.dumps(request))
        assert type(copy) is DiskRequest and copy == request
        assert request != DiskRequest(16, tag=("read", 1))  # a fresh id
        assert request != dataclasses.astuple(request)
        assert repr(request) == (
            f"DiskRequest(size_bytes=16, kind={RequestKind.READ!r}, sequential=False, "
            f"priority=0, tag=('read', 1), issued_at=0.0, "
            f"request_id={request.request_id}, done=None)"
        )

    def test_slotted_and_mutable(self):
        request = DiskRequest(16)
        assert not hasattr(request, "__dict__")
        request.priority = 2
        assert request.priority == 2
