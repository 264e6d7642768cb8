"""Network messages.

A :class:`Message` is what travels the fabric: an opaque payload plus the
number of bytes it occupies on the wire.  Protocol semantics (the EEVFS
request/response/control vocabulary of Fig. 2) live in ``repro.core``;
the network layer only cares about size and addressing.
"""

from __future__ import annotations

import itertools
from typing import Any

#: Wire size charged for small control messages (request forwarding,
#: metadata replies, hints).  1 KiB comfortably covers the EEVFS control
#: structures while remaining negligible next to file payloads.
CONTROL_MESSAGE_BYTES = 1024

_message_ids = itertools.count()


class Message:
    """One unit of data in flight between two endpoints.

    Every send builds one, so it is a plain ``__slots__`` class rather
    than a dataclass.
    """

    __slots__ = (
        "src",
        "dst",
        "payload",
        "size_bytes",
        "sent_at",
        "delivered_at",
        "message_id",
    )

    def __init__(
        self, src: str, dst: str, payload: Any, size_bytes: int = CONTROL_MESSAGE_BYTES
    ) -> None:
        self.src = src
        self.dst = dst
        self.payload = payload
        self.size_bytes = size_bytes
        #: Simulated send time, filled in by the fabric.
        self.sent_at = 0.0
        #: Simulated delivery time, filled in by the fabric.
        self.delivered_at = 0.0
        self.message_id = next(_message_ids)
        if size_bytes < 0:
            raise ValueError(f"negative message size: {size_bytes!r}")
        if not src or not dst:
            raise ValueError("messages need non-empty src and dst addresses")

    @property
    def latency(self) -> float:
        """Delivery minus send time (meaningful after delivery)."""
        return self.delivered_at - self.sent_at

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<Message #{self.message_id} {self.src}->{self.dst} "
            f"{self.size_bytes} B {type(self.payload).__name__}>"
        )
