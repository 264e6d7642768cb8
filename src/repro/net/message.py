"""Network messages.

A :class:`Message` is what travels the fabric: an opaque payload plus the
number of bytes it occupies on the wire.  Protocol semantics (the EEVFS
request/response/control vocabulary of Fig. 2) live in ``repro.core``;
the network layer only cares about size and addressing.
"""

from __future__ import annotations

from typing import Any

#: Wire size charged for small control messages (request forwarding,
#: metadata replies, hints).  1 KiB comfortably covers the EEVFS control
#: structures while remaining negligible next to file payloads.
CONTROL_MESSAGE_BYTES = 1024


class Message:
    """One unit of data in flight between two endpoints.

    Every send builds one, so it is a plain ``__slots__`` class rather
    than a dataclass.
    """

    __slots__ = ("src", "dst", "payload", "size_bytes")

    def __init__(
        self, src: str, dst: str, payload: Any, size_bytes: int = CONTROL_MESSAGE_BYTES
    ) -> None:
        self.src = src
        self.dst = dst
        self.payload = payload
        self.size_bytes = size_bytes
        if size_bytes < 0:
            raise ValueError(f"negative message size: {size_bytes!r}")
        if not src or not dst:
            raise ValueError("messages need non-empty src and dst addresses")

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<Message {self.src}->{self.dst} "
            f"{self.size_bytes} B {type(self.payload).__name__}>"
        )
