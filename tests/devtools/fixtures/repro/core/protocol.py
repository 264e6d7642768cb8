"""Known-bad fixture: wire records in a slotted module."""

from dataclasses import dataclass
import dataclasses


@dataclass
class Bare:
    x: int


@dataclasses.dataclass(frozen=True)
class Frozen:
    x: int
    y: int = 0


@dataclass(frozen=True,)
class Trailing:
    x: int


@dataclass(frozen=True, slots=True)
class Slotted:
    x: int
    y: int = 0
