"""Named, reproducible random-number streams.

Every stochastic component of the reproduction (arrival process, file
selection, size sampling, spin-up jitter, ...) draws from its own *named*
stream.  Streams are derived deterministically from a single root seed and
the stream name, so:

* runs are exactly reproducible given the seed,
* adding a new consumer never perturbs existing streams (unlike sharing a
  single generator), and
* paired experiments (PF vs NPF) see identical workloads by construction.
"""

from __future__ import annotations

import hashlib

import numpy as np


def _name_entropy(name: str) -> list[int]:
    """Map a stream name to stable 32-bit words via SHA-256."""
    digest = hashlib.sha256(name.encode("utf-8")).digest()
    return [int.from_bytes(digest[i : i + 4], "little") for i in range(0, 16, 4)]


class RandomStreams:
    """A registry of independent, named ``numpy`` generators."""

    def __init__(self, seed: int = 0) -> None:
        if not isinstance(seed, int):
            raise TypeError(f"seed must be an int, got {seed!r}")
        if seed < 0:
            raise ValueError(f"seed must be >= 0, got {seed!r}")
        self.seed = seed
        self._streams: dict[str, np.random.Generator] = {}

    def stream(self, name: str) -> np.random.Generator:
        """Return (creating on first use) the generator for *name*."""
        if not name:
            raise ValueError("stream name must be non-empty")
        gen = self._streams.get(name)
        if gen is None:
            # The whole seed: a seed below 2**32 is one entropy word, a
            # larger one several, so distinct seeds never share a stream.
            seq = np.random.SeedSequence([self.seed, *_name_entropy(name)])
            gen = np.random.default_rng(seq)
            self._streams[name] = gen
        return gen

    def fault_stream(self, target: str) -> np.random.Generator:
        """The dedicated fault-injection stream for one target.

        Fault times drawn here depend only on the root seed and the
        target name ("node1/data0", "node3", ...), never on how many
        draws the workload streams made -- so the same seed produces the
        same fault log whatever the trace generator does.
        """
        return self.stream(f"faults:{target}")

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<RandomStreams seed={self.seed} streams={len(self._streams)}>"
