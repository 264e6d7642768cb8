"""Runtime determinism sanitizer: event-stream fingerprints.

Static analysis (simlint) catches the *sources* of nondeterminism it can
see; this module catches the ones it can't.  An
:class:`EventStreamHasher` attaches to a
:class:`~repro.sim.engine.Simulator` via the engine's event hook and
folds every processed event -- its timestamp, outcome, and type -- into a
running BLAKE2 digest.  Two runs of the same model with the same seed
must produce byte-identical digests; :func:`assert_deterministic` builds
and runs a model repeatedly and raises :class:`DeterminismError` with
both digests when they diverge.

The hook is opt-in: an unobserved run keeps the engine's inlined hot
loop and pays nothing (see :meth:`Simulator.add_event_hook`).  Because
the engine dispatches to *all* installed hooks, the hasher coexists with
other observers -- notably the :mod:`repro.obs` tracer -- on the same
run.  :class:`ScheduleShapeHasher` folds the same stream without type names,
so two dispatch implementations that keep every event in its
``(time, priority, sequence)`` slot digest equal.

The second half of this module is the **schedule-perturbation
sanitizer**: it pairs the engine's chaos scheduler
(:meth:`Simulator.set_lane_perturbation`) with an order-insensitive
:class:`TimeBucketHasher` to decide whether a model's behaviour depends
on the engine's FIFO tie-breaking within same-``(time, priority)``
dispatch windows.  A model with no such dependence produces the same
per-timestamp event multisets under every legal reordering, so its
bucket digest is invariant across perturbation seeds;
:func:`assert_schedule_invariant` raises :class:`ScheduleRaceError`
when it is not.  Full EEVFS runs are *expected* to be
schedule-sensitive at contention points (same-quantum request arrivals
are served in tie-break order), which is why
:mod:`repro.devtools.racesuite` checks conservation invariants rather
than raw digest equality for whole-cluster scenarios.
"""

from __future__ import annotations

import dataclasses
import hashlib
import struct
from typing import Callable, Iterable, Optional

from repro.sim.engine import Simulator
from repro.sim.events import Event

_PACK = struct.Struct("<dB").pack
_PACK_BUCKET = struct.Struct("<dQQQ").pack
_PACK_SHAPE = struct.Struct("<dQB").pack


class DeterminismError(AssertionError):
    """Two same-seed runs produced different event-stream digests."""


class ScheduleRaceError(DeterminismError):
    """A model's behaviour depends on same-``(time, priority)`` dispatch
    order: a legal schedule perturbation changed its per-timestamp event
    multisets."""


class EventStreamHasher:
    """Folds a simulator's processed-event stream into one digest.

    The fingerprint covers, per event and in processing order: the
    simulated timestamp, whether the event succeeded, and the event's
    type name.  That is exactly the engine's observable schedule -- two
    runs with equal digests processed the same kinds of events at the
    same times in the same order.  Payload values are deliberately
    excluded: they may hold unhashable or address-dependent objects, and
    any payload difference that matters must change downstream event
    timing anyway.
    """

    __slots__ = ("_digest", "_count")

    def __init__(self) -> None:
        self._digest = hashlib.blake2b(digest_size=16)
        self._count = 0

    def __call__(self, now: float, event: Event) -> None:
        self._digest.update(_PACK(now, 1 if event._ok else 0))
        self._digest.update(type(event).__name__.encode("ascii"))
        self._count += 1

    @property
    def events_hashed(self) -> int:
        """Number of events folded into the digest so far."""
        return self._count

    def hexdigest(self) -> str:
        """Digest of the stream observed so far (non-destructive)."""
        return self._digest.hexdigest()

    def attach(self, sim: Simulator) -> "EventStreamHasher":
        """Add this hasher to *sim*'s event hooks (returns self).

        Other observers (e.g. an :mod:`repro.obs` tracer) stay installed;
        the engine dispatches to every hook in installation order.
        """
        sim.add_event_hook(self)
        return self

    def detach(self, sim: Simulator) -> None:
        """Remove this hasher from *sim*'s event hooks (idempotent)."""
        sim.remove_event_hook(self)


class ScheduleShapeHasher(EventStreamHasher):
    """Folds the *shape* of a simulator's schedule into one digest.

    Per dispatched event it folds the simulated timestamp, the engine's
    sequence counter at dispatch and whether the event succeeded --
    never the event's type.  The counter is the number of events
    scheduled so far, so it moves with every added or dropped event,
    and the timestamp moves with every shifted one; but an ``Event``
    swapped for a ``Continuation`` in the same ``(time, priority,
    sequence)`` slot digests equal, as long as both succeed.  That is
    the contract the flat callbacks kept when they replaced generator
    processes, timeouts and grants: a failed wait still dispatches a
    failed ``Event``.
    """

    __slots__ = ()

    def __call__(self, now: float, event: Event) -> None:
        self._digest.update(_PACK_SHAPE(now, event.sim._seq, 1 if event._ok else 0))
        self._count += 1


class TimeBucketHasher:
    """Event-stream digest that is *order-insensitive within* each
    timestamp but strictly ordered *across* timestamps.

    Per event the hasher derives a 64-bit word from ``(now, ok, type
    name)`` and folds it into the current timestamp's bucket with two
    commutative accumulators (modular sum and xor).  When the clock
    advances, the finished bucket -- ``(time, count, sum, xor)`` -- is
    folded into an ordered outer BLAKE2 digest.  Two runs have equal
    digests iff they process the same *multiset* of events at every
    timestamp, regardless of intra-timestamp order: exactly the
    invariant a race-free model must keep under the chaos scheduler's
    legal same-``(time, priority)`` reorderings, while any cross-time
    drift (an event migrating to a different timestamp) still changes
    the digest.
    """

    __slots__ = ("_outer", "_now", "_sum", "_xor", "_in_bucket", "_count")

    _MASK64 = (1 << 64) - 1

    def __init__(self) -> None:
        self._outer = hashlib.blake2b(digest_size=16)
        self._now: Optional[float] = None
        self._sum = 0
        self._xor = 0
        self._in_bucket = 0
        self._count = 0

    def __call__(self, now: float, event: Event) -> None:
        if self._now is not None and now != self._now:
            self._flush_into(self._outer)
            self._sum = 0
            self._xor = 0
            self._in_bucket = 0
        self._now = now
        inner = hashlib.blake2b(_PACK(now, 1 if event._ok else 0), digest_size=8)
        inner.update(type(event).__name__.encode("ascii"))
        word = int.from_bytes(inner.digest(), "little")
        self._sum = (self._sum + word) & self._MASK64
        self._xor ^= word
        self._in_bucket += 1
        self._count += 1

    def _flush_into(self, digest: "hashlib._Hash") -> None:
        assert self._now is not None
        digest.update(_PACK_BUCKET(self._now, self._in_bucket, self._sum, self._xor))

    @property
    def events_hashed(self) -> int:
        """Number of events folded into the digest so far."""
        return self._count

    def hexdigest(self) -> str:
        """Digest of the stream observed so far (non-destructive).

        The still-open bucket is folded into a *copy* of the outer
        digest, so the hasher can keep accumulating afterwards.
        """
        outer = self._outer.copy()
        if self._in_bucket:
            self._flush_into(outer)
        return outer.hexdigest()

    def attach(self, sim: Simulator) -> "TimeBucketHasher":
        """Add this hasher to *sim*'s event hooks (returns self)."""
        sim.add_event_hook(self)
        return self

    def detach(self, sim: Simulator) -> None:
        """Remove this hasher from *sim*'s event hooks (idempotent)."""
        sim.remove_event_hook(self)


def digest_run(
    build: Callable[[], Simulator],
    until: Optional[float] = None,
) -> tuple[str, int]:
    """Build a simulator, run it observed, and fingerprint the run.

    *build* must construct a fresh simulator with all model processes
    already started (seeding included).  Returns ``(hexdigest,
    events_hashed)``.
    """
    sim = build()
    hasher = EventStreamHasher().attach(sim)
    try:
        if until is None:
            sim.run()
        else:
            sim.run(until=until)
    finally:
        hasher.detach(sim)
    return hasher.hexdigest(), hasher.events_hashed


def assert_deterministic(
    build: Callable[[], Simulator],
    runs: int = 2,
    until: Optional[float] = None,
    label: str = "model",
) -> str:
    """Run *build* ``runs`` times and require identical digests.

    Returns the common digest; raises :class:`DeterminismError` naming
    the first diverging run otherwise.  Each invocation of *build* must
    recreate the model from scratch (fresh Simulator, fresh seeded
    streams) -- shared mutable state between runs defeats the point.
    """
    if runs < 2:
        raise ValueError(f"need at least 2 runs to compare (got {runs})")
    reference: Optional[tuple[str, int]] = None
    for index in range(runs):
        outcome = digest_run(build, until=until)
        if reference is None:
            reference = outcome
        elif outcome != reference:
            raise DeterminismError(
                f"{label}: run {index + 1} diverged from run 1: "
                f"digest {outcome[0]} ({outcome[1]} events) != "
                f"{reference[0]} ({reference[1]} events)"
            )
    assert reference is not None
    return reference[0]


@dataclasses.dataclass(frozen=True)
class ScheduleProbe:
    """Fingerprints of one (possibly chaos-scheduled) run.

    ``stream_digest`` is the fully ordered :class:`EventStreamHasher`
    fingerprint; ``bucket_digest`` the order-insensitive
    :class:`TimeBucketHasher` one; ``picks`` counts how many dispatch
    windows actually offered the perturbation a choice (0 for an
    unperturbed run -- and for a perturbed run that never saw a window
    wider than one event, in which case invariance holds vacuously).
    """

    seed: Optional[int]
    stream_digest: str
    bucket_digest: str
    events: int
    picks: int


def perturbed_digest_run(
    build: Callable[[], Simulator],
    seed: Optional[int],
    until: Optional[float] = None,
) -> ScheduleProbe:
    """Build a simulator, run it under the chaos scheduler, fingerprint it.

    *build* must construct (not run) a fresh, fully seeded model; the
    perturbation is installed on the returned simulator before any event
    is dispatched.  ``seed=None`` runs unperturbed and serves as the
    baseline.
    """
    sim = build()
    if seed is not None:
        sim.set_lane_perturbation(seed)
    stream = EventStreamHasher().attach(sim)
    buckets = TimeBucketHasher().attach(sim)
    try:
        if until is None:
            sim.run()
        else:
            sim.run(until=until)
    finally:
        stream.detach(sim)
        buckets.detach(sim)
    perturb = sim.lane_perturbation
    if sim.tracer is not None:
        # Observed runs get a marker span so a perturbed trace can never
        # be mistaken for a production one.
        sim.tracer.instant(
            "sanitizer.perturbation",
            track="sanitizer",
            seed=seed,
            picks=perturb.picks if perturb is not None else 0,
            events=stream.events_hashed,
        )
    return ScheduleProbe(
        seed=seed,
        stream_digest=stream.hexdigest(),
        bucket_digest=buckets.hexdigest(),
        events=stream.events_hashed,
        picks=perturb.picks if perturb is not None else 0,
    )


def assert_schedule_invariant(
    build: Callable[[], Simulator],
    seeds: Iterable[int] = (101, 303),
    until: Optional[float] = None,
    label: str = "model",
) -> str:
    """Assert that *build*'s model is independent of dispatch order.

    Runs the model unperturbed, then twice per perturbation seed, and
    requires that (a) each perturbed schedule is reproducible (same
    seed, same ordered stream digest) and (b) every run's time-bucket
    digest matches the baseline -- i.e. legal same-``(time, priority)``
    reorderings change nothing observable.  Raises
    :class:`DeterminismError` for (a) and :class:`ScheduleRaceError`
    for (b); returns the common bucket digest.

    This is the unit-level invariant for models without contention.
    Whole-cluster EEVFS runs legitimately break (b) at queueing
    tie-breaks; for those use :mod:`repro.devtools.racesuite`, which
    checks conservation invariants instead.
    """
    baseline = perturbed_digest_run(build, None, until=until)
    for seed in seeds:
        first = perturbed_digest_run(build, seed, until=until)
        second = perturbed_digest_run(build, seed, until=until)
        if first.stream_digest != second.stream_digest:
            raise DeterminismError(
                f"{label}: chaos schedule not reproducible under seed "
                f"{seed}: {first.stream_digest} != {second.stream_digest}"
            )
        if first.bucket_digest != baseline.bucket_digest:
            raise ScheduleRaceError(
                f"{label}: schedule-dependent behaviour under perturbation "
                f"seed {seed}: time-bucket digest {first.bucket_digest} "
                f"({first.events} events, {first.picks} perturbed picks) != "
                f"baseline {baseline.bucket_digest} ({baseline.events} events)"
            )
    return baseline.bucket_digest



def _self_check() -> None:  # pragma: no cover - manual smoke hook
    """Tiny built-in smoke test (``python -m repro.devtools.sanitizer``)."""

    def build() -> Simulator:
        sim = Simulator()
        for delay in range(1, 11):
            sim.call_later(float(delay), lambda _value: None)
        return sim

    digest = assert_deterministic(build, runs=3)
    print(f"ok: 3 identical runs, digest {digest}")


if __name__ == "__main__":  # pragma: no cover
    _self_check()
