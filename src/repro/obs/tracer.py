"""Sim-time span tracing.

A :class:`Tracer` records *spans*: named intervals of simulated time
(``request``, ``server.lookup``, ``net.transfer``, ``node.dispatch``,
``disk.service``, ``prefetch.copy``, ``spinup``, ...) with parent/child
links and free-form tags.  Instrumented components reach the tracer
through ``Simulator.tracer`` and guard every touch with an ``is None``
check, so an untraced run pays one attribute load per instrumentation
site and nothing else.

Recording a span never schedules an event, never draws randomness, and
never mutates model state -- tracing observes the simulation, it does
not participate in it.  That is what keeps a traced run's *metrics*
byte-identical to an untraced one (asserted by ``tests/obs``).

:meth:`Tracer.snapshot` freezes the recorded stream into a
:class:`RunTrace` -- a plain-data object (picklable, no simulator
references) that the exporters (:mod:`repro.obs.export`) and the
profiler (:mod:`repro.obs.profile`) consume, and that rides on
``RunResult.trace``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, TYPE_CHECKING

from repro.obs.telemetry import Series

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.engine import Simulator

#: The span vocabulary the built-in instrumentation emits.  Tags carry
#: the variable part (file id, disk name, byte counts); kinds stay a
#: small closed set so profiles aggregate cleanly.
SPAN_KINDS = (
    "request",
    "server.lookup",
    "net.transfer",
    "node.dispatch",
    "disk.service",
    "prefetch.copy",
    "destage.copy",
    "repair.copy",
    "spinup",
    "spindown",
    "disk.shift",
    "power.sleep",
    "power.wake_ahead",
    "fault",
    "setup",
    "replay",
    "meta.election",
    "meta.heartbeat",
    "client.retry",
    "online.estimate",
    "online.control",
    "online.replan",
    "sanitizer.perturbation",
)


class Span:
    """One named interval of simulated time.

    ``end_s`` is ``None`` while the span is open; :meth:`Tracer.snapshot`
    clamps still-open spans to the snapshot instant and tags them
    ``incomplete``.  ``track`` names the component lane the span belongs
    to (``"client"``, ``"server"``, ``"node3"``, ``"node3/data1"``,
    ``"fabric"``); exporters render one timeline row per track.
    """

    __slots__ = ("span_id", "parent_id", "kind", "track", "start_s", "end_s", "tags")

    def __init__(
        self,
        span_id: int,
        kind: str,
        track: str,
        start_s: float,
        parent_id: Optional[int] = None,
        tags: Optional[Dict[str, object]] = None,
    ) -> None:
        self.span_id = span_id
        self.parent_id = parent_id
        self.kind = kind
        self.track = track
        self.start_s = start_s
        self.end_s: Optional[float] = None
        self.tags = tags

    @property
    def duration_s(self) -> float:
        """Span length in simulated seconds (0.0 while open / instant)."""
        if self.end_s is None:
            return 0.0
        return self.end_s - self.start_s

    @property
    def is_instant(self) -> bool:
        """True for zero-duration point events (``power.sleep``, faults)."""
        return self.end_s is not None and self.end_s == self.start_s

    def as_dict(self) -> Dict[str, object]:
        """Flat dict for JSONL export."""
        record: Dict[str, object] = {
            "span_id": self.span_id,
            "kind": self.kind,
            "track": self.track,
            "start_s": self.start_s,
            "end_s": self.end_s,
        }
        if self.parent_id is not None:
            record["parent_id"] = self.parent_id
        if self.tags:
            record["tags"] = self.tags
        return record

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        end = "open" if self.end_s is None else f"{self.end_s:.6g}"
        return f"<Span #{self.span_id} {self.kind} [{self.start_s:.6g}..{end}] {self.track}>"


class RunTrace:
    """The frozen output of one traced run: spans + sampled telemetry.

    Plain data throughout -- no simulator, process, or callback
    references -- so it pickles across the ``repro.parallel`` process
    boundary and attaches to :class:`~repro.core.filesystem.RunResult`.
    """

    __slots__ = ("spans", "series", "duration_s")

    def __init__(
        self,
        spans: List[Span],
        series: Dict[str, Series],
        duration_s: float,
    ) -> None:
        self.spans = spans
        self.series = series
        self.duration_s = duration_s

    def span_kinds(self) -> List[str]:
        """Distinct span kinds present, sorted."""
        return sorted({span.kind for span in self.spans})

    def spans_of(self, kind: str) -> List[Span]:
        """All spans of one kind, in recording order."""
        return [span for span in self.spans if span.kind == kind]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<RunTrace spans={len(self.spans)} series={len(self.series)} "
            f"duration={self.duration_s:.6g}s>"
        )


class Tracer:
    """Records spans against a simulator's clock.

    The tracer holds the simulator only to read ``sim.now``; it installs
    nothing by itself.  :class:`repro.obs.Observability` publishes it on
    ``Simulator.tracer`` for the component instrumentation; the engine
    itself is never hooked, so a traced run keeps the inlined dispatch
    loop.
    """

    __slots__ = ("sim", "spans", "_next_id", "_request_spans")

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        self.spans: List[Span] = []
        self._next_id = 0
        #: request_id -> open ``request`` span, for cross-component parenting.
        self._request_spans: Dict[int, Span] = {}

    # -- recording ---------------------------------------------------------------

    def begin(
        self,
        kind: str,
        track: str,
        parent: Optional[Span] = None,
        **tags: object,
    ) -> Span:
        """Open a span at the current simulated time."""
        span = Span(
            span_id=self._next_id,
            kind=kind,
            track=track,
            start_s=self.sim.now,
            parent_id=None if parent is None else parent.span_id,
            tags=tags or None,
        )
        self._next_id += 1
        self.spans.append(span)
        return span

    def end(self, span: Span, **tags: object) -> Span:
        """Close *span* at the current simulated time (idempotent)."""
        if span.end_s is None:
            span.end_s = self.sim.now
        if tags:
            if span.tags is None:
                span.tags = dict(tags)
            else:
                span.tags.update(tags)
        return span

    def instant(
        self,
        kind: str,
        track: str,
        parent: Optional[Span] = None,
        **tags: object,
    ) -> Span:
        """Record a zero-duration point event."""
        span = self.begin(kind, track, parent=parent, **tags)
        span.end_s = span.start_s
        return span

    # -- request correlation ------------------------------------------------------

    def begin_request(self, request_id: int, track: str, **tags: object) -> Span:
        """Open the root ``request`` span for *request_id*."""
        span = self.begin("request", track, **tags)
        self._request_spans[request_id] = span
        return span

    def request_span(self, request_id: int) -> Optional[Span]:
        """The open ``request`` span for *request_id*, if any."""
        return self._request_spans.get(request_id)

    def end_request(self, request_id: int, **tags: object) -> Optional[Span]:
        """Close and unregister the ``request`` span for *request_id*."""
        span = self._request_spans.pop(request_id, None)
        if span is not None:
            self.end(span, **tags)
        return span

    # -- freezing -----------------------------------------------------------------

    def snapshot(self, series: Optional[Dict[str, Series]] = None) -> RunTrace:
        """Freeze the recorded stream into a plain-data :class:`RunTrace`.

        Open spans (a spin-up in flight when the run ended) are clamped
        to the snapshot instant and tagged ``incomplete=True`` so
        exporters never see a half-open interval.
        """
        now = self.sim.now
        for span in self.spans:
            if span.end_s is None:
                span.end_s = now
                if span.tags is None:
                    span.tags = {"incomplete": True}
                else:
                    span.tags["incomplete"] = True
        return RunTrace(
            spans=list(self.spans),
            series=dict(series or {}),
            duration_s=now,
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Tracer spans={len(self.spans)} now={self.sim.now:.6g}>"
