"""Generator delivery vs continuation delivery: byte identity on full ``run_eevfs``.

The fabric delivers every message through a flat
:class:`~repro.net.fabric._Delivery` continuation.  It replaced one
generator process per message, and the replacement must be *invisible*:
every metric of a same-seed run -- energies, transitions, hit counters,
response-time tallies down to the last bit of the floats -- must match
the generator delivery exactly.  That generator delivery lives on here
as a test-only oracle (``_oracle_deliver``), patched onto
:class:`~repro.net.fabric.Fabric` for the reference run.  The tests run
the whole stack both ways and compare ``repr``-level fingerprints (repr
round-trips floats, so equality here is bit equality).  Ids call the
oracle path ``gen`` and the product path ``cont``.
"""

import contextlib

import pytest

from repro.core import EEVFSConfig, run_eevfs
from repro.net.fabric import Fabric
from repro.net.message import Message
from repro.traces.synthetic import generate_synthetic_trace, SyntheticWorkload

CONFIGS = [
    EEVFSConfig(),
    EEVFSConfig(prefetch_enabled=False),
    EEVFSConfig(online_mode=True),
]
CONFIG_IDS = ["prefetch", "no-prefetch", "online"]


def _oracle_deliver(fabric, sender, receiver, message):
    """One message as one generator process: the reference delivery."""
    message.sent_at = fabric.sim.now
    tracer = fabric.sim.tracer
    span = None
    if tracer is not None:
        request_id = getattr(message.payload, "request_id", None)
        span = tracer.begin(
            "net.transfer",
            f"net:{sender.name}",
            parent=None if request_id is None else tracer.request_span(request_id),
            src=message.src,
            dst=message.dst,
            bytes=message.size_bytes,
            payload=type(message.payload).__name__,
        )
    rate = min(sender.tx.bandwidth_bps, receiver.rx.bandwidth_bps)
    duration = fabric.latency_s + message.size_bytes / rate
    rx_hold = message.size_bytes / receiver.rx.bandwidth_bps
    with sender.tx._channel.request() as tx_slot:
        yield tx_slot
        with receiver.rx._channel.request() as rx_slot:
            yield rx_slot
            yield fabric.sim.timeout(rx_hold)
            receiver.rx.bytes_sent += message.size_bytes
        remaining = duration - rx_hold
        if remaining > 0:
            yield fabric.sim.timeout(remaining)
        sender.tx.bytes_sent += message.size_bytes
        fabric.messages_sent += 1
        fabric.bytes_sent += message.size_bytes
    message.delivered_at = fabric.sim.now
    if fabric._partitioned and (
        message.src in fabric._partitioned or message.dst in fabric._partitioned
    ):
        fabric.messages_dropped += 1
        if span is not None and tracer is not None:
            tracer.end(span, dropped=True)
        return None
    if span is not None and tracer is not None:
        tracer.end(span)
    receiver.messages_received += 1
    yield receiver.inbox.put(message)
    return message


def _oracle_send(fabric, src, dst, payload, size_bytes=None):
    sender = fabric.endpoint(src)
    receiver = fabric.endpoint(dst)
    if src == dst:
        raise ValueError(f"endpoint {src!r} cannot send to itself")
    message = (
        Message(src=src, dst=dst, payload=payload)
        if size_bytes is None
        else Message(src=src, dst=dst, payload=payload, size_bytes=size_bytes)
    )
    return fabric.sim.process(_oracle_deliver(fabric, sender, receiver, message))


def _oracle_send_nowait(fabric, src, dst, payload, size_bytes=None):
    _oracle_send(fabric, src, dst, payload, size_bytes)


@contextlib.contextmanager
def _delivery(oracle):
    """Deliver through the oracle while active if *oracle*, else untouched."""
    with pytest.MonkeyPatch.context() as patch:
        if oracle:
            patch.setattr(Fabric, "send", _oracle_send)
            patch.setattr(Fabric, "send_nowait", _oracle_send_nowait)
        yield


def _tally(stat):
    return (stat.count, repr(stat.mean), repr(stat.minimum), repr(stat.maximum))


def _fingerprint(result):
    return (
        repr(result.epoch_s),
        repr(result.end_s),
        repr(result.energy_j),
        repr(result.energy_with_setup_j),
        repr(result.server_energy_j),
        result.transitions,
        result.buffer_hits,
        result.data_disk_hits,
        result.writes_buffered,
        result.writes_direct,
        result.writes_destaged,
        result.prefetch_files_copied,
        result.prefetch_bytes_copied,
        result.requests_failed,
        _tally(result.response_times),
        tuple(sorted((k, _tally(v)) for k, v in result.latency_components.items())),
        tuple(
            (n.name, repr(n.base_energy_j), repr(n.disk_energy_j), n.transitions)
            for n in result.nodes
        ),
    )


def _trace():
    return generate_synthetic_trace(SyntheticWorkload(n_requests=150, write_fraction=0.2))


def _run(config, oracle=False, seed=7):
    trace = _trace()
    with _delivery(oracle):
        return run_eevfs(trace, config, seed=seed)


def _digest(config, oracle=False, seed=7):
    """EventStreamHasher digest of a whole cluster run on one path."""
    from repro.core.filesystem import EEVFSCluster
    from repro.devtools.sanitizer import EventStreamHasher

    trace = _trace()
    with _delivery(oracle):
        cluster = EEVFSCluster(config=config, seed=seed)
        hasher = EventStreamHasher().attach(cluster.sim)
        cluster.run(trace)
    return hasher.hexdigest(), hasher.events_hashed


@pytest.mark.parametrize("config", CONFIGS, ids=CONFIG_IDS)
def test_generator_and_continuation_paths_are_byte_identical(config):
    old = _run(config, oracle=True)
    new = _run(config)
    assert _fingerprint(old) == _fingerprint(new)


@pytest.mark.parametrize("config", CONFIGS, ids=[f"cont-{name}" for name in CONFIG_IDS])
def test_event_stream_digest_is_deterministic_per_mode(config):
    # A same-seed run on the product path is digest-reproducible down
    # to the event stream.  Against the oracle the raw digests *cannot*
    # match -- continuation dispatch replaces per-message Process events
    # with pooled Continuation carriers, so the stream's type names (and
    # event counts) legitimately differ; cross-path equivalence is
    # asserted at the metrics level by
    # test_generator_and_continuation_paths_are_byte_identical above.
    assert _digest(config) == _digest(config)


def test_dispatch_modes_produce_different_streams_but_identical_metrics():
    # Sanity-pin the asymmetry the comments claim (same metrics,
    # asserted above; different event streams), which also proves the
    # oracle patch took effect.
    config = EEVFSConfig()
    assert _digest(config, oracle=True)[0] != _digest(config)[0]
