"""Zero-cost-when-disabled regression tests.

The observability subsystem's hard contract (ISSUE 5):

* with ``obs=False`` the instrumentation must be invisible -- same-seed
  runs produce byte-identical :class:`EventStreamHasher` digests, with
  or without an obs-enabled run in between;
* with ``obs=True`` the *reported metrics* must not change: tracing
  observes the simulation, it never participates in it, so the run's
  whole record is byte-identical.

(The obs-ON event stream legitimately differs from obs-OFF -- the
telemetry sampler schedules its own timeouts -- which is exactly why the
contract is stated over digests for the disabled case and over metric
values for the enabled case.)
"""

import numpy as np

from repro.core import EEVFSConfig, run_eevfs
from repro.core.filesystem import canonical_json, EEVFSCluster
from repro.devtools.sanitizer import assert_deterministic, EventStreamHasher
from repro.traces import generate_synthetic_trace
from repro.traces.synthetic import MB, SyntheticWorkload


def small_trace(n_requests=80):
    return generate_synthetic_trace(
        SyntheticWorkload(
            n_requests=n_requests,
            n_files=60,
            mu=60,
            data_size_bytes=2 * MB,
            inter_arrival_s=0.2,
        ),
        rng=np.random.default_rng(11),
    )


def digest_cluster_run(trace, obs):
    """Run the full cluster with a hasher attached; return its digest."""
    cluster = EEVFSCluster(config=EEVFSConfig(), seed=0, obs=obs)
    hasher = EventStreamHasher().attach(cluster.sim)
    result = cluster.run(trace)
    hasher.detach(cluster.sim)
    return hasher.hexdigest(), result


def test_obs_disabled_runs_are_deterministic():
    trace = small_trace()
    digest_a, _ = digest_cluster_run(trace, obs=False)
    digest_b, _ = digest_cluster_run(trace, obs=False)
    assert digest_a == digest_b


def test_obs_enabled_run_does_not_perturb_later_disabled_runs():
    # An obs=True run in between must leave no trace on obs=False runs:
    # no module-level state, no shared RNG draws, nothing.
    trace = small_trace()
    before, _ = digest_cluster_run(trace, obs=False)
    digest_cluster_run(trace, obs=True)
    after, _ = digest_cluster_run(trace, obs=False)
    assert before == after


def test_obs_enabled_metrics_match_disabled():
    trace = small_trace(n_requests=120)
    plain = run_eevfs(trace, config=EEVFSConfig(), seed=0, obs=False)
    traced = run_eevfs(trace, config=EEVFSConfig(), seed=0, obs=True)
    assert plain.trace is None
    assert traced.trace is not None
    assert canonical_json(plain.record()) == canonical_json(traced.record())


def test_obs_enabled_npf_metrics_match_disabled():
    trace = small_trace()
    config = EEVFSConfig(prefetch_enabled=False)
    plain = run_eevfs(trace, config=config, seed=0, obs=False)
    traced = run_eevfs(trace, config=config, seed=0, obs=True)
    assert canonical_json(plain.record()) == canonical_json(traced.record())


def test_traced_run_covers_the_required_span_kinds():
    trace = small_trace(n_requests=120)
    result = run_eevfs(trace, config=EEVFSConfig(), seed=0, obs=True)
    kinds = set(result.trace.span_kinds())
    assert {"request", "server.lookup", "net.transfer",
            "node.dispatch", "disk.service"} <= kinds
    assert result.trace.series  # telemetry sampled
    assert any(len(s) > 1 for s in result.trace.series.values())


def test_traced_cluster_installs_no_engine_hook():
    """Tracing publishes the tracer and starts the sampler but hooks no
    dispatch, so a traced run keeps the engine's inlined loop."""
    cluster = EEVFSCluster(config=EEVFSConfig(), seed=0, obs=True)
    assert cluster.sim.tracer is cluster.observer.tracer
    assert cluster.sim._event_hooks == []
    cluster.run(small_trace())
    assert cluster.sim._event_hooks == []


def test_traced_runs_are_deterministic_too():
    # Tracing must not introduce nondeterminism of its own.
    trace = small_trace()

    def build():
        return EEVFSCluster(config=EEVFSConfig(), seed=0, obs=True)

    first = build().run(trace)
    second = build().run(trace)
    assert canonical_json(first.record()) == canonical_json(second.record())
    assert len(first.trace.spans) == len(second.trace.spans)


def test_assert_deterministic_still_passes_on_plain_disk_model():
    # The seed's tier-1 determinism harness keeps working alongside obs.
    from repro.disk import ATA_80GB_TYPE1, SimDisk
    from repro.sim import Simulator

    def build():
        sim = Simulator()
        disk = SimDisk(sim, ATA_80GB_TYPE1, auto_sleep_after=2.0)
        rng = np.random.default_rng(5)

        def sleep_then_submit(left):
            # A closed-loop client: sleep, submit, wait for it, repeat.
            if left:
                sim.call_later(float(rng.exponential(1.0)), submit, left)

        def submit(left):
            request = disk.submit(int(rng.integers(1, 1 << 20)))
            request.done.callbacks.append(lambda _event: sleep_then_submit(left - 1))

        sleep_then_submit(30)
        return sim

    digest = assert_deterministic(build, runs=2, label="obs-era disk model")
    assert len(digest) == 32
