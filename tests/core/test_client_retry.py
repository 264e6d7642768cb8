"""Client-side retries: transient faults are no longer terminal.

Regression suite for the old behaviour where the first ``RequestFailed``
reply permanently failed a request: a node crash that healed seconds
later still cost every in-flight request.  With bounded retries and
capped exponential backoff, a client rides out an outage shorter than
its retry budget and only *abandons* (never raises) when the budget is
exhausted.
"""

import numpy as np
import pytest

from repro.core import EEVFSConfig
from repro.core.client import RetryPolicy
from repro.core.filesystem import EEVFSCluster
from repro.core.protocol import FileData
from repro.experiments.metaplane import drill_config, drill_trace, leader_crash_schedule
from repro.faults import FaultSchedule
from repro.traces import generate_synthetic_trace
from repro.traces.synthetic import SyntheticWorkload


def trace(n_requests=300, seed=6):
    return generate_synthetic_trace(
        SyntheticWorkload(n_files=80, n_requests=n_requests),
        rng=np.random.default_rng(seed),
    )


def transient_outage():
    """node3 dies at 20 s and is back at 40 s."""
    return (
        FaultSchedule()
        .node_fail("node3", at=20.0)
        .node_repair("node3", at=40.0)
    )


class TestTransientFaultRecovery:
    def test_outage_shorter_than_retry_budget_loses_nothing(self):
        # Backoff 2, 4, 8, 8, 8, 8 s: the six retries span ~38 s, well
        # past the 20 s outage -- every request eventually succeeds.
        config = EEVFSConfig(
            request_max_retries=6,
            request_backoff_base_s=2.0,
            request_backoff_cap_s=8.0,
        )
        cluster = EEVFSCluster(config=config, faults=transient_outage())
        result = cluster.run(trace())
        assert result.requests_failed == 0
        assert result.requests_abandoned == 0
        assert result.requests_retried > 0
        assert result.availability == 1.0
        assert result.requests_total == 300

    def test_without_retries_the_same_outage_fails_requests(self):
        # The pre-retry behaviour, pinned: max_retries=0 restores
        # first-failure-is-terminal and the outage becomes visible.
        config = EEVFSConfig(request_max_retries=0)
        cluster = EEVFSCluster(config=config, faults=transient_outage())
        result = cluster.run(trace())
        assert result.requests_failed > 0
        assert result.requests_retried == 0
        assert result.availability < 1.0

    def test_abandonment_is_bounded_by_the_retry_budget(self):
        # Node never repaired: doomed requests abandon after exactly
        # 1 + max_retries attempts, and the run still drains cleanly.
        config = EEVFSConfig(request_max_retries=2)
        cluster = EEVFSCluster(
            config=config, faults=FaultSchedule().node_fail("node3", at=20.0)
        )
        result = cluster.run(trace())
        assert result.requests_abandoned == result.requests_failed > 0
        assert result.requests_retried == 2 * result.requests_abandoned
        assert result.requests_total + result.requests_failed == 300

    def test_failure_reasons_name_the_attempt_count(self):
        config = EEVFSConfig(request_max_retries=2)
        cluster = EEVFSCluster(
            config=config, faults=FaultSchedule().node_fail("node3", at=20.0)
        )
        cluster.run(trace())
        assert cluster.client.failures
        for _, _, reason in cluster.client.failures:
            assert "abandoned after 3 attempts" in reason


class TestRetryPolicy:
    def test_from_config_copies_the_knobs(self):
        config = EEVFSConfig(
            request_max_retries=5,
            request_timeout_s=7.0,
            request_backoff_base_s=0.25,
            request_backoff_cap_s=3.0,
        )
        policy = RetryPolicy.from_config(config)
        assert policy.max_retries == 5
        assert policy.timeout_s == 7.0
        assert policy.backoff_base_s == 0.25
        assert policy.backoff_cap_s == 3.0
        assert policy.jitter == RetryPolicy().jitter == 0.1

    def test_config_validates_retry_knobs(self):
        with pytest.raises(ValueError):
            EEVFSConfig(request_max_retries=-1)
        with pytest.raises(ValueError):
            EEVFSConfig(request_timeout_s=0.0)
        with pytest.raises(ValueError):
            EEVFSConfig(request_backoff_base_s=-0.1)

    def test_timeouts_rearm_per_attempt(self):
        # A slow-but-alive path plus a tight timeout: the watcher fires,
        # the retry succeeds, and the reply that eventually arrives for
        # the timed-out attempt is counted as a duplicate, not a crash.
        config = EEVFSConfig(
            request_timeout_s=0.9,
            request_max_retries=4,
            request_backoff_base_s=0.5,
            request_backoff_cap_s=2.0,
        )
        cluster = EEVFSCluster(
            config=config,
            faults=FaultSchedule().slow_disk(
                "node1/data0", at=10.0, factor=20.0, until=60.0
            ),
        )
        result = cluster.run(trace())
        assert result.requests_total + result.requests_failed == 300
        if result.request_timeouts:
            assert result.requests_retried > 0


class TestSettledRequestsLeaveNoState:
    """A request's client state lives only while it is in flight."""

    @pytest.fixture
    def drilled(self):
        # The metadata-plane leader-crash drill: timeouts, retries and
        # NOT_LEADER redirects on the way to every settlement.
        cluster = EEVFSCluster(
            config=drill_config(3), seed=1, faults=leader_crash_schedule(4)
        )
        result = cluster.run(drill_trace(n_requests=400, trace_seed=1))
        assert result.request_timeouts > 0
        assert result.requests_retried > 0
        return cluster

    @staticmethod
    def deliver(cluster, request_id):
        """A FileData reply for *request_id* through the fabric, after the run."""
        reply = FileData(request_id=request_id, file_id=0, size_bytes=1, served_by="data0")
        cluster.fabric.send_nowait("node1", cluster.client.name, reply)
        cluster.sim.run(until=cluster.sim.now + 1.0)

    def test_settling_drops_every_per_request_entry(self, drilled):
        client = drilled.client
        assert client._pending == {}
        assert client._requests == {}
        assert client._attempts == {}
        assert client._retry_scheduled == set()
        assert client._waiters == {}
        assert len(client._issued) == 400

    def test_late_reply_for_a_settled_request_is_a_duplicate(self, drilled):
        client = drilled.client
        before = client.duplicate_replies
        served = client.response_times.count
        self.deliver(drilled, client._issued[len(client._issued) // 2])
        assert client.duplicate_replies == before + 1
        assert client.response_times.count == served

    def test_reply_for_a_request_never_issued_raises(self, drilled):
        with pytest.raises(KeyError, match="unknown request"):
            self.deliver(drilled, drilled.client._issued[-1] + 1)
