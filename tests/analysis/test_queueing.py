"""Unit tests for the M/G/1 queueing approximations."""

import pytest

from repro.analysis.queueing import (
    deterministic_second_moment,
    mg1_mean_response_s,
    mg1_mean_wait_s,
    utilization,
)


class TestUtilization:
    def test_rho(self):
        assert utilization(2.0, 0.25) == pytest.approx(0.5)

    def test_validation(self):
        with pytest.raises(ValueError):
            utilization(-1, 0.1)


class TestPollaczekKhinchine:
    def test_md1_known_value(self):
        """M/D/1 at rho=0.5 with E[S]=1: W = rho/(2(1-rho)) * E[S] = 0.5."""
        wait = mg1_mean_wait_s(0.5, 1.0, deterministic_second_moment(1.0))
        assert wait == pytest.approx(0.5)

    def test_mm1_known_value(self):
        """M/M/1 (E[S^2] = 2 E[S]^2) at rho=0.5: W = rho/(1-rho) E[S] = 1."""
        assert mg1_mean_wait_s(0.5, 1.0, 2.0) == pytest.approx(1.0)

    def test_response_is_wait_plus_service(self):
        response = mg1_mean_response_s(0.5, 1.0, 2.0)
        assert response == pytest.approx(2.0)

    def test_zero_load_means_zero_wait(self):
        assert mg1_mean_wait_s(0.0, 1.0, 1.0) == 0.0

    def test_unstable_queue_rejected(self):
        with pytest.raises(ValueError, match="unstable"):
            mg1_mean_wait_s(2.0, 1.0, 1.0)

    def test_impossible_second_moment_rejected(self):
        with pytest.raises(ValueError):
            mg1_mean_wait_s(0.1, 1.0, 0.5)

    def test_wait_grows_with_variance(self):
        low_var = mg1_mean_wait_s(0.5, 1.0, 1.0)
        high_var = mg1_mean_wait_s(0.5, 1.0, 5.0)
        assert high_var > low_var


class TestSimulatorAgreement:
    """The simulator must agree with M/D/1 on a workload built to match
    its assumptions (single disk, Poisson arrivals, fixed-size requests)."""

    @pytest.mark.parametrize("rho_target", [0.3, 0.6])
    def test_single_disk_queue_matches_md1(self, rho_target):
        import numpy as np

        from repro.disk import ATA_80GB_TYPE1, SimDisk
        from repro.sim import Simulator

        MB = 1024 * 1024
        size = 8 * MB
        service = ATA_80GB_TYPE1.positioning_s + size / ATA_80GB_TYPE1.bandwidth_bps
        rate = rho_target / service
        rng = np.random.default_rng(7)
        n = 3000

        sim = Simulator()
        disk = SimDisk(sim, ATA_80GB_TYPE1)
        responses = []

        gaps = iter(rng.exponential(1.0 / rate, size=n))

        def arrive(_value=None):
            # Submit one request, time its response, sleep until the next.
            t0 = sim.now
            disk.submit(size).done.callbacks.append(
                lambda _event: responses.append(sim.now - t0)
            )
            gap = next(gaps, None)
            if gap is not None:
                sim.call_later(gap, arrive)

        sim.call_later(next(gaps), arrive)
        sim.run()
        measured = sum(responses) / len(responses)
        expected = mg1_mean_response_s(
            rate, service, deterministic_second_moment(service)
        )
        assert measured == pytest.approx(expected, rel=0.15)
