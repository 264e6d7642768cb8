"""Unit tests for the SSD backend: cache, destage, GC contention,
DEVSLP power states, failure semantics, spans, and energy accounting."""

import pytest

from repro.backend.ssd import SATA_SSD_32GB, SSDBackend, SSDSpec
from repro.disk.drive import (
    DiskFailureError,
    PRIORITY_BACKGROUND,
    RequestKind,
)
from repro.disk.energy import break_even_time
from repro.disk.states import DiskState
from repro.sim.engine import Simulator
from repro.sim.events import AllOf

KiB = 1024
MiB = 1024 * KiB

#: A deliberately tiny device so a handful of writes exercises wrap,
#: destage backpressure and GC.
TINY = SSDSpec(
    name="tiny-ssd",
    capacity_bytes=4 * MiB,       # 64 pages of 64 KiB
    n_channels=2,
    pages_per_block=4,
    write_cache_bytes=512 * KiB,
    overprovision=0.25,
    gc_free_fraction=0.2,
)


def _settle(sim, horizon=500.0):
    """Advance the clock so background destage/GC work completes."""
    sim.run(until=sim.now + horizon)


def _watch(sim, request):
    """Park a watcher on the request so a failure is not unhandled."""

    def watcher(event):
        if not event.ok:
            assert isinstance(event.value, DiskFailureError)
            event.defuse()

    request.done.callbacks.append(watcher)


class TestServiceAndCache:
    def test_write_read_roundtrip_counts_and_states(self):
        sim = Simulator()
        ssd = SSDBackend(sim, TINY, name="s")
        w = ssd.submit(256 * KiB, kind=RequestKind.WRITE, tag=("write", 1))
        sim.run(until=w.done)
        assert ssd.requests_served == 1
        assert ssd.host_pages_written == 4
        _settle(sim, 5.0)  # let the destager program the extent
        assert ssd.dirty_bytes == 0
        assert ssd.ftl.counters.nand_pages_programmed == 4
        r = ssd.submit(256 * KiB, kind=RequestKind.READ, tag=("read", 1))
        sim.run(until=r.done)
        assert ssd.ftl.counters.nand_pages_read >= 4
        assert ssd.state is DiskState.IDLE  # busy refcount fully unwound
        assert ssd.inflight == 0

    def test_read_of_dirty_extent_is_a_cache_hit(self):
        sim = Simulator()
        ssd = SSDBackend(sim, TINY, name="s")
        w = ssd.submit(128 * KiB, kind=RequestKind.WRITE, tag=("write", 7))
        r = ssd.submit(128 * KiB, kind=RequestKind.READ, tag=("read", 7))
        sim.run(until=AllOf(sim, [w.done, r.done]))
        assert ssd.cache_hits == 1

    def test_write_absorption_keeps_wa_below_one(self):
        sim = Simulator()
        # Slow programs => the destager is still grinding on the first
        # copy while the host overwrites the same extent repeatedly.
        # 128 KiB extents leave cache headroom, so the rewrites are
        # accepted (and absorbed) instead of parking on backpressure.
        spec = TINY.with_overrides(page_program_s=0.5)
        ssd = SSDBackend(sim, spec, name="s")
        done = [
            ssd.submit(128 * KiB, kind=RequestKind.WRITE, tag=("write", 3)).done
            for _ in range(5)
        ]
        sim.run(until=AllOf(sim, done))
        _settle(sim, 100.0)
        assert ssd.host_pages_written == 10
        # One entry was destaging, the absorbed rewrites collapsed into
        # (at most) one more program batch.
        assert ssd.ftl.counters.nand_pages_programmed < 10
        assert ssd.write_amplification < 1.0

    def test_backpressure_blocks_writers_until_destage_frees_space(self):
        sim = Simulator()
        spec = TINY.with_overrides(page_program_s=0.05)
        ssd = SSDBackend(sim, spec, name="s")
        # Fill the 512 KiB cache, then one more write must wait.
        first = ssd.submit(512 * KiB, kind=RequestKind.WRITE, tag=("write", 1))
        second = ssd.submit(512 * KiB, kind=RequestKind.WRITE, tag=("write", 2))
        sim.run(until=first.done)
        accepted_first = sim.now
        sim.run(until=second.done)
        # The second write could not be accepted at cache bandwidth right
        # away: it waited for the destager (page programs at 50 ms each).
        assert sim.now - accepted_first > 512 * KiB / spec.cache_bandwidth_bps
        _settle(sim, 100.0)
        assert ssd.dirty_bytes == 0

    def test_rewrite_churn_triggers_gc_on_device(self):
        sim = Simulator()
        # A deep free reserve makes GC dig past the fully-dead blocks of
        # the last churn round and into partially-valid victims, so live
        # (cold) pages must actually move.
        ssd = SSDBackend(sim, TINY.with_overrides(gc_free_fraction=0.4), name="s")

        def write_round(tags):
            done = [
                ssd.submit(64 * KiB, kind=RequestKind.WRITE, tag=("write", t)).done
                for t in tags
            ]
            sim.run(until=AllOf(sim, done))
            _settle(sim, 50.0)

        # Fill most of the logical space with single-page extents (the
        # tail stays cold), then churn a hot prefix that interleaves
        # with cold pages inside the striped blocks.
        write_round(range(48))
        for round_no in range(8):
            write_round(range(18))
        counters = ssd.ftl.counters
        assert counters.blocks_erased > 0
        assert counters.pages_relocated > 0
        assert ssd.write_amplification > 1.0
        assert ssd.ftl.max_erase_count > 0

    def test_demand_reads_overtake_background_programs(self):
        sim = Simulator()
        spec = TINY.with_overrides(page_program_s=0.2)
        ssd = SSDBackend(sim, spec, name="s")
        w = ssd.submit(512 * KiB, kind=RequestKind.WRITE, tag=("write", 1))
        sim.run(until=w.done)
        # Destage of 8 pages is now grinding; a demand read of another
        # (unmapped) extent must not wait for all of it.
        r = ssd.submit(64 * KiB, kind=RequestKind.READ, tag=("read", 99))
        sim.run(until=r.done)
        assert sim.now < 1.0
        _settle(sim, 100.0)


class TestPowerStates:
    def test_auto_sleep_and_wake_cycle(self):
        sim = Simulator()
        ssd = SSDBackend(sim, TINY, name="s", auto_sleep_after=1.0)
        w = ssd.submit(128 * KiB, kind=RequestKind.WRITE, tag=("write", 1))
        sim.run(until=w.done)
        _settle(sim, 30.0)
        assert ssd.state is DiskState.STANDBY
        assert ssd.meter.spindown_count == 1
        r = ssd.submit(64 * KiB, kind=RequestKind.READ, tag=("read", 1))
        sim.run(until=r.done)
        assert ssd.meter.spinup_count == 1
        assert ssd.transition_count == 2

    def test_sleep_refused_while_dirty_or_busy(self):
        sim = Simulator()
        spec = TINY.with_overrides(page_program_s=0.5)
        ssd = SSDBackend(sim, spec, name="s")
        w = ssd.submit(512 * KiB, kind=RequestKind.WRITE, tag=("write", 1))
        sim.run(until=w.done)
        assert ssd.dirty_bytes > 0
        assert ssd.request_sleep() is False
        _settle(sim, 100.0)
        assert ssd.request_sleep() is True
        _settle(sim, 1.0)
        assert ssd.state is DiskState.STANDBY
        assert ssd.is_sleeping

    def test_break_even_time_is_milliseconds(self):
        # The DEVSLP mapping makes the SSD's break-even window tiny --
        # the property that justifies a short buffer-tier idle timer.
        assert break_even_time(TINY) < 0.5
        assert break_even_time(SATA_SSD_32GB) < 0.5

    def test_set_idle_threshold_contract_matches_simdisk(self):
        sim = Simulator()
        timerless = SSDBackend(sim, TINY, name="a")
        with pytest.raises(ValueError, match="no idle timer"):
            timerless.set_idle_threshold(1.0)
        timed = SSDBackend(sim, TINY, name="b", auto_sleep_after=5.0)
        with pytest.raises(ValueError):
            timed.set_idle_threshold(-1.0)
        timed.set_idle_threshold(0.25)
        assert timed.auto_sleep_after == 0.25

    def test_injected_wake_failures_are_counted_and_retried(self):
        sim = Simulator()
        ssd = SSDBackend(sim, TINY, name="s", auto_sleep_after=0.5)
        _settle(sim, 5.0)
        assert ssd.state is DiskState.STANDBY
        wakes = ssd.meter.spinup_count
        ssd.inject_spinup_failures(1, backoff_s=0.2)
        r = ssd.submit(64 * KiB, kind=RequestKind.READ, tag=("read", 1))
        sim.run(until=r.done)
        assert ssd.meter.spinup_count == wakes + 2  # the failed wake, then the retry
        assert ssd.requests_served == 1


class TestFailureSemantics:
    def test_fail_fails_queued_requests_and_clears_cache(self):
        sim = Simulator()
        spec = TINY.with_overrides(page_program_s=0.5)
        ssd = SSDBackend(sim, spec, name="s")
        requests = [
            ssd.submit(256 * KiB, kind=RequestKind.WRITE, tag=("write", fid))
            for fid in range(4)
        ]
        for request in requests:
            _watch(sim, request)
        # 0.5 ms in, the first transfer (256 KiB at 400 MB/s ~ 0.66 ms)
        # is still on the wire: nothing has become durable yet.
        sim.run(until=0.0005)
        ssd.fail()
        _settle(sim, 10.0)
        assert ssd.state is DiskState.FAILED
        assert ssd.dirty_bytes == 0
        assert ssd.inflight == 0
        failed = [r for r in requests if r.done.triggered and not r.done.ok]
        assert len(failed) == 4

    def test_fail_mid_destage_drops_cache_and_queued_channel_jobs(self):
        from repro.obs.tracer import Tracer

        sim = Simulator()
        sim.tracer = Tracer(sim)
        spec = TINY.with_overrides(page_program_s=0.5)
        ssd = SSDBackend(sim, spec, name="s")
        writes = [
            ssd.submit(256 * KiB, kind=RequestKind.WRITE, tag=("write", fid))
            for fid in range(2)
        ]
        sim.run(until=AllOf(sim, [w.done for w in writes]))
        # The destager is programming the first extent: one job per
        # channel in service, the rest queued behind it.
        sim.run(until=sim.now + 0.1)
        assert ssd.dirty_bytes > 0
        failed_at = sim.now
        ssd.fail()
        assert ssd.dirty_bytes == 0  # the cache is lost with the controller
        _settle(sim, 100.0)
        late = [
            span for span in sim.tracer.spans
            if span.kind == "ssd.channel" and span.start_s > failed_at
        ]
        assert late == []  # no queued NAND work ran on the dead device
        assert ssd.inflight == 0

    def test_repair_restores_service_from_standby(self):
        sim = Simulator()
        ssd = SSDBackend(sim, TINY, name="s")
        ssd.fail()
        ssd.repair()
        assert ssd.state is DiskState.STANDBY
        r = ssd.submit(64 * KiB, kind=RequestKind.READ, tag=("read", 1))
        sim.run(until=r.done)
        assert ssd.requests_served == 1
        # The destager survived the outage: a fresh write destages.
        w = ssd.submit(128 * KiB, kind=RequestKind.WRITE, tag=("write", 2))
        sim.run(until=w.done)
        _settle(sim, 100.0)
        assert ssd.dirty_bytes == 0

    def test_slowdown_scales_service_time(self):
        def read_time(slow):
            sim = Simulator()
            ssd = SSDBackend(sim, TINY, name="s")
            ssd.set_slowdown(slow)
            r = ssd.submit(
                512 * KiB, kind=RequestKind.READ, tag=("read", 1),
                priority=PRIORITY_BACKGROUND,
            )
            sim.run(until=r.done)
            return sim.now

        assert read_time(3.0) == pytest.approx(3.0 * read_time(1.0))
        with pytest.raises(ValueError):
            SSDBackend(Simulator(), TINY).set_slowdown(0.5)


class TestEnergyAndObservability:
    def test_energy_includes_nand_op_energy(self):
        sim = Simulator()
        ssd = SSDBackend(sim, TINY, name="s")
        w = ssd.submit(256 * KiB, kind=RequestKind.WRITE, tag=("write", 1))
        sim.run(until=w.done)
        _settle(sim, 10.0)
        ssd.finalize()
        rail = ssd.meter.energy_j(until=sim.now)
        assert ssd.energy_j() > rail
        assert ssd.energy_j() - rail == pytest.approx(
            4 * TINY.page_program_energy_j
        )

    def test_spans_cover_destage_channels_and_gc(self):
        from repro.obs.tracer import Tracer

        sim = Simulator()
        tracer = Tracer(sim)
        sim.tracer = tracer
        ssd = SSDBackend(sim, TINY, name="s")
        for round_no in range(12):
            done = [
                ssd.submit(
                    256 * KiB, kind=RequestKind.WRITE, tag=("write", fid)
                ).done
                for fid in range(8)
            ]
            sim.run(until=AllOf(sim, done))
            _settle(sim, 50.0)
        kinds = {span.kind for span in tracer.spans}
        assert "ssd.destage" in kinds
        assert "ssd.channel" in kinds
        assert "ssd.gc" in kinds

    def test_deterministic_same_seed_byte_identical(self):
        def run():
            sim = Simulator()
            ssd = SSDBackend(sim, TINY, name="s", auto_sleep_after=1.0)
            for round_no in range(8):
                done = [
                    ssd.submit(
                        (64 + 64 * ((round_no + fid) % 3)) * KiB,
                        kind=RequestKind.WRITE,
                        tag=("write", fid),
                    ).done
                    for fid in range(6)
                ]
                sim.run(until=AllOf(sim, done))
                _settle(sim, 20.0)
            ssd.finalize()
            return (
                repr(ssd.energy_j()),
                repr(sim.now),
                ssd.requests_served,
                ssd.host_pages_written,
                ssd.ftl.counters.nand_pages_programmed,
                ssd.ftl.counters.blocks_erased,
                tuple(ssd.ftl.erase_counts),
                ssd.transition_count,
            )

        assert run() == run()
