"""Property-based tests for the power manager's safety invariants."""

from hypothesis import given, HealthCheck, settings
from hypothesis import strategies as st

from repro.core.power import PowerManager
from repro.disk import ATA_80GB_TYPE1, DiskState, SimDisk
from repro.sim import Simulator

MB = 1024 * 1024
SPEC = ATA_80GB_TYPE1

FAST = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def hint_patterns(draw):
    """Sorted future (time, seq) patterns for two disks."""
    n = draw(st.integers(min_value=0, max_value=12))
    times = sorted(
        draw(
            st.lists(
                st.floats(min_value=0.1, max_value=300.0),
                min_size=n,
                max_size=n,
            )
        )
    )
    seqs = sorted(draw(st.sets(st.integers(0, 500), min_size=n, max_size=n)))
    return times, list(seqs)


@FAST
@given(hint_patterns(), hint_patterns(), st.floats(min_value=0.5, max_value=20.0))
def test_manager_never_sleeps_a_busy_disk(pattern_a, pattern_b, threshold):
    """Whatever the hints say, a disk with in-flight work stays awake."""
    sim = Simulator()
    disks = [SimDisk(sim, SPEC, name=f"d{i}") for i in range(2)]
    pm = PowerManager(sim, disks, idle_threshold_s=threshold, wake_ahead=False)
    # Both disks get a long job before hints arrive.
    for d in disks:
        d.submit(64 * MB)
    pm.set_hints(
        [pattern_a[0], pattern_b[0]],
        [pattern_a[1], pattern_b[1]],
        hint_gap_s=1.0,
    )
    # At hint time the disks are busy: neither may be transitioning down.
    for d in disks:
        assert d.state in (DiskState.ACTIVE, DiskState.IDLE)
    sim.run(until=5.0)


@FAST
@given(hint_patterns(), st.integers(min_value=0, max_value=20))
def test_note_arrival_consumes_in_order(pattern, arrivals):
    """Pops never underflow and the head only moves forward."""
    sim = Simulator()
    disk = SimDisk(sim, SPEC)
    pm = PowerManager(sim, [disk], idle_threshold_s=5.0, wake_ahead=False)
    times, seqs = pattern
    pm.set_hints([times], [seqs], hint_gap_s=1.0)
    previous = pm.next_access_time(0)
    for _ in range(arrivals):
        pm.note_node_arrival()
        pm.note_arrival(0)
        current = pm.next_access_time(0)
        if previous is not None and current is not None:
            assert current >= previous
        previous = current
    # Exhausted pattern predicts an infinite window.
    if arrivals >= len(times):
        assert pm.next_access_time(0) is None
        assert pm.predicted_window_s(0) == float("inf")


@FAST
@given(
    st.lists(st.floats(min_value=0.05, max_value=5.0), min_size=2, max_size=20),
    st.integers(min_value=1, max_value=50),
)
def test_gap_ewma_stays_within_observed_range(gaps, lookahead):
    """The pace estimate never leaves the convex hull of observed gaps,
    so predicted windows cannot explode."""
    sim = Simulator()
    disk = SimDisk(sim, SPEC)
    pm = PowerManager(sim, [disk], idle_threshold_s=5.0, wake_ahead=False)
    pm.set_hints([[1e9]], [[10_000]], hint_gap_s=gaps[0])

    def arrive(index):
        pm.note_node_arrival()
        if index + 1 < len(gaps):
            sim.call_later(gaps[index + 1], arrive, index + 1)

    sim.call_later(gaps[0], arrive, 0)
    sim.run()
    assert min(gaps) - 1e-9 <= pm._gap_ewma_s <= max(gaps) + 1e-9
    window = pm.predicted_window_s(0)
    assert window <= (10_000 - pm.arrivals_seen) * max(gaps) + 1e-6
