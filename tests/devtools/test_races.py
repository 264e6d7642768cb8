"""Schedule-perturbation sanitizer: hashers, invariants, the race suite.

The contract under test: a model with no dependence on same-time
dispatch order sails through :func:`assert_schedule_invariant`; a model
that sneaks order dependence in (the kind simlint's SIM003/CONT001 hunt
statically) is caught dynamically; and the whole-cluster race suite
classifies EEVFS scenarios by conservation, not by bit-equal metrics.
"""

import json

import pytest

from repro.core.filesystem import canonical_json
from repro.devtools.racesuite import (
    conservation_fingerprint,
    default_scenarios,
    render_race_json,
    render_race_text,
    run_scenario,
)
from repro.devtools.sanitizer import (
    assert_schedule_invariant,
    perturbed_digest_run,
    ScheduleRaceError,
    TimeBucketHasher,
)
from repro.obs import Tracer
from repro.sim.engine import Simulator
from repro.sim.events import Event


def _race_free_build():
    """Eight same-time continuations touching independent state, then a
    follow-up timeout: permutable with no observable consequence."""
    sim = Simulator()
    counters = [0] * 8

    def bump(index):
        counters[index] += 1

    for i in range(8):
        sim.call_soon(bump, i)
    sim.call_later(1.0, lambda _: None)
    return sim


def _racy_build():
    """Same-time continuations racing on shared state: the *last* writer
    decides a later timeout's delay, so dispatch order leaks into the
    schedule -- the dynamic shape of a SIM003/CONT001 hazard."""
    sim = Simulator()
    cell = [0.0]

    def write(value):
        cell[0] = value

    for i in range(6):
        sim.call_soon(write, float(i + 1))

    def fire(_):
        sim.call_later(cell[0], lambda _: None)

    sim.call_later(1.0, fire)
    return sim


class TestTimeBucketHasher:
    def _event(self, sim, ok=True):
        event = Event(sim)
        event._ok = ok
        return event

    def test_order_within_a_timestamp_does_not_matter(self):
        sim = Simulator()
        a, b = self._event(sim), self._event(sim, ok=False)
        forward, backward = TimeBucketHasher(), TimeBucketHasher()
        forward(1.0, a)
        forward(1.0, b)
        backward(1.0, b)
        backward(1.0, a)
        assert forward.hexdigest() == backward.hexdigest()
        assert forward.events_hashed == 2

    def test_order_across_timestamps_does_matter(self):
        sim = Simulator()
        a, b = self._event(sim), self._event(sim, ok=False)
        forward, backward = TimeBucketHasher(), TimeBucketHasher()
        forward(1.0, a)
        forward(2.0, b)
        backward(1.0, b)
        backward(2.0, a)
        assert forward.hexdigest() != backward.hexdigest()

    def test_event_migrating_between_timestamps_changes_the_digest(self):
        sim = Simulator()
        one, other = TimeBucketHasher(), TimeBucketHasher()
        one(1.0, self._event(sim))
        other(2.0, self._event(sim))
        assert one.hexdigest() != other.hexdigest()

    def test_hexdigest_is_non_destructive(self):
        sim = Simulator()
        hasher = TimeBucketHasher()
        hasher(1.0, self._event(sim))
        first = hasher.hexdigest()
        assert hasher.hexdigest() == first
        hasher(1.0, self._event(sim))
        assert hasher.hexdigest() != first


class TestScheduleInvariance:
    def test_race_free_model_is_invariant(self):
        digest = assert_schedule_invariant(_race_free_build, label="race-free")
        assert digest == perturbed_digest_run(_race_free_build, None).bucket_digest

    def test_perturbation_actually_exercised(self):
        probe = perturbed_digest_run(_race_free_build, seed=13)
        assert probe.picks > 0
        assert probe.events > 0

    def test_racy_model_is_caught(self):
        with pytest.raises(ScheduleRaceError, match="racy"):
            assert_schedule_invariant(_racy_build, label="racy")

    def test_perturbed_run_is_reproducible(self):
        first = perturbed_digest_run(_racy_build, seed=21)
        second = perturbed_digest_run(_racy_build, seed=21)
        assert first.stream_digest == second.stream_digest
        assert first.bucket_digest == second.bucket_digest

    def test_observed_perturbed_run_records_a_sanitizer_span(self):
        def build():
            sim = Simulator()
            sim.tracer = Tracer(sim)
            for i in range(3):
                sim.call_soon(lambda _: None)
            return sim

        sim_holder = {}
        original = build

        def capturing_build():
            sim = original()
            sim_holder["sim"] = sim
            return sim

        probe = perturbed_digest_run(capturing_build, seed=2)
        spans = sim_holder["sim"].tracer.spans
        marks = [s for s in spans if s.kind == "sanitizer.perturbation"]
        assert len(marks) == 1
        assert marks[0].tags["seed"] == 2
        assert marks[0].tags["events"] == probe.events


class TestRaceSuite:
    def test_default_scenarios_cover_the_seven_targets(self):
        names = [s.label for s in default_scenarios(n_requests=10)]
        assert names == [
            "sweep:data_size=20MB",
            "sweep:mu=500",
            "sweep:inter_arrival=350ms",
            "sweep:prefetch_count=100",
            "metaplane:leader-crash",
            "online:adaptive",
            "ssd:buffer-faults",
        ]

    def test_one_scenario_end_to_end(self):
        scenario = default_scenarios(n_requests=40)[0]
        report = run_scenario(scenario, seeds=(1, 2))
        assert report.ok, report.problems
        conservation = json.loads(report.conservation)
        assert conservation["served"] == 40
        assert conservation["failed"] == 0
        assert report.served == 40

    def test_ssd_fault_scenario_end_to_end(self):
        # Both device classes under the whole shared fault surface.
        scenario = default_scenarios()[-1]
        report = run_scenario(scenario, seeds=(101, 303))
        assert report.ok, report.problems
        conservation = json.loads(report.conservation)
        assert conservation["served"] + conservation["failed"] == 150
        assert conservation["failed"] > 0  # the faults bit

    def test_fingerprints_are_canonical_json(self):
        from repro.core import EEVFSConfig, run_eevfs
        from repro.traces.synthetic import (
            SyntheticWorkload,
            generate_synthetic_trace,
        )

        trace = generate_synthetic_trace(SyntheticWorkload(n_requests=20))
        result = run_eevfs(trace, EEVFSConfig(), seed=3)
        for fingerprint in (
            conservation_fingerprint(result),
            canonical_json(result.record()),
        ):
            payload = json.loads(fingerprint)
            assert fingerprint == json.dumps(payload, sort_keys=True, indent=1) + "\n"

    def test_json_report_excludes_seed_dependent_material(self):
        scenario = default_scenarios(n_requests=30)[1]
        a = run_scenario(scenario, seeds=(5,))
        b = run_scenario(scenario, seeds=(1301,))
        from repro.devtools.racesuite import RaceReport

        rendered_a = render_race_json(RaceReport(seeds=[5], scenarios=[a]))
        rendered_b = render_race_json(RaceReport(seeds=[1301], scenarios=[b]))
        assert rendered_a == rendered_b
        assert "drift" not in rendered_a

    def test_text_report_names_every_scenario(self):
        scenario = default_scenarios(n_requests=30)[3]
        from repro.devtools.racesuite import RaceReport

        report = RaceReport(seeds=[1], scenarios=[run_scenario(scenario, seeds=(1,))])
        text = render_race_text(report)
        assert scenario.label in text
        assert "no schedule races detected" in text
