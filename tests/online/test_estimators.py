"""Unit tests for the streaming popularity estimators.

The interesting properties are the ones the online subsystem leans on:
EMA decay tracks drift without ever reordering ties nondeterministically,
the Count-Min Sketch never undercounts and stays inside the classic
``e/width * N`` overshoot bound on a Zipf stream, and both estimators
satisfy the :class:`~repro.core.popularity.PopularitySource` protocol
the oracle window estimator shares.
"""

import collections

import numpy as np
import pytest

from repro.core.config import EEVFSConfig
from repro.core.popularity import PopularitySource
from repro.online import (
    build_estimator,
    CountMinEstimator,
    CountMinSketch,
    EMAEstimator,
)
from repro.online.estimators import CMS_EPSILON_FACTOR, HALFLIFE_S, TOP_SET_CAPACITY


def zipf_stream(n, n_files=400, a=1.8, seed=42):
    """A deterministic Zipf-distributed access stream (ids in [0, n_files))."""
    rng = np.random.default_rng(seed)
    raw = rng.zipf(a, size=n)
    return [int(v - 1) % n_files for v in raw]


class TestEMADecay:
    def test_access_weight_halves_every_halflife(self):
        est = EMAEstimator()
        est.record(0.0, 1)
        assert est.estimate(1) == pytest.approx(1.0)
        est.record(HALFLIFE_S, 2)  # advances the clock one half-life
        assert est.estimate(1) == pytest.approx(0.5)
        assert est.estimate(2) == pytest.approx(1.0)

    def test_recency_beats_stale_volume(self):
        """A burst of old accesses loses to a smaller recent burst."""
        est = EMAEstimator()
        for _ in range(8):
            est.record(0.0, 1)  # 8 hits, long ago
        for t in range(3):
            est.record(6 * HALFLIFE_S + t, 2)  # 3 hits, now (6 half-lives later)
        assert est.ranking()[0] == 2

    def test_ranking_survives_origin_rescale(self):
        """Scores renormalise long before float range runs out, and the
        rescale never changes relative order."""
        est = EMAEstimator()
        est.record(0.0, 1)
        est.record(0.0, 1)
        est.record(0.0, 2)
        before = est.ranking()
        # 300 half-lives > _EMA_RESCALE_HALFLIVES forces the rescale.
        est.record(300 * HALFLIFE_S, 3)
        assert est.ranking()[-2:] == before[:2]  # old order preserved
        assert est.estimate(1) > est.estimate(2) > 0.0

    def test_time_must_not_regress(self):
        est = EMAEstimator()
        est.record(5.0, 1)
        with pytest.raises(ValueError):
            est.record(4.0, 1)

    def test_ties_break_on_lower_file_id(self):
        est = EMAEstimator()
        est.record(0.0, 9)
        est.record(0.0, 3)
        assert est.ranking() == [3, 9]

    def test_catalog_fills_the_tail_ascending(self):
        est = EMAEstimator()
        est.record(0.0, 5)
        assert est.ranking(catalog=[0, 1, 5, 7]) == [5, 0, 1, 7]

    def test_stream_outside_catalog_rejected(self):
        est = EMAEstimator()
        est.record(0.0, 99)
        with pytest.raises(ValueError, match="outside the catalog"):
            est.ranking(catalog=[0, 1, 2])


class TestCountMinSketch:
    def test_never_undercounts(self):
        sketch = CountMinSketch(width=64, depth=4)
        truth = collections.Counter()
        for fid in zipf_stream(5000, n_files=1000):
            sketch.update(fid)
            truth[fid] += 1
        for fid, count in truth.items():
            assert sketch.estimate(fid) >= count

    def test_overshoot_within_epsilon_bound_on_zipf_stream(self):
        """Classic CMS guarantee: overshoot < e/width * N per key with
        probability 1 - e^-depth.  The stream is fixed-seed, so we can
        assert the bound outright for the heavy hitters and allow the
        expected small violation rate over the full key set."""
        width, depth, n = 512, 4, 20000
        sketch = CountMinSketch(width=width, depth=depth)
        truth = collections.Counter()
        for fid in zipf_stream(n, n_files=2000):
            sketch.update(fid)
            truth[fid] += 1
        bound = CMS_EPSILON_FACTOR / width * sketch.total
        violations = sum(
            1 for fid, count in truth.items()
            if sketch.estimate(fid) - count > bound
        )
        # depth=4 gives per-key failure probability e^-4 ~ 1.8 %.
        assert violations / len(truth) < 0.05
        for fid, _ in truth.most_common(50):
            assert sketch.estimate(fid) - truth[fid] <= bound

    def test_identical_streams_identical_sketches(self):
        """No per-run salt: two sketches fed the same stream agree cell
        for cell, which is what makes online runs byte-reproducible."""
        a = CountMinSketch(width=100, depth=3)  # non-power-of-two width
        b = CountMinSketch(width=100, depth=3)
        for fid in zipf_stream(2000):
            a.update(fid)
            b.update(fid)
        assert a._cells == b._cells

    def test_indices_stay_inside_odd_widths(self):
        sketch = CountMinSketch(width=500, depth=4)
        for key in [0, 1, 2**31, 2**63 - 1, 123456789]:
            for idx in sketch._cell_indices(key):
                assert 0 <= idx < 500

    def test_aging_halves_counts(self):
        sketch = CountMinSketch(width=32, depth=2)
        for _ in range(8):
            sketch.update(7)
        sketch.age(0.5)
        assert sketch.estimate(7) == pytest.approx(4.0)
        assert sketch.total == pytest.approx(4.0)

    def test_conservative_update_beats_plain_update(self):
        """Conservative update only raises the minimum cells, so a key
        sharing one row cell with a heavy hitter is not dragged up."""
        sketch = CountMinSketch(width=8, depth=4)
        for _ in range(100):
            sketch.update(1)
        assert sketch.estimate(1) == pytest.approx(100.0)


class TestCountMinEstimator:
    def test_top_set_respects_capacity(self):
        est = CountMinEstimator()
        for fid in range(2 * TOP_SET_CAPACITY):
            est.record(fid * 0.01, fid)
        assert len(est.counts()) == TOP_SET_CAPACITY

    def test_heavy_hitters_survive_eviction(self):
        est = CountMinEstimator()
        # A Zipf stream beside a tail of one-off files that overflows the
        # top-set, so weak candidates are evicted.
        stream = zipf_stream(5000, n_files=500)
        stream += list(range(1000, 1000 + 2 * TOP_SET_CAPACITY))
        truth = collections.Counter(stream)
        for i, fid in enumerate(stream):
            est.record(i * 0.001, fid)
        top_true = [fid for fid, _ in truth.most_common(5)]
        assert set(top_true) <= set(est.ranking()[:20])
        assert set(truth) - set(est.counts())  # evicted files left the top-set

    def test_halflife_ages_the_top_set(self):
        est = CountMinEstimator()
        est.record(0.0, 1)
        est.record(0.0, 1)
        est.record(2.5 * HALFLIFE_S, 2)  # two half-lives elapse -> counts quartered
        counts = est.counts()
        assert counts[1] == pytest.approx(0.5)
        assert counts[2] == pytest.approx(1.0)
        assert est.ranking()[0] == 2

    def test_time_must_not_regress(self):
        est = CountMinEstimator()
        est.record(5.0, 1)
        with pytest.raises(ValueError):
            est.record(4.0, 1)


class TestProtocolAndFactory:
    def test_both_estimators_satisfy_popularity_source(self):
        assert isinstance(EMAEstimator(), PopularitySource)
        assert isinstance(CountMinEstimator(), PopularitySource)

    def test_build_estimator_dispatches_on_config(self):
        ema = build_estimator(EEVFSConfig(online_mode=True, online_estimator="ema"))
        assert isinstance(ema, EMAEstimator)
        cms = build_estimator(EEVFSConfig(online_mode=True, online_estimator="cms"))
        assert isinstance(cms, CountMinEstimator)
        # Each estimator runs at its own defaults: a 120 s half-life and
        # a 512 x 4 sketch beside a 256-file top-set.
        assert (HALFLIFE_S, TOP_SET_CAPACITY) == (120.0, 256)
        assert (cms.sketch.width, cms.sketch.depth) == (512, 4)

    def test_agreement_with_exact_counts_on_stationary_stream(self):
        """On a stationary Zipf stream both estimators put the same heavy
        hitters up top; that is the property prefetch planning needs."""
        ema = EMAEstimator()
        cms = CountMinEstimator()
        stream = zipf_stream(8000, n_files=300)
        for fid in stream:  # all at one instant: no decay
            ema.record(0.0, fid)
            cms.record(0.0, fid)
        counts = collections.Counter(stream)
        truth = sorted(counts, key=lambda fid: (-counts[fid], fid))[:10]
        assert ema.ranking()[:10] == truth
        assert set(truth) <= set(cms.ranking()[:20])
