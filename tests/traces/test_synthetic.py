"""Unit tests for the Table-II synthetic workload generator."""

import numpy as np
import pytest

from repro.traces import generate_synthetic_trace, RequestOp
from repro.traces.stats import coverage_of_top_k, working_set_size
from repro.traces.synthetic import MB, SyntheticWorkload


def gen(**kwargs):
    seed = kwargs.pop("seed", 0)
    return generate_synthetic_trace(
        SyntheticWorkload(**kwargs), rng=np.random.default_rng(seed)
    )


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_files": 0},
            {"n_requests": -1},
            {"data_size_bytes": -1},
            {"mu": 0},
            {"inter_arrival_s": -0.1},
            {"mu": float("nan")},
            {"write_fraction": -0.1},
            {"write_fraction": 1.5},
        ],
    )
    def test_bad_parameters_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SyntheticWorkload(**kwargs)


class TestDefaults:
    def test_paper_defaults(self):
        w = SyntheticWorkload()
        assert w.n_files == 1000
        assert w.data_size_bytes == 10 * MB
        assert w.mu == 1000.0
        assert w.inter_arrival_s == pytest.approx(0.700)


class TestStructure:
    def test_counts_and_catalog(self):
        trace = gen(n_files=100, n_requests=50)
        assert trace.n_files == 100
        assert trace.n_requests == 50

    def test_constant_inter_arrival_spacing(self):
        trace = gen(n_requests=10, inter_arrival_s=0.35)
        times = [r.time_s for r in trace]
        assert times == pytest.approx([i * 0.35 for i in range(10)])

    def test_zero_inter_arrival_all_at_once(self):
        trace = gen(n_requests=5, inter_arrival_s=0.0)
        assert all(r.time_s == 0.0 for r in trace)

    def test_fixed_size_catalog(self):
        trace = gen(data_size_bytes=25 * MB)
        assert all(f.size_bytes == 25 * MB for f in trace.files)

    def test_all_reads_by_default(self):
        trace = gen()
        assert all(r.op is RequestOp.READ for r in trace)

    def test_write_fraction(self):
        trace = gen(write_fraction=0.3, n_requests=5000)
        writes = sum(1 for r in trace if r.op is RequestOp.WRITE)
        assert writes / 5000 == pytest.approx(0.3, abs=0.03)

    def test_meta_records_parameters(self):
        trace = gen(mu=10, inter_arrival_s=0.35)
        assert trace.meta["mu"] == 10
        assert trace.meta["inter_arrival_s"] == 0.35
        assert trace.meta["generator"] == "synthetic"
        assert trace.meta["arrival_process"] == "constant"


class TestMuSemantics:
    """§V-B: MU=1 skews accesses to few files; MU=1000 spreads them out."""

    def test_mu_one_hits_very_few_files(self):
        trace = gen(mu=1)
        assert working_set_size(trace) <= 10

    def test_mu_thousand_spreads_widely(self):
        trace = gen(mu=1000)
        assert working_set_size(trace) >= 100

    def test_working_set_monotone_in_mu(self):
        sizes = [working_set_size(gen(mu=mu)) for mu in (1, 10, 100, 1000)]
        assert sizes == sorted(sizes)

    def test_small_mu_fully_covered_by_70_prefetches(self):
        """§VI-A: 'when MU is 100 or smaller EEVFS is able to prefetch all
        of the required data' with the default 70-file window."""
        for mu in (1, 10, 100):
            assert coverage_of_top_k(gen(mu=mu), 70) == pytest.approx(1.0)

    def test_mu_thousand_not_fully_covered_by_70(self):
        assert coverage_of_top_k(gen(mu=1000), 70) < 0.95

    def test_coverage_monotone_in_k(self):
        trace = gen(mu=1000)
        covers = [coverage_of_top_k(trace, k) for k in (10, 40, 70, 100)]
        assert covers == sorted(covers)


class TestDeterminism:
    def test_same_seed_same_trace(self):
        a, b = gen(seed=5), gen(seed=5)
        assert [r.file_id for r in a] == [r.file_id for r in b]
        assert [f.size_bytes for f in a.files] == [f.size_bytes for f in b.files]

    def test_different_seeds_differ(self):
        a, b = gen(seed=1), gen(seed=2)
        assert [r.file_id for r in a] != [r.file_id for r in b]
