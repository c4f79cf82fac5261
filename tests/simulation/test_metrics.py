"""Tests for latency accumulators and the channel-load sampler."""

import math

import numpy as np

import pytest

from repro.simulation.metrics import (
    ChannelLoadSampler,
    LatencyAccumulator,
    t_halfwidth,
)


class TestStudentT:
    @pytest.mark.parametrize(
        "k, t_crit",
        [(2, 12.706), (4, 3.182), (8, 2.365), (31, 2.042), (1001, 1.962)],
    )
    def test_critical_value(self, k, t_crit):
        # Means alternating +-1 around 0 (k even) or with one 0 (k odd):
        # the half-width divided by s / sqrt(k) is the critical value.
        means = [(-1.0) ** i for i in range(k - k % 2)] + [0.0] * (k % 2)
        s = float(np.std(means, ddof=1))
        assert t_halfwidth(means) / (s / math.sqrt(k)) == pytest.approx(
            t_crit, abs=5e-4
        )

    def test_nan_below_two_means(self):
        assert math.isnan(t_halfwidth([]))
        assert math.isnan(t_halfwidth([3.0]))

    def test_accumulator_uses_student_t(self):
        acc = LatencyAccumulator(batches=4, t_start=0, t_end=4)
        for b in range(4):
            acc.add(b + 0.5, 10.0 + b)
        s = float(np.std(acc.batch_means(), ddof=1))
        assert acc.ci_halfwidth() == pytest.approx(3.182 * s / 2)


class TestLatencyAccumulator:
    def test_mean_and_std(self):
        acc = LatencyAccumulator(batches=4, t_start=0, t_end=100)
        for t, v in [(5, 10.0), (30, 20.0), (60, 30.0), (90, 40.0)]:
            acc.add(t, v)
        assert acc.count == 4
        assert acc.mean == pytest.approx(25.0)
        assert acc.std == pytest.approx(12.9099, rel=1e-3)

    def test_empty_nan(self):
        acc = LatencyAccumulator(batches=2, t_start=0, t_end=10)
        assert math.isnan(acc.mean)
        assert math.isnan(acc.std)
        assert math.isnan(acc.ci_halfwidth())

    def test_batches_by_generation_time(self):
        acc = LatencyAccumulator(batches=2, t_start=0, t_end=10)
        acc.add(1, 1.0)
        acc.add(2, 3.0)
        acc.add(8, 10.0)
        assert acc.batch_means() == [2.0, 10.0]

    def test_out_of_window_clamped(self):
        acc = LatencyAccumulator(batches=2, t_start=10, t_end=20)
        acc.add(5, 1.0)   # before window -> first batch
        acc.add(25, 3.0)  # after window -> last batch
        assert acc.batch_means() == [1.0, 3.0]

    def test_ci_zero_for_identical_batches(self):
        acc = LatencyAccumulator(batches=4, t_start=0, t_end=4)
        for b in range(4):
            acc.add(b + 0.5, 7.0)
        assert acc.ci_halfwidth() == pytest.approx(0.0)

    def test_ci_scales_with_spread(self):
        tight = LatencyAccumulator(batches=4, t_start=0, t_end=4)
        wide = LatencyAccumulator(batches=4, t_start=0, t_end=4)
        for b in range(4):
            tight.add(b + 0.5, 10.0 + 0.1 * b)
            wide.add(b + 0.5, 10.0 + 10.0 * b)
        assert wide.ci_halfwidth() > tight.ci_halfwidth()

    def test_validation(self):
        with pytest.raises(ValueError):
            LatencyAccumulator(batches=0, t_start=0, t_end=1)
        with pytest.raises(ValueError):
            LatencyAccumulator(batches=2, t_start=5, t_end=5)


class TestChannelLoadSampler:
    def test_idle_network_multiplexing_one(self):
        s = ChannelLoadSampler(num_channels=10)
        s.sample([])
        assert s.multiplexing_degree == 1.0
        assert s.mean_busy_vcs == 0.0

    def test_single_busy_vc(self):
        s = ChannelLoadSampler(num_channels=4)
        s.sample([1, 1])
        assert s.multiplexing_degree == pytest.approx(1.0)
        assert s.mean_busy_vcs == pytest.approx(0.5)

    def test_matches_dally_formula(self):
        s = ChannelLoadSampler(num_channels=3)
        s.sample([1, 3])
        s.sample([2])
        # E[v^2]/E[v] over samples {1,3,2}: (1+9+4)/(1+3+2)
        assert s.multiplexing_degree == pytest.approx(14 / 6)


class TestBatchConsumption:
    """Array-backend interfaces: accumulators consuming whole batches."""

    def test_add_batch_matches_sequential_adds(self):
        rng = np.random.default_rng(3)
        t = rng.uniform(0, 100, size=200)
        v = rng.uniform(1, 50, size=200)
        one = LatencyAccumulator(batches=8, t_start=0, t_end=100)
        for ti, vi in zip(t, v):
            one.add(ti, vi)
        many = LatencyAccumulator(batches=8, t_start=0, t_end=100)
        many.add_batch(t, v)
        assert many.count == one.count
        assert many.mean == pytest.approx(one.mean, rel=1e-12)
        assert many.std == pytest.approx(one.std, rel=1e-12)
        assert many.batch_means() == pytest.approx(one.batch_means(), rel=1e-12)
        assert many.ci_halfwidth() == pytest.approx(one.ci_halfwidth(), rel=1e-12)

    def test_add_batch_small_and_empty(self):
        acc = LatencyAccumulator(batches=4, t_start=0, t_end=10)
        acc.add_batch([], [])
        assert acc.count == 0
        acc.add_batch([1.0, 9.0], [2.0, 4.0])  # takes the scalar fast path
        assert acc.count == 2
        assert acc.mean == pytest.approx(3.0)
        assert acc.batch_means() == [2.0, 4.0]

    def test_add_batch_clamps_out_of_window_times(self):
        acc = LatencyAccumulator(batches=2, t_start=0, t_end=10)
        times = np.array([-5.0, 1.0, 25.0] * 4)  # > 8 values: vector path
        values = np.array([1.0, 2.0, 3.0] * 4)
        acc.add_batch(times, values)
        assert acc.count == 12
        assert acc.batch_means() == pytest.approx([1.5, 3.0])

    def test_sample_counts_matches_sample(self):
        a = ChannelLoadSampler(6)
        b = ChannelLoadSampler(6)
        dense = np.array([0, 2, 0, 1, 3, 0])
        a.sample([2, 1, 3])  # busy channels only, object-engine style
        b.sample_counts(dense)
        assert a.multiplexing_degree == b.multiplexing_degree
        assert a.mean_busy_vcs == b.mean_busy_vcs
        assert a._busy_channel_samples == b._busy_channel_samples

    def test_sample_counts_idle_snapshot(self):
        s = ChannelLoadSampler(4)
        s.sample_counts(np.zeros(4, dtype=int))
        assert s.multiplexing_degree == 1.0
        assert s.mean_busy_vcs == 0.0
