"""Testbed substrate tests: path loss, topology, metrics."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.testbed.metrics import (
    BER_DELIVERY_THRESHOLD,
    FlowStats,
    loss_rate,
)
from repro.testbed.pathloss import LogDistancePathLoss
from repro.testbed.topology import SensingClass, Testbed, default_testbed


class TestPathLoss:
    def test_monotone_in_distance(self):
        model = LogDistancePathLoss()
        d = np.array([1.0, 5.0, 20.0, 100.0])
        loss = model.mean_loss_db(d)
        assert np.all(np.diff(loss) > 0)

    def test_exponent_slope(self):
        model = LogDistancePathLoss(exponent=3.0, shadowing_db=0.0)
        l10 = model.mean_loss_db(10.0)
        l100 = model.mean_loss_db(100.0)
        assert l100 - l10 == pytest.approx(30.0)

    def test_below_reference_clamped(self):
        model = LogDistancePathLoss()
        assert model.mean_loss_db(0.01) == model.mean_loss_db(1.0)

    def test_shadowing_statistics(self, rng):
        model = LogDistancePathLoss(shadowing_db=5.0)
        samples = model.sample_loss_db(np.full(20_000, 10.0), rng)
        assert np.std(samples) == pytest.approx(5.0, rel=0.05)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            LogDistancePathLoss(exponent=0.0)


class TestTopology:
    def test_default_testbed_mix_near_paper(self):
        """The calibrated layout approximates the paper's 12/8/80 split."""
        mixes = []
        for seed in range(5):
            tb = default_testbed(seed)
            mix = tb.sensing_mix()
            mixes.append([mix[SensingClass.PERFECT],
                          mix[SensingClass.PARTIAL],
                          mix[SensingClass.HIDDEN]])
        mean = np.mean(mixes, axis=0)
        assert 0.65 <= mean[0] <= 0.95   # perfect ~0.80
        assert mean[2] >= 0.03           # hidden pairs exist

    def test_sense_probability_interpolation(self):
        snr = np.array([[np.inf, 3.0], [3.0, np.inf]])
        tb = Testbed(positions=np.zeros((2, 2)), snr_db=snr,
                     cs_full_db=4.0, cs_none_db=2.0)
        assert tb.sense_probability(0, 1) == pytest.approx(0.5)
        assert tb.sensing_class(0, 1) is SensingClass.PARTIAL

    def test_hidden_classification(self):
        snr = np.array([[np.inf, 1.0], [1.0, np.inf]])
        tb = Testbed(positions=np.zeros((2, 2)), snr_db=snr)
        assert tb.sensing_class(0, 1) is SensingClass.HIDDEN

    def test_sample_pair_returns_reachable_ap(self, rng):
        tb = default_testbed(3)
        a, b, ap = tb.sample_pair(rng)
        assert ap not in (a, b)
        assert tb.snr_db[ap, a] >= 3.0 and tb.snr_db[ap, b] >= 3.0

    def test_shape_validation(self):
        with pytest.raises(ConfigurationError):
            Testbed(positions=np.zeros((3, 2)), snr_db=np.zeros((2, 2)))
        with pytest.raises(ConfigurationError):
            Testbed(positions=np.zeros((2, 2)),
                    snr_db=np.zeros((2, 2)), cs_full_db=1.0,
                    cs_none_db=2.0)


class TestMetrics:
    def test_delivery_rule(self):
        stats = FlowStats()
        stats.record(ber=0.0, airtime=1.0)
        stats.record(ber=BER_DELIVERY_THRESHOLD, airtime=1.0)  # not ok
        stats.record(ber=5e-4, airtime=1.0)
        assert stats.delivered == 2
        assert stats.loss_rate == pytest.approx(1.0 / 3.0)

    def test_throughput_shared_airtime(self):
        stats = FlowStats()
        for _ in range(4):
            stats.record(0.0, airtime=1.0)
        assert stats.throughput(total_airtime=8.0) == pytest.approx(0.5)

    def test_empty_flow(self):
        stats = FlowStats()
        assert stats.loss_rate == 0.0
        assert stats.throughput() == 0.0

    def test_aggregate_helpers(self):
        flows = {"A": FlowStats(), "B": FlowStats()}
        flows["A"].record(0.0, 1.0)
        flows["B"].record(1.0, 1.0)
        assert loss_rate(flows) == pytest.approx(0.5)
