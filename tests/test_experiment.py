"""Integration tests of the testbed experiment harness (Chapter 5)."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.testbed.experiment import (
    Design,
    PairExperiment,
    PairExperimentConfig,
    run_capture_sweep_point,
)

SMALL = PairExperimentConfig(payload_bits=160, n_packets=4)


class TestPairExperiment:
    def test_scheduler_design_is_lossless_at_good_snr(self):
        exp = PairExperiment(14.0, 14.0, sense_probability=0.0,
                             config=SMALL, rng=np.random.default_rng(0))
        flows, airtime = exp.run(Design.SCHEDULER)
        assert flows["A"].loss_rate == 0.0
        assert flows["B"].loss_rate == 0.0
        assert airtime == 8.0

    def test_hidden_80211_loses_most_packets(self):
        losses = []
        for seed in range(3):
            exp = PairExperiment(12.0, 12.0, sense_probability=0.0,
                                 config=SMALL,
                                 rng=np.random.default_rng(seed))
            flows, _ = exp.run(Design.CURRENT_80211)
            losses += [flows["A"].loss_rate, flows["B"].loss_rate]
        assert np.mean(losses) > 0.5

    def test_hidden_zigzag_recovers_most_packets(self):
        losses = []
        for seed in range(3):
            exp = PairExperiment(12.0, 12.0, sense_probability=0.0,
                                 config=SMALL,
                                 rng=np.random.default_rng(seed))
            flows, _ = exp.run(Design.ZIGZAG)
            losses += [flows["A"].loss_rate, flows["B"].loss_rate]
        assert np.mean(losses) < 0.3

    def test_full_sensing_equals_scheduler(self):
        """With perfect carrier sense there are no collisions, so every
        design behaves like the scheduler."""
        exp = PairExperiment(14.0, 14.0, sense_probability=1.0,
                             config=SMALL, rng=np.random.default_rng(1))
        flows, airtime = exp.run(Design.CURRENT_80211)
        assert flows["A"].loss_rate == 0.0
        assert airtime == 8.0

    def test_sense_probability_validated(self):
        with pytest.raises(ConfigurationError):
            PairExperiment(10.0, 10.0, sense_probability=1.5, config=SMALL)

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            PairExperimentConfig(payload_bits=10)
        with pytest.raises(ConfigurationError):
            PairExperimentConfig(n_packets=0)


class TestCaptureSweep:
    def test_zigzag_dominates_80211_at_equal_power(self):
        z = run_capture_sweep_point(0.0, Design.ZIGZAG, snr_b_db=10.0,
                                    config=SMALL, seed=3)
        e = run_capture_sweep_point(0.0, Design.CURRENT_80211,
                                    snr_b_db=10.0, config=SMALL, seed=3)
        assert z["total"] > e["total"]

    def test_sic_window_exceeds_scheduler(self):
        """Mid-SINR: ZigZag resolves both packets from single collisions,
        beating the collision-free scheduler's total of 1.0 (Fig 5-4c)."""
        totals = [run_capture_sweep_point(9.0, Design.ZIGZAG,
                                          snr_b_db=10.0, config=SMALL,
                                          seed=s)["total"]
                  for s in range(3)]
        assert max(totals) > 1.0

    def test_80211_starves_bob_under_capture(self):
        result = run_capture_sweep_point(12.0, Design.CURRENT_80211,
                                         snr_b_db=10.0, config=SMALL,
                                         seed=0)
        assert result["B"] == 0.0
        assert result["A"] > 0.0
