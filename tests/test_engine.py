"""ZigZag engine tests: residuals, images, correction loop, end states."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.zigzag.engine import (
    PlacementParams,
    SubtractionState,
    ZigZagEngine,
)
from repro.zigzag.schedule import DecodeStep, Placement, greedy_schedule

from helpers import hidden_pair_scenario


def build_engine(rng, preamble, shaper, stream_config, **kwargs):
    captures, frames, specs, placements = hidden_pair_scenario(
        rng, preamble, shaper, **kwargs)
    engine = ZigZagEngine(stream_config,
                          [c.samples for c in captures], specs, placements)
    schedule = greedy_schedule(
        [Placement(p.packet, p.collision, p.start,
                   specs[p.packet].n_symbols, shaper.sps)
         for p in placements], margin_symbols=1.0)
    return engine, schedule, captures, frames, specs


class TestEngineRun:
    def test_decodes_all_symbols(self, rng, preamble, shaper,
                                 stream_config):
        engine, schedule, captures, frames, specs = build_engine(
            rng, preamble, shaper, stream_config)
        out = engine.run(schedule)
        for name, spec in specs.items():
            assert np.all(out[name].source >= 0)  # every symbol decoded
            assert out[name].soft.size == spec.n_symbols

    def test_residual_power_drops(self, rng, preamble, shaper,
                                  stream_config):
        engine, schedule, captures, frames, specs = build_engine(
            rng, preamble, shaper, stream_config, snr_db=15.0)
        before = [np.mean(np.abs(c.samples) ** 2) for c in captures]
        engine.run(schedule)
        for c in range(2):
            assert engine.residual_power(c) < 0.2 * before[c]

    def test_images_match_ground_truth(self, rng, preamble, shaper,
                                       stream_config):
        engine, schedule, captures, frames, specs = build_engine(
            rng, preamble, shaper, stream_config, snr_db=15.0)
        engine.run(schedule)
        for ci, capture in enumerate(captures):
            for ti, t in enumerate(capture.transmissions):
                image = engine.images[(t.label, ci)]
                truth = capture.clean_components[ti]
                err = np.mean(np.abs(image - truth) ** 2)
                assert err < 0.2 * np.mean(np.abs(truth) ** 2)

    def test_backward_step_rejected(self, rng, preamble, shaper,
                                    stream_config):
        engine, schedule, *_ = build_engine(rng, preamble, shaper,
                                            stream_config)
        engine.execute(schedule[0])  # stream now exists with a cursor
        if schedule[0].i1 < 3:
            pytest.skip("first chunk too short to rewind")
        rewind = DecodeStep(schedule[0].packet, schedule[0].collision,
                            schedule[0].i1 - 2, schedule[0].i1 + 10)
        with pytest.raises(ConfigurationError):
            engine.execute(rewind)

    def test_duplicate_placement_rejected(self, stream_config, rng,
                                          preamble, shaper):
        captures, frames, specs, placements = hidden_pair_scenario(
            rng, preamble, shaper)
        with pytest.raises(ConfigurationError):
            ZigZagEngine(stream_config, [c.samples for c in captures],
                         specs, placements + placements[:1])

    def test_unknown_packet_rejected(self, stream_config, rng, preamble,
                                     shaper):
        captures, frames, specs, placements = hidden_pair_scenario(
            rng, preamble, shaper)
        bad = PlacementParams("ghost", 0, 10.0, placements[0].estimate)
        with pytest.raises(ConfigurationError):
            ZigZagEngine(stream_config, [c.samples for c in captures],
                         specs, placements + [bad])


class TestEndStates:
    def test_final_multiplier_matches_channel(self, rng, preamble, shaper,
                                              stream_config):
        engine, schedule, captures, frames, specs = build_engine(
            rng, preamble, shaper, stream_config, snr_db=15.0,
            phase_noise=0.0, oracle=True)
        engine.run(schedule)
        for ci, capture in enumerate(captures):
            for t in capture.transmissions:
                multiplier = engine.final_multiplier(t.label, ci)
                p = t.params
                n_last = (t.symbol0 + p.sampling_offset
                          + shaper.sps * (t.n_symbols - 1))
                expected = p.gain * np.exp(
                    2j * np.pi * p.freq_offset * n_last)
                ratio = multiplier / expected
                assert abs(abs(ratio) - 1.0) < 0.25
                assert abs(np.angle(ratio)) < 0.5

    def test_final_freq_close_to_truth(self, rng, preamble, shaper,
                                       stream_config):
        engine, schedule, captures, frames, specs = build_engine(
            rng, preamble, shaper, stream_config, snr_db=15.0)
        engine.run(schedule)
        for ci, capture in enumerate(captures):
            for t in capture.transmissions:
                freq = engine.final_freq(t.label, ci)
                assert freq == pytest.approx(t.params.freq_offset,
                                             abs=3e-4)


class TestSubtractionState:
    def test_predict_extrapolates_freq(self):
        state = SubtractionState(multiplier=1.0 + 0j, freq=0.01,
                                 last_position=100.0)
        predicted = state.predict(150.0)
        assert np.angle(predicted) == pytest.approx(0.5)

    def test_predict_without_history(self):
        state = SubtractionState(multiplier=2.0 + 0j)
        assert state.predict(42.0) == 2.0 + 0j
