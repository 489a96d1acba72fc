"""Forward-pass finality: backward decoding and MRC only for failing packets.

§4.3(b) adds the backward pass and MRC "to reduce errors". A packet that
passes CRC after the forward pass has no errors left to reduce, so its
result is final: the scalar :class:`ZigZagMultiDecoder` and the batched
:class:`BatchedPairDecoder` run the backward pass, the k-copy capture
re-reads and MRC only when some packet still fails, and combine them
only into the packets that failed. These tests pin that rule:

- a set whose packets all pass after the forward pass never reaches the
  backward pass (scalar ``_backward_pass``, batched ``_batched_backward``);
- a backward stream that is garbage at full MRC weight cannot fail a
  packet that passed after the forward pass;
- every packet the forward-only ablation (``use_backward=False``)
  decodes is decoded with identical bits by the default decoder;
- the batched backward pass runs on the sub-batch of failing lanes and
  still equals the scalar decode trial by trial.

The ``*_rescue`` golden fixtures are sets whose forward pass leaves one
packet failing and whose backward pass + MRC recovers it.
"""

import importlib.util
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.receiver.frontend import StreamConfig
from repro.runner.builders import hidden_pair_scenario
from repro.zigzag.batch import BatchedPairDecoder
from repro.zigzag.decoder import ZigZagMultiDecoder

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"

_spec = importlib.util.spec_from_file_location(
    "golden_regenerate_finality", GOLDEN_DIR / "regenerate.py")
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)

_CONFIG = StreamConfig()


def _fixture(name: str):
    """``(config, trial)`` of golden fixture *name*."""
    with np.load(GOLDEN_DIR / f"{name}.npz") as data:
        return golden.fixture_trial(
            name, {key: np.array(data[key]) for key in data.files})


def _trial(seed: int, snr_db: float = 12.0, offsets=(160, 64),
           payload_bits: int = 96):
    rng = np.random.default_rng(seed)
    captures, _, specs, placements = hidden_pair_scenario(
        rng, snr_db=snr_db, payload_bits=payload_bits,
        offsets=offsets)
    return ([c.samples for c in captures], specs, placements)


def _forward_only(config, trial):
    return ZigZagMultiDecoder(config, use_backward=False).decode(*trial)


def _forbid(monkeypatch, owner, attr: str) -> None:
    def forbidden(*args, **kwargs):
        pytest.fail(f"{attr} ran although every packet passed CRC "
                    f"after the forward pass")
    monkeypatch.setattr(owner, attr, forbidden)


def _garbage_align(forward_soft, forward_decisions, backward_soft,
                   *args, **kwargs):
    """An aligner that returns noise at full MRC weight: combined into a
    packet, it outweighs the forward stream wherever it disagrees."""
    rng = np.random.default_rng(0)
    garbage = 5.0 * (rng.standard_normal(backward_soft.shape)
                     + 1j * rng.standard_normal(backward_soft.shape))
    return garbage, np.ones(backward_soft.shape)


def _passing(outcome) -> dict:
    return {name: r.bits.copy() for name, r in outcome.results.items()
            if r.success}


class TestScalarRule:
    @pytest.mark.parametrize("name", ["hidden_pair_clean",
                                      "three_senders_clean"])
    def test_clean_set_never_runs_backward(self, name, monkeypatch):
        config, trial = _fixture(name)
        assert _forward_only(config, trial).all_decoded
        for attr in ("_backward_pass", "_capture_copies",
                     "_align_backward"):
            _forbid(monkeypatch, ZigZagMultiDecoder, attr)
        outcome = ZigZagMultiDecoder(config).decode(*trial)
        assert outcome.all_decoded
        assert outcome.backward_soft is None
        assert outcome.capture_soft is None

    @pytest.mark.parametrize("name", ["hidden_pair_rescue",
                                      "three_senders_rescue"])
    def test_rescue_fixture_runs_backward_for_failing_packets(self, name):
        config, trial = _fixture(name)
        forward = _forward_only(config, trial)
        failing = {n for n, r in forward.results.items() if not r.success}
        assert failing and len(failing) < len(forward.results)
        outcome = ZigZagMultiDecoder(config).decode(*trial)
        assert outcome.all_decoded
        assert outcome.backward_soft is not None
        if outcome.capture_soft is not None:
            # k-copy re-reads are made only for the failing packets.
            assert set(outcome.capture_soft) <= failing

    @pytest.mark.parametrize("name", ["hidden_pair_rescue",
                                      "three_senders_rescue"])
    def test_garbage_backward_cannot_fail_a_forward_success(
            self, name, monkeypatch):
        config, trial = _fixture(name)
        want = _passing(_forward_only(config, trial))
        monkeypatch.setattr(ZigZagMultiDecoder, "_align_backward",
                            staticmethod(_garbage_align))
        outcome = ZigZagMultiDecoder(config).decode(*trial)
        assert outcome.backward_soft is not None  # the backward pass ran
        for packet, bits in want.items():
            assert outcome.results[packet].success, packet
            assert np.array_equal(outcome.results[packet].bits, bits)


class TestBatchedRule:
    def test_clean_batch_never_runs_backward(self, monkeypatch):
        trials = [_trial(9000 + i) for i in range(4)]
        for trial in trials:
            assert _forward_only(_CONFIG, trial).all_decoded
        _forbid(monkeypatch, BatchedPairDecoder, "_batched_backward")
        _forbid(monkeypatch, ZigZagMultiDecoder, "_backward_pass")
        decoder = BatchedPairDecoder(_CONFIG)
        outcomes = decoder.decode_batch(trials)
        assert decoder.last_stats.lockstep > 0
        assert decoder.last_stats.backward == 0
        for outcome in outcomes:
            assert outcome.all_decoded
            assert outcome.backward_soft is None

    def test_rescue_fixture_runs_batched_backward(self):
        config, trial = _fixture("hidden_pair_rescue")
        decoder = BatchedPairDecoder(config)
        outcome = decoder.decode_batch([trial])[0]
        assert decoder.last_stats.lockstep == 1
        assert decoder.last_stats.backward >= 1
        assert outcome.all_decoded
        assert outcome.backward_soft is not None

    def test_sub_batch_rows_map_to_their_lanes(self):
        """One signature group whose lanes fail different packets after
        the forward pass (none, A, B, none, A, B): the backward sub-batch
        holds lanes 1, 2, 4, 5, and each failing (lane, packet) row is
        combined with its own lane's backward stream."""
        seeds = (205, 200, 206, 213, 210, 207)
        trials = [_trial(seed, 6.5) for seed in seeds]
        failing = [
            {n for n, r in _forward_only(_CONFIG, t).results.items()
             if not r.success}
            for t in trials]
        assert failing == [set(), {"A"}, {"B"}, set(), {"A"}, {"B"}]
        decoder = BatchedPairDecoder(_CONFIG)
        outcomes = decoder.decode_batch(trials)
        assert decoder.last_stats.groups == 1
        assert decoder.last_stats.lockstep == len(trials)
        assert decoder.last_stats.backward == 4
        for seed, trial, outcome in zip(seeds, trials, outcomes):
            scalar = ZigZagMultiDecoder(_CONFIG).decode(*trial)
            for packet, result in scalar.results.items():
                got = outcome.results[packet]
                assert got.success == result.success, (seed, packet)
                assert np.array_equal(got.bits, result.bits), (seed, packet)

    def test_garbage_backward_cannot_fail_a_forward_success(
            self, monkeypatch):
        config, rescue = _fixture("hidden_pair_rescue")
        trials = [rescue, _trial(9100)]
        want = [_passing(_forward_only(config, t))
                for t in trials]
        # The batched decoder combines with the inherited scalar rule.
        monkeypatch.setattr(ZigZagMultiDecoder, "_align_backward",
                            staticmethod(_garbage_align))
        decoder = BatchedPairDecoder(config)
        outcomes = decoder.decode_batch(trials)
        assert decoder.last_stats.backward >= 1
        for passing, outcome in zip(want, outcomes):
            for packet, bits in passing.items():
                assert outcome.results[packet].success, packet
                assert np.array_equal(outcome.results[packet].bits, bits)


class TestProperties:
    @given(seed=st.integers(0, 2**16), snr_db=st.floats(5.0, 14.0),
           offsets=st.tuples(st.integers(0, 200), st.integers(0, 200)))
    @settings(max_examples=12, deadline=None)
    def test_forward_only_successes_survive(self, seed, snr_db, offsets):
        """Every packet the forward-only ablation decodes is decoded, with
        identical bits, by the default scalar and batched decoders."""
        trial = _trial(seed, snr_db, offsets)
        want = _passing(_forward_only(_CONFIG, trial))
        scalar = ZigZagMultiDecoder(_CONFIG).decode(*trial)
        batched = BatchedPairDecoder(_CONFIG).decode_batch([trial])[0]
        for outcome in (scalar, batched):
            for packet, bits in want.items():
                assert outcome.results[packet].success, packet
                assert np.array_equal(outcome.results[packet].bits, bits)

    @given(seed=st.integers(0, 2**16),
           snrs=st.lists(st.floats(5.0, 14.0), min_size=2, max_size=5))
    @settings(max_examples=8, deadline=None)
    def test_backward_sub_batch_equals_scalar(self, seed, snrs):
        """Trials of one signature group at mixed SNRs: only the lanes
        with a failing packet run the batched backward pass, and every
        trial still equals its scalar decode."""
        trials = [_trial(seed * 31 + i, snr) for i, snr in enumerate(snrs)]
        decoder = BatchedPairDecoder(_CONFIG)
        outcomes = decoder.decode_batch(trials)
        assert decoder.last_stats.backward <= decoder.last_stats.lockstep
        for i, (trial, outcome) in enumerate(zip(trials, outcomes)):
            scalar = ZigZagMultiDecoder(_CONFIG).decode(*trial)
            for packet, result in scalar.results.items():
                got = outcome.results[packet]
                assert got.success == result.success, (i, packet)
                assert np.array_equal(got.bits, result.bits), (i, packet)
            assert (outcome.backward_soft is None) \
                == (scalar.backward_soft is None), i
