"""Batched pair-decoder equivalence: bit-exact against the per-trial path.

The contract that makes ``BatchedPairDecoder.decode_batch`` a pure
throughput knob: for any mix of trials, every trial's decoded bits,
header, and CRC verdict are identical to running the inherited scalar
:meth:`ZigZagMultiDecoder.decode` on that trial alone. Three layers pin
it here:

- **Golden fixtures** (``tests/golden/*.npz``): all fixtures stacked
  into *one* batch must reproduce the pinned decodes bit-exactly —
  including the three-sender fixture, which the lockstep path cannot
  take (k = 3) and must route through the scalar fallback unchanged.
- **Hypothesis batch-axis properties**: batch-of-N equals N independent
  single-trial runs, batch-of-1 equals the unbatched scalar call, and
  ragged payload lengths group by schedule signature without
  cross-contamination.
- **Exercise honesty**: ``last_stats`` shows the lockstep path genuinely
  ran (a suite where everything silently fell back to scalar would pass
  equality vacuously).
"""

import importlib.util
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.phy.preamble import default_preamble
from repro.phy.pulse import PulseShaper
from repro.receiver.frontend import StreamConfig
from repro.runner.builders import hidden_pair_scenario
from repro.zigzag.batch import BatchedPairDecoder
from repro.zigzag.decoder import ZigZagMultiDecoder

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"

_spec = importlib.util.spec_from_file_location(
    "golden_regenerate_batched", GOLDEN_DIR / "regenerate.py")
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)

FIXTURE_NAMES = golden.all_fixture_names()
PAIR_FIXTURES = [n for n in FIXTURE_NAMES
                 if n not in golden.THREE_SENDER_FIXTURES]


def _load(name: str) -> dict:
    path = GOLDEN_DIR / f"{name}.npz"
    assert path.exists(), (
        f"missing golden fixture {path}; run tests/golden/regenerate.py")
    with np.load(path) as data:
        return {key: np.array(data[key]) for key in data.files}


def _fingerprints(outcome) -> dict:
    return {name: (result.success,
                   np.asarray(result.bits, dtype=np.uint8).copy())
            for name, result in outcome.results.items()}


def _assert_same_decode(got, want, context: str) -> None:
    assert got.keys() == want.keys(), context
    for name in want:
        assert got[name][0] == want[name][0], \
            f"{context}: CRC verdict diverged for packet {name}"
        assert np.array_equal(got[name][1], want[name][1]), \
            f"{context}: decoded bits diverged for packet {name}"


class TestGoldenBatchEquality:
    def test_all_fixtures_stacked_into_one_batch(self):
        """Every golden fixture decoded in a single ``decode_batch`` call
        matches the per-trial scalar decode bit-exactly."""
        loaded = [(name, *golden.fixture_trial(name, _load(name)))
                  for name in FIXTURE_NAMES]
        config = loaded[0][1]
        decoder = BatchedPairDecoder(config)
        outcomes = decoder.decode_batch([trial for _, _, trial in loaded])
        assert decoder.last_stats.trials == len(loaded)
        for (name, cfg, trial), outcome in zip(loaded, outcomes):
            scalar = ZigZagMultiDecoder(cfg).decode(*trial)
            _assert_same_decode(_fingerprints(outcome),
                                _fingerprints(scalar), name)

    @pytest.mark.parametrize("name", PAIR_FIXTURES)
    def test_pair_fixture_matches_pinned_bits(self, name):
        """The batched decode reproduces the committed golden bits, not
        just whatever the current scalar path emits."""
        data = _load(name)
        config, trial = golden.fixture_trial(name, data)
        outcome = BatchedPairDecoder(config).decode_batch([trial])[0]
        for label in golden.fixture_labels(name):
            got = np.asarray(outcome.results[label].bits, dtype=np.uint8)
            assert np.array_equal(got, data[f"decoded_{label}"]), \
                f"{name}/{label}: batched decode drifted from the pins"

    def test_three_sender_fixture_falls_back_bit_exact(self):
        """k = 3 trials cannot run lockstep; the fallback must be the
        scalar path, unchanged."""
        name = next(iter(golden.THREE_SENDER_FIXTURES))
        config, trial = golden.fixture_trial(name, _load(name))
        decoder = BatchedPairDecoder(config)
        outcome = decoder.decode_batch([trial])[0]
        assert decoder.last_stats.fallback == 1
        assert decoder.last_stats.lockstep == 0
        scalar = ZigZagMultiDecoder(config).decode(*trial)
        _assert_same_decode(_fingerprints(outcome),
                            _fingerprints(scalar), name)


# ----------------------------------------------------------------------
# Synthesized-trial properties over the batch axis
# ----------------------------------------------------------------------
_PRE = default_preamble(32)
_SH = PulseShaper()
_CONFIG = StreamConfig(preamble=_PRE, shaper=_SH)


def _make_trial(seed: int, payload_bits: int):
    rng = np.random.default_rng(seed)
    captures, _, specs, placements = hidden_pair_scenario(
        rng, _PRE, _SH, snr_db=12.0, payload_bits=payload_bits)
    return ([c.samples for c in captures], specs, placements)


class TestBatchAxisProperties:
    def test_lockstep_path_is_exercised(self):
        """Guard against vacuous equality: a clean batch must actually
        run lockstep, not quietly fall back to the scalar loop."""
        decoder = BatchedPairDecoder(_CONFIG)
        decoder.decode_batch(
            [_make_trial(9000 + i, 96) for i in range(6)])
        assert decoder.last_stats.lockstep > 0
        assert decoder.last_stats.groups >= 1

    @given(st.integers(0, 2**16), st.integers(2, 5))
    @settings(max_examples=8, deadline=None)
    def test_batch_of_n_equals_singles(self, seed, n):
        trials = [_make_trial(seed * 31 + i, 64) for i in range(n)]
        decoder = BatchedPairDecoder(_CONFIG)
        batched = decoder.decode_batch(trials)
        for i, trial in enumerate(trials):
            single = BatchedPairDecoder(_CONFIG).decode_batch([trial])[0]
            scalar = ZigZagMultiDecoder(_CONFIG).decode(*trial)
            _assert_same_decode(_fingerprints(batched[i]),
                                _fingerprints(single),
                                f"trial {i}: batch-of-{n} vs batch-of-1")
            _assert_same_decode(_fingerprints(batched[i]),
                                _fingerprints(scalar),
                                f"trial {i}: batch-of-{n} vs scalar")

    @given(st.integers(0, 2**16))
    @settings(max_examples=10, deadline=None)
    def test_batch_of_one_equals_unbatched(self, seed):
        trial = _make_trial(seed, 96)
        batched = BatchedPairDecoder(_CONFIG).decode_batch([trial])[0]
        scalar = ZigZagMultiDecoder(_CONFIG).decode(*trial)
        _assert_same_decode(_fingerprints(batched), _fingerprints(scalar),
                            f"seed {seed}")

    @given(st.integers(0, 2**16))
    @settings(max_examples=6, deadline=None)
    def test_ragged_payload_lengths_grouped(self, seed):
        """Mixed payload lengths land in different signature groups (the
        batched engine pads per group, never across groups) and every
        trial still equals its scalar decode."""
        sizes = [48, 112, 48, 80, 112, 48]
        trials = [_make_trial(seed * 17 + i, bits)
                  for i, bits in enumerate(sizes)]
        decoder = BatchedPairDecoder(_CONFIG)
        batched = decoder.decode_batch(trials)
        assert decoder.last_stats.trials == len(sizes)
        assert decoder.last_stats.groups >= len(set(sizes))
        for i, trial in enumerate(trials):
            scalar = ZigZagMultiDecoder(_CONFIG).decode(*trial)
            _assert_same_decode(
                _fingerprints(batched[i]), _fingerprints(scalar),
                f"trial {i} (payload {sizes[i]})")
