"""Pickle keeps registered constellations identical, so lockstep survives.

``BatchedPairDecoder`` admits a trial to the lockstep engine only when
every packet's ``body_constellation is BPSK``. A trial that crossed a
process boundary used to carry a by-value *copy* of the constellation,
which silently sent every pooled trial to the scalar fallback. The
fallback is bit-identical, so the runner's worker-count invariance tests
cannot see the regression; these tests pin the identity itself and the
lockstep count it gates.
"""

import pickle

import numpy as np
import pytest

from repro.phy.constellation import BPSK, QAM16, QAM64, QPSK
from repro.phy.preamble import default_preamble
from repro.phy.pulse import PulseShaper
from repro.receiver.frontend import StreamConfig
from repro.runner.builders import hidden_pair_scenario
from repro.zigzag.batch import BatchedPairDecoder


def _round_trip(obj):
    return pickle.loads(pickle.dumps(obj))


@pytest.mark.parametrize("constellation", [BPSK, QPSK, QAM16, QAM64],
                         ids=lambda c: c.name)
def test_registered_constellation_unpickles_to_singleton(constellation):
    assert _round_trip(constellation) is constellation


def test_conjugated_constellation_round_trips_by_value():
    conj = BPSK.conjugate()
    again = _round_trip(conj)
    assert again is not conj
    assert again.name == "bpsk*"
    assert again.bits_per_symbol == conj.bits_per_symbol
    assert np.array_equal(again.points, conj.points)


_PRE = default_preamble(32)
_CONFIG = StreamConfig(preamble=_PRE, shaper=PulseShaper())


def _trial(seed: int):
    captures, _, specs, placements = hidden_pair_scenario(
        np.random.default_rng(seed), _PRE, _CONFIG.shaper, snr_db=12.0,
        payload_bits=96)
    return ([c.samples for c in captures], specs, placements)


def _outcome_key(outcome):
    return {name: (result.success, np.asarray(result.bits).tolist())
            for name, result in outcome.results.items()}


def test_decode_batch_lockstep_survives_pickled_trials():
    trials = [_trial(4100 + i) for i in range(6)]
    pickled = _round_trip(trials)

    decoder = BatchedPairDecoder(_CONFIG)
    want = decoder.decode_batch(trials)
    want_lockstep = decoder.last_stats.lockstep
    got = decoder.decode_batch(pickled)

    assert want_lockstep > 0
    assert decoder.last_stats.lockstep == want_lockstep
    assert [_outcome_key(o) for o in got] == [_outcome_key(o) for o in want]
