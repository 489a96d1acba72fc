"""The run-time path is numpy alone.

Three kernels once came from scipy: the batched tracker's loop filter,
the k-way receiver's packet → client-frequency assignment, and the
equalizer's least-squares fit. This file pins their numpy replacements
against independent oracles (the scalar :class:`PhaseTracker`
recurrence, and brute force over every injective assignment), and
guards the import graph: importing ``repro`` and driving every one of
those paths end to end must never load a ``scipy`` module.
"""

import itertools
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.api import _FORBIDDEN, _max_assignment
from repro.errors import ConfigurationError
from repro.phy.batch import BatchedPhaseTracker
from repro.phy.constellation import get_constellation
from repro.phy.tracking import PhaseTracker

BPSK = get_constellation("bpsk")


# ----------------------------------------------------------------------
# Blocked loop filter vs the scalar tracker's recurrence
# ----------------------------------------------------------------------
class TestBlockedLoopFilter:
    @pytest.mark.parametrize("kp,ki", [(0.08, 0.004), (0.12, 0.01)])
    @pytest.mark.parametrize("length", [1, 5, 63, 64, 65, 128, 200, 301])
    def test_matches_scalar_recurrence(self, kp, ki, length):
        """Phases and final state equal ``PhaseTracker``'s own loop to
        1e-12, across block boundaries with the state carried."""
        rng = np.random.default_rng(length)
        n_lanes = 5
        phase0 = rng.uniform(-0.3, 0.3, n_lanes)
        freq0 = rng.uniform(-1e-3, 1e-3, n_lanes)
        # θ' rides a drifting phase with errors well inside ±π, so the
        # scalar loop's wrap is the identity and it runs the same
        # linear recurrence the filter evaluates.
        drift = rng.uniform(-2e-3, 2e-3, n_lanes)
        theta = (phase0[:, None] + drift[:, None] * np.arange(length)
                 + rng.normal(scale=0.3, size=(n_lanes, length)))
        batched = BatchedPhaseTracker(kp=kp, ki=ki, phase=phase0,
                                      freq=freq0)
        phases, phase_f, freq_f = batched._filter_phases(theta)
        # Filtering reads the state without advancing it.
        np.testing.assert_array_equal(batched.phase, phase0)
        np.testing.assert_array_equal(batched.freq, freq0)
        for lane in range(n_lanes):
            tracker = PhaseTracker(kp=kp, ki=ki, phase=float(phase0[lane]),
                                   freq=float(freq0[lane]))
            _, _, ref = tracker.process(np.exp(1j * theta[lane]), BPSK,
                                        known=np.ones(length))
            np.testing.assert_allclose(phases[lane], ref, rtol=0,
                                       atol=1e-12)
            assert phase_f[lane] == pytest.approx(tracker.phase, abs=1e-12)
            assert freq_f[lane] == pytest.approx(tracker.freq, abs=1e-12)

    def test_chained_calls_equal_one_call(self):
        """Two segments filtered back to back, state handed over through
        ``process``, equal one filter over the whole segment."""
        rng = np.random.default_rng(7)
        y = np.exp(1j * (0.002 * np.arange(260)
                         + rng.normal(scale=0.2, size=(3, 260))))
        known = np.ones_like(y)
        whole = BatchedPhaseTracker(kp=0.08, ki=0.004, phase=np.zeros(3),
                                    freq=np.zeros(3))
        split = BatchedPhaseTracker(kp=0.08, ki=0.004, phase=np.zeros(3),
                                    freq=np.zeros(3))
        _, _, ph_whole = whole.process(y, BPSK, known=known)
        _, _, ph_a = split.process(y[:, :97], BPSK, known=known[:, :97])
        _, _, ph_b = split.process(y[:, 97:], BPSK, known=known[:, 97:])
        np.testing.assert_allclose(np.hstack([ph_a, ph_b]), ph_whole,
                                   rtol=0, atol=1e-12)
        np.testing.assert_allclose(split.phase, whole.phase, atol=1e-12)
        np.testing.assert_allclose(split.freq, whole.freq, atol=1e-12)


# ----------------------------------------------------------------------
# Exact assignment vs brute force
# ----------------------------------------------------------------------
@st.composite
def weight_tables(draw):
    k = draw(st.integers(1, 4))
    n = draw(st.integers(k, 8))
    cell = st.one_of(
        st.floats(-100.0, 100.0, allow_nan=False, allow_infinity=False),
        st.just(_FORBIDDEN))
    rows = draw(st.lists(st.lists(cell, min_size=n, max_size=n),
                         min_size=k, max_size=k))
    return np.array(rows, dtype=float)


def _brute_force(weights):
    """Every injective assignment as ``(forbidden edges, allowed sum,
    total, cols)``."""
    k, n = weights.shape
    rows = np.arange(k)
    out = []
    for cols in itertools.permutations(range(n), k):
        chosen = weights[rows, list(cols)]
        forbidden = chosen <= _FORBIDDEN
        out.append((int(forbidden.sum()), float(chosen[~forbidden].sum()),
                    float(chosen.sum()), cols))
    return out


class TestMaxAssignment:
    @given(weight_tables())
    @settings(max_examples=300)
    def test_matches_brute_force(self, weights):
        total, cols = _max_assignment(weights)
        k, n = weights.shape
        assert len(cols) == k and len(set(cols)) == k
        assert all(0 <= c < n for c in cols)
        assert total == float(weights[np.arange(k), list(cols)].sum())
        candidates = _brute_force(weights)
        assert total == pytest.approx(max(c[2] for c in candidates),
                                      rel=1e-12, abs=1e-9)
        # Fewest forbidden edges, then the largest allowed sum.
        fewest = min(c[0] for c in candidates)
        best = max(c[1] for c in candidates if c[0] == fewest)
        picked = weights[np.arange(k), list(cols)]
        assert int((picked <= _FORBIDDEN).sum()) == fewest
        assert float(picked[picked > _FORBIDDEN].sum()) == pytest.approx(
            best, rel=0, abs=1e-9)
        near = [c for c in candidates
                if c[0] == fewest and c[1] > best - 1e-6]
        if len(near) == 1:  # the optimum is unique
            assert cols == near[0][3]

    def test_forbidden_edge_only_when_forced(self):
        weights = np.array([[5.0, _FORBIDDEN], [1.0, 2.0]])
        assert _max_assignment(weights) == (7.0, (0, 1))
        forced = np.array([[_FORBIDDEN, _FORBIDDEN, 3.0],
                           [1.0, _FORBIDDEN, _FORBIDDEN]])
        total, cols = _max_assignment(forced)
        assert cols == (2, 0) and total == 4.0
        square = np.array([[_FORBIDDEN]])
        assert _max_assignment(square) == (_FORBIDDEN, (0,))

    def test_more_rows_than_columns_rejected(self):
        with pytest.raises(ConfigurationError):
            _max_assignment(np.zeros((3, 2)))


# ----------------------------------------------------------------------
# Import-graph guard
# ----------------------------------------------------------------------
_SCRIPT = textwrap.dedent("""
    import json
    import sys

    import numpy as np

    import repro
    from repro.core import ReceiverConfig, ZigZagReceiver
    from repro.link import LinkSession, SessionConfig, StreamClient
    from repro.phy.channel import ChannelParams
    from repro.phy.equalizer import LmsEqualizer
    from repro.phy.frame import Frame
    from repro.phy.medium import Transmission, synthesize
    from repro.phy.preamble import default_preamble
    from repro.phy.pulse import PulseShaper
    from repro.runner import MonteCarloRunner, ScenarioSpec
    from repro.utils.bits import random_bits

    done = {}

    # A tiny closed loop: a hidden pair colliding, matched and decoded.
    report = LinkSession(
        SessionConfig(n_packets=2, payload_bits=96),
        [StreamClient("A", 1, 12.0, 3e-3), StreamClient("B", 2, 12.0, -2e-3)],
        design="zigzag", rng=np.random.default_rng(1)).run()
    done["session_delivered"] = report.total_delivered

    # Three mutually hidden senders: the third collision assembles a
    # k = 3 set and ranks its frequency assignments.
    calls = []
    acquire = ZigZagReceiver._acquire_set_placements
    def counted(self, layers, *args, **kwargs):
        calls.append(len(layers[0][1]))
        return acquire(self, layers, *args, **kwargs)
    ZigZagReceiver._acquire_set_placements = counted
    rng = np.random.default_rng(1234)
    pre, shaper = default_preamble(32), PulseShaper()
    freqs = {"A": 3e-3, "B": -2e-3, "C": 1e-3}
    frames = {name: Frame.make(random_bits(200, rng), src=i + 1,
                               preamble=pre)
              for i, name in enumerate(freqs)}
    receiver = ZigZagReceiver(ReceiverConfig(
        preamble=pre, shaper=shaper,
        expected_symbols=frames["A"].n_symbols, max_collision_packets=3,
        buffer_capacity=6))
    for i, freq in enumerate(freqs.values()):
        receiver.clients.update(i + 1, freq)
    amp = np.sqrt(10 ** 1.3)
    for offsets in [(0, 80, 180), (60, 0, 140), (100, 40, 0)]:
        txs = [Transmission.from_symbols(
                   frames[name].symbols, shaper,
                   ChannelParams(gain=amp * np.exp(2j * np.pi * rng.uniform()),
                                 freq_offset=freqs[name],
                                 sampling_offset=float(rng.uniform()),
                                 phase_noise_std=1e-3),
                   offset, name)
               for name, offset in zip(freqs, offsets)]
        results = receiver.receive(
            synthesize(txs, 1.0, rng, leading=8, tail=30).samples)
    done["set_placements_k"] = calls
    done["three_way_decoded"] = len(results)

    # Offline hidden-pair decode through the runner's batched engine.
    spec = ScenarioSpec(kind="hidden_pair_decode", n_trials=4, seed=3,
                        batch_size=4, payload_bits=64)
    done["batched_trials"] = MonteCarloRunner(n_workers=1).run(
        spec).n_completed

    # The unridged least-squares equalizer fit.
    y = rng.normal(size=64) + 1j * rng.normal(size=64)
    eq = LmsEqualizer(n_taps=5)
    eq.fit_least_squares(y, np.convolve(y, [0.1, 1.0, -0.2])[1:65])
    done["taps"] = int(eq.taps.size)

    done["scipy"] = sorted(m for m in sys.modules
                           if m == "scipy" or m.startswith("scipy."))
    print(json.dumps(done))
""")


def test_runtime_paths_never_import_scipy():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run([sys.executable, "-c", _SCRIPT], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    done = json.loads(proc.stdout.splitlines()[-1])
    assert done["session_delivered"] > 0
    assert done["set_placements_k"] and min(done["set_placements_k"]) == 3
    assert done["three_way_decoded"] == 3
    assert done["batched_trials"] == 4
    assert done["taps"] == 5
    assert done["scipy"] == []
