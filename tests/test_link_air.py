"""ContinuousAir: causal chunked synthesis with bounded memory."""

import copy

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.link import ContinuousAir
from repro.phy.channel import ChannelParams
from repro.phy.frame import Frame
from repro.phy.medium import Transmission, channel_waveform
from repro.utils.bits import random_bits

def noise_twin(air: ContinuousAir) -> ContinuousAir:
    """An empty air on a copy of *air*'s generator: it emits exactly the
    noise *air* will add, so subtracting it leaves the waveforms."""
    return ContinuousAir(copy.deepcopy(air.rng), air.impairments)


def make_tx(rng, offset, src=1):
    frame = Frame.make(random_bits(120, rng), src=src)
    params = ChannelParams(
        gain=2.0 * np.exp(1j * rng.uniform(0, 2 * np.pi)),
        freq_offset=1e-3, sampling_offset=0.3)
    return Transmission.from_symbols(frame.symbols, params,
                                     offset, "x")


class TestContinuousAir:
    def test_waveform_reassembles_across_chunks(self):
        """A transmission split over several chunks comes out exactly as
        the one-shot channel application would produce it."""
        rng_air = np.random.default_rng(7)
        rng_ref = np.random.default_rng(7)
        air = ContinuousAir(rng_air)
        tx = make_tx(np.random.default_rng(1), offset=100)
        air.schedule(tx)
        expected = channel_waveform(tx, rng_ref)
        quiet = noise_twin(air)
        total = 100 + expected.size + 64
        n_chunks = -(-total // 128)
        stream = np.concatenate([air.emit(128) for _ in range(n_chunks)])
        noise = np.concatenate([quiet.emit(128) for _ in range(n_chunks)])
        np.testing.assert_allclose(
            stream[100:100 + expected.size] - noise[100:100 + expected.size],
            expected, atol=1e-9)
        # Outside the span there is noise only.
        np.testing.assert_array_equal(stream[:100], noise[:100])

    def test_overlapping_transmissions_superimpose(self):
        rng = np.random.default_rng(3)
        air = ContinuousAir(rng)
        gen = np.random.default_rng(2)
        a = make_tx(gen, offset=0, src=1)
        b = make_tx(gen, offset=60, src=2)
        air.schedule(a)
        air.schedule(b)
        quiet = noise_twin(air)
        stream = np.concatenate([air.emit(256) - quiet.emit(256)
                                 for _ in range(6)])
        power = np.abs(stream) ** 2
        # The overlap region carries both packets' power.
        assert power[60:200].mean() > 1.5 * power[:50].mean()

    def test_cannot_schedule_into_the_past(self, rng):
        air = ContinuousAir(np.random.default_rng(0))
        air.emit(64)
        with pytest.raises(ConfigurationError):
            air.schedule(make_tx(rng, offset=10))

    def test_memory_stays_bounded(self, rng):
        """Finished waveforms are dropped: residency tracks in-flight
        transmissions, not session length."""
        air = ContinuousAir(np.random.default_rng(0))
        sizes = []
        offset = 0
        for i in range(20):
            tx = make_tx(rng, offset=offset, src=1)
            size = air.schedule(tx)
            sizes.append(size)
            while air.cursor < offset + size:
                air.emit(256)
            offset = air.cursor + 100
        assert air.samples_emitted >= 20 * min(sizes)
        # One packet in flight at a time: never more than one waveform
        # (plus the chunk) resident.
        assert air.max_resident_samples <= max(sizes) + 256
        assert air.resident_samples == 0

    def test_emit_validates_count(self):
        air = ContinuousAir(np.random.default_rng(0))
        with pytest.raises(ConfigurationError):
            air.emit(0)

    def test_skip_advances_cursor_without_rng(self, rng):
        """Skipping idle air consumes no randomness: the waveform emitted
        after a skip is identical to one emitted after synthesizing the
        same gap — the property the event-driven core relies on for
        statistical equivalence of its channel draws."""
        a = ContinuousAir(np.random.default_rng(11))
        b = ContinuousAir(np.random.default_rng(11))
        a.skip(1024)
        assert a.cursor == 1024 and a.samples_skipped == 1024
        b.skip(1024)
        gen = np.random.default_rng(5)
        a.schedule(make_tx(gen, offset=1100))
        gen = np.random.default_rng(5)
        b.schedule(make_tx(gen, offset=1100))
        np.testing.assert_allclose(a.emit(512), b.emit(512), atol=1e-9)

    def test_skip_refuses_scheduled_spans(self, rng):
        air = ContinuousAir(np.random.default_rng(0))
        air.schedule(make_tx(rng, offset=500))
        with pytest.raises(ConfigurationError):
            air.skip(600)          # would jump over the waveform's head
        air.skip(500)              # up to the waveform is fine
        assert air.cursor == 500

    def test_skip_validates_count(self):
        air = ContinuousAir(np.random.default_rng(0))
        with pytest.raises(ConfigurationError):
            air.skip(-1)
