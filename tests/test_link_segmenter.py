"""BurstSegmenter: streaming energy hysteresis with chunk-boundary carry."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.link import BurstSegmenter
from repro.link.segmenter import HANG_WINDOW, MAX_BURST_SAMPLES

CAP = MAX_BURST_SAMPLES


def push_chunked(segmenter, signal, chunk=128):
    bursts = []
    for i in range(0, len(signal), chunk):
        bursts.extend(segmenter.push(signal[i:i + chunk]))
    bursts.extend(segmenter.flush())
    return bursts


def block_signal(spans, total, amplitude=4.0):
    """Zeros with constant-amplitude blocks at the given [lo, hi) spans."""
    y = np.zeros(total, dtype=complex)
    for lo, hi in spans:
        y[lo:hi] = amplitude
    return y


class TestSegmenter:
    def test_silence_yields_no_bursts(self, rng):
        seg = BurstSegmenter()
        noise = (rng.standard_normal(4096)
                 + 1j * rng.standard_normal(4096)) / np.sqrt(2)
        assert push_chunked(seg, noise) == []

    def test_single_block_one_burst(self):
        seg = BurstSegmenter()
        signal = block_signal([(300, 900)], 2048)
        bursts = push_chunked(seg, signal)
        assert len(bursts) == 1
        burst = bursts[0]
        # The burst covers the whole block plus leading context.
        assert burst.start <= 300
        assert burst.end >= 900
        assert not burst.truncated

    def test_block_straddling_chunks_stays_whole(self):
        """The carry path: a burst opened in one chunk closes in a later
        one without splitting or losing samples."""
        seg = BurstSegmenter()
        signal = block_signal([(100, 700)], 1400)
        bursts = push_chunked(seg, signal, chunk=64)
        assert len(bursts) == 1
        assert bursts[0].start <= 100 and bursts[0].end >= 700

    def test_two_separated_blocks_two_bursts(self):
        seg = BurstSegmenter()
        signal = block_signal([(200, 600), (1000, 1400)], 2048)
        bursts = push_chunked(seg, signal)
        assert len(bursts) == 2
        assert bursts[0].end <= bursts[1].start

    def test_envelope_dip_does_not_split(self):
        """Hysteresis: a short dip inside a packet (below the open
        threshold but shorter than the hang window) keeps one burst."""
        signal = block_signal([(200, 500), (520, 800)], 1400)
        bursts = push_chunked(BurstSegmenter(), signal)
        assert len(bursts) == 1

    def test_force_close_bounds_burst_length(self):
        seg = BurstSegmenter()
        signal = block_signal([(100, 100 + 2 * CAP + 500)], 2 * CAP + 900)
        bursts = push_chunked(seg, signal, chunk=1024)
        assert seg.forced_closes >= 1
        # The cap is exact: a forced close may not overshoot by however
        # much of the chunk was left (the pre-fix behavior).
        assert all(b.samples.size <= CAP for b in bursts)
        assert all(b.truncated for b in bursts[:-1])
        # Every signal sample still lands in some burst (no gaps).
        covered = sum(b.samples.size for b in bursts)
        assert covered >= 2 * CAP + 500

    @pytest.mark.parametrize("chunk", [64, 200, 512, 1024])
    def test_force_close_cap_exact_for_any_chunking(self, chunk):
        """The overshoot bug scaled with chunk size: the bigger the push,
        the further past ``MAX_BURST_SAMPLES`` a hot block could run.
        The cap must hold no matter how the stream is chunked."""
        seg = BurstSegmenter()
        signal = block_signal([(50, CAP + 3000)], CAP + 3200)
        bursts = push_chunked(seg, signal, chunk=chunk)
        assert seg.forced_closes >= 1
        assert max(b.samples.size for b in bursts) <= CAP
        assert sum(b.samples.size for b in bursts) >= CAP + 2950

    def test_force_close_cap_exact_when_close_point_past_room(self):
        """A close hit beyond the remaining room must not drag the burst
        past the cap on its way to the close point."""
        seg = BurstSegmenter()
        # One hot block whose natural close (a hang window after its end)
        # lies beyond the cap; pushed as a single oversized chunk.
        signal = block_signal([(60, CAP + 200)], CAP + 900)
        bursts = list(seg.push(signal)) + seg.flush()
        assert all(b.samples.size <= CAP for b in bursts)
        assert bursts[0].truncated

    def test_skip_advances_absolute_position(self):
        seg = BurstSegmenter()
        seg.skip(100_000)
        signal = block_signal([(300, 700)], 1400)
        bursts = push_chunked(seg, signal)
        assert len(bursts) == 1
        assert 100_200 <= bursts[0].start <= 100_300
        assert bursts[0].end >= 100_700

    def test_skip_never_reaches_into_skipped_air(self):
        """The leading-context reach-back stops at the skip boundary:
        samples before it were never materialized."""
        seg = BurstSegmenter()
        seg.skip(5000)
        # Hot from the very first post-skip sample.
        bursts = list(seg.push(block_signal([(0, 400)], 800))) + seg.flush()
        assert len(bursts) == 1
        assert bursts[0].start >= 5000

    def test_skip_while_open_raises(self):
        seg = BurstSegmenter()
        seg.push(block_signal([(10, 128)], 128))
        assert seg.is_open
        with pytest.raises(ConfigurationError):
            seg.skip(64)

    def test_skip_negative_raises(self):
        seg = BurstSegmenter()
        with pytest.raises(ConfigurationError):
            seg.skip(-1)

    def test_memory_stays_bounded(self, rng):
        """Residency is capped by the open burst + history, regardless of
        how much silence streams through."""
        seg = BurstSegmenter()
        for _ in range(50):
            noise = (rng.standard_normal(512)
                     + 1j * rng.standard_normal(512)) / np.sqrt(2)
            seg.push(noise)
        assert seg.max_resident_samples < 1024 + 512 + 256

    def test_absolute_positions(self):
        """Burst.start is an absolute stream index, not chunk-relative."""
        seg = BurstSegmenter()
        signal = block_signal([(5000, 5400)], 6000)
        bursts = push_chunked(seg, signal, chunk=256)
        assert len(bursts) == 1
        assert 4900 <= bursts[0].start <= 5000

    def test_burst_cap_holds_hang_windows(self):
        """A burst may be force-closed only after several hang windows,
        or the close hysteresis could never act before the cap."""
        assert MAX_BURST_SAMPLES >= 4 * HANG_WINDOW
