"""Pre-optimization ("before") implementations of the DSP hot paths.

These are the scalar/per-tap loops the vectorized kernels in
:mod:`repro.phy` and :mod:`repro.zigzag` replaced, kept verbatim as the
oracles the equivalence tests compare against: the optimized kernels
must produce numerically identical output (``test_perf_equivalence.py``),
and the trial-axis batched kernels must equal one scalar call per lane
(``test_batched_kernels.py``).

Each function takes the live object as its first argument and mutates its
state exactly as the original method did.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.phy.coding.convolutional import ConvolutionalCode
from repro.phy.pulse import MatchedSampler
from repro.phy.resample import FractionalDelay
from repro.phy.tracking import PhaseTracker
from repro.utils.bits import as_bit_array
from repro.zigzag.reencode import Reencoder

__all__ = [
    "phase_tracker_process",
    "shaper_kernel_at",
    "matched_sampler_sample",
    "convolutional_encode",
    "convolutional_decode_soft",
    "fractional_delay_apply",
    "reencoder_image",
    "batched_matched_sampler_loop",
    "batched_phase_tracker_loop",
]


def phase_tracker_process(tracker: PhaseTracker, symbols, constellation,
                          known=None):
    """Original per-symbol ``PhaseTracker.process`` loop."""
    y = np.asarray(symbols, dtype=complex).ravel()
    if known is not None:
        known = np.asarray(known, dtype=complex).ravel()
        if known.size != y.size:
            raise ConfigurationError("known symbols length mismatch")
    corrected = np.empty_like(y)
    decisions = np.empty_like(y)
    phases = np.empty(y.size, dtype=float)
    for i in range(y.size):
        phases[i] = tracker.phase
        z = y[i] * np.exp(-1j * tracker.phase)
        corrected[i] = z
        reference = known[i] if known is not None \
            else constellation.slice_symbols([z])[0]
        decisions[i] = reference
        if tracker.enabled and reference != 0:
            error = float(np.angle(z * np.conj(reference)))
            tracker._last_error = error
            tracker.freq += tracker.ki * error
            tracker.phase += tracker.freq + tracker.kp * error
        else:
            tracker.phase += tracker.freq
    return corrected, decisions, phases


def shaper_kernel_at(shaper, fraction: float) -> np.ndarray:
    """Original uncached ``PulseShaper.kernel_at`` (re-evaluates the RRC
    prototype on every call)."""
    from repro.phy.pulse import rrc_function

    j = np.arange(-shaper.delay, shaper.delay + 1)
    return rrc_function((j + fraction) / shaper.sps, shaper.beta) \
        * shaper._scale


def matched_sampler_sample(sampler: MatchedSampler, signal, start: float,
                           count: int) -> np.ndarray:
    """Original per-tap ``MatchedSampler.sample`` loop."""
    if count < 0:
        raise ConfigurationError("count must be non-negative")
    y = np.asarray(signal, dtype=complex).ravel()
    if count == 0:
        return np.zeros(0, dtype=complex)
    sps = sampler.shaper.sps
    delay = sampler.shaper.delay
    base = int(np.floor(start))
    frac = start - base
    kernel = shaper_kernel_at(sampler.shaper, -frac)
    first = base - delay
    last = base + (count - 1) * sps + delay
    pad_left = max(0, -first)
    pad_right = max(0, last + 1 - y.size)
    padded = np.concatenate([
        np.zeros(pad_left, dtype=complex), y,
        np.zeros(pad_right, dtype=complex),
    ])
    origin = first + pad_left
    out = np.zeros(count, dtype=complex)
    for j, tap in enumerate(kernel):
        if tap == 0.0:
            continue
        sl = padded[origin + j: origin + j + count * sps: sps]
        out += tap * sl
    return out


def convolutional_encode(code: ConvolutionalCode, bits,
                         terminate: bool = True) -> np.ndarray:
    """Original per-bit state-walk ``ConvolutionalCode.encode``."""
    data = as_bit_array(bits)
    if terminate:
        data = np.concatenate([
            data, np.zeros(code.constraint_length - 1, dtype=np.uint8)
        ])
    out = np.empty(data.size * code.rate_inverse, dtype=np.uint8)
    state = 0
    for i, bit in enumerate(data):
        out[i * code.rate_inverse:(i + 1) * code.rate_inverse] = \
            code._outputs[state, bit]
        state = code._next_state[state, bit]
    return out


def convolutional_decode_soft(code: ConvolutionalCode, soft,
                              terminated: bool = True) -> np.ndarray:
    """Original ``ConvolutionalCode.decode_soft`` with the per-state
    per-bit Python add-compare-select."""
    values = np.asarray(soft, dtype=float).ravel()
    n_out = code.rate_inverse
    if values.size % n_out != 0:
        raise ConfigurationError(
            f"soft length {values.size} not a multiple of {n_out}")
    n_steps = values.size // n_out
    if n_steps == 0:
        return np.zeros(0, dtype=np.uint8)
    n_states = code.n_states

    expected = 1.0 - 2.0 * code._outputs.astype(float)  # (S, 2, n)
    metrics = np.full(n_states, -np.inf)
    metrics[0] = 0.0
    survivors = np.zeros((n_steps, n_states), dtype=np.int8)
    predecessors = np.zeros((n_steps, n_states), dtype=np.int64)

    for step in range(n_steps):
        block = values[step * n_out:(step + 1) * n_out]
        branch = expected @ block              # (S, 2)
        candidate = metrics[:, None] + branch  # (S, 2)
        new_metrics = np.full(n_states, -np.inf)
        for state in range(n_states):
            for bit in range(2):
                nxt = code._next_state[state, bit]
                score = candidate[state, bit]
                if score > new_metrics[nxt]:
                    new_metrics[nxt] = score
                    survivors[step, nxt] = bit
                    predecessors[step, nxt] = state
        metrics = new_metrics

    state = 0 if terminated else int(np.argmax(metrics))
    decoded = np.empty(n_steps, dtype=np.uint8)
    for step in range(n_steps - 1, -1, -1):
        decoded[step] = survivors[step, state]
        state = predecessors[step, state]
    if terminated:
        decoded = decoded[:n_steps - (code.constraint_length - 1)]
    return decoded


def fractional_delay_apply(fd: FractionalDelay, signal) -> np.ndarray:
    """Original per-tap ``FractionalDelay.apply`` loop."""
    sig = np.asarray(signal, dtype=complex).ravel()
    if sig.size == 0:
        return sig
    w = fd.half_width
    padded = np.concatenate([
        np.zeros(w, dtype=complex), sig, np.zeros(w, dtype=complex)
    ])
    out = np.zeros(sig.size, dtype=complex)
    for offset, tap in zip(range(-w, w + 1), fd._taps):
        out += tap * padded[w + offset: w + offset + sig.size]
    if fd._int_delay > 0:
        out = np.concatenate([
            np.zeros(fd._int_delay, dtype=complex),
            out[:-fd._int_delay] if fd._int_delay < out.size
            else np.zeros(0, dtype=complex),
        ])[:sig.size]
    elif fd._int_delay < 0:
        shift = -fd._int_delay
        out = np.concatenate([
            out[shift:], np.zeros(min(shift, sig.size), dtype=complex)
        ])[:sig.size]
    return out


def reencoder_image(reencoder: Reencoder, symbols, i0: int):
    """Original two-stage ``Reencoder.image``: full RRC shaping followed by
    a separate fractional-delay FIR pass."""
    d = np.asarray(symbols, dtype=complex).ravel()
    if d.size == 0:
        raise ConfigurationError("cannot re-encode an empty chunk")
    j0 = i0
    if reencoder.symbol_isi is not None \
            and not reencoder.symbol_isi.is_identity:
        taps = reencoder.symbol_isi.taps
        d = np.convolve(d, taps)
        j0 = i0 - reencoder.symbol_isi.main_tap
    wave = reencoder.shaper.shape(d)
    pad = reencoder.delay_half_width + 1
    wave = np.concatenate([
        np.zeros(pad, dtype=complex), wave,
        np.zeros(pad, dtype=complex),
    ])
    position = (reencoder.start + reencoder.shaper.sps * j0
                - reencoder.shaper.delay - pad)
    base = int(np.floor(position))
    frac = position - base
    # A dedicated cache dict: the live instance's _frac_cache now holds
    # composed kernels, not FractionalDelay objects.
    cache = reencoder.__dict__.setdefault("_reference_delay_cache", {})
    key = round(frac, 9)
    if key not in cache:
        cache[key] = FractionalDelay(frac, reencoder.delay_half_width)
    wave = fractional_delay_apply(cache[key], wave)
    n = base + np.arange(wave.size, dtype=float)
    ramp = np.exp(2j * np.pi * reencoder.estimate.freq_offset * n)
    return reencoder.estimate.gain * wave * ramp, base


# ----------------------------------------------------------------------
# Batched-vs-loop pairs (trial-axis kernels)
# ----------------------------------------------------------------------
# The trial-axis kernels in repro.phy.batch did not *replace* scalar
# code — the scalar loop over lanes IS their baseline. These loops are
# the oracle the batched equivalence tests compare against.
def batched_matched_sampler_loop(shaper, padded, origin, starts,
                                 count: int) -> np.ndarray:
    """One scalar :class:`MatchedSampler` call per lane — the baseline of
    ``BatchedMatchedSampler.sample`` on the same padded buffer. The
    scalar sampler re-pads implicitly, so handing it each row beyond
    *origin* (whose margin is zeros by the batched calling convention)
    reproduces the batched zero-padding semantics."""
    sampler = MatchedSampler(shaper)
    starts = np.asarray(starts, dtype=float).ravel()
    out = np.empty((padded.shape[0], count), dtype=complex)
    for lane in range(padded.shape[0]):
        out[lane] = sampler.sample(padded[lane, origin:],
                                   float(starts[lane]), count)
    return out


def batched_phase_tracker_loop(kp: float, ki: float, phase, freq,
                               z, constellation,
                               known=None) -> tuple:
    """One scalar :class:`PhaseTracker` per lane — the baseline of
    ``BatchedPhaseTracker.process`` (fresh trackers seeded with the
    per-lane state, exactly what the batched state arrays hold)."""
    phase = np.asarray(phase, dtype=float).ravel()
    freq = np.asarray(freq, dtype=float).ravel()
    z = np.asarray(z, dtype=complex)
    soft = np.empty_like(z)
    decisions = np.empty_like(z)
    phases = np.empty(z.shape, dtype=float)
    for lane in range(z.shape[0]):
        tracker = PhaseTracker(kp=kp, ki=ki, phase=float(phase[lane]),
                               freq=float(freq[lane]))
        lane_known = None if known is None else known[lane]
        soft[lane], decisions[lane], phases[lane] = tracker.process(
            z[lane], constellation, known=lane_known)
    return soft, decisions, phases
