"""Pre-optimization ("before") implementations of the DSP hot paths.

These are the scalar/per-tap loops the vectorized kernels in
:mod:`repro.phy` and :mod:`repro.zigzag` replaced, preserved verbatim so

- the perf harness (:mod:`repro.perf.bench`) can measure honest
  before/after deltas in the same run on the same machine, and
- the golden-equivalence tests (``tests/test_perf_equivalence.py``) can
  assert that the optimized kernels produce numerically identical output.

Each function takes the live object as its first argument and mutates its
state exactly as the original method did. :func:`use_reference_kernels`
temporarily swaps them in class-wide, which is how the end-to-end baseline
(whole ZigZag pair decode, runner sweep) is timed.
"""

from __future__ import annotations

import contextlib

import numpy as np

from repro.errors import ConfigurationError
from repro.phy.coding.convolutional import ConvolutionalCode
from repro.phy.pulse import MatchedSampler
from repro.phy.resample import FractionalDelay
from repro.phy.tracking import MuellerMullerTracker, PhaseTracker
from repro.utils.bits import as_bit_array
from repro.zigzag.reencode import Reencoder

__all__ = [
    "phase_tracker_process",
    "matched_sampler_sample",
    "convolutional_encode",
    "convolutional_decode_soft",
    "mueller_muller_process",
    "reencoder_image",
    "batched_matched_sampler_loop",
    "batched_phase_tracker_loop",
    "batched_viterbi_loop",
    "use_reference_kernels",
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


def mueller_muller_process(tracker: MuellerMullerTracker, received,
                           decisions) -> float:
    """Original per-pair ``MuellerMullerTracker.process`` loop."""
    y = np.asarray(received, dtype=complex).ravel()
    d = np.asarray(decisions, dtype=complex).ravel()
    if y.size != d.size:
        raise ConfigurationError("received/decisions length mismatch")
    for yi, di in zip(y, d):
        tracker.update(complex(yi), complex(di))
    return tracker.offset_estimate


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


def channel_apply(channel, symbols, start_sample: int = 0) -> np.ndarray:
    """Original ``Channel.apply`` (designs a fresh fractional-delay kernel
    on every call; the per-tap FIR comes from the patched
    ``FractionalDelay.apply``)."""
    x = np.asarray(symbols, dtype=complex).ravel()
    if x.size == 0:
        return x
    p = channel.params
    out = x
    if p.tx_evm > 0.0:
        distortion = (channel.rng.standard_normal(out.size)
                      + 1j * channel.rng.standard_normal(out.size))
        out = out * (1.0 + p.tx_evm / np.sqrt(2.0) * distortion)
    out = p.isi_filter().apply(out)
    if p.sampling_offset != 0.0:
        out = FractionalDelay(p.sampling_offset).apply(out)
    n = np.arange(start_sample, start_sample + out.size, dtype=float)
    phase_ramp = np.exp(2j * np.pi * p.freq_offset * n)
    out = p.gain * out * phase_ramp
    if p.phase_noise_std > 0.0:
        steps = channel.rng.normal(0.0, p.phase_noise_std, out.size)
        out = out * np.exp(1j * np.cumsum(steps))
    return out


def frontend_static_derotate(stream, raw: np.ndarray, i0: int) -> np.ndarray:
    """Original ``SymbolStreamDecoder._static_derotate`` (fresh arange and
    complex exponential per chunk)."""
    est = stream.estimate
    sps = stream.config.shaper.sps
    n = stream.start + sps * np.arange(i0, i0 + raw.size)
    ramp = np.exp(-2j * np.pi * est.freq_offset * n)
    gain = est.gain if est.gain != 0 else 1e-12
    return raw * ramp / gain


def engine_subtract_chunk(engine, packet: str, target: int,
                          decoded_from: int, chunk) -> None:
    """Original ``ZigZagEngine._subtract_chunk`` (per-call arange and
    unconditional intra-chunk ramp on the cross-capture path)."""
    from repro.zigzag.reencode import add_segment, subtract_segment

    key = (packet, target)
    reencoder = engine._get_reencoder(packet, target)
    if target == decoded_from:
        stream = engine.streams[key]
        reencoder.estimate = stream.estimate
        if stream.channel_isi is not None:
            reencoder.symbol_isi = stream.channel_isi
        effective = chunk.effective_symbols
        segment, base = reencoder.image(effective, chunk.i0)
    else:
        sub = engine.subtraction[key]
        sps = engine.config.shaper.sps
        center = reencoder.start + sps * 0.5 * (chunk.i0 + chunk.i1)
        predicted = sub.predict(center)
        effective = chunk.decisions * predicted * np.exp(
            1j * sub.freq * sps
            * (np.arange(chunk.i0, chunk.i1)
               - 0.5 * (chunk.i0 + chunk.i1)))
        segment, base = reencoder.image(effective, chunk.i0)
        if engine.measure_correction:
            correction = engine._measure_and_update(
                key, segment, base, chunk, reencoder, predicted, center)
            if correction != 1.0:
                segment = segment * correction
    subtract_segment(engine.residual[target], segment, base)
    add_segment(engine.images[key], segment, base)


def engine_measure_and_update(engine, key, segment, base, chunk, reencoder,
                              predicted: complex, center: float) -> complex:
    """Original numpy-scalar ``ZigZagEngine._measure_and_update``."""
    sub = engine.subtraction[key]
    residual = engine.residual[key[1]]
    core = reencoder.core_slice(chunk.i0, chunk.i1, base, segment.size)
    lo = base + core.start
    hi = base + core.stop
    if lo < 0 or hi > residual.size or hi <= lo:
        return 1.0
    seg_core = segment[core]
    denom = float(np.sum(np.abs(seg_core) ** 2))
    noise_floor = engine.config.noise_power * (hi - lo)
    if denom < 4.0 * noise_floor:
        return 1.0
    window = residual[lo:hi]
    rho = complex(np.vdot(seg_core, window) / denom)
    own_power = denom / (hi - lo)
    window_power = float(np.mean(np.abs(window) ** 2))
    contamination = max(window_power - own_power * abs(rho) ** 2, 0.0)
    measurement_var = contamination / max(denom, 1e-30)
    prior_var = 0.02
    gain = engine.correction_alpha * prior_var / (prior_var
                                                  + measurement_var)
    magnitude = float(np.clip(abs(rho), 0.5, 2.0))
    angle = float(np.angle(rho))
    correction = (magnitude ** gain) * np.exp(1j * gain * angle)
    sub.multiplier = predicted * correction
    if sub.last_position is not None:
        dt = center - sub.last_position
        if dt > 0:
            max_step = 0.1 / dt
            sub.freq += float(np.clip(
                engine.correction_beta * gain * angle / dt,
                -max_step, max_step))
    sub.last_position = center
    return correction


def decoder_align_backward(forward_soft, forward_decisions, backward_soft,
                           block: int = 32, min_agreement: float = 0.6):
    """Original ``ZigZagPairDecoder._align_backward`` (numpy-scalar
    reductions per block)."""
    n = backward_soft.size
    aligned = np.array(backward_soft, copy=True)
    weights = np.zeros(n, dtype=float)
    for start in range(0, n, block):
        sl = slice(start, min(start + block, n))
        dec = forward_decisions[sl]
        denom = np.sum(np.abs(dec) ** 2)
        if denom <= 0:
            continue
        rho = np.vdot(dec, backward_soft[sl]) / denom
        if abs(rho) < 1e-9:
            continue
        aligned[sl] = backward_soft[sl] * np.exp(-1j * np.angle(rho))
        agreement = float(min(abs(rho), 1.0))
        if agreement < min_agreement:
            continue
        var_f = float(np.mean(np.abs(forward_soft[sl] - dec) ** 2))
        var_b = float(np.mean(np.abs(aligned[sl] - dec) ** 2))
        if var_b <= 0:
            weights[sl] = 1.0
        else:
            weights[sl] = float(np.clip(var_f / var_b, 0.0, 1.0))
    return aligned, weights


def find_correlation_peaks(signal, preamble, *, freq_offset: float = 0.0,
                           threshold: float = 0.6, min_separation=None,
                           max_peaks=None):
    """Original ``find_correlation_peaks`` (computes the sliding
    correlation twice and |corr| once per accepted peak)."""
    from repro.phy.correlation import (
        CorrelationPeak,
        normalized_sliding_correlation,
        refine_peak_position,
        sliding_correlation,
    )

    if not 0.0 < threshold <= 1.0:
        raise ConfigurationError("threshold must lie in (0, 1]")
    corr = sliding_correlation(signal, preamble, freq_offset)
    scores = normalized_sliding_correlation(signal, preamble, freq_offset)
    separation = min_separation if min_separation is not None \
        else len(preamble)
    candidates = np.flatnonzero(scores >= threshold)
    peaks = []
    used = np.zeros(scores.size, dtype=bool)
    order = candidates[np.argsort(-scores[candidates])]
    for idx in order:
        if used[idx]:
            continue
        lo = max(0, idx - separation)
        hi = min(scores.size, idx + separation + 1)
        used[lo:hi] = True
        fine = refine_peak_position(np.abs(corr), int(idx))
        peaks.append(CorrelationPeak(
            position=int(idx),
            fine_offset=fine,
            value=complex(corr[idx]),
            score=float(scores[idx]),
        ))
        if max_peaks is not None and len(peaks) >= max_peaks:
            break
    peaks.sort(key=lambda p: p.position)
    return peaks


# ----------------------------------------------------------------------
# Batched-vs-loop pairs (trial-axis kernels)
# ----------------------------------------------------------------------
# The trial-axis kernels in repro.phy.batch did not *replace* scalar
# code — the scalar loop over lanes IS their baseline. These loops are
# the before side of the batched microbenches and the oracle the batched
# equivalence tests compare against.
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


def batched_viterbi_loop(code: ConvolutionalCode, soft,
                         terminated: bool = True) -> np.ndarray:
    """One scalar Viterbi pass per lane — the baseline of
    ``ConvolutionalCode.decode_soft_batch``."""
    soft = np.asarray(soft, dtype=float)
    return np.stack([code.decode_soft(row, terminated=terminated)
                     for row in soft])


@contextlib.contextmanager
def use_reference_kernels():
    """Swap every DSP path this PR optimized for its pre-PR version.

    This is the honest end-to-end baseline: the tentpole kernels (tracker,
    sampler, Viterbi, re-encoder) *and* the ride-along optimizations
    (fractional-delay FIR, channel delay-kernel reuse, correction-loop
    scalarization, backward alignment) all revert together. The
    synchronizer is not swapped: its detection and acquisition now share
    per-capture work across a whole candidate-frequency list, which the
    per-frequency originals cannot serve. Class-wide and in-process only:
    run end-to-end baselines with ``n_workers=1`` so no child process
    escapes the patch.
    """
    import repro.phy.channel as channel_mod
    import repro.phy.correlation as correlation_mod
    import repro.receiver.frontend as frontend_mod
    import repro.zigzag.decoder as decoder_mod
    import repro.zigzag.engine as engine_mod

    saved = (
        PhaseTracker.process,
        MatchedSampler.sample,
        ConvolutionalCode.encode,
        ConvolutionalCode.decode_soft,
        MuellerMullerTracker.process,
        Reencoder.image,
        FractionalDelay.apply,
        channel_mod.Channel.apply,
        frontend_mod.SymbolStreamDecoder._static_derotate,
        engine_mod.ZigZagEngine._subtract_chunk,
        engine_mod.ZigZagEngine._measure_and_update,
        # Fetch the staticmethod descriptor itself so restoring it does
        # not turn the original back into a bound method.
        decoder_mod.ZigZagMultiDecoder.__dict__["_align_backward"],
        correlation_mod.find_correlation_peaks,
    )
    PhaseTracker.process = phase_tracker_process
    MatchedSampler.sample = matched_sampler_sample
    ConvolutionalCode.encode = convolutional_encode
    ConvolutionalCode.decode_soft = convolutional_decode_soft
    MuellerMullerTracker.process = mueller_muller_process
    Reencoder.image = reencoder_image
    FractionalDelay.apply = fractional_delay_apply
    channel_mod.Channel.apply = channel_apply
    frontend_mod.SymbolStreamDecoder._static_derotate = \
        frontend_static_derotate
    engine_mod.ZigZagEngine._subtract_chunk = engine_subtract_chunk
    engine_mod.ZigZagEngine._measure_and_update = engine_measure_and_update
    decoder_mod.ZigZagMultiDecoder._align_backward = staticmethod(
        decoder_align_backward)
    correlation_mod.find_correlation_peaks = find_correlation_peaks
    try:
        yield
    finally:
        (PhaseTracker.process, MatchedSampler.sample,
         ConvolutionalCode.encode, ConvolutionalCode.decode_soft,
         MuellerMullerTracker.process, Reencoder.image,
         FractionalDelay.apply,
         channel_mod.Channel.apply,
         frontend_mod.SymbolStreamDecoder._static_derotate,
         engine_mod.ZigZagEngine._subtract_chunk,
         engine_mod.ZigZagEngine._measure_and_update,
         decoder_mod.ZigZagMultiDecoder._align_backward,
         correlation_mod.find_correlation_peaks) = saved
