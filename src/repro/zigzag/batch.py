"""Trial-axis batched ZigZag: decode N independent collision trials at once.

Monte-Carlo sweeps (§5) decode thousands of *independent* hidden-pair
trials; the scalar :class:`~repro.zigzag.decoder.ZigZagMultiDecoder` costs
one Python orchestration pass per trial. This module runs N trials in
lockstep through batched counterparts of every stage — matched sampling,
phase tracking (:mod:`repro.phy.batch`), the stream decoder
(:mod:`repro.receiver.batchstream`), re-encoding and the §4.2.4(b)
correction loop — so each stage is one ``(N, ...)`` array pass. The
per-trial rules around those engines (bit extraction, each lane's
result, backward planning, the MRC of a failing packet) are the scalar
decoder's own.

Lockstep requires every lane to execute the same chunk schedule over
captures of the same shape, so trials are grouped by **schedule
signature**: the exact forward step sequence, capture lengths, and packet
geometry; the few lanes that run a backward pass regroup by reverse
schedule. Fractional timing offsets differ freely inside a group — they
live in per-lane arrays.

Lanes the lockstep path cannot reproduce bit-exactly are re-decoded
through the scalar path and their batched outputs discarded:

* trials whose preamble residual would train the scalar equalizer
  (:attr:`BatchedStreamDecoder.wants_equalizer`);
* whole groups that raise :class:`BatchDivergence` or any
  :class:`ReproError` mid-flight (mid-stream capture switches,
  lane-dependent pilot knowledge, sampler escapes);
* trials with three or more captures, non-BPSK bodies, or a failing
  schedule (delegated to the scalar decoder up front).

Because every batched operation is lane-elementwise (or a per-lane
reduction), a lane's outputs depend only on its own samples — decoding a
trial in a batch of 1 or 64 yields identical results, the property the
batch-size-invariance tests pin down.

Padding discipline: each capture lives in a ``(N, pad + len + pad)``
buffer whose pad columns are re-zeroed after every image subtraction.
The zero margins reproduce both the scalar matched-sampler's implicit
zero-padding and ``subtract_segment``'s edge clipping exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigurationError, ReproError, ScheduleError
from repro.phy.constellation import BPSK
from repro.phy.noise import NOISE_POWER
from repro.phy.pulse import DELAY, SHAPER, SPS
from repro.receiver.batchstream import BatchDivergence, BatchedStreamDecoder
from repro.receiver.result import DecodeResult
from repro.zigzag.decoder import (
    BackwardPlan,
    ZigZagMultiDecoder,
    ZigZagOutcome,
    plan_backward,
    schedule_for,
)
from repro.zigzag.engine import (
    CORRECTION_ALPHA,
    CORRECTION_BETA,
    PacketAccumulator,
    PacketSpec,
    PlacementParams,
)
from repro.zigzag.reencode import DELAY_HALF_WIDTH

__all__ = ["BatchStats", "BatchedReencoder", "BatchedZigZagEngine",
           "BatchedPairDecoder", "CAPTURE_PAD"]

# Zero margin around each capture row; absorbs every pulse tail the scalar
# path clips or zero-pads (matched-filter half-width 12 + re-encode pad 7 +
# composed-kernel tail, with slack for per-lane integer-base spread).
CAPTURE_PAD = 64


@dataclass
class BatchStats:
    """How a ``decode_batch`` call split its trials (equivalence tests use
    this to assert the lockstep path was genuinely exercised)."""

    trials: int = 0
    lockstep: int = 0
    fallback: int = 0
    groups: int = 0
    # Lockstep lanes that ran the batched backward pass (a lane whose
    # packets all pass CRC after the forward pass skips it).
    backward: int = 0


def _stack_padded(rows, length: int, pad: int) -> np.ndarray:
    """Stack equal-length capture rows into ``(N, pad + length + pad)``."""
    out = np.zeros((len(rows), length + 2 * pad), dtype=complex)
    for i, r in enumerate(rows):
        out[i, pad:pad + length] = r
    return out


# ---------------------------------------------------------------------------
# Batched re-encoder (mirrors repro.zigzag.reencode.Reencoder)
# ---------------------------------------------------------------------------
class BatchedReencoder:
    """Channel images of decoded chunks for one (packet, capture) across
    N lanes.

    Per-lane starts differ fractionally (and by a few integer samples);
    the integer spread is embedded as a per-lane shift in the upsampled
    symbol grid — convolution is shift-equivariant, so one batched
    convolution against the per-lane composed ``RRC ⊛ delay`` kernels
    yields every lane's segment in a common base frame. The chunks are
    tiny (≈ 100 samples against 33 taps), so the convolution runs as a
    sliding-window matmul rather than via FFTs, whose setup cost would
    dominate at this size.
    """

    def __init__(self, gains: np.ndarray, freqs: np.ndarray,
                 starts: np.ndarray) -> None:
        self.gains = np.asarray(gains, dtype=complex).copy()
        self.freqs = np.asarray(freqs, dtype=float).copy()
        self.starts = np.asarray(starts, dtype=float).copy()
        self._pad = DELAY_HALF_WIDTH + 1
        n = self.starts.size
        # base0 = floor(start − delay − pad) is constant per placement
        # (chunk bases differ from it by the integer SPS*i0).
        position0 = self.starts - DELAY - self._pad
        self._base0 = np.floor(position0).astype(np.int64)
        fracs = position0 - self._base0
        # All lanes' composed RRC ⊛ fractional-delay kernels at once:
        # batched windowed-sinc rows, then one matmul against the RRC
        # convolution (Toeplitz) matrix instead of N python convolves.
        hw = DELAY_HALF_WIDTH
        grid = np.arange(-hw, hw + 1, dtype=float)
        window = np.hanning(2 * hw + 3)[1:-1]
        delay_taps = np.sinc(grid[None, :] + fracs[:, None]) * window
        delay_taps /= delay_taps.sum(axis=1, keepdims=True)
        delay_rev = delay_taps[:, ::-1]
        p = SHAPER.taps.size
        d_len = 2 * hw + 1
        conv = np.zeros((p + d_len - 1, d_len))
        for t in range(d_len):
            conv[t:t + p, t] = SHAPER.taps
        kernels = delay_rev @ conv.T
        # Reversed + trailing unit axis: ready for the sliding-window
        # matmul in :meth:`image` (correlate(x, k_rev) == convolve(x, k)).
        self._kernels_rev = np.ascontiguousarray(
            kernels[:, ::-1])[:, :, None]
        self._cols_cache: dict[int, np.ndarray] = {}
        self._base_min = int(self._base0.min())
        self._shifts = self._base0 - self._base_min
        if int(self._shifts.max()) > 16:
            raise BatchDivergence(
                "per-lane re-encode bases spread too far for lockstep")
        self._lanes = np.arange(n)
        self._powers: np.ndarray | None = None

    def _gain_ramp(self, base: int, size: int) -> np.ndarray:
        """``gain · exp(2jπ f (base + k))`` for k < size, per lane."""
        powers = self._powers
        if powers is None or powers.shape[1] < size:
            capacity = max(size, 256,
                           0 if powers is None else 2 * powers.shape[1])
            steps = np.broadcast_to(
                np.exp(2j * np.pi * self.freqs)[:, None],
                (self.freqs.size, capacity)).copy()
            steps[:, 0] = 1.0 + 0j
            powers = np.cumprod(steps, axis=1)
            self._powers = powers
        rot = (self.gains
               * np.exp(2j * np.pi * self.freqs * base))[:, None]
        return powers[:, :size] * rot

    def image(self, effective: np.ndarray,
              i0: int) -> tuple[np.ndarray, int]:
        """Batched chunk image: ``(segments (N, L), common_base)``.

        Row l's segment is placed at capture position ``common_base`` —
        the per-lane base offset is already embedded in the row.
        """
        d = np.asarray(effective, dtype=complex)
        if d.ndim != 2 or d.shape[1] == 0:
            raise ConfigurationError("cannot re-encode an empty chunk")
        n, k = d.shape
        max_shift = int(self._shifts.max())
        width = (k - 1) * SPS + 1 + max_shift
        kt = self._kernels_rev.shape[1]
        # Symbols scattered straight into a (kt-1)-zero-padded grid, so the
        # full convolution is one sliding-window batched matvec.
        upsampled = np.zeros((n, width + 2 * (kt - 1)), dtype=complex)
        cols = self._cols_cache.get(k)
        if cols is None:
            cols = (self._shifts[:, None] + SPS * np.arange(k)[None, :]
                    + (kt - 1))
            self._cols_cache[k] = cols
        upsampled[self._lanes[:, None], cols] = d
        windows = np.lib.stride_tricks.sliding_window_view(
            upsampled, kt, axis=1)
        segments = np.matmul(windows, self._kernels_rev)[:, :, 0]
        # Same one-sample trim as the scalar composed-kernel path.
        base = self._base_min + SPS * i0 + 1
        np.multiply(segments, self._gain_ramp(base, segments.shape[1]),
                    out=segments)
        return segments, base

    def core_bounds(self, i0: int, i1: int, base: int,
                    segment_len: int) -> tuple[np.ndarray, np.ndarray]:
        """Per-lane ``(first, last)`` columns of the chunk-core region in
        the common segment frame (scalar ``core_slice``, per lane)."""
        first = (np.floor(self.starts + SPS * i0).astype(np.int64)
                 - base)
        last = (np.ceil(self.starts + SPS * (i1 - 1)).astype(np.int64)
                - base)
        first = np.maximum(first, 0)
        last = np.minimum(last + 1, segment_len)
        return first, last


# ---------------------------------------------------------------------------
# Batched §4.2.4(b) correction loop state
# ---------------------------------------------------------------------------
@dataclass
class BatchedSubtractionState:
    """Per-lane :class:`~repro.zigzag.engine.SubtractionState`."""

    multiplier: np.ndarray
    freq: np.ndarray
    last_position: np.ndarray
    has_last: np.ndarray

    @classmethod
    def fresh(cls, n: int) -> "BatchedSubtractionState":
        return cls(multiplier=np.ones(n, dtype=complex),
                   freq=np.zeros(n, dtype=float),
                   last_position=np.zeros(n, dtype=float),
                   has_last=np.zeros(n, dtype=bool))

    def predict(self, position: np.ndarray) -> np.ndarray:
        delta = np.where(self.has_last, position - self.last_position, 0.0)
        return self.multiplier * np.exp(1j * self.freq * delta)


# ---------------------------------------------------------------------------
# Batched engine (mirrors repro.zigzag.engine.ZigZagEngine)
# ---------------------------------------------------------------------------
class BatchedZigZagEngine:
    """Execute one chunk schedule over N stacked trials in lockstep.

    *padded_captures* holds one ``(N, pad + len + pad)`` buffer per
    collision; *lane_placements* is the per-lane list of
    :class:`PlacementParams` (identical (packet, collision) ordering in
    every lane — the group signature guarantees it).
    """

    def __init__(self, config, padded_captures: list[np.ndarray],
                 capture_sizes: list[int], pad: int,
                 specs: dict[str, PacketSpec],
                 lane_placements: list[list[PlacementParams]], *,
                 reversed_totals: bool = False,
                 pilots: dict[str, np.ndarray] | None = None) -> None:
        self.config = config
        self.pad = pad
        self.capture_sizes = list(capture_sizes)
        self.residual = [c.copy() for c in padded_captures]
        self.specs = specs
        self.reversed_totals = reversed_totals
        self._pilots = dict(pilots or {})
        self.n_lanes = padded_captures[0].shape[0]

        self.placements: dict[tuple[str, int], list[PlacementParams]] = {}
        self.by_packet: dict[str, list[tuple[str, int]]] = {}
        reference = lane_placements[0]
        for slot, pl in enumerate(reference):
            key = (pl.packet, pl.collision)
            if key in self.placements:
                raise ConfigurationError(f"duplicate placement {key}")
            lanes = [lane[slot] for lane in lane_placements]
            if any((l.packet, l.collision) != key for l in lanes):
                raise BatchDivergence("placement ordering differs by lane")
            self.placements[key] = lanes
            self.by_packet.setdefault(pl.packet, []).append(key)

        self.streams: dict[tuple[str, int], BatchedStreamDecoder] = {}
        self.subtraction = {
            key: BatchedSubtractionState.fresh(self.n_lanes)
            for key in self.placements
        }
        # np.zeros (calloc) over zeros_like: untouched pages stay copy-on-
        # write zero pages, and these buffers are large at big N.
        self.images = {
            key: np.zeros(self.residual[key[1]].shape, dtype=complex)
            for key in self.placements
        }
        self.reencoders: dict[tuple[str, int], BatchedReencoder] = {}
        self.packets: dict[str, dict[str, np.ndarray]] = {
            name: {
                "soft": np.zeros((self.n_lanes, spec.n_symbols),
                                 dtype=complex),
                "decisions": np.zeros((self.n_lanes, spec.n_symbols),
                                      dtype=complex),
                "phases": np.zeros((self.n_lanes, spec.n_symbols),
                                   dtype=float),
                "source": np.full((self.n_lanes, spec.n_symbols), -1,
                                  dtype=int),
            }
            for name, spec in specs.items()
        }
        self._starts_cache: dict[tuple[str, int], np.ndarray] = {}

    def _starts(self, key) -> np.ndarray:
        starts = self._starts_cache.get(key)
        if starts is None:
            starts = np.array([pl.start for pl in self.placements[key]],
                              dtype=float)
            self._starts_cache[key] = starts
        return starts

    def _get_stream(self, packet: str, collision: int,
                    at_cursor: int = 0) -> BatchedStreamDecoder:
        key = (packet, collision)
        stream = self.streams.get(key)
        if stream is not None and at_cursor > stream.cursor:
            raise BatchDivergence(
                "mid-stream capture switch (scalar path handles it)")
        if stream is None:
            if at_cursor > 0:
                raise BatchDivergence(
                    "stream starting mid-packet (capture switch)")
            lanes = self.placements[key]
            spec = self.specs[packet]
            stream = BatchedStreamDecoder(
                self.config,
                [pl.estimate for pl in lanes],
                self._starts(key),
                body_constellation=spec.body_constellation,
                reversed_total=spec.n_symbols if self.reversed_totals
                else None,
                pilots=self._pilots.get(packet),
            )
            self.streams[key] = stream
        return stream

    def _get_reencoder(self, packet: str, collision: int) -> BatchedReencoder:
        key = (packet, collision)
        enc = self.reencoders.get(key)
        if enc is None:
            lanes = self.placements[key]
            enc = BatchedReencoder(
                gains=np.array([pl.estimate.gain for pl in lanes],
                               dtype=complex),
                freqs=np.array([pl.estimate.freq_offset for pl in lanes],
                               dtype=float),
                starts=self._starts(key),
            )
            self.reencoders[key] = enc
        return enc

    # ------------------------------------------------------------------
    def run(self, steps) -> dict[str, dict[str, np.ndarray]]:
        for step in steps:
            self.execute(step)
        return self.packets

    def execute(self, step) -> None:
        packet, c = step.packet, step.collision
        stream = self._get_stream(packet, c, at_cursor=step.i0)
        if stream.cursor != step.i0:
            raise ConfigurationError(
                f"step {step} does not continue stream cursor "
                f"{stream.cursor}")
        # The matched sampler only reads the chunk's sample window; add
        # residual + image over that span instead of the whole buffer.
        starts = self._starts((packet, c))
        lo = (int(np.floor(starts.min() + SPS * step.i0))
              - DELAY + self.pad)
        hi = (int(np.floor(starts.max() + SPS * (step.i1 - 1)))
              - DELAY + SHAPER.taps.size + self.pad)
        width = self.residual[c].shape[1]
        if lo < 0 or hi > width:
            raise BatchDivergence("chunk window escapes the padded buffer")
        local = np.add(self.residual[c][:, lo:hi],
                       self.images[(packet, c)][:, lo:hi])
        chunk = stream.decode_chunk(local, self.pad - lo, step.i1)

        acc = self.packets[packet]
        sl = slice(step.i0, step.i1)
        acc["soft"][:, sl] = chunk.soft
        acc["decisions"][:, sl] = chunk.decisions
        acc["phases"][:, sl] = chunk.phases
        acc["source"][:, sl] = c

        for key in self.by_packet[packet]:
            self._subtract_chunk(packet, key[1], c, chunk)

    def _apply_segment(self, buffer: np.ndarray, segments: np.ndarray,
                       base: int, capture: int, sign: float) -> None:
        """buffer[:, pad+base : ...] += sign*segments, then re-zero the pad
        columns (reproduces the scalar path's edge clipping)."""
        lo = self.pad + base
        hi = lo + segments.shape[1]
        if lo < 0 or hi > buffer.shape[1]:
            raise BatchDivergence("image segment escapes the padded buffer")
        if sign > 0:
            buffer[:, lo:hi] += segments
        else:
            buffer[:, lo:hi] -= segments
        # Re-zero only the pad columns this segment touched.
        if lo < self.pad:
            buffer[:, lo:min(hi, self.pad)] = 0.0
        tail = self.pad + self.capture_sizes[capture]
        if hi > tail:
            buffer[:, max(lo, tail):hi] = 0.0

    def _subtract_chunk(self, packet: str, target: int, decoded_from: int,
                        chunk) -> None:
        key = (packet, target)
        reencoder = self._get_reencoder(packet, target)
        if target == decoded_from:
            stream = self.streams[key]
            # Keep the re-encoder's gains in sync with preamble refinement
            # (frequency never changes, so ramp caches stay valid).
            reencoder.gains = stream.gains
            effective = chunk.effective_symbols
            segments, base = reencoder.image(effective, chunk.i0)
        else:
            sub = self.subtraction[key]
            starts = self._starts(key)
            center = starts + SPS * 0.5 * (chunk.i0 + chunk.i1)
            predicted = sub.predict(center)
            offsets = (np.arange(chunk.i1 - chunk.i0, dtype=float)
                       + 0.5 * (chunk.i0 - chunk.i1))
            # exp(j*0*x) == 1 exactly, so the zero-frequency lanes match
            # the scalar path's skipped-ramp branch without one.
            ramp = np.exp(1j * sub.freq[:, None] * SPS * offsets[None, :])
            effective = chunk.decisions * predicted[:, None] * ramp
            segments, base = reencoder.image(effective, chunk.i0)
            corrections = self._measure_and_update(
                key, segments, base, chunk, reencoder, predicted, center)
            np.multiply(segments, corrections[:, None], out=segments)
        self._apply_segment(self.residual[target], segments, base,
                            target, -1.0)
        self._apply_segment(self.images[key], segments, base, target, +1.0)

    def _measure_and_update(self, key, segments, base, chunk, reencoder,
                            predicted: np.ndarray,
                            center: np.ndarray) -> np.ndarray:
        sub = self.subtraction[key]
        capture = key[1]
        residual = self.residual[capture]
        cap_size = self.capture_sizes[capture]
        first, last = reencoder.core_bounds(chunk.i0, chunk.i1, base,
                                            segments.shape[1])
        lo = base + first
        hi = base + last
        measurable = (lo >= 0) & (hi <= cap_size) & (hi > lo)
        n = predicted.size
        corrections = np.ones(n, dtype=complex)
        if not measurable.any():
            return corrections
        width = np.maximum(last - first, 0)
        w_max = int(width.max())
        offs = np.arange(w_max)
        valid = offs[None, :] < width[:, None]
        # Flat takes into a (N, 2, W) stack: row 0 the image core, row 1
        # the residual window (clipped indices are masked by `valid`).
        seg_w = segments.shape[1]
        res_w = residual.shape[1]
        rows = np.arange(n)[:, None]
        seg_idx = (np.clip(first[:, None] + offs, 0, seg_w - 1)
                   + rows * seg_w)
        res_idx = (np.clip(self.pad + lo[:, None] + offs, 0, res_w - 1)
                   + rows * res_w)
        pair = np.empty((n, 2, w_max), dtype=complex)
        pair[:, 0, :] = segments.reshape(-1).take(seg_idx)
        pair[:, 1, :] = residual.reshape(-1).take(res_idx)
        np.multiply(pair, valid[:, None, :], out=pair)
        # One Gram matmul yields all three reductions: |seg|², seg·win*,
        # |win|² (diagonal + off-diagonal of the 2x2 per-lane Gram).
        gram = np.matmul(pair, np.conj(pair.transpose(0, 2, 1)))
        denom = gram[:, 0, 0].real
        length = (hi - lo).astype(float)
        noise_floor = NOISE_POWER * length
        live = measurable & (denom >= 4.0 * noise_floor)
        if not live.any():
            return corrections
        safe_denom = np.where(denom > 0, denom, 1.0)
        rho = np.conj(gram[:, 0, 1]) / safe_denom
        own_power = denom / np.maximum(length, 1.0)
        window_power = gram[:, 1, 1].real / np.maximum(length, 1.0)
        abs_rho = np.abs(rho)
        contamination = np.maximum(
            window_power - own_power * abs_rho * abs_rho, 0.0)
        measurement_var = contamination / np.maximum(denom, 1e-30)
        prior_var = 0.02
        gain = CORRECTION_ALPHA * prior_var / (prior_var + measurement_var)
        magnitude = np.clip(abs_rho, 0.5, 2.0)
        angle = np.arctan2(rho.imag, rho.real)
        scaled = gain * angle
        correction = (magnitude ** gain) * np.exp(1j * scaled)
        corrections[live] = correction[live]

        sub.multiplier[live] = predicted[live] * correction[live]
        dt = center - sub.last_position
        step_live = live & sub.has_last & (dt > 0)
        if step_live.any():
            safe_dt = np.where(step_live, dt, 1.0)
            max_step = 0.1 / safe_dt
            step = CORRECTION_BETA * gain * angle / safe_dt
            step = np.clip(step, -max_step, max_step)
            sub.freq[step_live] += step[step_live]
        sub.last_position[live] = center[live]
        sub.has_last[live] = True
        return corrections

    # ------------------------------------------------------------------
    def final_multiplier(self, packet: str, collision: int) -> np.ndarray:
        key = (packet, collision)
        lanes = self.placements[key]
        spec = self.specs[packet]
        last_pos = self._starts(key) + SPS * (spec.n_symbols - 1)
        stream = self.streams.get(key)
        if stream is not None:
            static = stream.gains * np.exp(
                2j * np.pi * stream.freq_offset * last_pos)
            return static * np.exp(1j * stream.tracker.phase)
        sub = self.subtraction[key]
        gains = np.array([pl.estimate.gain for pl in lanes], dtype=complex)
        freqs = np.array([pl.estimate.freq_offset for pl in lanes],
                         dtype=float)
        static = gains * np.exp(2j * np.pi * freqs * last_pos)
        return static * sub.predict(last_pos)

    def final_freq(self, packet: str, collision: int) -> np.ndarray:
        key = (packet, collision)
        stream = self.streams.get(key)
        if stream is not None:
            return stream.total_freq_offset()
        lanes = self.placements[key]
        sub = self.subtraction[key]
        freqs = np.array([pl.estimate.freq_offset for pl in lanes],
                         dtype=float)
        return freqs + sub.freq / (2.0 * np.pi)

    def residual_power(self, collision: int) -> np.ndarray:
        size = self.capture_sizes[collision]
        r = self.residual[collision][:, self.pad:self.pad + size]
        return np.mean(np.abs(r) ** 2, axis=1)

    def wants_equalizer(self) -> np.ndarray:
        flags = np.zeros(self.n_lanes, dtype=bool)
        for stream in self.streams.values():
            flags |= stream.wants_equalizer
        return flags


# ---------------------------------------------------------------------------
# Top-level batched pair decoder
# ---------------------------------------------------------------------------
@dataclass
class _TrialPlan:
    """One trial's pre-computed scheduling facts."""

    index: int
    captures: list[np.ndarray]
    specs: dict[str, PacketSpec]
    placements: list[PlacementParams]
    schedule: list | None = None
    signature: tuple | None = None


def _steps(schedule) -> tuple:
    """A chunk schedule as a hashable grouping key."""
    return tuple((s.packet, s.collision, s.i0, s.i1) for s in schedule)


@dataclass
class BatchedPairDecoder(ZigZagMultiDecoder):
    """Batched hidden-pair ZigZag decoder (§4.2.3 over a trial axis).

    ``decode_batch`` groups trials by schedule signature, runs each group
    through :class:`BatchedZigZagEngine`, and replays any lane the
    lockstep path cannot reproduce bit-exactly through the inherited
    scalar :meth:`decode`. ``last_stats`` records the split.

    Only the engines run batched. Every per-trial rule is the inherited
    one: bit extraction (the frame codec's
    :func:`~repro.phy.frame.extract_rows`, over the lane axis), the ``DecodeResult`` of each lane, backward planning
    (:func:`~repro.zigzag.decoder.plan_backward`) and the MRC of a
    failing packet. As in the scalar decoder, a packet that passes CRC
    after the forward pass is final: only lanes holding a failing packet
    plan a backward pass, and they run it grouped by reverse schedule.
    """

    last_stats: BatchStats = field(default_factory=BatchStats)

    def decode_batch(self, trials) -> list[ZigZagOutcome]:
        """Decode ``[(captures, specs, placements), ...]``; returns one
        :class:`ZigZagOutcome` per trial, in order."""
        plans = []
        for i, (captures, specs, placements) in enumerate(trials):
            plans.append(_TrialPlan(
                index=i,
                captures=[np.asarray(c, dtype=complex).ravel()
                          for c in captures],
                specs=specs,
                placements=list(placements)))
        outcomes: list[ZigZagOutcome | None] = [None] * len(plans)
        stats = BatchStats(trials=len(plans))

        groups: dict[tuple, list[_TrialPlan]] = {}
        scalar_queue: list[_TrialPlan] = []
        for plan in plans:
            if self._plan_signature(plan):
                groups.setdefault(plan.signature, []).append(plan)
            else:
                scalar_queue.append(plan)

        for group in groups.values():
            try:
                self._decode_group(group, outcomes, stats)
            except ReproError:
                pass  # whole-group fallback: scalar is bit-identical
            # Ejected lanes (and whole failed groups) replay via scalar.
            scalar_queue.extend(
                p for p in group if outcomes[p.index] is None)
        stats.groups = len(groups)

        for plan in scalar_queue:
            outcomes[plan.index] = self.decode(
                plan.captures, plan.specs, plan.placements)
            stats.fallback += 1
        stats.lockstep = stats.trials - stats.fallback
        self.last_stats = stats
        return outcomes

    # ------------------------------------------------------------------
    def _plan_signature(self, plan: _TrialPlan) -> bool:
        """Compute the forward schedule and the grouping signature; False
        ⇒ the trial must go through the scalar path (odd geometry or
        failing schedule — the scalar decoder reproduces the exact
        failure)."""
        if len(plan.captures) != 2:
            return False
        if any(spec.body_constellation is not BPSK
               for spec in plan.specs.values()):
            return False
        try:
            plan.schedule = schedule_for(plan.placements, plan.specs)
        except ScheduleError:
            return False
        plan.signature = (
            tuple(c.size for c in plan.captures),
            tuple(sorted((name, spec.n_symbols)
                         for name, spec in plan.specs.items())),
            tuple((pl.packet, pl.collision) for pl in plan.placements),
            _steps(plan.schedule),
        )
        return True

    # ------------------------------------------------------------------
    def _decode_group(self, group: list[_TrialPlan], outcomes: list,
                      stats: BatchStats) -> None:
        """Lockstep-decode one signature group into *outcomes*; a raise
        leaves the group's outcomes unset for the scalar replay."""
        plan0 = group[0]
        specs = plan0.specs
        cap_sizes = [c.size for c in plan0.captures]
        forward = BatchedZigZagEngine(
            self.config,
            [_stack_padded([p.captures[c] for p in group], size, CAPTURE_PAD)
             for c, size in enumerate(cap_sizes)],
            cap_sizes, CAPTURE_PAD, specs, [p.placements for p in group])
        fwd_out = forward.run(plan0.schedule)
        eject = forward.wants_equalizer()

        n_lanes = len(group)
        lane_results: list[dict[str, DecodeResult]] = [
            {} for _ in range(n_lanes)]
        for name, spec in specs.items():
            stream = self._final_stream(forward, name)
            estimates = [None if stream is None
                         else stream.current_estimate(lane)
                         for lane in range(n_lanes)]
            for results, result in zip(lane_results, self._results(
                    fwd_out[name]["soft"], spec, estimates)):
                results[name] = result
        # Row views, not copies: the engine is discarded after the group,
        # so nothing else writes these arrays again.
        lane_forward = [
            {name: PacketAccumulator(**{key: acc[key][lane] for key in acc})
             for name, acc in fwd_out.items()}
            for lane in range(n_lanes)]

        # Forward-pass finality, per lane: a packet that passes CRC here
        # is final, so only lanes holding a failing packet run the
        # backward pass (ejected lanes are replayed by the scalar path
        # anyway). Every batched operation is lane-elementwise, so a
        # sub-batch decodes exactly as the full group would.
        failing = [lane for lane in range(n_lanes) if not eject[lane]
                   and not all(r.success for r in lane_results[lane].values())]
        backward = self._batched_backward(group, failing, forward) \
            if failing and self.use_backward else {}
        stats.backward += len(backward)

        residual_powers = np.stack(
            [forward.residual_power(c) for c in range(len(cap_sizes))],
            axis=1)
        for lane, plan in enumerate(group):
            if eject[lane]:
                continue  # replayed through the scalar path by the caller
            backward_soft = backward.get(lane)
            if backward_soft is not None:
                self._combine_failing(lane_results[lane], specs,
                                      lane_forward[lane], backward_soft, {})
            outcomes[plan.index] = ZigZagOutcome(
                results=lane_results[lane],
                forward=lane_forward[lane],
                backward_soft=backward_soft,
                schedule=plan0.schedule,
                residual_powers=[float(x) for x in residual_powers[lane]],
            )

    def _batched_backward(self, group: list[_TrialPlan], lanes: list[int],
                          forward: BatchedZigZagEngine
                          ) -> dict[int, dict[str, np.ndarray]]:
        """Backward soft symbols of each of *lanes* (rows of *forward*)
        whose reversed placements have a schedule.

        Each lane is planned by :func:`plan_backward` from its row of the
        forward end state; lanes sharing a reverse schedule then decode
        in lockstep.
        """
        end_state = {key: (forward.final_multiplier(*key),
                           forward.final_freq(*key))
                     for key in forward.placements}
        by_schedule: dict[tuple, list[tuple[int, BackwardPlan]]] = {}
        for lane in lanes:
            plan = plan_backward(
                forward.capture_sizes, group[lane].specs,
                group[lane].placements,
                {key: (multiplier[lane], freq[lane])
                 for key, (multiplier, freq) in end_state.items()},
                {name: acc["decisions"][lane]
                 for name, acc in forward.packets.items()})
            if plan.schedule is not None:
                by_schedule.setdefault(_steps(plan.schedule), []).append(
                    (lane, plan))

        backward: dict[int, dict[str, np.ndarray]] = {}
        for members in by_schedule.values():
            plans = [plan for _, plan in members]
            engine = BatchedZigZagEngine(
                self.config,
                [_stack_padded([np.conj(group[lane].captures[c][::-1])
                                for lane, _ in members], size, forward.pad)
                 for c, size in enumerate(forward.capture_sizes)],
                forward.capture_sizes, forward.pad, plans[0].specs,
                [plan.placements for plan in plans],
                reversed_totals=True,
                pilots={name: np.stack([plan.pilots[name] for plan in plans])
                        for name in plans[0].pilots})
            reversed_out = engine.run(plans[0].schedule)
            for row, (lane, _) in enumerate(members):
                backward[lane] = {name: np.conj(acc["soft"][row, ::-1])
                                  for name, acc in reversed_out.items()}
        return backward
