"""The user-facing ZigZag decoder: a forward pass, then backward + MRC.

:class:`ZigZagMultiDecoder` decodes k packets from k matching collisions
(§4.5); the pair of §4.2.3 is simply its k = 2 case.

§4.2.3 describes the forward pass; §4.3(b) adds backward decoding: "clearly
the figure is symmetric. The AP could wait until it received all samples,
and start decoding backward. If the AP does so, it will have two estimates
for each symbol. It combines these estimates to reduce errors using MRC."

Backward decoding here is implemented by time-reversal: conjugating and
reversing a capture maps the channel model onto itself —

    y[n] = H x(n-s) e^{j2πfn}  ==>  y'[m] = H' x'(m-s') e^{j2πfm}

with ``H' = conj(H e^{j2πf n_last} e^{jφ_last})``, ``x'`` the
conjugate-reversed symbol stream, and ``s'`` the mirrored start. The same
engine, scheduler, trackers and re-encoders therefore run unchanged on the
reversed captures; the per-(packet, capture) end states of the forward run
(tracked phase, equalizer taps) seed the reversed estimates. Forward and
backward soft symbols are then combined with maximal ratio combining, which
is why ZigZag's BER beats interference-free transmission (Fig 5-3): a
symbol the forward pass got wrong is received a second time, from the
other collision.

The backward pass and MRC exist "to reduce errors", so they run only where
errors are left: a packet that passes CRC after the forward pass is final,
and its result comes from the forward pass. When some packet of the set
still fails, the backward pass runs and its copy is combined into the
failing packets only. A clean set costs one forward pass, and MRC can never
turn a forward-pass success into a failure.

With k > 2 collisions every symbol is received *k* times, and the multi
decoder extends the same idea: once the forward pass has cleaned every
capture, each packet's waveform can be re-read from each capture it
appears in (residual plus that packet's own re-added image), giving up to
k independent soft copies per symbol for each packet that still fails
after the forward pass. Copies are gated blockwise against the forward
decisions and weighted by measured inverse variance — the
same guard that keeps a degraded backward pass from poisoning the
combine — and symbols the forward pass already decoded from that very
capture get zero weight (they carry the same noise, not new information).
At k = 2 the forward and backward passes already *are* the two
per-collision copies, so the extra-copy machinery runs only from three
captures up.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ReproError, ScheduleError
from repro.phy.equalizer import LmsEqualizer
from repro.phy.estimation import ChannelEstimate
from repro.phy.isi import IsiFilter
from repro.phy.pulse import SPS
from repro.receiver.frontend import StreamConfig, SymbolStreamDecoder
from repro.receiver.mrc import mrc_combine
from repro.receiver.result import DecodeResult, frame_results
from repro.zigzag.engine import (
    PacketAccumulator,
    PacketSpec,
    PlacementParams,
    ZigZagEngine,
)
from repro.zigzag.schedule import (
    MARGIN_SYMBOLS,
    DecodeStep,
    Placement,
    greedy_schedule,
)

__all__ = ["BackwardPlan", "ZigZagOutcome", "ZigZagMultiDecoder",
           "plan_backward", "schedule_for"]

# Symbols per block over which a further soft copy of a packet (backward
# pass or capture re-read) is phase-aligned and gated against the forward
# decisions (ZigZagMultiDecoder._align_backward).
ALIGN_BLOCK = 32
# Least |correlation| with the forward decisions, per block, for a copy's
# block to take part in the MRC combine.
MIN_AGREEMENT = 0.6


def schedule_for(placements: list[PlacementParams],
                 specs: dict[str, PacketSpec]) -> list[DecodeStep]:
    """The greedy chunk schedule of *placements*; raises
    :class:`ScheduleError` when no complete decode order exists."""
    return greedy_schedule(
        [Placement(pl.packet, pl.collision, pl.start,
                   specs[pl.packet].n_symbols) for pl in placements],
        margin_symbols=MARGIN_SYMBOLS)


@dataclass
class BackwardPlan:
    """One trial's time-reversed decode problem (§4.3b).

    ``schedule`` is None when the reversed placements have no complete
    decode order; the trial then gets no backward copy.
    """

    placements: list[PlacementParams]
    specs: dict[str, PacketSpec]
    pilots: dict[str, np.ndarray]
    schedule: list[DecodeStep] | None


def plan_backward(capture_sizes: list[int], specs: dict[str, PacketSpec],
                  placements: list[PlacementParams], end_state: dict,
                  decisions: dict[str, np.ndarray]) -> BackwardPlan:
    """Map one trial's forward end state onto the reversed captures.

    *end_state* maps each ``(packet, collision)`` to the forward engine's
    ``(final_multiplier, final_freq)`` there; *decisions* holds each
    packet's forward decisions. A placement's reversed channel is the
    conjugate of its final multiplier at the mirrored start, and the
    reversed trackers are piloted by the conjugate-reversed forward
    decisions: phase tracking hardens against the missing data-aided
    preamble while the backward soft symbols remain independent
    measurements from the other collision.
    """
    rev_placements = []
    for pl in placements:
        multiplier, freq = end_state[(pl.packet, pl.collision)]
        last_pos = pl.start + SPS * (specs[pl.packet].n_symbols - 1)
        rev_placements.append(PlacementParams(
            packet=pl.packet,
            collision=pl.collision,
            start=(capture_sizes[pl.collision] - 1) - last_pos,
            estimate=ChannelEstimate(
                gain=np.conj(multiplier),
                freq_offset=freq,
                sampling_offset=0.0,
                snr_db=pl.estimate.snr_db,
            ),
        ))
    rev_specs = {
        name: PacketSpec(
            key=name,
            n_symbols=spec.n_symbols,
            body_constellation=spec.body_constellation.conjugate(),
        )
        for name, spec in specs.items()
    }
    try:
        schedule = schedule_for(rev_placements, rev_specs)
    except ScheduleError:
        schedule = None
    return BackwardPlan(
        placements=rev_placements,
        specs=rev_specs,
        pilots={name: np.conj(decisions[name][::-1]) for name in specs},
        schedule=schedule)


@dataclass
class ZigZagOutcome:
    """Everything a ZigZag decode of one collision set produced.

    ``backward_soft`` and ``capture_soft`` are None when every packet
    passed CRC after the forward pass, or ``use_backward`` was off:
    neither the backward pass nor the k-copy re-reads ran.
    ``capture_soft`` holds the failing packets only.
    """

    results: dict[str, DecodeResult]
    forward: dict[str, PacketAccumulator] | None = None
    backward_soft: dict[str, np.ndarray] | None = None
    # Per-packet extra MRC copies re-read from individual cleaned
    # captures (k >= 3 only); each entry is (collision, aligned soft).
    capture_soft: dict[str, list[tuple[int, np.ndarray]]] | None = None
    schedule: list[DecodeStep] | None = None
    residual_powers: list[float] = field(default_factory=list)
    detail: str = ""

    @property
    def all_decoded(self) -> bool:
        return bool(self.results) and all(
            r.success for r in self.results.values())


@dataclass
class ZigZagMultiDecoder:
    """Decode the same k-packet set across k (or more) matching collisions.

    This is the §4.5 general decoder: any number of captures, each holding
    any subset of the packet set, driven through the k-capable greedy
    scheduler and engine. The §4.2.3 pair decode is its k = 2 case.

    Parameters
    ----------
    config:
        The shared :class:`StreamConfig` (the tracking/equalizer ablation
        switches).
    use_backward:
        Combine further copies into each packet that fails CRC after the
        forward pass: the backward pass (§4.3b) and, with three or more
        captures, a re-read of the packet from every cleaned capture it
        appears in (k-copy MRC, §4.5). Disable to reproduce the
        forward-only ablation of Fig 5-3.
    """

    config: StreamConfig
    use_backward: bool = True

    # ------------------------------------------------------------------
    def decode(self, captures: list[np.ndarray],
               specs: dict[str, PacketSpec],
               placements: list[PlacementParams]) -> ZigZagOutcome:
        """Run ZigZag over *captures* and return per-packet results."""
        captures = [np.asarray(c, dtype=complex).ravel() for c in captures]
        try:
            schedule = schedule_for(placements, specs)
        except ScheduleError as exc:
            return ZigZagOutcome(
                results={p: DecodeResult.failure(str(exc), via="zigzag")
                         for p in specs},
                detail=f"schedule failure: {exc}")

        forward_engine = ZigZagEngine(
            self.config, captures, specs, placements)
        forward = forward_engine.run(schedule)

        # A packet that passes CRC after the forward pass is final: the
        # backward pass and MRC exist "to reduce errors" (§4.3b), so they
        # run only when some packet still fails, and only those packets
        # get the extra copies combined in.
        results = {}
        for name, spec in specs.items():
            stream = self._final_stream(forward_engine, name)
            results[name] = self._result(
                forward[name].soft, spec,
                None if stream is None else stream.estimate)
        failing = [name for name, r in results.items() if not r.success]

        backward_soft: dict[str, np.ndarray] | None = None
        capture_soft: dict[str, list[tuple[int, np.ndarray]]] | None = None
        if failing and self.use_backward:
            backward_soft = self._backward_pass(
                captures, specs, placements, forward_engine)
            # k-copy MRC (§4.5): with three or more captures, each cleaned
            # capture is an additional independent reading of a packet.
            capture_copies: dict[str, list] = {}
            if len(captures) >= 3:
                capture_copies = self._capture_copies(
                    specs, forward_engine, failing)
                capture_soft = {
                    name: [(c, aligned) for c, aligned, _ in entries]
                    for name, entries in capture_copies.items()
                }
            self._combine_failing(results, specs, forward, backward_soft,
                                  capture_copies)
        return ZigZagOutcome(
            results=results,
            forward=forward,
            backward_soft=backward_soft,
            capture_soft=capture_soft,
            schedule=schedule,
            residual_powers=[forward_engine.residual_power(c)
                             for c in range(len(captures))],
        )

    def _results(self, soft: np.ndarray, spec: PacketSpec,
                 estimates: list) -> list[DecodeResult]:
        """One packet's ``DecodeResult`` per row of *soft* ``(N, symbols)``;
        ``estimates[i]`` is row i's final channel estimate."""
        return frame_results(soft, spec.body_constellation, estimates,
                             "zigzag")

    def _result(self, soft: np.ndarray, spec: PacketSpec,
                estimate: ChannelEstimate | None) -> DecodeResult:
        """:meth:`_results` for one packet's soft symbols."""
        return self._results(soft[None], spec, [estimate])[0]

    @staticmethod
    def _final_stream(engine, packet: str):
        """The stream of *packet*'s first decoded placement, whose channel
        estimate the packet's result reports (None if none decoded)."""
        for key in engine.placements:
            if key[0] == packet and key in engine.streams:
                return engine.streams[key]
        return None

    def _combine_failing(self, results: dict[str, DecodeResult],
                         specs: dict[str, PacketSpec],
                         forward: dict[str, PacketAccumulator],
                         backward_soft: dict[str, np.ndarray] | None,
                         capture_copies: dict[str, list]) -> None:
        """MRC each packet that failed the forward pass with its further
        copies and re-extract it; forward successes stay untouched."""
        for name, result in list(results.items()):
            if result.success:
                continue
            streams = [forward[name].soft]
            weights: list = [1.0]
            if backward_soft is not None and name in backward_soft:
                aligned, block_weights = self._align_backward(
                    forward[name].soft, forward[name].decisions,
                    backward_soft[name])
                # A backward pass that lost phase lock (e.g. a BPSK π
                # slip) or degraded toward its far end would poison the
                # MRC average; gate it blockwise on agreement with the
                # forward decisions and weight inverse to its measured
                # variance so a noisier stream can only help.
                if np.any(block_weights > 0):
                    streams.append(aligned)
                    weights.append(block_weights)
            for _, aligned, copy_weights in capture_copies.get(name, []):
                streams.append(aligned)
                weights.append(copy_weights)
            if len(streams) > 1:
                results[name] = self._result(
                    mrc_combine(streams, weights), specs[name],
                    result.estimate)

    # ------------------------------------------------------------------
    def _capture_copies(self, specs: dict[str, PacketSpec],
                        engine: ZigZagEngine, packets: list[str]
                        ) -> dict[str, list[tuple[int, np.ndarray,
                                                  np.ndarray]]]:
        """Re-read each of *packets* from every cleaned capture it is in.

        After the forward pass, ``residual[c] + images[(p, c)]`` is
        capture *c* with every packet except *p* subtracted — a full
        interference-free view of *p* that the chunked forward pass only
        sampled where its schedule happened to route through *c*. A fresh
        stream decode of that view yields one more soft copy of the whole
        packet per capture. Each copy is phase-aligned and gated blockwise
        against the forward decisions (the backward-pass guard), and the
        symbols the forward pass already decoded *from this capture* get
        zero weight: they share its noise and carry no new information.

        Returns ``{packet: [(collision, aligned_soft, weights), ...]}``;
        copies whose weights vanish everywhere are dropped.
        """
        copies: dict[str, list[tuple[int, np.ndarray, np.ndarray]]] = {}
        for (name, c), pl in engine.placements.items():
            if name not in packets:
                continue
            spec = specs[name]
            acc = engine.packets[name]
            cleaned = engine.residual[c] + engine.images[(name, c)]
            stream = SymbolStreamDecoder(
                self.config, pl.estimate, pl.start,
                body_constellation=spec.body_constellation,
                pilots=acc.decisions)
            try:
                chunk = stream.decode_chunk(cleaned, spec.n_symbols)
            except ReproError:
                continue
            aligned, weights = self._align_backward(
                acc.soft, acc.decisions, chunk.soft)
            weights = weights * (acc.source != c)
            if np.any(weights > 0):
                copies.setdefault(name, []).append((c, aligned, weights))
        return copies

    # ------------------------------------------------------------------
    @staticmethod
    def _align_backward(forward_soft: np.ndarray,
                        forward_decisions: np.ndarray,
                        backward_soft: np.ndarray
                        ) -> tuple[np.ndarray, np.ndarray]:
        """Phase-align the backward stream per block and weight it by
        measured inverse variance relative to the forward stream.

        The backward stream's absolute phase rests on the forward pass's
        end-state estimate; residual rotations (up to a BPSK sign flip, and
        possibly drifting along the packet) are detected against the
        forward decisions per :data:`ALIGN_BLOCK` symbols. Blocks whose
        agreement falls below :data:`MIN_AGREEMENT` get zero MRC weight —
        the backward pass degrades toward the packet head (its far end),
        and a corrupted stretch must not poison the combine. Surviving
        blocks are weighted by ``var(forward) / var(backward)`` (capped at
        1), approximating true maximal-ratio weights.

        Returns ``(aligned_soft, per_symbol_weights)``.
        """
        n = backward_soft.size
        aligned = np.array(backward_soft, copy=True)
        weights = np.zeros(n, dtype=float)
        for start in range(0, n, ALIGN_BLOCK):
            sl = slice(start, min(start + ALIGN_BLOCK, n))
            dec = forward_decisions[sl]
            denom = float(np.vdot(dec, dec).real)
            if denom <= 0:
                continue
            rho = complex(np.vdot(dec, backward_soft[sl])) / denom
            abs_rho = abs(rho)
            if abs_rho < 1e-9:
                continue
            # exp(-1j*angle(rho)) == conj(rho)/|rho| without trig calls.
            aligned[sl] = backward_soft[sl] * (rho.conjugate() / abs_rho)
            if min(abs_rho, 1.0) < MIN_AGREEMENT:
                continue
            diff_f = forward_soft[sl] - dec
            diff_b = aligned[sl] - dec
            var_f = float(np.vdot(diff_f, diff_f).real)
            var_b = float(np.vdot(diff_b, diff_b).real)
            if var_b <= 0:
                weights[sl] = 1.0
            else:
                weights[sl] = min(max(var_f / var_b, 0.0), 1.0)
        return aligned, weights

    def _backward_pass(self, captures, specs, placements,
                       forward_engine: ZigZagEngine
                       ) -> dict[str, np.ndarray] | None:
        """Decode the time-reversed captures and map soft symbols back."""
        plan = plan_backward(
            [c.size for c in captures], specs, placements,
            {key: (forward_engine.final_multiplier(*key),
                   forward_engine.final_freq(*key))
             for key in forward_engine.placements},
            {name: acc.decisions
             for name, acc in forward_engine.packets.items()})
        if plan.schedule is None:
            return None
        # The scalar streams' trained equalizers and ISI models carry over,
        # time-reversed and conjugated.
        equalizers: dict[tuple[str, int], LmsEqualizer] = {}
        symbol_isi: dict[tuple[str, int], IsiFilter] = {}
        for key, stream in forward_engine.streams.items():
            if stream.equalizer is not None:
                taps_r = np.conj(stream.equalizer.taps[::-1])
                equalizers[key] = LmsEqualizer(
                    n_taps=taps_r.size, taps=taps_r)
            if stream.channel_isi is not None:
                symbol_isi[key] = IsiFilter(
                    np.conj(stream.channel_isi.taps[::-1]))
        engine = ZigZagEngine(
            self.config, [np.conj(c[::-1]) for c in captures], plan.specs,
            plan.placements,
            reversed_totals=True,
            equalizers=equalizers,
            symbol_isi=symbol_isi,
            pilots=plan.pilots)
        try:
            reversed_out = engine.run(plan.schedule)
        except ReproError:
            return None
        return {
            name: np.conj(acc.soft[::-1])
            for name, acc in reversed_out.items()
        }
