"""Decision-directed phase/frequency tracking loop.

§4.2.4(b): "Any typical decoder tracks the signal phase and corrects for the
residual errors in the frequency offset." Our black-box decoder embeds a
second-order decision-directed PLL; without it, residual δf accumulates into
total phase rotation and long packets become undecodable (Table 5.1,
Fig 5-2a).

Hot-path note: ``PhaseTracker.process`` is the single most-executed loop in
a Monte-Carlo trial (every symbol of every chunk of every packet). The
disabled path is a closed-form phase ramp and fully array-based; the
data-aided path vectorizes the angle measurement and keeps only a pure-float
recurrence for the loop filter; the decision-directed path runs on scalar
``math``/``cmath`` ops with O(1) slicers for BPSK/QPSK, because the loop
output feeds back into the next decision and cannot be batched.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigurationError
from repro.phy.constellation import Constellation

__all__ = ["PhaseTracker"]

_TWO_PI = 2.0 * math.pi


def _zero_sample_error(yi: complex, phase: float,
                       reference: complex) -> float:
    """Error angle of an exactly-zero sample, via numpy's own arithmetic.

    A zero sample's error angle is entirely determined by IEEE
    sign-of-zero bits, and numpy's complex multiply resolves them
    differently from CPython's — so this cold path (capture-edge padding
    windows only) replays the original numpy expression verbatim to stay
    bit-compatible with the scalar implementation it replaced.
    """
    z = np.complex128(yi) * np.exp(-1j * phase)
    return float(np.angle(z * np.conj(np.complex128(reference))))


def _scalar_slicer(constellation: Constellation):
    """A per-symbol nearest-point slicer over Python scalars.

    Mirrors :meth:`Constellation.slice_symbols` exactly, including the
    argmin first-index tie-break. BPSK and Gray-mapped QPSK (the two
    constellations on the decode hot path) get branch-free closed forms;
    everything else falls back to a small loop over the point list.
    """
    pts = constellation.points
    if pts.size == 2 and pts[0] == -1.0 and pts[1] == 1.0:
        # argmin tie at Re z == 0 resolves to index 0, i.e. -1.
        def slice_bpsk(z: complex) -> complex:
            return (1 + 0j) if z.real > 0.0 else (-1 + 0j)
        return slice_bpsk
    if pts.size == 4:
        a = abs(pts[3].real)
        canonical = np.array([complex(-a, -a), complex(-a, a),
                              complex(a, -a), complex(a, a)])
        if np.array_equal(pts, canonical):
            # Ties (component exactly 0) resolve to the lower label, whose
            # level is -a on both axes for this Gray ordering.
            def slice_qpsk(z: complex) -> complex:
                return complex(a if z.real > 0.0 else -a,
                               a if z.imag > 0.0 else -a)
            return slice_qpsk
    points = [complex(p) for p in pts]

    def slice_generic(z: complex) -> complex:
        best = points[0]
        best_d = abs(z - best)
        for p in points[1:]:
            d = abs(z - p)
            if d < best_d:
                best_d = d
                best = p
        return best
    return slice_generic


@dataclass
class PhaseTracker:
    """Second-order decision-directed phase-locked loop.

    State advances one symbol at a time; ``process`` handles a whole
    segment and may be called repeatedly with consecutive segments — this is
    what lets ZigZag decode chunk-by-chunk with phase continuity across
    chunk boundaries (§4.2.4b).

    Parameters
    ----------
    kp, ki:
        Proportional and integral loop gains. Defaults give a loop
        bandwidth that tracks 802.11-class residual offsets without
        amplifying decision noise.
    enabled:
        When False the tracker applies only its initial phase/freq and
        never updates — used to reproduce the "tracking disabled" ablation
        of Table 5.1 / Fig 5-2a.
    """

    kp: float = 0.08
    ki: float = 0.004
    phase: float = 0.0
    freq: float = 0.0
    enabled: bool = True
    _last_error: float = field(default=0.0, repr=False)

    def process(self, symbols, constellation: Constellation,
                known: np.ndarray | None = None
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Derotate a segment, tracking as it goes.

        Returns ``(corrected, decisions, phases)`` where *corrected* are the
        phase-corrected soft symbols, *decisions* the sliced constellation
        points, and *phases* the smooth loop phase applied to each symbol
        (the re-encoder uses these — they are low-noise by construction,
        unlike per-symbol measured angles). If *known* is given (data-aided
        mode, e.g. over the preamble) the error is computed against the
        known symbols instead of decisions.
        """
        y = np.asarray(symbols, dtype=complex).ravel()
        if known is not None:
            known = np.asarray(known, dtype=complex).ravel()
            if known.size != y.size:
                raise ConfigurationError("known symbols length mismatch")
        if y.size == 0:
            return (np.zeros(0, dtype=complex), np.zeros(0, dtype=complex),
                    np.zeros(0, dtype=float))
        if not self.enabled:
            return self._process_coasting(y, constellation, known)
        if known is not None:
            return self._process_data_aided(y, known)
        return self._process_decision_directed(y, constellation)

    # -- disabled: the loop never updates, so the phase is a closed-form
    # ramp phase0 + freq * k and everything batches into array ops.
    def _process_coasting(self, y, constellation, known):
        phases = self.phase + self.freq * np.arange(y.size, dtype=float)
        corrected = y * np.exp(-1j * phases)
        if known is not None:
            decisions = known.copy()
        else:
            decisions = constellation.slice_symbols(corrected)
        self.phase += self.freq * y.size
        return corrected, decisions, phases

    # -- data-aided: the error angle against the known symbol is
    # angle(y * conj(known)) - phase (wrapped), so the expensive per-symbol
    # trigonometry vectorizes; only the float loop-filter recurrence runs
    # in Python, on unboxed scalars.
    def _process_data_aided(self, y, known):
        theta = np.angle(y * np.conj(known))
        phase_list = [0.0] * y.size
        phase = self.phase
        freq = self.freq
        kp = self.kp
        ki = self.ki
        last_error = self._last_error
        wrap = math.remainder
        all_live = known.all()
        if all_live and y.all():
            for i, th in enumerate(theta.tolist()):
                phase_list[i] = phase
                error = wrap(th - phase, _TWO_PI)
                last_error = error
                freq += ki * error
                phase += freq + kp * error
        else:
            live = [True] * y.size if all_live else (known != 0).tolist()
            # Exact-zero samples (capture-edge padding windows) have an
            # error angle set purely by IEEE zero sign bits; replay the
            # reference's numpy expression for those symbols.
            zero = (y == 0).tolist()
            y_list = y.tolist()
            known_list = known.tolist()
            for i, th in enumerate(theta.tolist()):
                phase_list[i] = phase
                if live[i]:
                    if zero[i]:
                        error = _zero_sample_error(y_list[i], phase,
                                                   known_list[i])
                    else:
                        error = wrap(th - phase, _TWO_PI)
                    last_error = error
                    freq += ki * error
                    phase += freq + kp * error
                else:
                    phase += freq
        phases = np.array(phase_list, dtype=float)
        corrected = y * np.exp(-1j * phases)
        self.phase = phase
        self.freq = freq
        self._last_error = last_error
        return corrected, known.copy(), phases

    # -- decision-directed: each decision feeds the next phase, so the loop
    # is irreducibly sequential; run it on Python complex scalars (no numpy
    # boxing) with a precomputed slicer.
    def _process_decision_directed(self, y, constellation):
        pts = constellation.points
        if pts.size == 2 and pts[0] == -1.0 and pts[1] == 1.0:
            return self._process_decision_directed_bpsk(y)
        slicer = _scalar_slicer(constellation)
        n = y.size
        corrected = [0j] * n
        decisions = [0j] * n
        phase_list = [0.0] * n
        phase = self.phase
        freq = self.freq
        kp = self.kp
        ki = self.ki
        last_error = self._last_error
        cos = math.cos
        sin = math.sin
        atan2 = math.atan2
        for i, yi in enumerate(y.tolist()):
            phase_list[i] = phase
            z = yi * complex(cos(phase), -sin(phase))
            corrected[i] = z
            ref = slicer(z)
            decisions[i] = ref
            if ref != 0:
                if z == 0:
                    error = _zero_sample_error(yi, phase, ref)
                else:
                    w = z * ref.conjugate()
                    error = atan2(w.imag, w.real)
                last_error = error
                freq += ki * error
                phase += freq + kp * error
            else:
                phase += freq
        self.phase = phase
        self.freq = freq
        self._last_error = last_error
        return (np.array(corrected, dtype=complex),
                np.array(decisions, dtype=complex),
                np.array(phase_list, dtype=float))

    _BPSK_BLOCK = 1024

    def _process_decision_directed_bpsk(self, y):
        """BPSK specialization: speculate-verify vectorized loop.

        The decision feedback makes the loop sequential, but once the PLL
        is in lock the decisions are predictable: coasting the phase (no
        corrections) over a block almost always slices every symbol the
        same way the tracked phase will. So per block we (1) guess the
        decisions from the coasted phase, (2) run the exact scalar
        loop-filter recurrence on the implied error angles — pure floats,
        the only part that cannot batch — and (3) verify the guesses
        against the true tracked phases, accepting the longest verified
        prefix. A wrong first guess falls back to one exact scalar step,
        and repeated thin prefixes (loop out of lock, e.g. very low SNR)
        switch to the plain scalar loop for the remainder, so the worst
        case stays linear.
        """
        n = y.size
        phases = np.empty(n, dtype=float)
        plus = np.empty(n, dtype=bool)
        phase = self.phase
        freq = self.freq
        kp = self.kp
        ki = self.ki
        last_error = self._last_error
        if n < 160 or not y.all():
            # ZigZag chunks are this size; the speculation setup costs
            # more than it saves below a couple hundred symbols. Exact
            # zeros (a sampler window wholly in capture-edge padding) also
            # take this path: their error angle depends on IEEE zero sign
            # bits that the vectorized verify cannot reproduce.
            phase, freq, last_error = self._bpsk_scalar_tail(
                y, 0, phases, plus, phase, freq, last_error)
            self.phase = phase
            self.freq = freq
            self._last_error = last_error
            return (y * np.exp(-1j * phases),
                    np.where(plus, 1.0 + 0j, -1.0 + 0j), phases)
        angles = np.angle(y)
        wrap = math.remainder
        half_pi = 0.5 * math.pi
        start = 0
        thin_streak = 0
        block = 128
        while start < n:
            if thin_streak >= 4:
                phase, freq, last_error = self._bpsk_scalar_tail(
                    y, start, phases, plus, phase, freq, last_error)
                break
            m_max = min(n - start, block)
            blk = angles[start:start + m_max]
            coast = phase + freq * np.arange(m_max)
            rel = np.remainder(blk - coast + math.pi, _TWO_PI) - math.pi
            guess_plus = np.abs(rel) < half_pi
            # error = wrap(theta - phase) with theta = angle(y * conj(d)).
            theta = np.where(guess_plus, blk, blk - math.pi)
            th_list = theta.tolist()
            ph_list = [0.0] * (m_max + 1)
            f_list = [0.0] * m_max
            p = phase
            f = freq
            for i, th in enumerate(th_list):
                ph_list[i] = p
                e = wrap(th - p, _TWO_PI)
                f += ki * e
                p += f + kp * e
                f_list[i] = f
            ph_list[m_max] = p
            phi = np.array(ph_list[:m_max])
            # True decision at the tracked phase: sign of Re(y e^{-j phi})
            # = sign of cos(angle(y) - phi); strict >0 keeps the tie
            # behaviour of the scalar slicer.
            ok = (np.cos(blk - phi) > 0.0) == guess_plus
            m = m_max if ok.all() else int(np.argmin(ok))
            if m == 0:
                # Wrong first guess: take one exact scalar step instead.
                phases[start] = phase
                z = complex(y[start]) * complex(math.cos(phase),
                                                -math.sin(phase))
                if z.real > 0.0:
                    plus[start] = True
                    error = math.atan2(z.imag, z.real)
                else:
                    plus[start] = False
                    if z == 0:
                        error = _zero_sample_error(
                            complex(y[start]), phase, -1 + 0j)
                    else:
                        error = math.atan2(-z.imag, -z.real)
                last_error = error
                freq += ki * error
                phase += freq + kp * error
                start += 1
                thin_streak += 1
                continue
            phases[start:start + m] = phi[:m]
            plus[start:start + m] = guess_plus[:m]
            last_error = wrap(th_list[m - 1] - ph_list[m - 1], _TWO_PI)
            phase = ph_list[m]
            freq = f_list[m - 1]
            # Adapt the speculation depth to the observed lock quality so
            # mismatch-heavy segments never pay for long wasted blocks.
            if m == m_max:
                block = min(2 * block, self._BPSK_BLOCK)
                thin_streak = 0
            else:
                block = max(block // 2, 32)
                if m < 16:
                    thin_streak += 1
            start += m
        corrected = y * np.exp(-1j * phases)
        decisions = np.where(plus, 1.0 + 0j, -1.0 + 0j)
        self.phase = phase
        self.freq = freq
        self._last_error = last_error
        return corrected, decisions, phases

    def _bpsk_scalar_tail(self, y, start, phases, plus, phase, freq,
                          last_error):
        """Plain scalar BPSK loop over ``y[start:]`` (speculation bailout);
        fills ``phases``/``plus`` in place and returns the final state."""
        ki = self.ki
        kp = self.kp
        cos = math.cos
        sin = math.sin
        atan2 = math.atan2
        for i, yi in enumerate(y[start:].tolist(), start=start):
            phases[i] = phase
            z = yi * complex(cos(phase), -sin(phase))
            if z.real > 0.0:
                plus[i] = True
                error = atan2(z.imag, z.real)
            else:
                plus[i] = False
                if z == 0:
                    error = _zero_sample_error(yi, phase, -1 + 0j)
                else:
                    error = atan2(-z.imag, -z.real)
            last_error = error
            freq += ki * error
            phase += freq + kp * error
        return phase, freq, last_error

    def advance(self, n: int) -> None:
        """Coast over *n* symbols that will not be processed (gap in data)."""
        if n < 0:
            raise ConfigurationError("cannot advance by a negative count")
        self.phase += self.freq * n

    def snapshot(self) -> tuple[float, float]:
        """(phase, freq) state — lets callers fork the loop for look-ahead."""
        return self.phase, self.freq

    def restore(self, state: tuple[float, float]) -> None:
        self.phase, self.freq = state
