"""Trial-axis batched DSP kernels: ``(N, samples)`` variants of the hot path.

Monte-Carlo sweeps (§5) decode thousands of *independent* collision trials.
The scalar kernels in :mod:`repro.phy.pulse` / :mod:`repro.phy.tracking`
already vectorize along time; this module adds the leading trial axis so N
trials advance through one numpy call instead of N Python dispatches.

Two ideas carry all the weight:

* **Lane-wise gathers.** Matched-filter sampling is a strided dot product
  per trial; with a leading axis it becomes one fancy-gather plus one
  ``einsum`` over ``(N, count, taps)`` windows, with a per-lane kernel row
  (each trial has its own sub-sample offset).

* **The PLL is LTI while in lock.** The second-order decision-directed
  loop of :class:`~repro.phy.tracking.PhaseTracker` updates
  ``phase/freq`` from the wrapped error ``e_k = wrap(θ_k − phase_k)``.
  Once each θ_k is unwrapped onto the branch nearest the loop phase
  (``θ'_k = θ_k + 2πm`` with ``m = rint((phase_k − θ_k)/2π)`` — exactly
  what ``math.remainder`` does inside the scalar loop), the recurrence is
  *linear* in θ'. With state ``x = (phase, freq)`` it is the two-state
  system

      x_{k+1} = A x_k + B θ'_k,   A = [[1−kp−ki, 1], [−ki, 1]],
                                  B = [kp+ki, ki]

  whose output is ``phase_k = x_k[0]``. Over a block of L ≤ 64 symbols
  the phases and the final state are one linear map of the block's θ'
  and its starting state, so each block is a single matrix product
  batched over trials; longer segments chain blocks, carrying the state
  exactly as the scalar loop does. The maps depend only on
  ``(kp, ki, L)`` and are built once per process. The unwrap branch
  (and, decision-directed, the decision itself) depends on the phases
  being solved for, so both are speculated from the coasted phase and
  iterated to a fixed point: filter, re-derive branches/decisions at the
  filtered phases, repeat. Lanes that fail to converge, hit an
  exactly-zero sample, or land within 1e-6 of a wrap or decision
  boundary (where the scalar trajectory, a few ulp away, could branch
  differently) replay through the exact scalar :class:`PhaseTracker` —
  bit-compatible with the loop path by construction, so divergent lanes
  cost only their own time.

Equivalence policy (the same as the scalar kernels' against their
oracles): decoded bits/decisions are identical to the scalar path; float
internals (phases, soft symbols) agree to ~1e-9, since the block maps
evaluate the same recurrence in a different association order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from repro.errors import ConfigurationError
from repro.phy.constellation import Constellation
from repro.phy.pulse import PulseShaper
from repro.phy.tracking import PhaseTracker

__all__ = ["wrap_pi", "BatchedMatchedSampler", "BatchedPhaseTracker"]

_TWO_PI = 2.0 * math.pi


def wrap_pi(x: np.ndarray) -> np.ndarray:
    """Vectorized ``math.remainder(x, 2π)``: wrap into [−π, π].

    ``remainder`` subtracts 2π times the *nearest* integer (half-even), so
    the vector form is ``x − 2π·rint(x / 2π)``; for |x| < 3π (every PLL
    error in practice) the subtraction is exact by Sterbenz's lemma and
    the result matches the scalar ``math.remainder`` to the last bit.
    """
    x = np.asarray(x, dtype=float)
    return x - _TWO_PI * np.rint(x / _TWO_PI)


@dataclass
class BatchedMatchedSampler:
    """Matched filter + fractional sampler over ``(N, samples)`` lanes.

    Mirrors :class:`~repro.phy.pulse.MatchedSampler` with one kernel row
    per lane (each trial has its own sub-sample offset). Callers hand in a
    zero-padded buffer whose column ``j`` holds capture sample
    ``j − origin``; windows must stay inside the padded buffer (the engine
    sizes the padding so the zero margin reproduces the scalar sampler's
    implicit zero-padding).
    """

    shaper: PulseShaper
    _kernel_cache: dict = field(default_factory=dict, repr=False)
    _grid_cache: dict = field(default_factory=dict, repr=False)

    def kernels_for(self, fracs: np.ndarray) -> np.ndarray:
        """Stack of per-lane matched-filter kernels ``kernel_at(−frac)``.

        Cached on the quantized fraction tuple: a stream re-samples at the
        same per-lane offsets for every chunk of a packet.
        """
        key = tuple(int(f * 1e12) for f in fracs)
        stack = self._kernel_cache.get(key)
        if stack is None:
            if len(self._kernel_cache) >= 256:
                self._kernel_cache.clear()
            stack = np.stack([self.shaper.kernel_at(-float(f))
                              for f in fracs])
            self._kernel_cache[key] = stack
        return stack

    def sample(self, padded: np.ndarray, origin: int, starts: np.ndarray,
               count: int) -> np.ndarray:
        """Matched-filter outputs at ``starts + k·sps``, k = 0..count−1.

        *padded* is ``(N, P)`` with capture sample s of lane n at
        ``padded[n, s + origin]``; *starts* the per-lane fractional
        position of symbol 0's pulse centre (capture coordinates).
        """
        if count <= 0:
            return np.zeros((padded.shape[0], 0), dtype=complex)
        sps = self.shaper.sps
        delay = self.shaper.delay
        base = np.floor(starts).astype(np.int64)
        frac = starts - base
        kernels = self.kernels_for(frac)
        first = base - delay + origin
        if first.min() < 0 or \
                (first.max() + (count - 1) * sps + kernels.shape[1]) \
                > padded.shape[1]:
            raise ConfigurationError(
                "sampler window escapes the padded buffer")
        n, width = padded.shape
        taps = kernels.shape[1]
        grid = self._grid_cache.get((count, taps))
        if grid is None:
            grid = (sps * np.arange(count, dtype=np.int32)[:, None]
                    + np.arange(taps, dtype=np.int32)[None, :])
            self._grid_cache[(count, taps)] = grid
        # One flat gather (take) beats a 3-axis fancy index by ~2x here;
        # int32 indices halve the index traffic (buffers are far below
        # 2^31 elements).
        flat = ((np.arange(n, dtype=np.int32) * np.int32(width)
                 + first.astype(np.int32))[:, None, None]
                + grid[None, :, :])
        windows = padded.reshape(-1).take(flat)
        return np.matmul(windows, kernels[:, :, None])[:, :, 0]


# Longest block the loop filter maps in one product: long enough that a
# segment costs few Python steps, short enough that the L² map stays
# cheap next to the L-step recurrence it replaces.
_BLOCK = 64


@lru_cache(maxsize=128)
def _loop_map(kp: float, ki: float, length: int) -> np.ndarray:
    """``(L+2, L+2)`` map of the in-lock loop over one block.

    Row-vector form: ``[θ'_0 … θ'_{L−1}, phase_0, freq_0] @ map`` gives
    ``[phase_0 … phase_{L−1}, phase_L, freq_L]``. Built by running the
    recurrence ``x_{k+1} = A x_k + B θ'_k`` on every unit input, so each
    column is the scalar loop's own response. Read-only: the cached
    array is shared by every tracker in the process.
    """
    a = np.array([[1.0 - kp - ki, 1.0], [-ki, 1.0]])
    b = np.array([kp + ki, ki])
    # state[r] is the (phase, freq) response to unit input row r.
    state = np.zeros((length + 2, 2))
    state[length, 0] = state[length + 1, 1] = 1.0
    out = np.empty((length + 2, length + 2))
    for k in range(length):
        out[:, k] = state[:, 0]
        state = state @ a.T
        state[k] += b
    out[:, length:] = state
    out.flags.writeable = False
    return out


# Branch-safety margin: a lane whose error comes within this of the ±π
# wrap (or a decision within this of the slicing boundary) is replayed
# through the scalar tracker, since float association noise (~1e-9) could
# put the two trajectories on different branches.
_BRANCH_MARGIN = 1e-6


@dataclass
class BatchedPhaseTracker:
    """Trial-axis :class:`~repro.phy.tracking.PhaseTracker`.

    State arrays are per-lane; ``process`` advances every lane one segment
    in lockstep. Lanes whose segment cannot take the LTI fast path (wrap
    events, exact-zero samples, a non-BPSK decision-directed
    constellation, or an unconverged speculation) replay through the exact
    scalar tracker, so every lane's result is independent of its batch
    mates — the property the batch-size-invariance tests pin down.
    """

    kp: float
    ki: float
    phase: np.ndarray
    freq: np.ndarray
    enabled: bool = True
    last_error: np.ndarray = None

    def __post_init__(self) -> None:
        self.phase = np.array(self.phase, dtype=float).ravel().copy()
        self.freq = np.array(self.freq, dtype=float).ravel().copy()
        if self.last_error is None:
            self.last_error = np.zeros_like(self.phase)

    @property
    def n_lanes(self) -> int:
        return self.phase.size

    # -- the LTI core -------------------------------------------------
    def _filter_phases(self, theta: np.ndarray
                       ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Run the loop filter over θ ``(N, L)``; returns
        ``(phases, final_phase, final_freq)`` without touching state."""
        length = theta.shape[1]
        phases = np.empty(theta.shape)
        state = np.stack([self.phase, self.freq], axis=1)
        for start in range(0, length, _BLOCK):
            stop = min(start + _BLOCK, length)
            step = _loop_map(self.kp, self.ki, stop - start)
            x = np.concatenate([theta[:, start:stop], state], axis=1)
            out = x @ step
            phases[:, start:stop] = out[:, :-2]
            state = out[:, -2:]
        return phases, state[:, 0], state[:, 1]

    # -- public API ----------------------------------------------------
    def process(self, symbols: np.ndarray, constellation: Constellation,
                known: np.ndarray | None = None
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Lockstep counterpart of ``PhaseTracker.process``.

        *symbols* is ``(N, L)``; *known* (data-aided mode) must match its
        shape. Returns ``(corrected, decisions, phases)`` of shape
        ``(N, L)``.
        """
        y = np.asarray(symbols, dtype=complex)
        if y.ndim != 2 or y.shape[0] != self.n_lanes:
            raise ConfigurationError("expected (n_lanes, L) symbols")
        if y.shape[1] == 0:
            empty_c = np.zeros_like(y)
            return empty_c, empty_c.copy(), np.zeros(y.shape, dtype=float)
        if not self.enabled:
            return self._coast(y, constellation, known)
        if known is not None:
            known = np.asarray(known, dtype=complex)
            if known.shape != y.shape:
                raise ConfigurationError("known symbols shape mismatch")
            return self._data_aided(y, known)
        return self._decision_directed(y, constellation)

    def _coast(self, y, constellation, known):
        ramp = np.arange(y.shape[1], dtype=float)
        phases = self.phase[:, None] + self.freq[:, None] * ramp
        corrected = y * np.exp(-1j * phases)
        if known is not None:
            decisions = known.copy()
        else:
            decisions = constellation.slice_symbols(
                corrected.ravel()).reshape(y.shape)
        self.phase += self.freq * y.shape[1]
        return corrected, decisions, phases

    def _coast_guess(self, length: int) -> np.ndarray:
        ramp = np.arange(length, dtype=float)
        return self.phase[:, None] + self.freq[:, None] * ramp

    def _data_aided(self, y, known):
        theta0 = np.angle(y * np.conj(known))
        # Unwrap branch m_k = rint((phase_k − θ_k)/2π) depends on the
        # phases being solved for — speculate from the coasted phase and
        # iterate the filter to a fixed point (in lock m is constant, so
        # this converges on the second pass).
        branch = np.rint((self._coast_guess(y.shape[1]) - theta0) / _TWO_PI)
        converged = np.zeros(self.n_lanes, dtype=bool)
        phases = phase_f = freq_f = None
        for _ in range(8):
            theta = theta0 + _TWO_PI * branch
            phases, phase_f, freq_f = self._filter_phases(theta)
            new_branch = np.rint((phases - theta0) / _TWO_PI)
            converged = (new_branch == branch).all(axis=1)
            if converged.all():
                break
            branch = np.where(converged[:, None], branch, new_branch)
        theta = theta0 + _TWO_PI * branch
        err = theta - phases
        slow = (~converged | (known == 0).any(axis=1) | (y == 0).any(axis=1)
                | (np.abs(err) >= math.pi - _BRANCH_MARGIN).any(axis=1))
        fast = ~slow
        self.phase[fast] = phase_f[fast]
        self.freq[fast] = freq_f[fast]
        self.last_error[fast] = err[fast, -1]
        if slow.any():
            self._scalar_lanes(np.flatnonzero(slow), y, phases,
                               constellation=None, known=known)
        return y * np.exp(-1j * phases), known.copy(), phases

    def _decision_directed(self, y, constellation):
        pts = constellation.points
        is_bpsk = (pts.size == 2 and pts[0] == -1.0 and pts[1] == 1.0)
        phases = np.empty(y.shape, dtype=float)
        if not is_bpsk:
            # The scalar loop is already the reference implementation;
            # batching buys little on the rare non-BPSK bodies, so replay
            # every lane exactly.
            lanes = np.arange(self.n_lanes)
            decisions = np.empty(y.shape, dtype=complex)
            self._scalar_lanes(lanes, y, phases,
                               constellation=constellation, known=None,
                               decisions_out=decisions)
            return y * np.exp(-1j * phases), decisions, phases

        angles = np.angle(y)
        # Both the BPSK decision (sign of cos(angle − phase)) and the 2π
        # unwrap branch depend on the phases being solved for; speculate
        # from the coasted phase and iterate to a joint fixed point.
        guess = self._coast_guess(y.shape[1])
        rel = wrap_pi(angles - guess)
        plus = np.abs(rel) < 0.5 * math.pi
        theta0 = np.where(plus, angles, angles - math.pi)
        branch = np.rint((guess - theta0) / _TWO_PI)
        converged = np.zeros(self.n_lanes, dtype=bool)
        margin = None
        phase_f = freq_f = None
        for _ in range(8):
            theta = theta0 + _TWO_PI * branch
            phases, phase_f, freq_f = self._filter_phases(theta)
            rel = wrap_pi(angles - phases)
            margin = np.abs(rel)
            new_plus = margin < 0.5 * math.pi
            new_theta0 = np.where(new_plus, angles, angles - math.pi)
            new_branch = np.rint((phases - new_theta0) / _TWO_PI)
            stable = ((new_plus == plus) & (new_branch == branch)
                      ).all(axis=1)
            converged = converged | stable
            if converged.all():
                break
            keep = converged[:, None]
            plus = np.where(keep, plus, new_plus)
            theta0 = np.where(keep, theta0, new_theta0)
            branch = np.where(keep, branch, new_branch)
        theta = theta0 + _TWO_PI * branch
        err = theta - phases
        slow = (~converged | (y == 0).any(axis=1)
                | (np.abs(err) >= math.pi - _BRANCH_MARGIN).any(axis=1)
                | (np.abs(margin - 0.5 * math.pi)
                   < _BRANCH_MARGIN).any(axis=1))
        fast = ~slow
        self.phase[fast] = phase_f[fast]
        self.freq[fast] = freq_f[fast]
        self.last_error[fast] = err[fast, -1]
        decisions = np.where(plus, 1.0 + 0j, -1.0 + 0j)
        if slow.any():
            self._scalar_lanes(np.flatnonzero(slow), y, phases,
                               constellation=constellation, known=None,
                               decisions_out=decisions)
        return y * np.exp(-1j * phases), decisions, phases

    def _scalar_lanes(self, lanes, y, phases_out, *, constellation,
                      known, decisions_out=None) -> None:
        """Replay *lanes* through the exact scalar tracker (bit-compatible
        with the loop path), writing phases/decisions rows in place."""
        for lane in lanes:
            tracker = PhaseTracker(kp=self.kp, ki=self.ki,
                                   phase=float(self.phase[lane]),
                                   freq=float(self.freq[lane]),
                                   enabled=True)
            tracker._last_error = float(self.last_error[lane])
            _, dec, ph = tracker.process(
                y[lane],
                constellation if constellation is not None else None,
                known=None if known is None else known[lane])
            phases_out[lane] = ph
            if decisions_out is not None:
                decisions_out[lane] = dec
            self.phase[lane] = tracker.phase
            self.freq[lane] = tracker.freq
            self.last_error[lane] = tracker._last_error

    def advance(self, n: int) -> None:
        if n < 0:
            raise ConfigurationError("cannot advance by a negative count")
        self.phase += self.freq * n
