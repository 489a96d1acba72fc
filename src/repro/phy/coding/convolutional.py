"""Convolutional encoding and Viterbi decoding, from scratch.

The 802.11 mother code: constraint length K=7, rate 1/2, generator
polynomials 133 and 171 (octal). The decoder runs the textbook Viterbi
algorithm with either Hamming (hard bits) or Euclidean (soft BPSK values)
branch metrics, with full traceback after zero-tail termination.

Hot-path note: the add-compare-select runs vectorized across all states per
trellis step using predecessor/branch gather tables precomputed at
construction; the encoder is a pair of integer convolutions (output g is
``(data ⊛ taps_g) mod 2``). Only the traceback — an inherently sequential
pointer chase — remains a Python loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigurationError
from repro.utils.bits import as_bit_array

__all__ = ["ConvolutionalCode"]


@dataclass
class ConvolutionalCode:
    """A binary rate-1/n feed-forward convolutional code.

    Parameters
    ----------
    generators:
        Generator polynomials in octal (default: 802.11's (0o133, 0o171)).
    constraint_length:
        K; the encoder holds K-1 state bits.
    """

    generators: tuple = (0o133, 0o171)
    constraint_length: int = 7
    _taps: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.constraint_length < 2:
            raise ConfigurationError("constraint length must be >= 2")
        if len(self.generators) < 2:
            raise ConfigurationError("need at least two generators")
        k = self.constraint_length
        taps = np.zeros((len(self.generators), k), dtype=np.uint8)
        for g_index, polynomial in enumerate(self.generators):
            if polynomial <= 0 or polynomial >= (1 << k):
                raise ConfigurationError(
                    f"generator {polynomial:o} does not fit K={k}")
            for bit in range(k):
                taps[g_index, bit] = (polynomial >> (k - 1 - bit)) & 1
        self._taps = taps
        self._build_trellis()

    # ------------------------------------------------------------------
    @property
    def rate_inverse(self) -> int:
        return len(self.generators)

    @property
    def n_states(self) -> int:
        return 1 << (self.constraint_length - 1)

    def _build_trellis(self) -> None:
        """Precompute next-state and output tables for every (state, bit),
        plus the inverse (predecessor) view the vectorized ACS gathers
        through."""
        k = self.constraint_length
        n_states = self.n_states
        n_out = self.rate_inverse
        self._next_state = np.zeros((n_states, 2), dtype=np.int64)
        self._outputs = np.zeros((n_states, 2, n_out), dtype=np.uint8)
        for state in range(n_states):
            for bit in range(2):
                register = (bit << (k - 1)) | state
                window = np.array(
                    [(register >> (k - 1 - i)) & 1 for i in range(k)],
                    dtype=np.uint8)
                self._next_state[state, bit] = register >> 1
                self._outputs[state, bit] = (self._taps @ window) % 2
        # Predecessor tables: each next-state has exactly two incoming
        # branches; column 0 holds the one encountered first in (state,
        # bit) lexicographic order, which the select below favours on
        # ties — the same tie-break a scalar "strictly greater" update
        # loop produces.
        prev_state = np.zeros((n_states, 2), dtype=np.int64)
        prev_bit = np.zeros((n_states, 2), dtype=np.int64)
        fill = np.zeros(n_states, dtype=np.int64)
        for state in range(n_states):
            for bit in range(2):
                nxt = int(self._next_state[state, bit])
                prev_state[nxt, fill[nxt]] = state
                prev_bit[nxt, fill[nxt]] = bit
                fill[nxt] += 1
        # Flat gather indexes into a (S*2,) branch-metric vector, stacked
        # [column 0 | column 1] so the ACS loop touches each array once:
        # one take, one add, then compare/select the two halves. Only
        # these decode-time layouts are kept on the instance.
        branch_gather = prev_state * 2 + prev_bit
        self._pred_stacked = np.ascontiguousarray(
            np.concatenate([prev_state[:, 0], prev_state[:, 1]]))
        self._gather_stacked = np.ascontiguousarray(
            np.concatenate([branch_gather[:, 0], branch_gather[:, 1]]))
        self._prev_state_flat = prev_state.ravel().tolist()
        self._prev_bit_flat = prev_bit.ravel().tolist()
        # Expected +/-1 outputs, flattened so all branch metrics for all
        # steps come from one matmul.
        expected = 1.0 - 2.0 * self._outputs.astype(float)  # (S, 2, n)
        self._expected_t = expected.reshape(n_states * 2, n_out).T.copy()

    # ------------------------------------------------------------------
    def encode(self, bits, terminate: bool = True) -> np.ndarray:
        """Encode *bits*; with ``terminate`` a zero tail flushes the state.

        Output length is ``rate_inverse * (len(bits) + K - 1)`` when
        terminated. Because the code is feed-forward from the all-zero
        state, output stream g is simply the mod-2 convolution of the data
        with generator g's taps — no per-bit state walk needed.
        """
        data = as_bit_array(bits)
        if terminate:
            data = np.concatenate([
                data, np.zeros(self.constraint_length - 1, dtype=np.uint8)
            ])
        if data.size == 0:
            return np.zeros(0, dtype=np.uint8)
        n_out = self.rate_inverse
        wide = data.astype(np.int64)
        out = np.empty((data.size, n_out), dtype=np.uint8)
        for g in range(n_out):
            conv = np.convolve(wide, self._taps[g].astype(np.int64))
            out[:, g] = conv[:data.size] & 1
        return out.reshape(-1)

    # ------------------------------------------------------------------
    def decode_hard(self, coded, terminated: bool = True) -> np.ndarray:
        """Viterbi with Hamming branch metrics over hard bits."""
        received = as_bit_array(coded).astype(float)
        # Map bits to +/-1 soft values so one metric path serves both.
        return self.decode_soft(1.0 - 2.0 * received,
                                terminated=terminated)

    def decode_soft(self, soft, terminated: bool = True) -> np.ndarray:
        """Viterbi with Euclidean metrics over soft BPSK values.

        *soft* holds one real value per coded bit with the convention
        bit 0 -> +1, bit 1 -> -1 (sign convention cancels in the metric,
        as long as it matches :meth:`encode`'s mapping below).
        Returns the decoded information bits (tail stripped when
        *terminated*).
        """
        values = np.asarray(soft, dtype=float).ravel()
        n_out = self.rate_inverse
        if values.size % n_out != 0:
            raise ConfigurationError(
                f"soft length {values.size} not a multiple of {n_out}")
        n_steps = values.size // n_out
        if n_steps == 0:
            return np.zeros(0, dtype=np.uint8)
        n_states = self.n_states

        # All branch metrics for all steps in one matmul, then gathered
        # into stacked [column 0 | column 1] layout up front:
        # branch_all[t, s*2 + b] = expected[s, b] . values[t].
        branch_all = values.reshape(n_steps, n_out) @ self._expected_t
        branch_stacked = np.ascontiguousarray(
            branch_all[:, self._gather_stacked])

        metrics = np.full(n_states, -np.inf)
        metrics[0] = 0.0
        cand = np.empty(2 * n_states)
        cand0 = cand[:n_states]
        cand1 = cand[n_states:]
        # take_second[t, n] records which of next-state n's two incoming
        # branches won step t; the (bit, predecessor) pair is reconstructed
        # from the trellis tables during traceback, so the ACS loop is just
        # one gather, one add, a compare, and a max per step.
        take_second = np.empty((n_steps, n_states), dtype=bool)
        pred = self._pred_stacked
        # `metrics` is updated in place, so the bound take stays valid;
        # binding it (and iterating rows via zip) strips the per-step
        # numpy dispatch wrappers from the only sequential loop left.
        gather_metrics = metrics.take
        add = np.add
        greater = np.greater
        maximum = np.maximum
        for row, flags in zip(branch_stacked, take_second):
            gather_metrics(pred, out=cand)
            add(cand, row, out=cand)
            # Strict >: ties keep the branch encountered first in (state,
            # bit) order, matching a scalar best-so-far update.
            greater(cand1, cand0, out=flags)
            maximum(cand0, cand1, out=metrics)

        state = 0 if terminated else int(np.argmax(metrics))
        prev_state = self._prev_state_flat
        prev_bit = self._prev_bit_flat
        decoded_list = [0] * n_steps
        winners = take_second.tobytes()  # one byte per (step, state) flag
        for step in range(n_steps - 1, -1, -1):
            j = state + state + winners[step * n_states + state]
            decoded_list[step] = prev_bit[j]
            state = prev_state[j]
        decoded = np.array(decoded_list, dtype=np.uint8)
        if terminated:
            decoded = decoded[:n_steps - (self.constraint_length - 1)]
        return decoded
