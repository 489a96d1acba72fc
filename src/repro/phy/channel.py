"""The flat-fading quasi-static channel of the paper's Chapter 3.

A transmitted symbol stream ``x[n]`` is received as

    y[n] = H * x(n - mu) * exp(j 2 pi n df T) * exp(j phi_pn[n])   (+ ISI)

where ``H = h e^{j gamma}`` is the complex channel gain, ``df T`` the
carrier frequency offset in cycles per sample (§3.1.1), ``mu`` the
fractional sampling offset in samples (§3.1.2), ``phi_pn`` an optional
oscillator phase-noise random walk, and ISI an optional multipath FIR
(§3.1.3). AWGN is *not* added here — collisions sum several channels'
outputs first and add receiver noise once (see :mod:`repro.phy.medium`).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from repro.errors import ConfigurationError
from repro.phy.impairments import ImpairmentPipeline
from repro.phy.isi import IsiFilter
from repro.phy.noise import NOISE_POWER, db_to_linear
from repro.phy.resample import FractionalDelay

__all__ = ["FREQ_SPREAD", "PHASE_NOISE_STD", "TX_EVM", "ChannelParams",
           "Channel"]

# The one sender radio model of every simulated experiment: oscillator
# phase-noise step (radians per symbol) and transmitter EVM.
PHASE_NOISE_STD = 1e-3
TX_EVM = 0.03
# Carrier frequency offsets are drawn uniformly from +/- this many
# cycles per sample. Real 802.11 oscillators are specified to +/-20 ppm;
# at the paper's 500 kb/s BPSK and 2 samples/symbol that is up to ~5e-2
# cycles/sample. A few 1e-3 keeps the inter-sender *relative* carrier
# rotating through all alignments within one packet — without it, short
# BPSK collisions can luck into quadrature and survive, which real
# hardware never does.
FREQ_SPREAD = 4e-3


@dataclass(frozen=True)
class ChannelParams:
    """Everything that defines one sender->receiver link at one instant.

    Attributes
    ----------
    gain:
        Complex channel coefficient H (attenuation h, phase gamma).
    freq_offset:
        Carrier frequency offset *in cycles per sample* (i.e. df * T).
        Typical 802.11-class values are 1e-5 .. 1e-4.
    sampling_offset:
        Receiver sampling instant offset in fractional samples, in [0, 1).
    phase_noise_std:
        Std-dev of the per-sample phase random-walk increment (radians).
        Zero disables phase noise.
    isi_taps:
        Optional complex FIR taps of the multipath channel; ``None`` means
        a flat (single-tap) channel.
    tx_evm:
        Transmitter error-vector magnitude: multiplicative complex
        distortion of the transmitted waveform (DAC quantization, PA
        nonlinearity, IQ imbalance). 802.11 hardware specs sit around
        0.03–0.08. Crucially this distortion is *proportional to signal
        power* and unknowable to the receiver, so it sets the floor on how
        cleanly a strong interferer can be subtracted — the reason Bob
        becomes undecodable when Alice's power is excessive (§4.1,
        Fig 5-4's high-SINR regime).
    impairments:
        Optional :class:`~repro.phy.impairments.ImpairmentPipeline` of
        per-sender propagation effects beyond the quasi-static model
        (time-varying fading, SFO drift, ...). Like phase noise and
        tx_evm these are unknowable to the receiver: they apply in
        :meth:`Channel.apply` but are excluded from
        :meth:`Channel.reconstruct`, so they directly stress ZigZag's
        re-encode/subtract loop.
    """

    gain: complex = 1.0 + 0j
    freq_offset: float = 0.0
    sampling_offset: float = 0.0
    phase_noise_std: float = 0.0
    isi_taps: tuple | None = None
    tx_evm: float = 0.0
    impairments: ImpairmentPipeline | None = None

    def __post_init__(self) -> None:
        if abs(self.freq_offset) >= 0.5:
            raise ConfigurationError(
                "freq_offset is in cycles/sample and must satisfy |df T| < 0.5"
            )
        if self.phase_noise_std < 0:
            raise ConfigurationError("phase_noise_std must be non-negative")
        if self.tx_evm < 0:
            raise ConfigurationError("tx_evm must be non-negative")
        if self.isi_taps is not None:
            object.__setattr__(self, "isi_taps",
                               tuple(complex(t) for t in self.isi_taps))

    @classmethod
    def from_snr_db(cls, snr_db_value: float, *,
                    noise_power: float = NOISE_POWER,
                    phase: float = 0.0, **kwargs) -> "ChannelParams":
        """Gain magnitude chosen so a unit-power signal has the given SNR."""
        magnitude = np.sqrt(db_to_linear(snr_db_value) * noise_power)
        return cls(gain=magnitude * np.exp(1j * phase), **kwargs)

    def with_gain(self, gain: complex) -> "ChannelParams":
        return replace(self, gain=gain)

    def isi_filter(self) -> IsiFilter:
        if self.isi_taps is None:
            return IsiFilter.identity()
        return IsiFilter(np.asarray(self.isi_taps, dtype=complex))


@dataclass
class Channel:
    """Applies :class:`ChannelParams` to a symbol stream.

    A fresh phase-noise trajectory is drawn per ``apply`` call (each packet
    traversal sees new oscillator jitter, while H / df / mu stay quasi-
    static, exactly the paper's channel assumption).
    """

    params: ChannelParams
    rng: np.random.Generator = field(default_factory=np.random.default_rng)
    # Built lazily: sinc-kernel design costs more than applying it, and
    # the offset is quasi-static across a channel's lifetime.
    _delay: FractionalDelay | None = field(default=None, repr=False)

    def _fractional_delay(self) -> FractionalDelay:
        if self._delay is None or self._delay.delay != self.params.sampling_offset:
            self._delay = FractionalDelay(self.params.sampling_offset)
        return self._delay

    def apply(self, symbols, start_sample: int = 0) -> np.ndarray:
        """Propagate *symbols* through the channel.

        ``start_sample`` is the index of the packet's first sample in the
        *receiver's* clock, so the frequency-offset phase ramp is coherent
        across packets arriving at different times in one capture.
        """
        x = np.asarray(symbols, dtype=complex).ravel()
        if x.size == 0:
            return x
        p = self.params
        out = x
        if p.tx_evm > 0.0:
            distortion = (self.rng.standard_normal(out.size)
                          + 1j * self.rng.standard_normal(out.size))
            out = out * (1.0 + p.tx_evm / np.sqrt(2.0) * distortion)
        out = p.isi_filter().apply(out)
        if p.sampling_offset != 0.0:
            out = self._fractional_delay().apply(out)
        n = np.arange(start_sample, start_sample + out.size, dtype=float)
        phase_ramp = np.exp(2j * np.pi * p.freq_offset * n)
        out = p.gain * out * phase_ramp
        if p.phase_noise_std > 0.0:
            steps = self.rng.normal(0.0, p.phase_noise_std, out.size)
            out = out * np.exp(1j * np.cumsum(steps))
        if p.impairments is not None and not p.impairments.is_identity:
            out = p.impairments.apply(out, self.rng, start_sample)
        return out

    def reconstruct(self, symbols, start_sample: int = 0) -> np.ndarray:
        """Deterministic channel image (no phase noise) for subtraction.

        This is what the ZigZag re-encoder computes from *estimated*
        parameters: the expected received waveform of known symbols. Phase
        noise is unknowable and therefore excluded — it is precisely the
        residual that makes cancellation imperfect.
        """
        x = np.asarray(symbols, dtype=complex).ravel()
        if x.size == 0:
            return x
        p = self.params
        out = p.isi_filter().apply(x)
        if p.sampling_offset != 0.0:
            out = self._fractional_delay().apply(out)
        n = np.arange(start_sample, start_sample + out.size, dtype=float)
        return p.gain * out * np.exp(2j * np.pi * p.freq_offset * n)
