"""AWGN generation and SNR bookkeeping.

All signals in the library are unit-average-energy at the transmitter, so
"SNR" always means received signal power (|H|^2 for a unit-power signal)
over complex noise power. Helpers here convert between dB/linear and
SNR/EbN0 forms so experiment code never hand-rolls the formulas.
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import ConfigurationError

__all__ = [
    "NOISE_POWER",
    "awgn",
    "signal_power",
    "snr_db",
    "noise_power_for_snr_db",
    "db_to_linear",
    "linear_to_db",
    "ebn0_db_to_snr_db",
    "snr_db_to_ebn0_db",
]

# Complex receiver noise power of every simulated capture: the paper
# quotes SNRs, so all link budgets are relative to unit noise.
NOISE_POWER = 1.0


def db_to_linear(value_db: float) -> float:
    """Power ratio in dB -> linear."""
    return 10.0 ** (value_db / 10.0)


def linear_to_db(value: float) -> float:
    """Linear power ratio -> dB."""
    if value <= 0:
        raise ConfigurationError("cannot take dB of a non-positive power")
    return 10.0 * math.log10(value)


def signal_power(signal) -> float:
    """Mean |x|^2 of a complex signal."""
    arr = np.asarray(signal, dtype=complex)
    if arr.size == 0:
        return 0.0
    return float(np.mean(np.abs(arr) ** 2))


def snr_db(signal, noise) -> float:
    """Empirical SNR in dB between a signal array and a noise array."""
    return linear_to_db(signal_power(signal) / signal_power(noise))


def noise_power_for_snr_db(snr_value_db: float, signal_pwr: float = 1.0) -> float:
    """Complex noise power sigma^2 that yields the requested SNR."""
    if signal_pwr <= 0:
        raise ConfigurationError("signal power must be positive")
    return signal_pwr / db_to_linear(snr_value_db)


def awgn(n: int, noise_power: float, rng: np.random.Generator) -> np.ndarray:
    """Circularly-symmetric complex Gaussian noise, total power *noise_power*.

    Each of the I and Q components carries half the power.
    """
    if noise_power < 0:
        raise ConfigurationError("noise power must be non-negative")
    if n < 0:
        raise ConfigurationError("n must be non-negative")
    scale = math.sqrt(noise_power / 2.0)
    return scale * (rng.standard_normal(n) + 1j * rng.standard_normal(n))


def ebn0_db_to_snr_db(ebn0_db: float, bits_per_symbol: int) -> float:
    """Eb/N0 (dB) -> per-symbol SNR (dB) at one sample per symbol."""
    if bits_per_symbol <= 0:
        raise ConfigurationError("bits_per_symbol must be positive")
    return ebn0_db + linear_to_db(bits_per_symbol)


def snr_db_to_ebn0_db(snr_value_db: float, bits_per_symbol: int) -> float:
    """Per-symbol SNR (dB) -> Eb/N0 (dB)."""
    if bits_per_symbol <= 0:
        raise ConfigurationError("bits_per_symbol must be positive")
    return snr_value_db - linear_to_db(bits_per_symbol)
