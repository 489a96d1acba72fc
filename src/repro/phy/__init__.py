"""The 802.11-like physical-layer substrate.

This package implements, from scratch, everything the ZigZag receiver needs
underneath it: modulation (BPSK through 64-QAM), PN preambles, CRC-32
framing, the flat-fading quasi-static channel of the paper's Chapter 3
(complex gain, carrier frequency offset, fractional sampling offset, phase
noise, multipath ISI, AWGN), windowed-sinc interpolation, preamble
correlation, channel/frequency estimation, decision-directed phase tracking,
and linear equalization.
"""

from repro.phy.constellation import (
    BPSK,
    QAM16,
    QAM64,
    QPSK,
    Constellation,
    get_constellation,
)
from repro.phy.modulator import Modulator
from repro.phy.preamble import Preamble, default_preamble
from repro.phy.crc import crc32, crc32_check, append_crc32, strip_crc32
from repro.phy.frame import Frame, FrameHeader, build_frame_bits, parse_frame_bits
from repro.phy.noise import (
    awgn,
    ebn0_db_to_snr_db,
    noise_power_for_snr_db,
    signal_power,
    snr_db,
    snr_db_to_ebn0_db,
)
from repro.phy.resample import FractionalDelay
from repro.phy.isi import IsiFilter, default_isi_taps, invert_fir
from repro.phy.impairments import (
    AdcQuantizer,
    BurstNoise,
    CwTone,
    DcOffset,
    ImpairmentPipeline,
    IqImbalance,
    RayleighFading,
    RicianFading,
    SfoDrift,
    SoftClipper,
    available_impairments,
    make_impairment,
)
from repro.phy.channel import Channel, ChannelParams
from repro.phy.correlation import CorrelationPeak
from repro.phy.estimation import ChannelEstimate
from repro.phy.tracking import PhaseTracker
from repro.phy.equalizer import LmsEqualizer

__all__ = [
    "BPSK",
    "QPSK",
    "QAM16",
    "QAM64",
    "Constellation",
    "get_constellation",
    "Modulator",
    "Preamble",
    "default_preamble",
    "crc32",
    "crc32_check",
    "append_crc32",
    "strip_crc32",
    "Frame",
    "FrameHeader",
    "build_frame_bits",
    "parse_frame_bits",
    "awgn",
    "signal_power",
    "snr_db",
    "noise_power_for_snr_db",
    "ebn0_db_to_snr_db",
    "snr_db_to_ebn0_db",
    "FractionalDelay",
    "IsiFilter",
    "default_isi_taps",
    "invert_fir",
    "ImpairmentPipeline",
    "RayleighFading",
    "RicianFading",
    "SfoDrift",
    "SoftClipper",
    "AdcQuantizer",
    "IqImbalance",
    "DcOffset",
    "CwTone",
    "BurstNoise",
    "available_impairments",
    "make_impairment",
    "Channel",
    "ChannelParams",
    "CorrelationPeak",
    "ChannelEstimate",
    "PhaseTracker",
    "LmsEqualizer",
]
