"""Regenerate the golden-vector fixtures under ``tests/golden/``.

Each fixture is a small fixed-seed collision set — the raw capture
buffers, the acquisition inputs (symbol-0 positions and coarse frequency
guesses), the ground-truth body bits, and the bits the ZigZag decoder
recovered when the fixture was generated, all by
:class:`ZigZagMultiDecoder`. The hidden-pair fixtures pin the §4.2.3 pair
path (two captures); the three-sender fixtures pin the §4.5 k-way path
(three captures). The ``*_rescue`` fixtures are the ones
whose forward pass leaves a packet failing CRC, so they alone pin the
backward pass and MRC (k-copy MRC for the three-sender one). The
companion test
(``tests/test_golden_vectors.py``) re-runs synchronization + ZigZag
decoding on the *stored* waveforms and asserts the recovered bits match
**bit-exactly**, pinning the whole receive chain (sync.acquire through
engine/re-encode/subtract/tracking) across future refactors — the
end-to-end analogue of the kernel oracles in ``tests/kernel_oracles.py``.
The scenario fixture instead stores the placements
:func:`~repro.runner.builders.hidden_pair_scenario` acquired itself and
decodes from them, so it pins that builder's exact end-to-end case.

Regenerate (only after an *intentional* behavior change, and eyeball the
reported BERs before committing)::

    PYTHONPATH=src python tests/golden/regenerate.py [fixture ...]

With fixture names given, only those are rewritten — adding a new
fixture must not churn the bytes of the existing ones.
"""

from __future__ import annotations

import pathlib
import sys

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[2] / "src"))

from repro.phy.channel import ChannelParams  # noqa: E402
from repro.phy.estimation import (  # noqa: E402
    COARSE_FREQ_ERROR,
    ChannelEstimate,
)
from repro.phy.frame import Frame  # noqa: E402
from repro.phy.impairments import ImpairmentPipeline  # noqa: E402
from repro.phy.medium import Transmission, synthesize  # noqa: E402
from repro.phy.preamble import PREAMBLE  # noqa: E402
from repro.phy.pulse import SHAPER  # noqa: E402
from repro.phy.sync import Synchronizer  # noqa: E402
from repro.receiver.frontend import StreamConfig  # noqa: E402
from repro.runner.builders import hidden_pair_scenario  # noqa: E402
from repro.utils.bits import bit_error_rate, random_bits  # noqa: E402
from repro.zigzag.decoder import ZigZagMultiDecoder  # noqa: E402
from repro.zigzag.engine import PacketSpec, PlacementParams  # noqa: E402

GOLDEN_DIR = pathlib.Path(__file__).resolve().parent

PAYLOAD_BITS = 160
NOISE_POWER = 1.0

# name -> (seed, snr_db, sender stage dicts, capture stage dicts)
FIXTURES: dict[str, tuple[int, float, tuple, tuple]] = {
    "hidden_pair_clean": (101, 12.0, (), ()),
    "hidden_pair_fading": (
        202, 13.0,
        ({"kind": "rician", "k_factor_db": 14.0,
          "coherence_samples": 1500},),
        ()),
    "hidden_pair_frontend": (
        303, 13.0,
        (),
        ({"kind": "clip", "saturation": 18.0},
         {"kind": "quantize", "enob": 8.0, "full_scale": 24.0},
         {"kind": "iq_imbalance", "amplitude_db": 0.15,
          "phase_deg": 0.8})),
    # Low SNR: the forward pass alone fails A's CRC, and the backward
    # pass plus MRC recovers it (B passes after the forward pass).
    "hidden_pair_rescue": (7, 6.5, (), ()),
}

# Fixtures decoded through the k-way multi decoder (§4.5): three
# mutually-hidden senders across three collisions. Kept separate so the
# pair fixtures above stay byte-identical to their pre-k-way form.
THREE_SENDER_FIXTURES: dict[str, tuple[int, float]] = {
    "three_senders_clean": (404, 13.0),
    # The same geometry 3 dB lower: the forward pass alone fails B's
    # CRC, and backward + k-copy MRC recovers it.
    "three_senders_rescue": (404, 10.0),
}

# Per-round start offsets of the three senders (samples) — distinct
# relative offsets in every round, the decodable §4.5 configuration.
THREE_SENDER_ROUNDS = ((0, 80, 180), (60, 0, 140), (100, 40, 0))


# Fixtures that keep the placements hidden_pair_scenario acquired
# itself (its own coarse guesses, its own sync.acquire), so the decode
# starts from exactly the scenario's output: a 240-bit hidden pair whose
# packets both pass CRC after the forward pass.
# name -> (seed, snr_db, payload_bits)
SCENARIO_FIXTURES: dict[str, tuple[int, float, int]] = {
    "hidden_pair_scenario": (424242, 12.0, 240),
}

# Stored fields of one acquired placement (PlacementParams.start and
# the ChannelEstimate it carries).
PLACEMENT_FIELDS = ("start", "gain", "freq_offset", "sampling_offset",
                    "snr_db")


def fixture_labels(name: str) -> tuple[str, ...]:
    """Packet labels stored in fixture *name*."""
    return ("A", "B", "C") if name in THREE_SENDER_FIXTURES \
        else ("A", "B")


def all_fixture_names() -> list[str]:
    return sorted([*FIXTURES, *THREE_SENDER_FIXTURES, *SCENARIO_FIXTURES])


def _build_three_senders(name: str) -> dict[str, np.ndarray]:
    seed, snr_db = THREE_SENDER_FIXTURES[name]
    rng = np.random.default_rng(seed)
    labels = fixture_labels(name)
    amplitude = np.sqrt(10 ** (snr_db / 10) * NOISE_POWER)
    frames = {
        label: Frame.make(random_bits(PAYLOAD_BITS, rng), src=i + 1,
                          seq=i)
        for i, label in enumerate(labels)
    }
    freqs = {label: float(rng.uniform(-4e-3, 4e-3)) for label in labels}
    captures = []
    for offsets in THREE_SENDER_ROUNDS:
        txs = []
        for label, offset in zip(labels, offsets):
            params = ChannelParams(
                gain=amplitude * np.exp(1j * rng.uniform(0, 2 * np.pi)),
                freq_offset=freqs[label],
                sampling_offset=float(rng.uniform(0, 1)),
                phase_noise_std=1e-3)
            txs.append(Transmission.from_symbols(
                frames[label].symbols, params, offset, label))
        captures.append(synthesize(txs, NOISE_POWER, rng,
                                   leading=8, tail=30))
    data: dict[str, np.ndarray] = {
        "payload_bits": np.array(PAYLOAD_BITS),
        "preamble_length": np.array(len(PREAMBLE)),
        "noise_power": np.array(NOISE_POWER),
        "seed": np.array(seed),
        "n_symbols": np.array(frames["A"].n_symbols),
    }
    for ci, capture in enumerate(captures):
        data[f"capture{ci}"] = capture.samples
        for t in capture.transmissions:
            key = f"c{ci}_{t.label}"
            data[f"symbol0_{key}"] = np.array(t.symbol0)
            data[f"coarse_{key}"] = np.array(
                t.params.freq_offset + rng.normal(0, COARSE_FREQ_ERROR))
    for label, frame in frames.items():
        data[f"body_{label}"] = frame.body_bits.astype(np.uint8)
    return data


def _build_scenario(name: str) -> dict[str, np.ndarray]:
    seed, snr_db, payload_bits = SCENARIO_FIXTURES[name]
    rng = np.random.default_rng(seed)
    captures, frames, _, placements = hidden_pair_scenario(
        rng, snr_db=snr_db, payload_bits=payload_bits)
    data: dict[str, np.ndarray] = {
        "payload_bits": np.array(payload_bits),
        "preamble_length": np.array(len(PREAMBLE)),
        "noise_power": np.array(NOISE_POWER),
        "seed": np.array(seed),
        "n_symbols": np.array(frames["A"].n_symbols),
    }
    for ci, capture in enumerate(captures):
        data[f"capture{ci}"] = capture.samples
    for p in placements:
        est = p.estimate
        values = (p.start, est.gain, est.freq_offset, est.sampling_offset,
                  est.snr_db)
        for field, value in zip(PLACEMENT_FIELDS, values):
            data[f"{field}_c{p.collision}_{p.packet}"] = np.array(value)
    for label, frame in frames.items():
        data[f"body_{label}"] = frame.body_bits.astype(np.uint8)
    return data


def _stored_placements(name: str, data: dict) -> list[PlacementParams]:
    placements = []
    for ci in range(len(fixture_labels(name))):
        for label in fixture_labels(name):
            start, gain, freq, sampling, snr = (
                data[f"{field}_c{ci}_{label}"][()]
                for field in PLACEMENT_FIELDS)
            placements.append(PlacementParams(
                label, ci, float(start),
                ChannelEstimate(gain=complex(gain), freq_offset=float(freq),
                                sampling_offset=float(sampling),
                                snr_db=float(snr))))
    return placements


def _empty_kernel_cache() -> None:
    """Start acquisition and decoding from an empty :data:`SHAPER` kernel
    cache. The cache merges fractions within 1e-12 of each other, so the
    kernel a lookup returns, to the last bit, depends on which fraction
    filled its slot first: without this, a fixture's numerics would
    depend on whatever ran before it in the process."""
    SHAPER._kernel_cache.clear()


def build_fixture(name: str) -> dict[str, np.ndarray]:
    """Synthesize one fixture's captures + acquisition inputs + truth."""
    _empty_kernel_cache()
    if name in THREE_SENDER_FIXTURES:
        return _build_three_senders(name)
    if name in SCENARIO_FIXTURES:
        return _build_scenario(name)
    seed, snr_db, sender_stages, capture_stages = FIXTURES[name]
    rng = np.random.default_rng(seed)
    captures, frames, _, _ = hidden_pair_scenario(
        rng, snr_db=snr_db, payload_bits=PAYLOAD_BITS,
        sender_impairments=(ImpairmentPipeline.from_specs(sender_stages)
                            if sender_stages else None),
        capture_impairments=(ImpairmentPipeline.from_specs(capture_stages)
                             if capture_stages else None))
    data: dict[str, np.ndarray] = {
        "payload_bits": np.array(PAYLOAD_BITS),
        "preamble_length": np.array(len(PREAMBLE)),
        "noise_power": np.array(NOISE_POWER),
        "seed": np.array(seed),
        "n_symbols": np.array(frames["A"].n_symbols),
    }
    # The same coarse-frequency guesses the builder's acquisition loop
    # would draw (the AP's client-table CFO plus association-time error).
    for ci, capture in enumerate(captures):
        data[f"capture{ci}"] = capture.samples
        for t in capture.transmissions:
            key = f"c{ci}_{t.label}"
            data[f"symbol0_{key}"] = np.array(t.symbol0)
            data[f"coarse_{key}"] = np.array(
                t.params.freq_offset + rng.normal(0, COARSE_FREQ_ERROR))
    for label, frame in frames.items():
        data[f"body_{label}"] = frame.body_bits.astype(np.uint8)
    return data


def fixture_trial(name: str, data: dict):
    """A fixture's decoder config and ``(captures, specs, placements)``
    trial: sync runs on the *stored* waveforms from scratch (scenario
    fixtures use their stored placements instead)."""
    _empty_kernel_cache()
    n_symbols = int(data["n_symbols"])
    labels = fixture_labels(name)
    n_captures = len(labels)  # one collision per packet of the set
    captures = [np.asarray(data[f"capture{ci}"])
                for ci in range(n_captures)]
    if name in SCENARIO_FIXTURES:
        placements = _stored_placements(name, data)
    else:
        sync = Synchronizer(threshold=0.3)
        placements = []
        for ci, samples in enumerate(captures):
            for label in labels:
                key = f"c{ci}_{label}"
                symbol0 = int(data[f"symbol0_{key}"])
                est = sync.acquire(samples, symbol0,
                                   coarse_freq=float(data[f"coarse_{key}"]))
                placements.append(PlacementParams(
                    label, ci, symbol0 + est.sampling_offset, est))
    config = StreamConfig()
    specs = {label: PacketSpec(label, n_symbols) for label in labels}
    return config, (captures, specs, placements)


def decode_fixture(name: str, data: dict) -> dict[str, np.ndarray]:
    """ZigZag-decode a fixture's trial (see :func:`fixture_trial`)."""
    config, trial = fixture_trial(name, data)
    outcome = ZigZagMultiDecoder(config).decode(*trial)
    return {label: outcome.results[label].bits.astype(np.uint8)
            for label in fixture_labels(name)}


def regenerate(names: list[str] | None = None) -> None:
    for name in (names or all_fixture_names()):
        data = build_fixture(name)
        decoded = decode_fixture(name, data)
        for label, bits in decoded.items():
            data[f"decoded_{label}"] = bits
            truth = data[f"body_{label}"]
            ber = bit_error_rate(truth, bits[:truth.size]) \
                if bits.size >= truth.size else 1.0
            print(f"{name:24s} {label}: {bits.size:4d} bits  "
                  f"ber vs truth = {ber:.5f}")
        path = GOLDEN_DIR / f"{name}.npz"
        np.savez_compressed(path, **data)
        print(f"  -> wrote {path}")


if __name__ == "__main__":
    regenerate(sys.argv[1:] or None)
