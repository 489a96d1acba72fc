"""Golden-vector regression: end-to-end decodes pinned bit-exactly.

Each fixture under ``tests/golden/`` holds a fixed-seed collision set
(raw capture buffers + acquisition inputs) together with the bits the
full receive chain recovered when the fixture was generated: hidden
pairs through the §4.2.3 pair path, and a three-sender set through the
§4.5 k-way multi decoder. Re-running synchronization + ZigZag decoding
on the *stored* waveforms must reproduce those bits exactly — any
numerical drift anywhere in the chain (sync.acquire, chunk scheduling,
re-encode/subtract, tracking, slicing, k-copy MRC) trips these tests.
The ``hidden_pair_scenario`` fixture decodes from the placements the
scenario builder acquired, a 240-bit pair whose packets both pass CRC
after the forward pass, so no backward pass or MRC runs; its pinned bits
equal the decode with every pre-optimization kernel patched in. The
backward pass and MRC run only for packets that fail after the forward
pass, and only the two ``*_rescue`` fixtures have one:
``hidden_pair_rescue`` (backward + MRC) and ``three_senders_rescue``
(backward + k-copy MRC) each recover a packet that way. This is the
end-to-end complement of the kernel-level oracles in
``tests/kernel_oracles.py``.

After an *intentional* behavior change, regenerate with::

    PYTHONPATH=src python tests/golden/regenerate.py [fixture ...]

and review the reported BERs before committing the new fixtures.
"""

import importlib.util
import pathlib

import numpy as np
import pytest

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"

_spec = importlib.util.spec_from_file_location(
    "golden_regenerate", GOLDEN_DIR / "regenerate.py")
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)

FIXTURE_NAMES = golden.all_fixture_names()


def load(name: str) -> dict:
    path = GOLDEN_DIR / f"{name}.npz"
    assert path.exists(), (
        f"missing golden fixture {path}; run tests/golden/regenerate.py")
    with np.load(path) as data:
        return {key: np.array(data[key]) for key in data.files}


class TestGoldenVectors:
    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_decode_is_bit_exact(self, name):
        data = load(name)
        decoded = golden.decode_fixture(name, data)
        for label in golden.fixture_labels(name):
            expected = data[f"decoded_{label}"]
            got = decoded[label]
            assert got.size == expected.size, (
                f"{name}/{label}: decoded {got.size} bits, "
                f"fixture pinned {expected.size}")
            mismatches = int(np.count_nonzero(got != expected))
            assert mismatches == 0, (
                f"{name}/{label}: {mismatches} bits differ from the "
                f"pinned decode — the receive chain's numerics changed. "
                f"If intentional, regenerate tests/golden/.")

    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_fixture_decodes_ground_truth(self, name):
        """The pinned decodes are meaningful, not garbage: every fixture
        was generated in a regime where all packets come out clean."""
        data = load(name)
        for label in golden.fixture_labels(name):
            truth = data[f"body_{label}"]
            pinned = data[f"decoded_{label}"][:truth.size]
            ber = float(np.mean(pinned != truth))
            assert ber < 1e-3, f"{name}/{label}: pinned ber {ber}"

    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_regeneration_is_deterministic(self, name):
        """build_fixture reproduces the committed waveforms sample-exactly
        from its seed — the synthesis side (channel, impairments, medium)
        is pinned too, not just the receive side."""
        data = load(name)
        labels = golden.fixture_labels(name)
        rebuilt = golden.build_fixture(name)
        for ci in range(len(labels)):
            key = f"capture{ci}"
            assert np.array_equal(rebuilt[key], data[key]), (
                f"{name}: {key} no longer regenerates bit-exactly — "
                f"synthesis numerics changed. If intentional, regenerate "
                f"tests/golden/.")
        for label in labels:
            assert np.array_equal(rebuilt[f"body_{label}"],
                                  data[f"body_{label}"])
        # Scenario fixtures also store the placements the scenario
        # acquired; they must regenerate exactly too.
        for key in rebuilt:
            if key.startswith(golden.PLACEMENT_FIELDS):
                assert np.array_equal(rebuilt[key], data[key]), (
                    f"{name}: {key} no longer regenerates bit-exactly — "
                    f"acquisition numerics changed.")
