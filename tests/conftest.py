"""Shared fixtures: seeded RNGs and the common PHY objects.

Session-scoped where construction is deterministic and reused heavily;
function-scoped RNGs keep tests independent of execution order.

Hypothesis runs under one of two registered profiles:

- ``dev`` (default): no deadline (DSP tests have warmup spikes),
  otherwise stock behavior.
- ``ci`` (select with ``HYPOTHESIS_PROFILE=ci``): additionally
  *derandomized* — example generation is a fixed function of each test,
  so CI failures reproduce exactly and a red run is never a fluke draw.
"""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import settings

from repro.phy.frame import Frame
from repro.phy.preamble import default_preamble
from repro.phy.pulse import PulseShaper
from repro.receiver.frontend import StreamConfig
from repro.utils.bits import random_bits

settings.register_profile("dev", deadline=None)
settings.register_profile("ci", deadline=None, derandomize=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "dev"))

#: Every test that needs ad-hoc randomness shares this root seed via the
#: ``rng`` fixture below; construct a local ``default_rng`` only when a
#: test's assertions depend on a *specific* draw sequence.
TEST_SEED = 1234


@pytest.fixture
def rng():
    """The shared fixed-seed generator (fresh per test, same stream)."""
    return np.random.default_rng(TEST_SEED)


@pytest.fixture(scope="session")
def preamble():
    return default_preamble(32)


@pytest.fixture(scope="session")
def shaper():
    return PulseShaper()


@pytest.fixture
def stream_config(preamble, shaper):
    return StreamConfig(preamble=preamble, shaper=shaper)


@pytest.fixture
def small_frame(rng, preamble):
    return Frame.make(random_bits(128, rng), src=1, seq=3,
                      preamble=preamble)


def make_frame(rng, preamble, n_bits=128, **kwargs):
    return Frame.make(random_bits(n_bits, rng), preamble=preamble, **kwargs)
