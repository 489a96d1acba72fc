"""The one air interface: the preamble and the pulse shaper are constants.

Every frame opens with ``PREAMBLE`` and is shaped by ``SHAPER``. The
entry points that still take either accept only the constant itself
(``runner.cache.cached_preamble`` is tested with the cache, in
``test_runner.py``); a scenario file cannot set a preamble length.
"""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.link import LinkSession, SessionConfig, StreamClient
from repro.phy.preamble import PREAMBLE, Preamble, lfsr_sequence
from repro.phy.pulse import DELAY, ROLLOFF, SHAPER, SPS, SPAN, PulseShaper
from repro.runner import ScenarioSpec
from repro.runner.builders import hidden_pair_scenario

OTHER_PREAMBLE = Preamble(lfsr_sequence(16))


def test_the_constants_are_the_papers_air_interface():
    """32-symbol m-sequence preamble (§4.2.1); RRC at 2 samples per
    symbol (§5.1c), truncated to ±6 symbols, roll-off 0.35."""
    assert len(PREAMBLE) == 32
    assert np.array_equal(PREAMBLE.symbols.real,
                          2.0 * lfsr_sequence(32) - 1.0)
    assert (SPS, SPAN, ROLLOFF, DELAY) == (2, 6, 0.35, 12)
    assert SHAPER.taps.size == 2 * DELAY + 1


def _session(**kwargs) -> LinkSession:
    clients = [StreamClient("A", 1, 12.0, 3e-3),
               StreamClient("B", 2, 12.0, -2e-3)]
    return LinkSession(SessionConfig(n_packets=1, payload_bits=64), clients,
                       rng=np.random.default_rng(0), **kwargs)


class TestEntryPointsTakeOnlyTheConstant:
    def test_link_session(self):
        assert _session(preamble=PREAMBLE, shaper=SHAPER).packet_samples \
            == _session().packet_samples
        with pytest.raises(ConfigurationError, match="preamble is fixed"):
            _session(preamble=OTHER_PREAMBLE)
        with pytest.raises(ConfigurationError, match="shaper is fixed"):
            _session(shaper=PulseShaper())

    def test_session_config_preamble_length_is_read_only(self):
        config = SessionConfig()
        assert config.preamble_length == len(PREAMBLE)
        with pytest.raises(AttributeError):
            config.preamble_length = 16
        with pytest.raises(TypeError, match="preamble_length"):
            SessionConfig(preamble_length=16)

    def test_hidden_pair_scenario(self):
        rng = np.random.default_rng(3)
        captures, *_ = hidden_pair_scenario(rng, PREAMBLE, SHAPER)
        assert len(captures) == 2
        with pytest.raises(ConfigurationError, match="preamble is fixed"):
            hidden_pair_scenario(rng, OTHER_PREAMBLE, SHAPER)
        with pytest.raises(ConfigurationError, match="shaper is fixed"):
            hidden_pair_scenario(rng, PREAMBLE, PulseShaper())


@pytest.mark.parametrize("value", [16, 32])
def test_scenario_preamble_length_key_is_rejected(value):
    """Even at the constant's own value, the key is gone."""
    with pytest.raises(ConfigurationError, match="preamble_length"):
        ScenarioSpec.from_dict({"scenario": {"kind": "pair",
                                             "preamble_length": value}})
