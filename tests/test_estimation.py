"""ChannelEstimate tests (§4.2.4)."""

from repro.phy.estimation import ChannelEstimate


class TestChannelEstimate:
    def test_with_gain(self):
        est = ChannelEstimate(1.0, 0.0, 0.0, 10.0)
        assert est.with_gain(3.0).gain == 3.0
