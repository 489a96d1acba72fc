"""Evaluation metrics (§5.1f): BER, packet loss rate, normalized throughput.

"We consider a packet to be correctly received if the BER in that packet is
less than 1e-3" — the delivery rule every experiment applies. Throughput is
"the number of delivered packets normalized by the transmission rate":
delivered packets over the airtime (in packet-slots) the medium spent.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["FlowStats", "loss_rate", "BER_DELIVERY_THRESHOLD"]

# §5.1f: maximum uncoded BER considered correctable by channel coding.
BER_DELIVERY_THRESHOLD = 1e-3


@dataclass
class FlowStats:
    """Per-flow counters accumulated over an experiment."""

    sent: int = 0
    delivered: int = 0
    airtime_slots: float = 0.0
    bers: list = field(default_factory=list)

    def record(self, ber: float, airtime: float = 0.0) -> None:
        self.sent += 1
        self.bers.append(float(ber))
        self.airtime_slots += airtime
        if ber < BER_DELIVERY_THRESHOLD:
            self.delivered += 1

    @property
    def loss_rate(self) -> float:
        if self.sent == 0:
            return 0.0
        return 1.0 - self.delivered / self.sent

    def throughput(self, total_airtime: float | None = None) -> float:
        """Delivered packets per packet-slot of airtime.

        With *total_airtime* the normalization is shared across flows (the
        aggregate medium time), which is how per-sender throughputs in
        Fig 5-4 sum meaningfully.
        """
        airtime = total_airtime if total_airtime is not None \
            else self.airtime_slots
        if airtime <= 0:
            return 0.0
        return self.delivered / airtime


def loss_rate(flows: dict) -> float:
    """Aggregate loss rate over all flows."""
    sent = sum(s.sent for s in flows.values())
    if sent == 0:
        return 0.0
    delivered = sum(s.delivered for s in flows.values())
    return 1.0 - delivered / sent
