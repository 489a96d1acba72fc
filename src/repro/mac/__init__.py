"""802.11 MAC substrate: DCF timing, backoff, ACKs.

The pieces the rest of the reproduction builds on:

- 802.11 timing constants (:mod:`~repro.mac.timing`) and contention
  windows (:mod:`~repro.mac.backoff`), which the closed-loop session
  cores in :mod:`repro.link` run live as DCF contention;
- Monte-Carlo evaluation of the greedy decoder's failure probability versus
  the number of colliding senders (Fig 4-7), driven by
  :mod:`~repro.mac.backoff` slot picks (:mod:`~repro.mac.hidden`);
- the synchronous-ACK feasibility analysis of Lemma 4.4.1
  (:mod:`~repro.mac.ack`), shared with the sessions' ACK planner.
"""

from repro.mac.timing import Timing, TIMING_80211A, TIMING_80211B, TIMING_80211G
from repro.mac.backoff import BackoffPicker, ExponentialBackoff, FixedWindowBackoff
from repro.mac.ack import (
    AckPlanner,
    ack_offset_lower_bound,
    ack_offset_probability,
    plan_synchronous_acks,
)
from repro.mac.hidden import HiddenScenario, collision_offset_pairs

__all__ = [
    "Timing",
    "TIMING_80211A",
    "TIMING_80211B",
    "TIMING_80211G",
    "BackoffPicker",
    "FixedWindowBackoff",
    "ExponentialBackoff",
    "ack_offset_probability",
    "ack_offset_lower_bound",
    "plan_synchronous_acks",
    "AckPlanner",
    "HiddenScenario",
    "collision_offset_pairs",
]
