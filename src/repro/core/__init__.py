"""Top-level receiver orchestration — the paper's §5.1(d) flow control.

:class:`~repro.core.api.ZigZagReceiver` glues everything together the way
the prototype AP does: run the standard stage of the 802.11 baseline
(:class:`~repro.core.api.StandardAp`, its base class) first; when that
does not decode the strongest packet, attempt capture-effect SIC, match
against stored collisions and ZigZag-decode the set, or store the
collision for later.
"""

from repro.core.api import ClientTable, ReceiverConfig, ZigZagReceiver

__all__ = ["ClientTable", "ReceiverConfig", "ZigZagReceiver"]
