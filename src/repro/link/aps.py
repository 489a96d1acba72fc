"""Access points: one burst-level interface, two receiver designs.

The session driver is design-agnostic — it hands each segmented burst to
an AP object's ``receive`` and acts on the decode results.
:func:`build_ap` picks the design:

- ``802.11`` is :class:`~repro.core.api.StandardAp`, the Current-802.11
  baseline (§5.1e): the standard decoder at the strongest packet starts,
  with no collision buffer and no interference cancellation.
- ``zigzag`` is :class:`~repro.core.ZigZagReceiver`, which runs that same
  standard stage first and adds capture-effect SIC, collision-buffer
  matching and ZigZag decoding (§5.1d).

Both keep the per-client coarse frequency table the paper's AP maintains
from association time (§4.2.1); the session seeds it.
"""

from __future__ import annotations

from repro.core.api import ReceiverConfig, StandardAp, ZigZagReceiver
from repro.errors import ReproError

__all__ = ["StandardAp", "build_ap"]


def build_ap(design: str,
             config: ReceiverConfig) -> "ZigZagReceiver | StandardAp":
    """The AP for a ``spec.design`` name (zigzag / 802.11)."""
    if design == "zigzag":
        return ZigZagReceiver(config)
    if design == "802.11":
        return StandardAp(config)
    raise ReproError(
        f"no streaming AP for design {design!r}; use 'zigzag' or '802.11'")
