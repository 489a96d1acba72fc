"""Receiver-side building blocks: the standard black-box decoder and helpers.

:class:`~repro.receiver.frontend.SymbolStreamDecoder` is the incremental
"standard decoder" that ZigZag invokes chunk-by-chunk (§4.2.3a);
:class:`~repro.receiver.decoder.StandardDecoder` wraps it into the ordinary
whole-packet 802.11 receive path; :mod:`~repro.receiver.mrc` implements
maximal ratio combining; :mod:`~repro.receiver.buffer` stores recent
unmatched collisions (§4.2.2).
"""

from repro.receiver.result import DecodeResult
from repro.receiver.frontend import StreamConfig, SymbolStreamDecoder
from repro.receiver.decoder import StandardDecoder
from repro.receiver.mrc import mrc_combine
from repro.receiver.buffer import CollisionBuffer, CollisionRecord

__all__ = [
    "DecodeResult",
    "StreamConfig",
    "SymbolStreamDecoder",
    "StandardDecoder",
    "mrc_combine",
    "CollisionBuffer",
    "CollisionRecord",
]
