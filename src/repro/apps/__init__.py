"""Application traffic models.

:class:`MediaSource` drives a :class:`~repro.core.sender.QtpSender` in
media-limited mode (``bulk=False``): an MPEG-like I/P/B frame generator
with per-frame playout deadlines, the paper's multimedia workload.

:class:`PlayoutBuffer` models the receiving application: frames that
miss their deadline are useless even if delivered.
"""

from repro.apps.sources import MediaSource
from repro.apps.playout import PlayoutBuffer

__all__ = [
    "MediaSource",
    "PlayoutBuffer",
]
