"""Fixtures shared by the test modules."""

import sys

import pytest


@pytest.fixture
def count_frames():
    """``count_frames(path_part, call)``: Python frames entered, while
    ``call()`` runs, in source files whose path contains ``path_part``.
    Given a tuple of path parts, one run is counted into a tuple of
    totals, one per part.

    A cost guard that is a count, not a timing: a scan shows as one
    generator or comprehension frame per element, a hand-off layer as
    one frame per packet, whatever the host is doing.
    """

    def count(path_parts, call):
        single = isinstance(path_parts, str)
        parts = (path_parts,) if single else tuple(path_parts)
        frames = [0] * len(parts)

        def profiler(frame, event, arg):
            if event == "call":
                filename = frame.f_code.co_filename
                for k, part in enumerate(parts):
                    if part in filename:
                        frames[k] += 1

        sys.setprofile(profiler)
        try:
            call()
        finally:
            sys.setprofile(None)
        return frames[0] if single else tuple(frames)

    return count
