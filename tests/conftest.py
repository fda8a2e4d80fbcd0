"""Fixtures shared by the test modules."""

import sys

import pytest


@pytest.fixture
def count_frames():
    """``count_frames(path_part, call)``: Python frames entered, while
    ``call()`` runs, in source files whose path contains ``path_part``.

    A cost guard that is a count, not a timing: a scan shows as one
    generator or comprehension frame per element, a hand-off layer as
    one frame per packet, whatever the host is doing.
    """

    def count(path_part, call):
        frames = 0

        def profiler(frame, event, arg):
            nonlocal frames
            if event == "call" and path_part in frame.f_code.co_filename:
                frames += 1

        sys.setprofile(profiler)
        try:
            call()
        finally:
            sys.setprofile(None)
        return frames

    return count
