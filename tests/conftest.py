"""Fixtures shared by the test modules."""

import pathlib
import sys

import pytest

from hlbrion import ring


@pytest.fixture
def completed_points(monkeypatch):
    """record(module) routes module.at_random_points through a recorder and
    returns the two lists it fills: the points where the check returned,
    and the points where it raised Pole and was drawn again."""
    def record(module):
        done, poles = [], []

        def spy(variables, rng, trials, check):
            def recording(point):
                try:
                    ok = check(point)
                except ring.Pole:
                    poles.append(point)
                    raise
                done.append(point)
                return ok
            return ring.at_random_points(variables, rng, trials, recording)
        monkeypatch.setattr(module, "at_random_points", spy)
        return done, poles
    return record


@pytest.fixture
def src_calls():
    """src_calls(fn, *args): the code objects of the package functions that
    fn(*args) calls, recorded by a profile hook on this process alone.  The
    guards of the checked identities intersect these sets, one per side."""
    src = pathlib.Path(ring.__file__).parent

    def calls(fn, *args):
        seen = set()

        def hook(frame, event, arg):
            code = frame.f_code
            if event == "call" and \
                    pathlib.Path(code.co_filename).parent == src:
                seen.add(code)
        sys.setprofile(hook)
        try:
            fn(*args)
        finally:
            sys.setprofile(None)
        return seen
    return calls
