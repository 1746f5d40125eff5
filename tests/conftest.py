"""Fixtures shared by the test modules."""

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
