"""Test-suite settings, a fixture that counts the drive rotations a run
builds, and the preset tables the acceptance checks read.

Hypothesis runs derandomized with a bounded example count and no example
database, so every run of the suite draws the same cases and writes no
files; property tests that propagate long pulse trains get no deadline.
"""

import pytest
from hypothesis import settings

from qubitfr import checks, protocol

settings.register_profile("qubitfr", derandomize=True, deadline=None,
                          max_examples=40, database=None)
settings.load_profile("qubitfr")


@pytest.fixture
def rotations_built(monkeypatch):
    """A list that gets, for each rotation ``protocol`` asks ``core`` for,
    the number of intervals it covers: ``len(times) - 1`` per
    ``bloch_rotations`` batch (the period rotations) and 1 per
    ``bloch_rotation`` (the tails)."""
    built = []
    real_one, real_batch = protocol.bloch_rotation, protocol.bloch_rotations

    def one(drive, t0, t1):
        built.append(1)
        return real_one(drive, t0, t1)

    def batch(drive, times):
        built.append(len(times) - 1)
        return real_batch(drive, times)

    monkeypatch.setattr(protocol, "bloch_rotation", one)
    monkeypatch.setattr(protocol, "bloch_rotations", batch)
    return built


@pytest.fixture(scope="session")
def preset_tables():
    """``checks.preset_tables()``, built once per session; tests that shift
    a column do so on a copy."""
    return checks.preset_tables()
