"""Test-suite settings, fixtures that count the drive rotations a run
builds and the fixed-axis drive's rate evaluations, and the preset tables
the acceptance checks read.

Hypothesis runs derandomized with a bounded example count and no example
database, so every run of the suite draws the same cases and writes no
files; property tests that propagate long pulse trains get no deadline.
"""

import pytest
from hypothesis import settings

from qubitfr import checks, core, protocol

settings.register_profile("qubitfr", derandomize=True, deadline=None,
                          max_examples=40, database=None)
settings.load_profile("qubitfr")


@pytest.fixture
def rotations_built(monkeypatch):
    """A list that gets, for each batch of rotations ``protocol`` asks
    ``core`` for, its kind and the number of intervals it covers:
    ("periods", len(times) - 1) per ``bloch_rotations`` call, and
    ("tails", len(starts)) per ``interval_rotations`` call, which
    ``tail_rotations`` makes for a sweep's tails."""
    built = []
    real_periods, real_tails = protocol.bloch_rotations, protocol.interval_rotations

    def periods(drive, times):
        built.append(("periods", len(times) - 1))
        return real_periods(drive, times)

    def tails(drive, times, starts, ends):
        built.append(("tails", len(starts)))
        return real_tails(drive, times, starts, ends)

    monkeypatch.setattr(protocol, "bloch_rotations", periods)
    monkeypatch.setattr(protocol, "interval_rotations", tails)
    return built


@pytest.fixture
def omega_calls(monkeypatch):
    """A list that gets the time of each ``AmplitudeModulatedDrive.omega``
    call, the fixed-axis drive's rate."""
    calls = []
    real = core.AmplitudeModulatedDrive.omega

    def omega(self, t):
        calls.append(t)
        return real(self, t)

    monkeypatch.setattr(core.AmplitudeModulatedDrive, "omega", omega)
    return calls


@pytest.fixture(scope="session")
def preset_tables():
    """``checks.preset_tables()``, built once per session; tests that shift
    a column do so on a copy."""
    return checks.preset_tables()
