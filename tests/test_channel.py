"""Pulse channel tests: mean map (one ``pulse_train`` step), fixed point,
inversion."""

import math
import re

import numpy as np
import pytest

import dmtools
from qubitfr import channel
from qubitfr.channel import (DegenerateChannelError, PulseChannelParams,
                             invert_pump_probability, stationary_upper_population)
from qubitfr.core import (AmplitudeModulatedDrive, PhaseRotatingDrive, ThermalContext,
                          bloch_rotation, matvec3)
from qubitfr.protocol import Sweep, pulse_train

OMEGA0_P = 2.0 * math.pi * 0.8e-3


def phase_drive(tau_theta):
    return PhaseRotatingDrive(OMEGA0_P, 2.0 * math.pi / tau_theta)


# The drive period of a one-pulse step, off the drive's own period of 616 ns.
STEP_DRIVE = phase_drive(616.0)
STEP_TAU = 410.0


def rotate_then_pulse(r, pa, pd):
    """(``pulse_train``'s state after one step from r, the test's own
    rotation of r over that step's period): the step's pulse acts on the
    second."""
    sweep = Sweep(STEP_DRIVE, PulseChannelParams(pa, pd), STEP_TAU,
                  ThermalContext(0.0), (STEP_TAU,))
    rotated = matvec3(bloch_rotation(STEP_DRIVE, 0.0, STEP_TAU), r)
    return pulse_train(sweep, [r], [1])[0][0], rotated


def iterated_upper_population(tau_theta, pa, pd, periods=400):
    """Upper population, in the dressed basis measured at t = 0, of the
    density-matrix period map (drive for one period, then pulse) iterated
    from the maximally mixed state."""
    theta = 2.0 * math.pi / tau_theta
    u = dmtools.propagate_unitary(lambda t: dmtools.ham_phase(OMEGA0_P, theta, t),
                                  0.0, tau_theta)
    rho = dmtools.rho_from_bloch([0.0, 0.0, 0.0])
    for _ in range(periods):
        rho = dmtools.pulse_dm(u @ rho @ u.conj().T, pa, pd)
    h_eff = 0.5 * (OMEGA0_P * dmtools.SX - theta * dmtools.SZ)
    upper, _, _, _ = dmtools.projectors_from_ham(h_eff)
    return np.trace(rho @ upper).real


class TestParams:
    def test_bounds(self):
        PulseChannelParams(0.0, 1.0)
        with pytest.raises(ValueError):
            PulseChannelParams(1.2, 0.5)
        with pytest.raises(ValueError):
            PulseChannelParams(0.5, -0.1)
        with pytest.raises(ValueError):
            PulseChannelParams(float("nan"), 0.5)


class TestMeanMap:
    def test_against_density_matrix_channel(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            v = rng.normal(size=3)
            v *= rng.uniform(0.0, 1.0) / np.linalg.norm(v)
            pa, pd = rng.uniform(0.0, 1.0, size=2)
            out, rotated = rotate_then_pulse(v, pa, pd)
            rho = dmtools.pulse_dm(dmtools.rho_from_bloch(rotated), pa, pd)
            assert np.allclose(out, dmtools.bloch_from_rho(rho), atol=1e-14)

    def test_identity_when_never_absorbed(self):
        out, rotated = rotate_then_pulse((0.2, -0.4, 0.3), 0.0, 0.7)
        assert out == rotated

    def test_always_absorbed_full_pump_resets_north(self):
        out, _ = rotate_then_pulse([0.5, 0.5, -0.5], 1.0, 1.0)
        assert np.allclose(out, [0.0, 0.0, 1.0], atol=1e-15)

    def test_north_pole_invariant(self):
        # The rotation's last row is the start it carries to the north pole.
        start = bloch_rotation(STEP_DRIVE, 0.0, STEP_TAU)[2]
        for pd in (0.0, 0.3, 1.0):
            out, rotated = rotate_then_pulse(start, 0.6, pd)
            assert np.allclose(rotated, [0.0, 0.0, 1.0], atol=1e-15)
            assert np.allclose(out, [0.0, 0.0, 1.0], atol=1e-15)

    def test_contracts_into_unit_ball(self):
        out, _ = rotate_then_pulse([0.6, 0.0, 0.8], 0.4, 0.25)
        assert np.linalg.norm(out) <= 1.0 + 1e-12


class TestFixedPoint:
    @pytest.mark.parametrize("tau_theta,pd", [(616.0, 0.45), (1296.0, 0.5184)])
    def test_equals_iterated_period_map(self, tau_theta, pd):
        # The direct solve against the attractor of the density-matrix
        # period map, reached by iteration from the maximally mixed state.
        drive = phase_drive(tau_theta)
        got = stationary_upper_population(drive, PulseChannelParams(0.25, pd),
                                          drive.tau_theta)
        assert got == pytest.approx(iterated_upper_population(tau_theta, 0.25, pd),
                                    abs=1e-10)

    def test_amplitude_fixed_point_is_center_axis(self):
        # Full pump failure (p_pump = 0) leaves only the isotropic decay
        # toward the maximally mixed state.
        drive = AmplitudeModulatedDrive(math.pi / 616.0, 616.0)
        pop = stationary_upper_population(drive, PulseChannelParams(0.25, 0.0), 410.0)
        assert pop == pytest.approx(0.5, abs=1e-12)

    def test_degenerate_without_absorption(self):
        with pytest.raises(DegenerateChannelError):
            stationary_upper_population(phase_drive(616.0),
                                        PulseChannelParams(0.0, 0.5), 616.0)

    def test_fixed_point_outside_the_ball_raises(self, monkeypatch):
        # A closed form with m = 1 puts the fixed point at p_pump (pa g) =
        # (0, 0, b_z); held to a period map with no linear part and offset
        # (0, 0, b_z), its residual is 0, so only the norm check can reject
        # it.  Inside the ball it reads 0.5 (1 + p_pump a), a = u . (pa g).
        drive = phase_drive(616.0)
        params = PulseChannelParams(0.25, 0.5)
        zero = ((0.0,) * 3,) * 3
        uz = drive.basis[0][2]
        for bz in (1.0 + 1e-9, -1.5, 1.0, -0.3):
            monkeypatch.setattr(channel, "_closed_form",
                                lambda *args, bz=bz: ((0.0, 0.0, 2.0 * bz), 2.0 * bz * uz, 1.0))
            monkeypatch.setattr(channel, "period_map",
                                lambda *args, bz=bz: (zero, (0.0, 0.0, bz)))
            if abs(bz) <= 1.0:
                assert stationary_upper_population(drive, params, 616.0) == \
                    0.5 * (1.0 + 0.5 * (2.0 * bz * uz) / 1.0)
                continue
            with pytest.raises(DegenerateChannelError) as info:
                stationary_upper_population(drive, params, 616.0)
            assert str(info.value) == (
                "p_absorb = 0.25, p_pump = 0.5, tau = 616.0: the fixed point has "
                f"norm {math.sqrt(bz * bz)!r} (at most 1)")

    def test_residual_past_tolerance_names_only_the_residual(self, monkeypatch):
        # Held to the period map of another pump, the fixed point is far
        # from fixed but inside the ball.
        drive = phase_drive(616.0)
        real = channel.period_map
        monkeypatch.setattr(channel, "period_map", lambda d, params, tau: real(
            d, params.replace(p_pump=0.1), tau))
        with pytest.raises(DegenerateChannelError) as info:
            stationary_upper_population(drive, PulseChannelParams(0.25, 0.5), 616.0)
        assert re.fullmatch(r"p_absorb = 0\.25, p_pump = 0\.5, tau = 616\.0: the fixed "
                            r"point has residual \d\.\d{3}e-\d\d \(at most 1e-12\)",
                            str(info.value)), str(info.value)

    def test_nan_fixed_point_names_both_bounds(self, monkeypatch):
        monkeypatch.setattr(channel, "_closed_form",
                            lambda *args: ((math.nan,) * 3, math.nan, 1.0))
        with pytest.raises(DegenerateChannelError) as info:
            stationary_upper_population(phase_drive(616.0), PulseChannelParams(0.25, 0.5),
                                        616.0)
        assert str(info.value).endswith(
            "the fixed point has residual nan (at most 1e-12) and norm nan (at most 1)")

    def test_stronger_pump_lowers_upper_population(self):
        drive = phase_drive(616.0)
        tau = drive.tau_theta
        pops = [stationary_upper_population(drive, PulseChannelParams(0.25, pd),
                                            tau)
                for pd in (0.1, 0.4, 0.8)]
        assert pops[0] > pops[1] > pops[2]
        assert all(0.0 < p < 0.5 for p in pops)


class TestInversion:
    @pytest.mark.parametrize("p_absorb", [0.25, 0.05, 1.0])
    @pytest.mark.parametrize("tau_theta,target", [(1296.0, 0.276),
                                                  (616.0, 0.138),
                                                  (308.0, 0.050)])
    def test_round_trip(self, tau_theta, target, p_absorb):
        drive = phase_drive(tau_theta)
        pd = invert_pump_probability(drive, p_absorb, drive.tau_theta, target)
        assert 0.0 < pd < 1.0
        achieved = stationary_upper_population(
            drive, PulseChannelParams(p_absorb, pd), drive.tau_theta)
        assert achieved == pytest.approx(target, abs=1e-12)

    def test_no_absorption_is_degenerate(self):
        drive = phase_drive(616.0)
        with pytest.raises(DegenerateChannelError):
            invert_pump_probability(drive, 0.0, drive.tau_theta, 0.138)

    def test_unreachable_target_raises(self):
        drive = phase_drive(616.0)
        with pytest.raises(ValueError, match="not"):
            # Pumping can only push the upper population below 1/2.
            invert_pump_probability(drive, 0.25, drive.tau_theta, 0.9)

    def test_tiny_pump_far_above_resonance_reaches_its_plateau(self):
        # At theta >> omega0 the pump is 1.3552294089568873e-22 (a 50-digit
        # solve on the same float angles); Cramer's rule rounded it to 0,
        # whose plateau is 1/2, and rejected the inversion.
        drive = PhaseRotatingDrive(0.9459512814479974, 1e4)
        pa, target = 0.6937820608755615, 0.033059807879091796
        pd = invert_pump_probability(drive, pa, drive.tau_theta, target)
        assert pd == pytest.approx(1.3552294089568873e-22, rel=1e-12, abs=0.0)
        plateau = stationary_upper_population(drive, PulseChannelParams(pa, pd),
                                              drive.tau_theta)
        assert abs(plateau - target) <= channel.PLATEAU_TOL

    def test_degenerate_probability_rejected(self):
        drive = phase_drive(616.0)
        for bad in (0.0, 1.0, -0.2):
            with pytest.raises(ValueError):
                invert_pump_probability(drive, 0.25, drive.tau_theta, bad)
