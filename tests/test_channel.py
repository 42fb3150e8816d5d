"""Pulse channel tests: mean map, fixed point, inversion."""

import math

import numpy as np
import pytest

import dmtools
from qubitfr.channel import (DegenerateChannelError, PulseChannelParams,
                             apply_pulse_map, channel_fixed_point,
                             invert_pump_probability,
                             stationary_upper_population)
from qubitfr.core import (AmplitudeModulatedDrive, PhaseRotatingDrive,
                          QubitState, bloch_rotation, instantaneous_eigensystem)

OMEGA0_P = 2.0 * math.pi * 0.8e-3


def phase_drive(tau_theta):
    return PhaseRotatingDrive(OMEGA0_P, 2.0 * math.pi / tau_theta)


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
            state = QubitState.from_array(v)
            out = apply_pulse_map(state, PulseChannelParams(pa, pd))
            rho = dmtools.pulse_dm(dmtools.rho_from_bloch(v), pa, pd)
            assert np.allclose(out.as_array(), dmtools.bloch_from_rho(rho),
                               atol=1e-14)

    def test_identity_when_never_absorbed(self):
        state = QubitState(0.2, -0.4, 0.3)
        out = apply_pulse_map(state, PulseChannelParams(0.0, 0.7))
        assert out == state

    def test_always_absorbed_full_pump_resets_north(self):
        out = apply_pulse_map(QubitState(0.5, 0.5, -0.5),
                              PulseChannelParams(1.0, 1.0))
        assert np.allclose(out.as_array(), [0.0, 0.0, 1.0], atol=1e-15)

    def test_north_pole_invariant(self):
        north = QubitState(0.0, 0.0, 1.0)
        for pd in (0.0, 0.3, 1.0):
            out = apply_pulse_map(north, PulseChannelParams(0.6, pd))
            assert np.allclose(out.as_array(), [0.0, 0.0, 1.0], atol=1e-15)

    def test_contracts_into_unit_ball(self):
        state = QubitState(0.6, 0.0, 0.8)
        out = apply_pulse_map(state, PulseChannelParams(0.4, 0.25))
        assert out.norm() <= 1.0 + 1e-12


class TestFixedPoint:
    def test_invariant_under_period_map(self):
        drive = phase_drive(616.0)
        params = PulseChannelParams(0.25, 0.45)
        tau = drive.tau_theta
        fp = channel_fixed_point(drive, params, tau)
        rolled = apply_pulse_map(QubitState.from_array(
            bloch_rotation(drive, 0.0, tau) @ fp.as_array()), params)
        assert np.allclose(rolled.as_array(), fp.as_array(), atol=1e-12)

    def test_amplitude_fixed_point_is_center_axis(self):
        # Full pump failure (p_pump = 0) leaves only the isotropic decay
        # toward the maximally mixed state.
        drive = AmplitudeModulatedDrive(math.pi / 616.0, 616.0)
        fp = channel_fixed_point(drive, PulseChannelParams(0.25, 0.0), 410.0)
        assert fp.norm() == pytest.approx(0.0, abs=1e-12)

    def test_degenerate_without_absorption(self):
        with pytest.raises(DegenerateChannelError):
            channel_fixed_point(phase_drive(616.0),
                                PulseChannelParams(0.0, 0.5), 616.0)

    def test_stationary_population_matches_projection(self):
        drive = phase_drive(1296.0)
        params = PulseChannelParams(0.25, 0.5184)
        fp = channel_fixed_point(drive, params, drive.tau_theta)
        eig = instantaneous_eigensystem(drive, 0.0)
        expected = 0.5 * (1.0 + float(fp.as_array()
                                      @ eig.basis_plus.as_array()))
        got = stationary_upper_population(drive, params, drive.tau_theta)
        assert got == pytest.approx(expected, abs=1e-15)

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

    def test_degenerate_probability_rejected(self):
        drive = phase_drive(616.0)
        for bad in (0.0, 1.0, -0.2):
            with pytest.raises(ValueError):
                invert_pump_probability(drive, 0.25, drive.tau_theta, bad)
