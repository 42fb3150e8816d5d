"""Closed-form oracle tests, cross-validated with density matrices."""

import math

import numpy as np
import pytest
from scipy.linalg import expm

import dmtools
from qubitfr.channel import PulseChannelParams
from qubitfr.core import (AmplitudeModulatedDrive, PhaseRotatingDrive,
                          QubitState, ThermalContext, free_energy_delta,
                          gibbs_population)
from qubitfr.oracle import (WorkHeatSeries, floquet_asymptote,
                            floquet_population_recursion,
                            floquet_recursion_gap, invert_pump_closed_form,
                            irreversible_work_relative_entropy, k_factor,
                            k_factor_projective, mean_heat_phase,
                            population_after_n_pulses, rabi_conditional,
                            w_irr, work_heat_series_amplitude)
from qubitfr.protocol import ProtocolConfig

OMEGA0_A = math.pi / 616.0
OMEGA0_P = 2.0 * math.pi * 0.8e-3
BETA_A = 2.0 / OMEGA0_A


def amplitude_config(tau=410.0, n_pulses=4, t_f=None, pa=0.25):
    drive = AmplitudeModulatedDrive(OMEGA0_A, 616.0)
    return ProtocolConfig(drive, PulseChannelParams(pa, 0.0), tau, n_pulses,
                          ThermalContext(BETA_A), t_f=t_f)


def phase_config(tau_theta=616.0, n_pulses=5, pd=0.45, beta=0.0):
    drive = PhaseRotatingDrive(OMEGA0_P, 2.0 * math.pi / tau_theta)
    return ProtocolConfig(drive, PulseChannelParams(0.25, pd), tau_theta,
                          n_pulses, ThermalContext(beta))


class TestPopulationAfterPulses:
    def test_halves_distance_to_center(self):
        assert population_after_n_pulses(1.0, 0.5, 1) == pytest.approx(0.75)
        assert population_after_n_pulses(0.0, 0.5, 2) == pytest.approx(0.375)

    def test_limits(self):
        assert population_after_n_pulses(0.31, 0.25, 0) == pytest.approx(0.31)
        assert population_after_n_pulses(0.9, 0.25, 400) == pytest.approx(0.5)

    def test_validation(self):
        with pytest.raises(ValueError):
            population_after_n_pulses(1.4, 0.25, 1)
        with pytest.raises(ValueError):
            population_after_n_pulses(0.5, -0.1, 1)
        with pytest.raises(ValueError):
            population_after_n_pulses(0.5, 0.25, -1)


class TestWorkHeatSeries:
    def test_totals_validated_against_parts(self):
        with pytest.raises(ValueError):
            WorkHeatSeries(np.array([1.0]), np.array([0.5]), tail_w=0.0,
                           mean_w=2.0, mean_q=0.5)

    def test_against_density_matrix_bookkeeping(self):
        tau, n_pulses = 410.0, 4
        t_f = n_pulses * tau + 150.0
        pc = amplitude_config(tau=tau, n_pulses=n_pulses, t_f=t_f)
        series = work_heat_series_amplitude(pc)

        ham = lambda t: dmtools.ham_amplitude(OMEGA0_A, 616.0, t)
        rho = expm(-BETA_A * ham(0.0))
        rho /= np.trace(rho).real

        def drift(rho, t0, t1):
            angle = dmtools.accumulated_angle(OMEGA0_A, 616.0, t0, t1)
            u = expm(-0.5j * angle * dmtools.SX)
            return u @ rho @ u.conj().T

        work = []
        heat = []
        for n in range(1, n_pulses + 1):
            before = dmtools.mean_energy(rho, ham((n - 1) * tau))
            rho = drift(rho, (n - 1) * tau, n * tau)
            drifted = dmtools.mean_energy(rho, ham(n * tau))
            rho = dmtools.pulse_dm(rho, 0.25, 0.0)
            after = dmtools.mean_energy(rho, ham(n * tau))
            work.append(drifted - before)
            heat.append(after - drifted)
        tail_before = dmtools.mean_energy(rho, ham(n_pulses * tau))
        rho = drift(rho, n_pulses * tau, t_f)
        tail_w = dmtools.mean_energy(rho, ham(t_f)) - tail_before

        assert series.per_pulse_w.tolist() == pytest.approx(work, abs=1e-15)
        assert series.per_pulse_q.tolist() == pytest.approx(heat, abs=1e-15)
        assert series.tail_w == pytest.approx(tail_w, abs=1e-15)
        assert series.mean_w == pytest.approx(sum(work) + tail_w, abs=1e-15)
        assert series.mean_q == pytest.approx(sum(heat), abs=1e-15)

    def test_totals_at_last_pulse_have_no_tail(self):
        pc = amplitude_config(tau=410.0, n_pulses=3)
        series = work_heat_series_amplitude(pc)
        assert series.per_pulse_w.size == series.per_pulse_q.size == 3
        assert series.tail_w == 0.0
        assert series.mean_w == pytest.approx(series.per_pulse_w.sum())
        assert series.mean_q == pytest.approx(series.per_pulse_q.sum())

    def test_rejects_rotating_drive(self):
        with pytest.raises(TypeError):
            work_heat_series_amplitude(phase_config())

    def test_no_pulses_is_pure_work(self):
        pc = amplitude_config(tau=410.0, n_pulses=0, t_f=200.0)
        series = work_heat_series_amplitude(pc)
        assert series.per_pulse_w.size == 0
        assert series.mean_q == 0.0
        mean_sx = 2.0 * gibbs_population(BETA_A, pc.drive, 0.0) - 1.0
        expected = 0.5 * (pc.drive.omega(200.0) - pc.drive.omega(0.0)) * mean_sx
        assert series.mean_w == pytest.approx(expected)
        assert series.mean_w > 0.0  # rate drops while <sigma_x> is negative


class TestPulseStrengthFactor:
    def test_reference_values(self):
        assert k_factor(0.5, -math.pi / 4) == pytest.approx(1.25)
        assert k_factor_projective(0.5, -math.pi / 4) == pytest.approx(0.75)

    def test_readings_are_complementary(self):
        for pd in (0.1, 0.45, 0.9):
            alpha = -0.3
            assert k_factor(pd, alpha) + k_factor_projective(pd, alpha) == \
                pytest.approx(2.0)

    def test_full_pump_collapses_both_readings(self):
        assert k_factor(1.0, -0.8) == pytest.approx(1.0)
        assert k_factor_projective(1.0, -0.8) == pytest.approx(1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            k_factor(1.5, -0.3)
        with pytest.raises(ValueError):
            k_factor_projective(-0.1, -0.3)


class TestFloquetRecursion:
    def test_asymptote_reference_value(self):
        assert floquet_asymptote(0.5, -math.pi / 4) == pytest.approx(
            0.5 * (1.0 - (0.5 / 1.25) * math.cos(-math.pi / 4)))

    def test_no_pump_asymptote_is_half(self):
        assert floquet_asymptote(0.0, -0.7) == pytest.approx(0.5)

    def test_recursion_endpoints(self):
        args = (0.9, 0.25, 0.45, -0.3)
        assert floquet_population_recursion(*args, 0) == pytest.approx(0.9)
        assert floquet_population_recursion(*args, 4000) == pytest.approx(
            floquet_asymptote(0.45, -0.3))

    def test_single_step_is_affine(self):
        p0, pa, pd, alpha = 0.3, 0.25, 0.45, -0.3
        k = k_factor(pd, alpha)
        expected = ((1.0 - pa * k) * p0
                    + pa * k * floquet_asymptote(pd, alpha))
        assert floquet_population_recursion(p0, pa, pd, alpha, 1) == \
            pytest.approx(expected, abs=1e-15)

    def test_warns_outside_contraction_regime(self):
        # p_absorb * k > 1 flips the sign of the damping factor.
        with pytest.warns(UserWarning, match="contraction"):
            floquet_population_recursion(0.5, 0.9, 0.1, -1.2, 3)

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            floquet_population_recursion(0.5, 0.25, 0.45, -0.3, -1)


class TestClosedFormInversion:
    @pytest.mark.parametrize("projective", [False, True])
    @pytest.mark.parametrize("target,alpha", [(0.276, -0.8), (0.138, -0.458),
                                              (0.050, -0.2415)])
    def test_round_trip_through_asymptote(self, target, alpha, projective):
        pd = invert_pump_closed_form(target, alpha, projective=projective)
        k = (k_factor_projective(pd, alpha) if projective
             else k_factor(pd, alpha))
        assert floquet_asymptote(pd, alpha, k) == pytest.approx(target,
                                                                abs=1e-12)

    def test_singular_denominator_rejected(self):
        # excess * cos(alpha) = -1 makes the default-reading denominator
        # exactly zero.
        with pytest.raises(ValueError):
            invert_pump_closed_form(1.0, 0.0)

    def test_near_perpendicular_axis_escapes_unit_interval(self):
        # cos(-pi/2) is only float-zero-ish; the documented contract is
        # that out-of-range results are the caller's job to reject.
        assert abs(invert_pump_closed_form(0.3, -math.pi / 2)) > 1.0


class TestPhaseHeat:
    def test_matches_gap_times_population_change(self):
        pc = phase_config(tau_theta=616.0, n_pulses=7, pd=0.45, beta=40.0)
        drive = pc.drive
        p0 = gibbs_population(pc.thermal.beta, drive, 0.0)
        p_n = floquet_population_recursion(p0, 0.25, 0.45, drive.alpha, 7)
        assert mean_heat_phase(pc) == pytest.approx(
            drive.gap * (p_n - p0), abs=1e-15)

    def test_no_pulses_no_heat(self):
        assert mean_heat_phase(phase_config(n_pulses=0)) == 0.0

    def test_rejects_fixed_axis_drive(self):
        with pytest.raises(TypeError):
            mean_heat_phase(amplitude_config())


class TestRabiConditional:
    def test_whole_periods_return_to_one(self):
        theta = 2.0 * math.pi / 616.0
        for n in (0, 1, 2, 5):
            assert rabi_conditional(OMEGA0_P, theta, n * 616.0) == \
                pytest.approx(1.0, abs=1e-12)

    def test_half_period_minimum(self):
        theta = 2.0 * math.pi / 616.0
        weight = OMEGA0_P ** 2 / (OMEGA0_P ** 2 + theta ** 2)
        assert rabi_conditional(OMEGA0_P, theta, 308.0) == pytest.approx(
            1.0 - weight)

    def test_against_density_matrix_evolution(self):
        theta = 2.0 * math.pi / 616.0
        ham = lambda t: dmtools.ham_phase(OMEGA0_P, theta, t)
        h_eff = 0.5 * (OMEGA0_P * dmtools.SX - theta * dmtools.SZ)
        up, _, _, _ = dmtools.projectors_from_ham(h_eff)
        for t in (123.0, 450.0, 616.0, 911.0):
            u = dmtools.propagate_unitary(ham, 0.0, t)
            survived = np.trace(u @ up @ u.conj().T @ up).real
            assert rabi_conditional(OMEGA0_P, theta, t) == pytest.approx(
                survived, abs=1e-9)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            rabi_conditional(OMEGA0_P, 0.01, -1.0)


class TestRecursionGap:
    def test_exact_at_zero_pulses(self):
        gaps = floquet_recursion_gap(phase_config(n_pulses=6))
        assert gaps.shape == (7,)
        assert gaps[0] == pytest.approx(0.0, abs=1e-15)

    def test_projective_reading_tracks_map_more_closely(self):
        pc = phase_config(tau_theta=616.0, n_pulses=50, pd=0.4498)
        kp = k_factor_projective(0.4498, pc.drive.alpha)
        gap_default = floquet_recursion_gap(pc).max()
        gap_projective = floquet_recursion_gap(pc, k=kp).max()
        assert gap_projective < gap_default

    def test_rejects_fixed_axis_drive(self):
        with pytest.raises(TypeError):
            floquet_recursion_gap(amplitude_config())


class TestIrreversibleWork:
    def test_vanishes_at_cycle_boundaries(self):
        drive = AmplitudeModulatedDrive(OMEGA0_A, 616.0)
        assert w_irr(BETA_A, drive, 0.0) == pytest.approx(0.0, abs=1e-18)
        assert w_irr(BETA_A, drive, 616.0) == pytest.approx(0.0, abs=1e-15)

    def test_positive_inside_the_cycle(self):
        drive = AmplitudeModulatedDrive(OMEGA0_A, 616.0)
        assert w_irr(BETA_A, drive, 308.0) > 0.0

    def test_equals_relative_entropy_form(self):
        drive = AmplitudeModulatedDrive(OMEGA0_A, 616.0)
        for t_f in (100.0, 308.0, 500.0):
            assert w_irr(BETA_A, drive, t_f) == pytest.approx(
                irreversible_work_relative_entropy(BETA_A, drive, t_f),
                abs=1e-16)

    def test_definition(self):
        drive = AmplitudeModulatedDrive(OMEGA0_A, 616.0)
        t_f = 212.0
        d0 = 2.0 * gibbs_population(BETA_A, drive, 0.0) - 1.0
        mean_w = 0.5 * (drive.omega(t_f) - drive.omega(0.0)) * d0
        assert w_irr(BETA_A, drive, t_f) == pytest.approx(
            mean_w - free_energy_delta(BETA_A, drive, t_f), abs=1e-18)

    def test_rejects_rotating_drive(self):
        drive = PhaseRotatingDrive(OMEGA0_P, 0.01)
        with pytest.raises(TypeError):
            w_irr(1.0, drive, 100.0)
        with pytest.raises(TypeError):
            irreversible_work_relative_entropy(1.0, drive, 100.0)

    def test_relative_entropy_undefined_at_infinite_temperature(self):
        drive = AmplitudeModulatedDrive(OMEGA0_A, 616.0)
        with pytest.raises(ValueError):
            irreversible_work_relative_entropy(0.0, drive, 100.0)
