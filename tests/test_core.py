"""Core state/drive/propagator tests against density-matrix references."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.integrate import quad
from scipy.linalg import expm

import dmtools
import sweep_reference
from qubitfr import core, scenarios
from qubitfr.channel import PulseChannelParams
from qubitfr.core import (AmplitudeModulatedDrive, PhaseRotatingDrive,
                          ThermalContext, bloch_rotation, check_bloch_vector,
                          free_energy_delta, gibbs_population, matmul3, matvec3,
                          partition_function, phase_integral, population_along)
from qubitfr.protocol import ProtocolConfig

OMEGA0_A = math.pi / 616.0
OMEGA0_P = 2.0 * math.pi * 0.8e-3


def random_bloch(rng, pure=False):
    v = rng.normal(size=3)
    v /= np.linalg.norm(v)
    if not pure:
        v *= rng.uniform(0.0, 1.0)
    return v


class TestValue:
    """The immutable records on ``core.Value``."""

    def test_fields_cannot_be_assigned_or_deleted(self):
        thermal = ThermalContext(1.0, 0.5)
        with pytest.raises(AttributeError):
            thermal.beta = 2.0
        with pytest.raises(AttributeError):
            thermal.extra = 2.0
        with pytest.raises(AttributeError):
            del thermal.beta_r
        assert (thermal.beta, thermal.beta_r) == (1.0, 0.5)

    def test_equality_is_by_type_and_field_values(self):
        assert PulseChannelParams(0.25, 0.0) != ThermalContext(0.25, 0.0)
        assert PulseChannelParams(0.25, 0.0) == PulseChannelParams(0.25, 0.0)
        assert PulseChannelParams(0.25, 0.0) != PulseChannelParams(0.25, 0.5)
        assert ThermalContext(1.0) == ThermalContext(1.0, 0.0)

    def test_equal_records_hash_equal_and_as_their_field_values(self):
        one, two = PhaseRotatingDrive(OMEGA0_P, 0.01), PhaseRotatingDrive(OMEGA0_P, 0.01)
        assert one is not two and hash(one) == hash(two) == hash((OMEGA0_P, 0.01))
        assert len({one, two, PhaseRotatingDrive(OMEGA0_P, 0.02)}) == 2

    def test_a_record_holding_a_dict_is_unhashable(self):
        res = scenarios.resolve(scenarios.get_preset("fig5d"))
        with pytest.raises(TypeError):
            hash(res)

    def test_repr_and_fields_follow_the_init_parameters(self):
        assert ThermalContext.fields() == ("beta", "beta_r")
        assert repr(ThermalContext(1.0)) == "ThermalContext(beta=1.0, beta_r=0.0)"
        assert ProtocolConfig.fields() == ("drive", "channel", "tau", "n_pulses",
                                           "thermal", "t_f")

    def test_replace_reruns_validation(self):
        cfg = scenarios.get_preset("fig5d")
        assert scenarios.with_overrides(cfg, p_absorb=0.5).p_absorb == 0.5
        with pytest.raises(scenarios.ConfigError, match="p_absorb"):
            scenarios.with_overrides(cfg, p_absorb=2.0)
        with pytest.raises(ValueError, match="p_pump"):
            PulseChannelParams(0.25, 0.0).replace(p_pump=-1.0)

    @pytest.mark.parametrize("name", sorted(scenarios.PRESETS))
    def test_scenario_config_round_trips_through_its_dict(self, name):
        cfg = scenarios.get_preset(name)
        assert list(cfg.to_dict()) == list(scenarios.ScenarioConfig.fields())
        assert scenarios.ScenarioConfig.from_dict(cfg.to_dict()) == cfg


class TestBlochVector:
    def test_norm_validation(self):
        check_bloch_vector(0.6, 0.0, 0.8)  # on the sphere is fine
        with pytest.raises(ValueError):
            check_bloch_vector(1.0, 0.0, 0.1)
        with pytest.raises(ValueError):
            check_bloch_vector(float("nan"), 0.0, 0.0)

    def test_population_along_checks_the_vector(self):
        assert population_along([0.6, 0.0, 0.8], (0.0, 0.0, 1.0)) == \
            pytest.approx(0.9)
        with pytest.raises(ValueError):
            population_along(np.array([1.0, 0.0, 0.1]), (0.0, 0.0, 1.0))
        with pytest.raises(ValueError):
            population_along((float("nan"), 0.0, 0.0), (1.0, 0.0, 0.0))

    def test_population_along_matches_trace_formula(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            r = random_bloch(rng)
            u = random_bloch(rng, pure=True)
            rho = dmtools.rho_from_bloch(r)
            proj = dmtools.rho_from_bloch(u)  # pure state projector
            expected = np.trace(rho @ proj).real
            got = population_along(r, tuple(u.tolist()))
            assert got == pytest.approx(expected, abs=1e-14)

    def test_poles(self):
        north, south = (0.0, 0.0, 1.0), (0.0, 0.0, -1.0)
        assert population_along(north, north) == pytest.approx(1.0)
        assert population_along(north, south) == pytest.approx(0.0)


class TestDriveSpecs:
    def test_amplitude_rate_endpoints(self):
        drive = AmplitudeModulatedDrive(OMEGA0_A, 616.0)
        assert drive.omega(0.0) == pytest.approx(OMEGA0_A)
        assert drive.omega(308.0) == pytest.approx(0.5 * OMEGA0_A)
        assert drive.omega(616.0) == pytest.approx(OMEGA0_A)

    def test_amplitude_validation(self):
        with pytest.raises(ValueError):
            AmplitudeModulatedDrive(-1.0, 616.0)
        with pytest.raises(ValueError):
            AmplitudeModulatedDrive(OMEGA0_A, 0.0)

    def test_phase_derived_quantities(self):
        theta = 2.0 * math.pi / 616.0
        drive = PhaseRotatingDrive(OMEGA0_P, theta)
        assert drive.tau_theta == pytest.approx(616.0)
        assert drive.alpha == pytest.approx(-math.atan(OMEGA0_P / theta))
        assert drive.alpha < 0.0
        assert drive.gap == pytest.approx(math.hypot(OMEGA0_P, theta))
        assert drive.gap == pytest.approx(2.0 * drive.e_theta)

    def test_phase_validation(self):
        with pytest.raises(ValueError):
            PhaseRotatingDrive(0.0, 1.0)
        with pytest.raises(ValueError):
            PhaseRotatingDrive(OMEGA0_P, -0.5)


class TestPhaseIntegral:
    def test_against_quadrature(self):
        drive = AmplitudeModulatedDrive(OMEGA0_A, 616.0)
        for t0, t1 in ((0.0, 410.0), (123.4, 2000.0), (616.0, 616.0),
                       (37.0, 38.5)):
            expected, err = quad(drive.omega, t0, t1, epsabs=1e-14)
            assert err < 1e-11
            assert phase_integral(drive, t0, t1) == pytest.approx(
                expected, abs=1e-11)

    def test_wrong_family_rejected(self):
        with pytest.raises(TypeError):
            phase_integral(PhaseRotatingDrive(OMEGA0_P, 0.01), 0.0, 1.0)


class TestBlochRotation:
    def test_rotations_are_special_orthogonal(self):
        drives = (AmplitudeModulatedDrive(OMEGA0_A, 616.0),
                  PhaseRotatingDrive(OMEGA0_P, 2.0 * math.pi / 308.0))
        for drive in drives:
            for t0, t1 in ((0.0, 500.0), (100.0, 730.5)):
                rot = np.array(bloch_rotation(drive, t0, t1))
                assert np.allclose(rot @ rot.T, np.eye(3), atol=1e-13)
                assert np.linalg.det(rot) == pytest.approx(1.0, abs=1e-13)

    def test_composition(self):
        drive = PhaseRotatingDrive(OMEGA0_P, 2.0 * math.pi / 616.0)
        full = bloch_rotation(drive, 0.0, 900.0)
        stitched = matmul3(bloch_rotation(drive, 350.0, 900.0),
                           bloch_rotation(drive, 0.0, 350.0))
        assert np.allclose(full, stitched, atol=1e-12)

    def test_reversed_interval_rejected(self):
        drive = AmplitudeModulatedDrive(OMEGA0_A, 616.0)
        with pytest.raises(ValueError):
            bloch_rotation(drive, 10.0, 5.0)

    @pytest.mark.parametrize("drive", [AmplitudeModulatedDrive(OMEGA0_A, 616.0),
                                       PhaseRotatingDrive(OMEGA0_P, 0.01)],
                             ids=["amplitude", "phase"])
    @pytest.mark.parametrize("t0, t1", [(0.0, math.nan), (math.nan, 1.0),
                                        (0.0, math.inf)])
    def test_non_finite_endpoint_rejected(self, drive, t0, t1):
        with pytest.raises(ValueError, match=rf"t0={t0!r}, t1={t1!r}"):
            bloch_rotation(drive, t0, t1)

    def test_amplitude_against_density_matrix(self):
        drive = AmplitudeModulatedDrive(OMEGA0_A, 616.0)
        rng = np.random.default_rng(11)
        for t0, t1 in ((0.0, 410.0), (205.0, 616.0), (50.0, 1100.0)):
            angle = dmtools.accumulated_angle(OMEGA0_A, 616.0, t0, t1)
            u = expm(-0.5j * angle * dmtools.SX)
            rot = bloch_rotation(drive, t0, t1)
            for _ in range(5):
                r = random_bloch(rng)
                rho = u @ dmtools.rho_from_bloch(r) @ u.conj().T
                assert np.allclose(matvec3(rot, r), dmtools.bloch_from_rho(rho),
                                   atol=1e-12)

    def test_phase_against_density_matrix(self):
        theta = 2.0 * math.pi / 616.0
        drive = PhaseRotatingDrive(OMEGA0_P, theta)
        rng = np.random.default_rng(13)
        ham = lambda t: dmtools.ham_phase(OMEGA0_P, theta, t)
        for t0, t1 in ((0.0, 616.0), (0.0, 251.7), (151.0, 1000.0)):
            u = dmtools.propagate_unitary(ham, t0, t1)
            rot = bloch_rotation(drive, t0, t1)
            for _ in range(5):
                r = random_bloch(rng)
                rho = u @ dmtools.rho_from_bloch(r) @ u.conj().T
                assert np.allclose(matvec3(rot, r), dmtools.bloch_from_rho(rho),
                                   atol=1e-9)

    def test_stroboscopic_shortcut_equals_general_path(self):
        theta = 2.0 * math.pi / 308.0
        drive = PhaseRotatingDrive(OMEGA0_P, theta)
        tau = drive.tau_theta
        direct = bloch_rotation(drive, 0.0, 3.0 * tau)
        # Splitting at a non-integer time forces the generic branch twice.
        stitched = matmul3(bloch_rotation(drive, 1.4 * tau, 3.0 * tau),
                           bloch_rotation(drive, 0.0, 1.4 * tau))
        assert np.allclose(direct, stitched, atol=1e-11)

    def test_bloch_rotation_preserves_norm(self):
        drive = PhaseRotatingDrive(OMEGA0_P, 2.0 * math.pi / 1296.0)
        r = np.array([0.36, 0.48, -0.6])
        out = matvec3(bloch_rotation(drive, 0.0, 777.0), r)
        assert np.linalg.norm(out) == pytest.approx(np.linalg.norm(r), abs=1e-13)


def same_bits(a, b):
    """Equal shape and bytes as float arrays: unlike ==, this tells 0.0
    from -0.0."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _normalized(v):
    n = math.sqrt(v[0] * v[0] + v[1] * v[1] + v[2] * v[2])
    return tuple(x / n for x in v)


COORDINATE_AXES = [(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0),
                   (-1.0, 0.0, 0.0), (0.0, -1.0, 0.0), (0.0, 0.0, -1.0),
                   (1.0, -0.0, 0.0), (1.0, 0.0, -0.0)]
unit_axes = (st.sampled_from(COORDINATE_AXES)
             | st.tuples(*[st.floats(-1.0, 1.0)] * 3)
             .filter(lambda v: max(map(abs, v)) > 1e-3).map(_normalized))
# cos > 0, cos < 0, and anything a long drive window can produce.
angles = (st.floats(-1.5, 1.5) | st.floats(1.65, 4.6) | st.floats(-4.6, -1.65)
          | st.floats(-1e5, 1e5))


class TestRotationBuilder:
    """The element-wise, memoized Rodrigues builder against the numpy array
    expression it replaced, compared bit for bit (signed zeros included)."""

    @given(axis=unit_axes, angle=angles)
    def test_axis_angle_bits_match_reference(self, axis, angle):
        built = core._axis_angle(*axis, angle)
        assert same_bits(built, sweep_reference.axis_angle(np.array(axis), angle))

    def test_signed_zero_axes_are_cached_apart(self):
        for axis in ((1.0, 0.0, 0.0), (1.0, -0.0, 0.0), (1.0, 0.0, -0.0)):
            for angle in (2.5, -2.5, 0.0, -0.0):
                assert same_bits(core._axis_angle(*axis, angle),
                                 sweep_reference.axis_angle(np.array(axis), angle))

    @given(family=st.sampled_from(["amplitude", "phase"]),
           period=st.floats(200.0, 2000.0),
           n0=st.integers(0, 600), n1=st.integers(0, 40),
           f0=st.just(0.0) | st.floats(0.0, 0.999),
           f1=st.just(0.0) | st.floats(0.0, 0.999))
    def test_bloch_rotation_bits_match_reference(self, family, period, n0, n1,
                                                 f0, f1):
        """f0 = f1 = 0 puts both endpoints on whole drive periods."""
        if family == "amplitude":
            drive = AmplitudeModulatedDrive(OMEGA0_A, period)
        else:
            drive = PhaseRotatingDrive(OMEGA0_P, 2.0 * math.pi / period)
        t0 = (n0 + f0) * period
        t1 = t0 + (n1 + f1) * period
        assert same_bits(bloch_rotation(drive, t0, t1),
                         sweep_reference.bloch_rotation(drive, t0, t1))

    @pytest.mark.parametrize("drive", [AmplitudeModulatedDrive(OMEGA0_A, 616.0),
                                       PhaseRotatingDrive(OMEGA0_P, 2.0 * math.pi / 616.0)],
                             ids=["amplitude", "phase"])
    @pytest.mark.parametrize("t0, t1", [(0.0, 616.0), (1848.0, 3080.0),
                                        (0.0, 251.7), (151.0, 1000.0)])
    def test_bloch_rotation_endpoints(self, drive, t0, t1):
        assert same_bits(bloch_rotation(drive, t0, t1),
                         sweep_reference.bloch_rotation(drive, t0, t1))

    def test_matrices_are_read_only_and_repeatable(self):
        first = core._axis_angle(0.6, 0.0, -0.8, 2.0)
        with pytest.raises(TypeError):
            first[0, 0] = 1.0
        assert same_bits(first, core._axis_angle(0.6, 0.0, -0.8, 2.0))
        assert same_bits(first, sweep_reference.axis_angle(
            np.array([0.6, 0.0, -0.8]), 2.0))
        drive = PhaseRotatingDrive(OMEGA0_P, 2.0 * math.pi / 616.0)
        per_period = bloch_rotation(drive, 616.0, 1232.0)
        with pytest.raises(TypeError):
            per_period[1, 2] = 0.0
        assert same_bits(per_period, bloch_rotation(drive, 616.0, 1232.0))


class TestEigensystem:
    def test_amplitude_matches_hamiltonian_diagonalization(self):
        # One fixed basis diagonalizes H(t) at every t; only the levels move.
        drive = AmplitudeModulatedDrive(OMEGA0_A, 616.0)
        up, down = drive.basis
        for t in (0.0, 170.0, 308.0, 616.0):
            upper, lower, e_up, e_dn = dmtools.projectors_from_ham(
                dmtools.ham_amplitude(OMEGA0_A, 616.0, t))
            assert drive.level(t) == pytest.approx(e_up, abs=1e-15)
            assert -drive.level(t) == pytest.approx(e_dn, abs=1e-15)
            assert np.allclose(dmtools.rho_from_bloch(np.array(up)), upper,
                               atol=1e-12)
            assert np.allclose(dmtools.rho_from_bloch(np.array(down)), lower,
                               atol=1e-12)

    def test_phase_basis_is_rotating_frame_eigensystem(self):
        theta = 2.0 * math.pi / 616.0
        drive = PhaseRotatingDrive(OMEGA0_P, theta)
        h_eff = 0.5 * (OMEGA0_P * dmtools.SX - theta * dmtools.SZ)
        upper, lower, e_up, e_dn = dmtools.projectors_from_ham(h_eff)
        up, down = drive.basis
        for t in (0.0, 100.0, 616.0):
            assert drive.level(t) == pytest.approx(e_up, abs=1e-15)
            assert -drive.level(t) == pytest.approx(e_dn, abs=1e-15)
            assert np.allclose(dmtools.rho_from_bloch(np.array(up)), upper,
                               atol=1e-12)

    def test_phase_upper_level_leans_south(self):
        # Pumping toward |0> (north) must depopulate the upper level, so
        # the upper basis state carries a negative z-component.
        up, down = PhaseRotatingDrive(OMEGA0_P, 2.0 * math.pi / 1296.0).basis
        assert up[2] < 0.0
        assert down[2] > 0.0

    def test_basis_states_are_antipodal(self):
        for drive in (AmplitudeModulatedDrive(OMEGA0_A, 616.0),
                      PhaseRotatingDrive(OMEGA0_P, 0.01)):
            up, down = drive.basis
            assert down == tuple(-x for x in up)
            assert math.hypot(*up) == pytest.approx(1.0, abs=1e-14)
        # The amplitude lower axis is written out, so its zeros are +0.0.
        _, down = AmplitudeModulatedDrive(OMEGA0_A, 616.0).basis
        assert [math.copysign(1.0, x) for x in down[1:]] == [1.0, 1.0]


class TestThermodynamics:
    def test_partition_function_against_matrix_exponential(self):
        drive = AmplitudeModulatedDrive(OMEGA0_A, 616.0)
        beta = 2.0 / OMEGA0_A
        for t in (0.0, 205.0, 410.0):
            z_matrix = np.trace(expm(
                -beta * dmtools.ham_amplitude(OMEGA0_A, 616.0, t))).real
            assert partition_function(beta, drive, t) == pytest.approx(
                z_matrix, rel=1e-12)

    def test_gibbs_population_against_matrix_exponential(self):
        drive = AmplitudeModulatedDrive(OMEGA0_A, 616.0)
        beta = 2.0 / OMEGA0_A
        for t in (0.0, 150.0):
            ham = dmtools.ham_amplitude(OMEGA0_A, 616.0, t)
            rho = expm(-beta * ham)
            rho /= np.trace(rho).real
            upper, _, _, _ = dmtools.projectors_from_ham(ham)
            expected = np.trace(rho @ upper).real
            assert gibbs_population(beta, drive, t) == pytest.approx(
                expected, abs=1e-14)

    def test_gibbs_population_limits(self):
        drive = AmplitudeModulatedDrive(OMEGA0_A, 616.0)
        assert gibbs_population(0.0, drive, 0.0) == pytest.approx(0.5)
        assert gibbs_population(1e6, drive, 0.0) < 1e-10

    def test_free_energy_delta(self):
        drive = AmplitudeModulatedDrive(OMEGA0_A, 616.0)
        beta = 2.0 / OMEGA0_A
        t_f = 205.0
        expected = -math.log(partition_function(beta, drive, t_f)
                             / partition_function(beta, drive, 0.0)) / beta
        assert free_energy_delta(beta, drive, t_f) == pytest.approx(expected)
        # Whole modulation periods restore the spectrum.
        assert free_energy_delta(beta, drive, 616.0) == pytest.approx(
            0.0, abs=1e-15)
        with pytest.raises(ValueError):
            free_energy_delta(0.0, drive, 205.0)

    def test_thermal_context_validation(self):
        ThermalContext(0.0)
        ThermalContext(2.0 / OMEGA0_A, beta_r=-1.0)
        with pytest.raises(ValueError):
            ThermalContext(float("inf"))
