"""Two-point protocol tests: pulse counting, conditional matrices against
density-matrix propagation, energy-change distributions and functionals."""

import math

import numpy as np
import pytest
from scipy.linalg import expm

import dmtools
import sweep_reference
from qubitfr import scenarios
from qubitfr.channel import PulseChannelParams
from qubitfr.core import (AmplitudeModulatedDrive, PhaseRotatingDrive,
                          ThermalContext, gibbs_population)
from qubitfr.oracle import population_after_n_pulses
from qubitfr.protocol import (ConditionalMatrix, Sweep,
                              beta_reservoir, conditional_fixed_point,
                              conditional_matrices, conditional_matrix,
                              energy_change_distribution, energy_changes,
                              final_states, fr_functional, fr_targets, mean,
                              pulse_train, pulses_applied, sweep_levels)

OMEGA0_A = math.pi / 616.0
OMEGA0_P = 2.0 * math.pi * 0.8e-3


def amplitude_config(tau=410.0, n_pulses=3, t_f=None, beta=None, pa=0.25):
    """One run, a one-time sweep: at most ``n_pulses`` pulses, then a coast
    to ``t_f``, by default the last pulse."""
    drive = AmplitudeModulatedDrive(OMEGA0_A, 616.0)
    beta = 2.0 / OMEGA0_A if beta is None else beta
    t_f = n_pulses * tau if t_f is None else t_f
    return Sweep(drive, PulseChannelParams(pa, 0.0), tau, ThermalContext(beta),
                 (t_f,), n_pulses)


def phase_config(tau_theta=616.0, n_pulses=2, t_f=None, pd=0.45, beta=0.0,
                 beta_r=0.0):
    """As ``amplitude_config``, on the phase drive with tau = tau_theta."""
    drive = PhaseRotatingDrive(OMEGA0_P, 2.0 * math.pi / tau_theta)
    t_f = n_pulses * tau_theta if t_f is None else t_f
    return Sweep(drive, PulseChannelParams(0.25, pd), tau_theta,
                 ThermalContext(beta, beta_r), (t_f,), n_pulses)


class TestPulseCounting:
    def test_whole_multiples_are_counted(self):
        assert pulses_applied(0.0, 410.0) == 0
        assert pulses_applied(410.0, 410.0) == 1
        assert pulses_applied(4920.0, 410.0) == 12

    def test_near_multiples_snap(self):
        assert pulses_applied(410.0 * 5 * (1.0 + 1e-12), 410.0) == 5
        assert pulses_applied(410.0 * 5 * (1.0 - 1e-12), 410.0) == 5

    def test_interior_times_floor(self):
        assert pulses_applied(409.0, 410.0) == 0
        assert pulses_applied(411.0, 410.0) == 1
        assert pulses_applied(1050.0, 410.0) == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            pulses_applied(-1.0, 410.0)
        with pytest.raises(ValueError):
            pulses_applied(100.0, 0.0)


class TestOneTimeSweep:
    def test_negative_pulses_rejected(self):
        with pytest.raises(ValueError, match="max_pulses must be None or an int >= 0"):
            amplitude_config(n_pulses=-1)

    @pytest.mark.parametrize("t_f, tau", [(math.inf, 410.0), (math.nan, 410.0),
                                          (None, math.nan), (1e10, 1e-320)])
    def test_non_finite_pulse_count_rejected(self, t_f, tau):
        # t_f / tau overflows or is NaN: a message naming both, not an
        # OverflowError or a bare float-to-int ValueError.
        with pytest.raises(ValueError,
                           match=r"t_f / tau must be finite, got t_f = .*, tau = "):
            amplitude_config(tau=tau, n_pulses=0, t_f=t_f)


class TestConditionalMatrixClass:
    def test_from_upper_row(self):
        cm = ConditionalMatrix.from_upper_row(0.7, 0.2)
        assert cm.p_up_given_up == 0.7
        assert cm.p_up_given_down == 0.2
        # The lower row is 1 - p, bit for bit.
        assert [cm.prob(1, 0), cm.prob(1, 1)] == [1.0 - 0.7, 1.0 - 0.2]

    def test_entries_must_be_probabilities(self):
        for bad in (1.4, -0.4, 1.0 + 1e-9, -1e-9):
            with pytest.raises(ValueError, match="outside"):
                ConditionalMatrix.from_upper_row(bad, 0.2)
            with pytest.raises(ValueError, match="outside"):
                ConditionalMatrix(0.7, bad)

    def test_edges_and_rounding_accepted(self):
        # A propagated population may overshoot [0, 1] by rounding; within
        # the tolerance it is kept as computed, not clamped.
        for ok in (0.0, 1.0, -0.5e-12, 1.0 + 0.5e-12):
            cm = ConditionalMatrix.from_upper_row(ok, 1.0 - ok)
            assert cm.p_up_given_up == ok
            assert cm.prob(0, 1) == 1.0 - ok
            assert cm.prob(1, 0) == 1.0 - ok

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_entries_rejected(self, bad):
        # NaN fails every comparison, so a check written as "x < lo" lets
        # it through.
        with pytest.raises(ValueError, match="outside"):
            ConditionalMatrix.from_upper_row(bad, 0.3)
        with pytest.raises(ValueError, match="outside"):
            ConditionalMatrix(0.7, bad)


class TestConditionalMatrixAgainstDensityMatrices:
    def test_amplitude_with_tail(self):
        pc = amplitude_config(tau=410.0, n_pulses=3, t_f=3 * 410.0 + 200.0)
        cm = conditional_matrix(pc)
        pa = pc.channel.p_absorb

        ham0 = dmtools.ham_amplitude(OMEGA0_A, 616.0, 0.0)
        hamf = dmtools.ham_amplitude(OMEGA0_A, 616.0, pc.times[0])
        up0, down0, _, _ = dmtools.projectors_from_ham(ham0)
        upf, _, _, _ = dmtools.projectors_from_ham(hamf)

        def segment(t0, t1):
            angle = dmtools.accumulated_angle(OMEGA0_A, 616.0, t0, t1)
            return expm(-0.5j * angle * dmtools.SX)

        for col, rho in ((0, up0), (1, down0)):
            for n in range(1, 4):
                u = segment((n - 1) * 410.0, n * 410.0)
                rho = dmtools.pulse_dm(u @ rho @ u.conj().T, pa, 0.0)
            u = segment(3 * 410.0, pc.times[0])
            rho = u @ rho @ u.conj().T
            expected = np.trace(rho @ upf).real
            assert cm.prob(0, col) == pytest.approx(expected, abs=1e-12)

    def test_phase_with_tail(self):
        pc = phase_config(tau_theta=616.0, n_pulses=2, t_f=2.3 * 616.0, pd=0.45)
        cm = conditional_matrix(pc)
        theta = 2.0 * math.pi / 616.0
        ham = lambda t: dmtools.ham_phase(OMEGA0_P, theta, t)
        h_eff = 0.5 * (OMEGA0_P * dmtools.SX - theta * dmtools.SZ)
        up_proj, down_proj, _, _ = dmtools.projectors_from_ham(h_eff)

        for col, rho in ((0, up_proj), (1, down_proj)):
            for n in range(1, 3):
                u = dmtools.propagate_unitary(ham, (n - 1) * 616.0, n * 616.0)
                rho = dmtools.pulse_dm(u @ rho @ u.conj().T, 0.25, 0.45)
            u = dmtools.propagate_unitary(ham, 2 * 616.0, pc.times[0])
            rho = u @ rho @ u.conj().T
            expected = np.trace(rho @ up_proj).real
            assert cm.prob(0, col) == pytest.approx(expected, abs=1e-9)

    def test_phase_fig5d_fifty_pulses(self):
        # fig5d has the slowest plateau transient (one-period |lambda|
        # 0.9446): after 50 pulses a basis start still sits more than the
        # 0.005 plateau window from the 0.050 target, in the program and
        # in an independent density-matrix propagation alike.
        res = scenarios.resolve(scenarios.get_preset("fig5d"))
        tau = res.config.tau
        pa, pd = res.channel.p_absorb, res.channel.p_pump
        cm = conditional_matrix(res.protocol_at(50 * tau))
        omega0, theta = res.drive.omega0, res.drive.theta
        h_eff = 0.5 * (omega0 * dmtools.SX - theta * dmtools.SZ)
        up_proj, down_proj, _, _ = dmtools.projectors_from_ham(h_eff)
        # tau is the axis rotation period, so every period has this unitary.
        u = dmtools.propagate_unitary(
            lambda t: dmtools.ham_phase(omega0, theta, t), 0.0, tau)

        worst = 0.0
        for col, rho in ((0, up_proj), (1, down_proj)):
            for _ in range(50):
                rho = dmtools.pulse_dm(u @ rho @ u.conj().T, pa, pd)
            expected = np.trace(rho @ up_proj).real
            assert cm.prob(0, col) == pytest.approx(expected, abs=1e-9)
            worst = max(worst, abs(expected - 0.050))
        assert worst > 0.005

    def test_amplitude_matrix_is_doubly_stochastic(self):
        # The fixed-axis drive never mixes the measurement populations and
        # pump failures are symmetric, so rows sum to one as well.
        for t_f in (410.0, 1000.0, 2870.0):
            pc = amplitude_config(tau=410.0,
                                  n_pulses=pulses_applied(t_f, 410.0), t_f=t_f)
            cm = conditional_matrix(pc)
            rows = [[cm.prob(j, i) for i in (0, 1)] for j in (0, 1)]
            assert [sum(row) for row in rows] == pytest.approx([1.0, 1.0], abs=1e-14)

    def test_no_pulses_is_identity_for_amplitude(self):
        pc = amplitude_config(tau=410.0, n_pulses=0, t_f=333.0)
        cm = conditional_matrix(pc)
        assert [cm.p_up_given_up, cm.p_up_given_down] == pytest.approx(
            [1.0, 0.0], abs=1e-14)


class TestMeanPropagation:
    """The mean Bloch vectors ``run`` writes for a bloch scenario."""

    @staticmethod
    def snapshots(t_f, label="up"):
        cfg = scenarios.with_overrides(scenarios.get_preset("fig2bcd"),
                                       t_f_grid=(t_f,))
        header, rows = scenarios.table(scenarios.resolve(cfg))
        return sweep_reference.bloch_row_snapshots(header, rows, label)

    def test_population_decay_matches_closed_form(self):
        snaps = self.snapshots(6 * 410.0)
        assert len(snaps) == 7
        up = AmplitudeModulatedDrive(OMEGA0_A, 616.0).basis[0]
        for n, (t_n, state) in enumerate(snaps):
            assert t_n == pytest.approx(n * 410.0)
            pop = sweep_reference.upper_population(state, up)
            assert pop == pytest.approx(
                population_after_n_pulses(1.0, 0.25, n), abs=1e-14)

    def test_tail_snapshot_appended(self):
        snaps = self.snapshots(1000.0, label="down")
        assert len(snaps) == 4
        assert snaps[-1][0] == 1000.0
        assert snaps[0] == (0.0, (-1.0, 0.0, 0.0))

    def test_only_pulse_times_are_post_pulse(self):
        """Pulses fire at 410 and 820 ns only: the last row, at 1000 ns,
        lies on the tail after them."""
        cfg = scenarios.with_overrides(scenarios.get_preset("fig2bcd"),
                                       t_f_grid=(0.0, 1000.0))
        header, rows = scenarios.table(scenarios.resolve(cfg))
        col = {name: i for i, name in enumerate(header)}
        for label in ("up", "down"):
            own = [row for row in rows if row[col["initial_state"]] == label]
            assert own[-1][col["t_f_ns"]] == 1000.0
            assert own[-1][col["post_pulse"]] == 0
            assert [row[col["t_f_ns"]] for row in own
                    if row[col["post_pulse"]]] == [410.0, 820.0]


class TestPulseTrainBlochCheck:
    @pytest.mark.parametrize("pa", [0.25, 1.0])
    def test_start_of_norm_one_and_a_half_rejected(self, pa):
        """An x-rotation keeps rx = 1.5.  At p_absorb = 1 the pulse maps
        that to the origin, so only the check on the rotated state sees it."""
        with pytest.raises(ValueError, match="outside the unit ball"):
            pulse_train(amplitude_config(pa=pa), [np.array([1.5, 0.0, 0.0])],
                        [1])

    @pytest.mark.parametrize("config", [amplitude_config(), phase_config()],
                             ids=["amplitude", "phase"])
    def test_nan_start_rejected(self, config):
        with pytest.raises(ValueError, match="outside the unit ball"):
            pulse_train(config, [np.array([math.nan, 0.0, 0.0])], [1])

    @pytest.mark.parametrize("pa", [0.25, 1.0])
    def test_start_just_outside_the_tolerance_rejected(self, pa):
        """Norm 1 + 1e-10 exceeds 1 + BLOCH_NORM_TOL, yet its square is
        within 1e-9 of 1, so a guard that skipped the check up to a squared
        norm of 1 + 1e-9 would let it through.  At p_absorb = 1 only the
        check on the rotated state sees it."""
        with pytest.raises(ValueError, match="outside the unit ball"):
            pulse_train(amplitude_config(pa=pa),
                        [np.array([1.0 + 1e-10, 0.0, 0.0])], [1])

    @pytest.mark.parametrize("norm", [1.0, 1.0 + 5e-13])
    @pytest.mark.parametrize("config", [amplitude_config(pa=0.0), phase_config()],
                             ids=["amplitude", "phase"])
    def test_start_within_the_tolerance_accepted(self, config, norm):
        starts = [np.array([norm, 0.0, 0.0]), np.array([0.0, 0.0, -norm])]
        post = pulse_train(config, starts, [config.n_pulses])
        assert len(post[0]) == 2


def zero_pulse_config(upper):
    """A one-time sweep at t_f = 0, where ``pulse_train`` steps and checks nothing,
    whose amplitude drive measures along ``upper``, unchecked, so that
    ``conditional_matrices`` starts from it."""
    basis = (upper, tuple(-x for x in upper))
    drive = type("Measured", (AmplitudeModulatedDrive,), {"basis": basis})(OMEGA0_A, 616.0)
    return Sweep(drive, PulseChannelParams(0.25, 0.0), 410.0, ThermalContext(0.0),
                 (0.0,))


class TestReadoutBlochCheck:
    """``final_states`` checks each state it returns behind the squared-norm
    guard ``pulse_train`` uses; at zero pulses that check is the only one.
    A rejected state must fail it, not ``ConditionalMatrix``'s range test."""

    @pytest.mark.parametrize("upper", [(1.0 + 1e-10, 0.0, 0.0), (math.nan, 0.0, 0.0)],
                             ids=["just_outside_the_tolerance", "nan"])
    def test_bad_start_rejected(self, upper):
        """Norm 1 + 1e-10 has a square within 1e-9 of 1, so a guard widened
        to 1 + 1e-9 skips the check, and a guard written as > 1 skips NaN."""
        config = zero_pulse_config(upper)
        with pytest.raises(ValueError, match="outside the unit ball"):
            final_states(config, [upper])
        with pytest.raises(ValueError, match="outside the unit ball"):
            conditional_matrices(config)

    def test_start_of_norm_one_accepted(self):
        config = zero_pulse_config((1.0, 0.0, 0.0))
        assert final_states(config, [(0.0, 0.0, -1.0)]) == [[(0.0, 0.0, -1.0)]]
        assert conditional_matrices(config) == [ConditionalMatrix(1.0, 0.0)]


class TestAtoms:
    def test_atoms_in_initial_final_order(self):
        pc = amplitude_config(tau=410.0, n_pulses=2, t_f=2 * 410.0)
        cm = conditional_matrix(pc)
        atoms = energy_change_distribution(cm, pc)
        l0, lf = pc.drive.level(0.0), pc.drive.level(pc.times[0])
        w = pc.weights
        assert atoms == (
            (lf - l0, w[0] * cm.p_up_given_up),
            (-lf - l0, w[0] * (1.0 - cm.p_up_given_up)),
            (lf + l0, w[1] * cm.p_up_given_down),
            (-lf + l0, w[1] * (1.0 - cm.p_up_given_down)))
        assert math.fsum(p for _, p in atoms) == pytest.approx(1.0, abs=1e-15)

    def test_cyclic_final_time_has_two_zero_change_atoms(self):
        # At whole modulation periods the spectra at 0 and t_f coincide.
        pc = amplitude_config(tau=616.0, n_pulses=2, t_f=2 * 616.0)
        atoms = energy_change_distribution(conditional_matrix(pc), pc)
        assert atoms[0][0] == pytest.approx(0.0, abs=1e-15)
        assert atoms[3][0] == pytest.approx(0.0, abs=1e-15)

    def test_mean(self):
        atoms = ((-1.0, 0.25), (0.0, 0.5), (2.0, 0.25))
        assert mean(atoms) == pytest.approx(0.25)


class TestInitialWeights:
    def test_infinite_temperature_is_uniform(self):
        pc = phase_config()
        assert pc.weights == pytest.approx((0.5, 0.5))

    @pytest.mark.parametrize("beta_omega0", [2.0, -20.0])
    def test_matches_gibbs_population(self, beta_omega0):
        pc = amplitude_config(beta=beta_omega0 / OMEGA0_A)
        g_up = gibbs_population(pc.thermal.beta, pc.drive, 0.0)
        g_down = gibbs_population(-pc.thermal.beta, pc.drive, 0.0)
        assert pc.weights == (g_up, g_down)
        assert pc.level0 == pc.drive.level(0.0)
        assert g_up + g_down == pytest.approx(1.0, abs=1e-15)
        assert (g_up < 0.5) == (beta_omega0 > 0)


def fr_target(pc):
    """Z(t_f)/Z(0) of one run, the one-time case of ``fr_targets``."""
    return fr_targets(pc, sweep_levels(pc))[0]


class TestFunctionals:
    def test_fr_functional_by_hand(self):
        atoms = ((-1.0, 0.5), (1.0, 0.5))
        expected = 0.5 * (math.e + 1.0 / math.e)
        assert fr_functional(atoms, 1.0) == pytest.approx(expected)
        assert fr_functional(atoms, 0.0) == pytest.approx(1.0)

    def test_fr_target_is_partition_ratio(self):
        # Z(t) = 2 cosh(beta level(t)); the expm trace check of the same
        # ratio is test_core's test_partition_function_against_matrix_exponential.
        pc = amplitude_config(tau=410.0, n_pulses=1, t_f=410.0)
        beta = pc.thermal.beta
        expected = (math.cosh(beta * pc.drive.level(410.0))
                    / math.cosh(beta * pc.drive.level(0.0)))
        assert fr_target(pc) == pytest.approx(expected, rel=1e-15)

    def test_fr_target_is_one_for_constant_spectrum(self):
        assert fr_target(phase_config(beta=1.0)) == pytest.approx(1.0)
        assert fr_target(amplitude_config(beta=0.0)) == pytest.approx(1.0)

    def test_closed_evolution_satisfies_identity_exactly(self):
        # No pulses: the conditional matrix is the identity and the
        # functional at gamma = beta (beta_r is 0) telescopes to the
        # partition ratio.
        pc = amplitude_config(tau=410.0, n_pulses=0, t_f=287.0)
        atoms = energy_change_distribution(conditional_matrix(pc), pc)
        assert abs(fr_functional(atoms, pc.thermal.beta) - fr_target(pc)) <= 1e-14

    @pytest.mark.parametrize("beta_omega0", [10.0, -10.0, 20.0, -20.0])
    def test_closed_cycle_identity_on_unital_channels(self, beta_omega0):
        # Without pumping the pulse channel is unital, so
        # <exp(-beta dE)> = Z(t_f)/Z(0) holds exactly at every t_f; at large
        # |beta| it reads the small Gibbs weight times e^(|beta| gap).
        worst = 0.0
        beta = beta_omega0 / OMEGA0_A
        for tau in (205.0, 410.0, 616.0):
            for pa in (0.1, 0.5, 0.9):
                sweep = Sweep(AmplitudeModulatedDrive(OMEGA0_A, 616.0),
                              PulseChannelParams(pa, 0.0), tau, ThermalContext(beta),
                              scenarios.linspace(0.0, 12 * tau, 40))
                levels = sweep_levels(sweep)
                atoms = energy_changes(sweep, levels, conditional_matrices(sweep))
                for a, target in zip(atoms, fr_targets(sweep, levels)):
                    worst = max(worst, abs(fr_functional(a, beta) / target - 1.0))
        assert worst <= 1e-13

    def test_one_pulse_exchange_identity_with_matrix_fixed_point(self):
        pc = phase_config(tau_theta=616.0, n_pulses=1, pd=0.45)
        cm = conditional_matrix(pc)
        beta_r = beta_reservoir(conditional_fixed_point(cm), pc.drive.gap)
        atoms = energy_change_distribution(cm, pc)
        assert fr_functional(atoms, -beta_r) == pytest.approx(1.0, abs=1e-12)


class TestReservoirTemperature:
    def test_round_trip_with_gibbs_weight(self):
        gap = 0.0205
        for beta in (-120.0, 0.0, 310.0):
            p = 1.0 / (1.0 + math.exp(beta * gap))
            assert beta_reservoir(p, gap) == pytest.approx(beta, abs=1e-9)

    def test_half_gives_zero(self):
        assert beta_reservoir(0.5, 1.0) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            beta_reservoir(0.0, 1.0)
        with pytest.raises(ValueError):
            beta_reservoir(1.0, 1.0)
        with pytest.raises(ValueError):
            beta_reservoir(0.3, 0.0)


class TestConditionalFixedPoint:
    def test_doubly_stochastic_gives_half(self):
        cm = ConditionalMatrix.from_upper_row(0.7, 0.3)
        assert conditional_fixed_point(cm) == pytest.approx(0.5)

    def test_matches_direct_stationarity(self):
        cm = ConditionalMatrix.from_upper_row(0.62, 0.17)
        p = conditional_fixed_point(cm)
        assert cm.p_up_given_up * p + cm.p_up_given_down * (1 - p) == \
            pytest.approx(p, abs=1e-15)

    def test_identity_has_no_fixed_weight(self):
        with pytest.raises(ValueError):
            conditional_fixed_point(ConditionalMatrix.from_upper_row(1.0, 0.0))

