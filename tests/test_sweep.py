"""The shared pulse train of a deterministic sweep against the per-point
reference walker in ``sweep_reference``: exact equality on presets and on
generated sweeps, the rotation count of a sweep, and mixed-sweep errors
(also of the sampled sweep, ``run_ensembles``, and of the fixed-axis work
and heat series, whose sweep form must equal the per-config reference bit
for bit and evaluate the drive's rate O(grid + pulses) times)."""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import sweep_reference
from qubitfr import core, scenarios
from qubitfr.channel import PulseChannelParams
from qubitfr.core import AmplitudeModulatedDrive, PhaseRotatingDrive, ThermalContext
from qubitfr.montecarlo import run_ensembles
from qubitfr.oracle import work_heat_series_amplitude
from qubitfr.protocol import ProtocolConfig, conditional_matrices, pulses_applied

OMEGA0_A = math.pi / 616.0
OMEGA0_P = 2.0 * math.pi * 0.8e-3


def preset_sweep(name, **overrides):
    cfg = scenarios.get_preset(name)
    if overrides:
        cfg = scenarios.with_overrides(cfg, **overrides)
    res = scenarios.resolve(cfg)
    return [res.protocol_at(t_f) for t_f in cfg.t_f_grid]


def upper_row_bits(cm):
    """Hex form of P(up|up) and P(up|down): unlike ==, this tells 0.0 from
    -0.0.  The lower row, 1 - p, follows from them."""
    return [cm.p_up_given_up.hex(), cm.p_up_given_down.hex()]


def assert_matches_reference(pcs):
    swept = conditional_matrices(pcs)
    assert len(swept) == len(pcs)
    for pc, cm in zip(pcs, swept):
        expected = sweep_reference.conditional_matrix(pc)
        assert upper_row_bits(cm) == upper_row_bits(expected), pc.t_f


def fig5d_500_pulses():
    tau = scenarios.get_preset("fig5d").tau
    pcs = preset_sweep("fig5d", t_f_grid=tuple(np.linspace(0.0, 500 * tau, 51)))
    assert pcs[-1].n_pulses == 500
    return pcs


@pytest.mark.parametrize("sweep", [
    lambda: preset_sweep("fig2a"),  # dense grid, tau 410 != tau_a 616
    lambda: preset_sweep("fig4b"),
    fig5d_500_pulses,
    lambda: preset_sweep("fig5a"),  # no pulses
], ids=["fig2a", "fig4b", "fig5d_500", "fig5a"])
def test_preset_sweeps_equal_per_point_reference(sweep):
    assert_matches_reference(sweep())


def assert_bloch_rows_equal_reference(cfg):
    """Both starts' Bloch rows at t = 0, after each pulse and at the end
    equal the reference's snapshots, float by float."""
    res = scenarios.resolve(cfg)
    header, rows = scenarios.table(res)
    pc = res.protocol_at(cfg.t_f_grid[-1])
    for label, start in zip(("up", "down"), res.drive.basis):
        snapshots = sweep_reference.bloch_row_snapshots(header, rows, label)
        assert snapshots == sweep_reference.mean_trajectory(pc, start), label


def test_mean_trajectory_equals_reference():
    """The fig2bcd rows, a 3.4 tau tail past pulse 3, the phase drive at
    2.5 tau_theta, and a phase drive whose tau (500 ns) is no whole number
    of its periods (616 ns): there a rotation from a pulse time to itself
    is only close to the identity, and each pulse-time row must be the
    post-pulse state itself."""
    cfg = scenarios.get_preset("fig2bcd")
    assert_bloch_rows_equal_reference(cfg)
    assert_bloch_rows_equal_reference(
        scenarios.with_overrides(cfg, t_f_grid=(0.0, 3.4 * cfg.tau)))
    phase = scenarios.get_preset("fig5c")
    assert_bloch_rows_equal_reference(scenarios.with_overrides(
        phase, kind="bloch", t_f_grid=(2.5 * phase.tau,)))
    assert_bloch_rows_equal_reference(scenarios.with_overrides(
        phase, kind="bloch", tau=500.0, p_pump=0.3,
        target_upper_population=None, t_f_grid=(2000.0,)))


@given(family=st.sampled_from(["amplitude", "phase"]),
       tau=st.floats(50.0, 2000.0),
       drive_period=st.none() | st.floats(200.0, 2000.0),
       p_absorb=st.floats(0.0, 1.0),
       p_pump=st.floats(0.0, 1.0),
       points=st.lists(st.tuples(st.integers(0, 60),
                                 st.sampled_from([0.0, 0.5]) | st.floats(0.0, 0.999)),
                       min_size=1, max_size=12))
def test_generated_sweeps_equal_per_point_reference(family, tau, drive_period,
                                                    p_absorb, p_pump, points):
    """Ascending grids up to 60 pulses, with repeated pulse counts and
    repeated times; ``drive_period`` None ties the drive period to tau."""
    period = tau if drive_period is None else drive_period
    if family == "amplitude":
        drive = AmplitudeModulatedDrive(OMEGA0_A, period)
    else:
        drive = PhaseRotatingDrive(OMEGA0_P, 2.0 * math.pi / period)
    channel = PulseChannelParams(p_absorb, p_pump)
    grid = [(n + frac) * tau for n, frac in sorted(points)]
    pcs = [ProtocolConfig(drive, channel, tau, pulses_applied(t_f, tau),
                          ThermalContext(0.0), t_f=t_f) for t_f in grid]
    assert_matches_reference(pcs)


@pytest.mark.parametrize("name", ["fig2a", "fig5d"])
def test_sweep_builds_each_rotation_about_once(name, tmp_path, rotations_built):
    """A deterministic run computes each period rotation once and at most
    one tail per grid point, not every rotation again at every point, with
    the tails in at most one batch."""
    cfg = scenarios.get_preset(name)
    pcs = preset_sweep(name)
    scenarios.run_scenario(cfg, outdir=tmp_path)
    n_max = max(pc.n_pulses for pc in pcs)
    assert 0 < sum(n for _, n in rotations_built) <= n_max + len(pcs) + 2
    assert [kind for kind, _ in rotations_built].count("tails") <= 1


def test_rotating_sweep_builds_rotations_independent_of_pulse_count(
        tmp_path, monkeypatch):
    """Each distinct angle's axis rotation is built once per call: a
    51-point fig5d sweep to 500 pulses builds no more matrices than one
    to 50."""
    base = scenarios.get_preset("fig5d")
    calls = []
    real = core._axis_angle

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(core, "_axis_angle", counted)
    built = []
    for n in (50, 500):
        grid = tuple(float(t) for t in np.linspace(0.0, n * base.tau, 51))
        cfg = scenarios.with_overrides(base, t_f_grid=grid, p_absorb=0.25,
                                       mode="deterministic")
        calls.clear()
        scenarios.run_scenario(cfg, outdir=tmp_path)
        built.append(len(calls))
    assert 0 < built[1] <= built[0]


@pytest.mark.parametrize("change", [
    {"drive": AmplitudeModulatedDrive(OMEGA0_A, 410.0)},
    {"channel": PulseChannelParams(0.3, 0.0)},
    {"tau": 616.0, "t_f": 616.0}], ids=["drive", "channel", "tau"])
def test_mixed_sweeps_are_rejected(change):
    pcs = preset_sweep("fig4a")[:3]
    fields = dict(drive=pcs[1].drive, channel=pcs[1].channel, tau=pcs[1].tau,
                  n_pulses=pcs[1].n_pulses, thermal=pcs[1].thermal, t_f=pcs[1].t_f)
    fields.update(change)
    mixed = [pcs[0], ProtocolConfig(**fields), pcs[2]]
    for sweep in (conditional_matrices, lambda pcs: run_ensembles(pcs, 10, 0),
                  work_heat_series_amplitude):
        with pytest.raises(ValueError, match="share drive, channel and tau"):
            sweep(mixed)


def test_work_heat_sweep_with_mixed_thermal_contexts_is_rejected():
    """The series reads beta once per sweep, so all configs must share it."""
    pcs = preset_sweep("fig3a")[:3]
    for thermal in (ThermalContext(-pcs[1].thermal.beta),
                    ThermalContext(pcs[1].thermal.beta, 0.5)):
        mixed = [pcs[0], ProtocolConfig(pcs[1].drive, pcs[1].channel, pcs[1].tau,
                                        pcs[1].n_pulses, thermal, t_f=pcs[1].t_f),
                 pcs[2]]
        with pytest.raises(ValueError, match="thermal context"):
            work_heat_series_amplitude(mixed)


def result_reprs(pairs):
    """repr of each (mean work, mean heat): unlike ==, it tells 0.0 from -0.0."""
    return [(repr(w), repr(q)) for w, q in pairs]


@given(tau=st.floats(50.0, 2000.0),
       drive_period=st.none() | st.floats(200.0, 2000.0),
       p_absorb=st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
       beta_sign=st.sampled_from([1.0, -1.0]),
       beta_exponent=st.floats(-6.0, math.log10(50.0)),
       points=st.lists(st.tuples(st.integers(0, 60),
                                 st.sampled_from([0.0, 0.5]) | st.floats(0.0, 0.999)),
                       min_size=1, max_size=12),
       zero_pulse_frac=st.sampled_from([0.0, 0.5]) | st.floats(0.0, 0.999))
def test_work_heat_sweep_equals_per_config_reference(tau, drive_period, p_absorb,
                                                     beta_sign, beta_exponent,
                                                     points, zero_pulse_frac):
    """Generated sweeps in drawn order, with the first time repeated and a
    0-pulse point added; beta omega0 of either sign from 1e-6 to 50."""
    drive = AmplitudeModulatedDrive(OMEGA0_A, tau if drive_period is None
                                    else drive_period)
    thermal = ThermalContext(beta_sign * 10.0 ** beta_exponent / OMEGA0_A)
    channel = PulseChannelParams(p_absorb, 0.0)
    grid = [(n + frac) * tau for n, frac in points + points[:1]]
    grid.append(zero_pulse_frac * tau)
    pcs = [ProtocolConfig(drive, channel, tau, pulses_applied(t_f, tau), thermal,
                          t_f=t_f) for t_f in grid]
    assert pcs[-1].n_pulses == 0
    assert result_reprs(work_heat_series_amplitude(pcs)) == result_reprs(
        map(sweep_reference.work_heat_series_amplitude, pcs))


# Rate evaluations per grid point of an amplitude energetics table: one for
# each config's tail, two for its energy levels, two for its Gibbs weights
# and two for its free-energy change.  The pulse terms add one per pulse.
OMEGA_CALLS_PER_POINT = 8


@settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(points=st.integers(50, 300), pulses=st.integers(20, 200),
       tau=st.floats(10.0, 600.0),
       end_frac=st.sampled_from([0.0, 0.5]) | st.floats(0.0, 0.999))
def test_energetics_table_evaluates_the_rate_linearly(omega_calls, points, pulses,
                                                      tau, end_frac):
    """An amplitude energetics table evaluates the drive's rate
    O(grid + pulses) times, not once per pulse again at every grid point;
    its grid times fall on pulse times and between them."""
    cfg = scenarios.with_overrides(
        scenarios.get_preset("fig3b"), tau=tau, mode="deterministic",
        t_f_grid=scenarios.linspace(0.0, (pulses + end_frac) * tau, points))
    res = scenarios.resolve(cfg)
    omega_calls.clear()
    scenarios.table(res)
    assert 0 < len(omega_calls) <= OMEGA_CALLS_PER_POINT * (points + pulses)


@pytest.mark.parametrize("mode,mc_grid", [
    ("deterministic", "final"), ("montecarlo", "final"), ("both", "all")])
def test_energetics_table_builds_each_point_once(monkeypatch, mode, mc_grid):
    """A fig3b table builds one ``ProtocolConfig`` per grid time its rows
    read, shared by the work and heat series, the exact matrices and the
    sampled walk; a sampling-only table reads only the sampled times."""
    cfg = scenarios.with_overrides(scenarios.get_preset("fig3b"), mode=mode,
                                   mc_grid=mc_grid, n_trajectories=20)
    res = scenarios.resolve(cfg)
    asked = []
    real = scenarios.ResolvedScenario.protocol_at

    def protocol_at(self, t_f):
        asked.append(t_f)
        return real(self, t_f)

    monkeypatch.setattr(scenarios.ResolvedScenario, "protocol_at", protocol_at)
    header, rows = scenarios.table(res)
    read = cfg.sampled_grid() if mode == "montecarlo" else cfg.t_f_grid
    assert asked == list(read)
    assert len(rows) == len(cfg.t_f_grid) * (mode != "montecarlo") + len(
        cfg.sampled_grid()) * (mode != "deterministic")


def test_empty_sweep():
    assert conditional_matrices([]) == []
    assert run_ensembles([], 10, 0) == []
