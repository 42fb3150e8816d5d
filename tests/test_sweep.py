"""The ``protocol.Sweep`` record and the engines that read it: the shared
pulse train of a deterministic sweep against the per-point reference
walker in ``sweep_reference`` (exact equality on presets and on generated
sweeps), the rotations, tails and levels a table builds, the record's
validation, the fixed-axis work and heat series, whose sweep form must
equal the per-point reference bit for bit and evaluate the drive's rate
O(grid + pulses) times, and the table columns, which must equal the
single-point path repr for repr."""

import collections
import math
import types

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import sweep_reference
from qubitfr import core, oracle, protocol, scenarios
from qubitfr.channel import PulseChannelParams
from qubitfr.core import AmplitudeModulatedDrive, PhaseRotatingDrive, ThermalContext
from qubitfr.montecarlo import run_ensemble, run_ensembles
from qubitfr.oracle import work_heat_series_amplitude
from qubitfr.protocol import Sweep, conditional_matrices

OMEGA0_A = math.pi / 616.0
OMEGA0_P = 2.0 * math.pi * 0.8e-3


def preset_sweep(name, **overrides):
    cfg = scenarios.get_preset(name)
    if overrides:
        cfg = scenarios.with_overrides(cfg, **overrides)
    return scenarios.resolve(cfg).sweep(cfg.t_f_grid)


def point_configs(sweep):
    """Each point of a sweep as its own one-time sweep."""
    return [sweep.replace(times=(t_f,)) for t_f in sweep.times]


def upper_row_bits(cm):
    """Hex form of P(up|up) and P(up|down): unlike ==, this tells 0.0 from
    -0.0.  The lower row, 1 - p, follows from them."""
    return [cm.p_up_given_up.hex(), cm.p_up_given_down.hex()]


def assert_matches_reference(sweep):
    swept = conditional_matrices(sweep)
    assert len(swept) == len(sweep.times)
    for pc, cm in zip(point_configs(sweep), swept):
        expected = sweep_reference.conditional_matrix(pc)
        assert upper_row_bits(cm) == upper_row_bits(expected), pc.times


def fig5d_500_pulses():
    tau = scenarios.get_preset("fig5d").tau
    sweep = preset_sweep("fig5d", t_f_grid=tuple(np.linspace(0.0, 500 * tau, 51)))
    assert sweep.counts[-1] == 500
    return sweep


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
    assert_matches_reference(Sweep(drive, channel, tau, ThermalContext(0.0), grid))


@pytest.mark.parametrize("name", ["fig2a", "fig5d"])
def test_sweep_builds_each_rotation_about_once(name, tmp_path, rotations_built):
    """A deterministic run computes each period rotation once and at most
    one tail per grid point, not every rotation again at every point, with
    the tails in at most one batch."""
    cfg = scenarios.get_preset(name)
    n_max = scenarios.resolve(cfg).protocol_at(cfg.t_f_grid[-1]).n_pulses
    rotations_built.clear()
    scenarios.run_scenario(cfg, outdir=tmp_path)
    assert 0 < sum(n for _, n in rotations_built) <= n_max + len(cfg.t_f_grid) + 2
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


@pytest.fixture
def time_list_calls(monkeypatch):
    """A Counter of the calls, by name, of ``core``'s whole-period test and
    amplitude phase, one-time and batched, in every module that reads them."""
    calls = collections.Counter()
    for name in ("whole_multiple", "whole_multiples", "phase_integral", "phase_integrals"):
        real = getattr(core, name, None)
        if real is None:
            continue

        def counted(*args, _name=name, _real=real):
            calls[_name] += 1
            return _real(*args)

        for module in (core, protocol):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("name", ["fig5d", "fig4b"])
def test_sweep_walks_each_time_list_in_one_pass(name, time_list_calls):
    """Building a 51-point sweep to 500 pulses tests and phases its times in
    batched passes only, as many as a sweep to 50 pulses makes: no one-time
    ``whole_multiple`` or ``phase_integral`` call per time or per pulse."""
    res = scenarios.resolve(scenarios.get_preset(name))
    per_length = []
    for n in (50, 500):
        time_list_calls.clear()
        grid = tuple(float(t) for t in np.linspace(0.0, n * res.config.tau, 51))
        assert res.sweep(grid).n_pulses == n
        per_length.append(dict(time_list_calls))
    assert not {"whole_multiple", "phase_integral"} & per_length[0].keys()
    assert per_length[0] == per_length[1] != {}


@pytest.mark.parametrize("fields, message", [
    ({"times": (-1.0,)}, "t_f must be nonnegative"),
    ({"times": (0.0, math.nan)}, "t_f / tau must be finite"),
    ({"times": (math.inf,)}, "t_f / tau must be finite"),
    ({"tau": 0.0}, "tau must be positive"),
    ({"tau": math.nan}, "t_f / tau must be finite"),
    ({"tau": -5.0, "times": ()}, "tau must be positive and finite, got -5.0"),
    ({"tau": math.nan, "times": ()}, "tau must be positive and finite, got nan"),
    ({"tau": math.inf}, "tau must be positive and finite, got inf"),
    ({"max_pulses": -1}, "max_pulses must be None or an int >= 0, got -1"),
    ({"max_pulses": 2.5}, "max_pulses must be None or an int >= 0, got 2.5"),
    ({"max_pulses": math.nan}, "max_pulses must be None or an int >= 0, got nan"),
    ({"max_pulses": True}, "max_pulses must be None or an int >= 0, got True"),
    ({"max_pulses": 3.0}, "max_pulses must be None or an int >= 0, got 3.0")],
    ids=["negative", "nan", "inf", "zero_tau", "nan_tau", "negative_tau_no_times",
         "nan_tau_no_times", "inf_tau", "negative_limit", "fractional_limit",
         "nan_limit", "bool_limit", "float_limit"])
def test_sweep_rejects_invalid_fields(fields, message, time_list_calls):
    """A sweep shares its drive, channel, tau and thermal context by
    construction; what it validates is tau, also with no times, each time
    and the pulse limit, which is None or an exact int >= 0: a float, NaN or
    bool is rejected by name rather than failing later in ``range`` or
    lifting the limit.  Each is rejected before any time or tau reaches a
    whole-period test."""
    args = dict(drive=AmplitudeModulatedDrive(OMEGA0_A, 616.0),
                channel=PulseChannelParams(0.25, 0.0), tau=410.0,
                thermal=ThermalContext(1.0), times=(0.0, 500.0), max_pulses=None)
    args.update(fields)
    with pytest.raises(ValueError, match=message):
        Sweep(**args)
    assert not time_list_calls


def test_sweep_counts_and_tails():
    """Counts are each time's ``pulses_applied``, at most ``max_pulses``;
    a time on its last pulse has the identity tail, any other the drive's
    rotation from that pulse, and a run is the one-time case."""
    drive = PhaseRotatingDrive(OMEGA0_P, 2.0 * math.pi / 616.0)
    channel, thermal = PulseChannelParams(0.25, 0.3), ThermalContext(0.0)
    times = (0.0, 500.0 * (1.0 - 1e-12), 750.0, 1500.0, 750.0)
    sweep = Sweep(drive, channel, 500.0, thermal, times)
    assert sweep.counts == (0, 1, 1, 3, 1)
    assert sweep.tails == (core.IDENTITY3, core.IDENTITY3,
                           core.bloch_rotation(drive, 500.0, 750.0), core.IDENTITY3,
                           core.bloch_rotation(drive, 500.0, 750.0))
    limited = Sweep(drive, channel, 500.0, thermal, times, 1)
    assert limited.counts == (0, 1, 1, 1, 1)
    assert limited.tails[3] == core.bloch_rotation(drive, 500.0, 1500.0)
    assert Sweep(drive, channel, 500.0, thermal, times, 0).counts == (0,) * 5
    # The walk fires the largest count, not the last time's.
    assert (sweep.n_pulses, limited.n_pulses) == (3, 1)
    one = Sweep(drive, channel, 500.0, thermal, (1500.0,), 1)
    assert (one.times, one.counts, one.n_pulses, one.tails) == (
        (1500.0,), (1,), 1, (core.bloch_rotation(drive, 500.0, 1500.0),))
    # The counts, n_pulses and tails are held, not fields: repr and replace
    # read the fields alone, and a replaced record derives its own.
    assert repr(one).startswith("Sweep(drive=") and "tails" not in repr(one)
    assert "n_pulses" not in repr(one)
    assert one.replace(times=(1000.0,)) == Sweep(drive, channel, 500.0, thermal,
                                                 (1000.0,), 1)
    assert sweep.replace(times=(1500.0,)).tails == limited.replace(max_pulses=3).tails[3:4]


def long_train(name, channel=None):
    """A one-time sweep to 500 pulses of preset ``name``'s drive and tau,
    on the preset's channel unless ``channel`` is given."""
    res = scenarios.resolve(scenarios.get_preset(name))
    return Sweep(res.drive, res.channel if channel is None else channel,
                 res.config.tau, ThermalContext(0.0), (500 * res.config.tau,))


def full_walk(record, starts):
    """Entry n: the post-pulse states of ``starts`` after n pulses, n from 0
    to ``record.n_pulses``, from the reference walker, which never stops."""
    walks = [sweep_reference.mean_trajectory(record, start) for start in starts]
    return [[r for _, r in states] for states in zip(*walks)]


def reprs(states):
    return [repr(rs) for rs in states]


# Long trains under one period map, by how their states end: fig5b at
# p_absorb 0.25 alternates between two states, fig5c reaches a fixed point,
# and fig5b absorbing every pulse with no pump sinks to the origin, where
# equal values carry zeros of changing sign.
REPEATS = {
    "fig5b_two_cycle": (lambda: long_train("fig5b"),
                        lambda rs: rs[-1] == rs[-3] != rs[-2]),
    "fig5c_fixed_point": (lambda: long_train("fig5c"), lambda rs: rs[-1] == rs[-2]),
    "fig5b_signed_zeros": (lambda: long_train("fig5b", PulseChannelParams(1.0, 0.0)),
                           lambda rs: rs[-1] == rs[-2] and repr(rs[-1]) != repr(rs[-2])),
}


@pytest.mark.parametrize("case", REPEATS)
def test_pulse_train_equals_a_walk_that_never_stops(case):
    """At every count 0..500, repr for repr, a train that may stop at an
    exact repeat equals the full reference walk."""
    build, ends_so = REPEATS[case]
    sweep = build()
    expected = full_walk(sweep, sweep.drive.basis)
    assert ends_so(expected)
    got = protocol.pulse_train(sweep, sweep.drive.basis, range(sweep.n_pulses + 1))
    assert reprs(got) == reprs(expected)


class CountedRotation(tuple):
    """A rotation that counts the walk steps that unpack it."""

    def __init__(self, rows):
        self.steps = 0

    def __iter__(self):
        self.steps += 1
        return super().__iter__()


def test_fig5c_train_stops_at_its_fixed_point():
    """The 500-pulse fig5c train, whose states are at a fixed point from
    pulse 238 on, walks fewer than 500 steps and reads the rest from it."""
    sweep = long_train("fig5c")
    counted = CountedRotation(sweep.periods[0])
    record = types.SimpleNamespace(**{**vars(sweep),
                                      "periods": (counted,) * sweep.n_pulses})
    counts = range(sweep.n_pulses + 1)
    got = protocol.pulse_train(record, sweep.drive.basis, counts)
    assert 0 < counted.steps < 500
    assert reprs(got) == reprs(protocol.pulse_train(sweep, sweep.drive.basis, counts))


def test_pulse_train_walks_on_when_the_map_changes():
    """Periods that are fig5c's one map for 300 pulses, past its fixed
    point, then another rotation: the states repeat under the first map,
    yet the train walks on, since not every period is one object."""
    sweep = long_train("fig5c")
    other = core.bloch_rotation(sweep.drive, 0.0, 0.5 * sweep.tau)
    record = types.SimpleNamespace(**{**vars(sweep),
                                      "periods": sweep.periods[:300] + (other,) * 200})
    expected = full_walk(record, sweep.drive.basis)
    assert expected[299] == expected[298] != expected[-1]
    got = protocol.pulse_train(record, sweep.drive.basis, range(501))
    assert reprs(got) == reprs(expected)


@pytest.mark.parametrize("name", ["fig4b", "fig5c"])
def test_periodic_sweep_holds_one_period_map(name):
    """tau is one drive period: the 500 periods are one object, the
    rotation over (0, tau), within 1e-12 of each interval's own rotation,
    whose angle carries the rounding of its endpoints (about 2e-13 at 1000
    pulses on fig4b)."""
    sweep = long_train(name)
    one = core.bloch_rotation(sweep.drive, 0.0, sweep.tau)
    assert len(sweep.periods) == 500
    assert all(p is sweep.periods[0] for p in sweep.periods) and sweep.periods[0] == one
    per_interval = core.bloch_rotations(sweep.drive,
                                        [n * sweep.tau for n in range(501)])
    assert np.abs(np.array(sweep.periods) - np.array(per_interval)).max() <= 1e-12


@pytest.mark.parametrize("drive, tau", [
    (AmplitudeModulatedDrive(OMEGA0_A, 616.0), 410.0),
    (PhaseRotatingDrive(OMEGA0_P, 2.0 * math.pi / 616.0), 500.0),
    (AmplitudeModulatedDrive(OMEGA0_A, 616.0), 1e-8),
    (PhaseRotatingDrive(OMEGA0_P, 2.0 * math.pi / 616.0), 1e-8),
], ids=["amplitude", "phase", "amplitude_zero_periods", "phase_zero_periods"])
def test_off_period_sweep_builds_each_interval(drive, tau):
    """tau no whole number n >= 1 of drive periods, also one within the
    whole-multiple tolerance of n = 0: the periods are ``bloch_rotations``
    over 0, tau, ..., N tau, bit for bit."""
    sweep = Sweep(drive, PulseChannelParams(0.25, 0.3), tau, ThermalContext(0.0),
                  (40 * tau,))
    assert repr(sweep.periods) == repr(tuple(
        core.bloch_rotations(drive, [n * tau for n in range(41)])))


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
    sweep = Sweep(drive, channel, tau, thermal, grid)
    assert sweep.counts[-1] == 0
    assert result_reprs(work_heat_series_amplitude(sweep)) == result_reprs(
        map(sweep_reference.work_heat_series_amplitude, point_configs(sweep)))


# Rate evaluations per grid point of an amplitude energetics table: one for
# its tail in the work and heat series and one for its level, which its
# atoms and free-energy change share; the pulse terms add one per pulse, and
# level(0) a few per table.
OMEGA_CALLS_PER_POINT = 3


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
    """A fig3b table builds one ``Sweep`` of the grid times its rows read,
    shared by the work and heat series, the exact matrices and the sampled
    walk, and no one-time sweep per point; a sampling-only table reads
    only the sampled times."""
    cfg = scenarios.with_overrides(scenarios.get_preset("fig3b"), mode=mode,
                                   mc_grid=mc_grid, n_trajectories=20)
    res = scenarios.resolve(cfg)
    swept = []
    real_sweep = protocol.Sweep.__init__

    def sweep_init(self, *args, **kwargs):
        real_sweep(self, *args, **kwargs)
        swept.append(self.times)

    monkeypatch.setattr(protocol.Sweep, "__init__", sweep_init)
    header, rows = scenarios.table(res)
    read = cfg.sampled_grid() if mode == "montecarlo" else cfg.t_f_grid
    assert swept == [read]
    assert len(rows) == len(cfg.t_f_grid) * (mode != "montecarlo") + len(
        cfg.sampled_grid()) * (mode != "deterministic")


@pytest.mark.parametrize("name", ["fig2a", "fig3a", "fig3b", "fig4b", "fig6b", "fig6e"])
def test_both_mode_builds_each_tail_once(rotations_built, name):
    """In mode "both" with every point sampled, the exact rows and the walk
    read the tails of one ``tail_rotations`` pass."""
    cfg = scenarios.with_overrides(scenarios.get_preset(name), mode="both",
                                   mc_grid="all", n_trajectories=20)
    res = scenarios.resolve(cfg)
    scenarios.table(res)
    assert [kind for kind, _ in rotations_built].count("tails") == 1


@pytest.mark.parametrize("name", ["fig3a", "fig3b", "fig4a", "fig4b", "fig6b", "fig6e"])
@pytest.mark.parametrize("mode", ["deterministic", "montecarlo", "both"])
def test_energy_tables_evaluate_each_level_once(monkeypatch, name, mode):
    """An energetics or fr table evaluates the drive's level once per
    distinct grid time, for its atoms, Z(t_f) and delta_f alike, not again
    per row nor once per block in mode "both"; level(0) is read three
    times, by the one ``Sweep``: for its ``level0`` and for each of its two
    Gibbs ``weights``, which the atoms, Z(0), delta_f and the initial
    contrast of the work and heat series or of the recursion all read."""
    cfg = scenarios.with_overrides(scenarios.get_preset(name), mode=mode,
                                   mc_grid="all", n_trajectories=20)
    res = scenarios.resolve(cfg)
    times = []
    real = type(res.drive).level

    def level(drive, t):
        times.append(t)
        return real(drive, t)

    monkeypatch.setattr(type(res.drive), "level", level)
    _, rows = scenarios.table(res)
    distinct = set(cfg.t_f_grid)
    assert len(rows) >= len(cfg.t_f_grid)
    assert sorted(t for t in times if t != 0.0) == sorted(distinct - {0.0})
    assert times.count(0.0) == 3 + (0.0 in distinct)


# Scenario fields of the generated sweeps, by drive family.
FAMILY_FIELDS = {"amplitude": dict(drive_family="amplitude", omega0=OMEGA0_A),
                 "phase": dict(drive_family="phase", omega0=OMEGA0_P)}


def single_point_rows(res):
    """The table of ``res`` built one point at a time: each row from its own
    one-time sweep through the single-point functions, in the order the
    columns of ``scenarios.table`` take."""
    cfg = res.config
    kind, w0, beta = cfg.kind, cfg.omega0, res.thermal.beta
    gamma = beta - res.thermal.beta_r
    rows = []
    blocks = [("deterministic", cfg.t_f_grid)] * (cfg.mode != "montecarlo") + [
        ("montecarlo", cfg.sampled_grid())] * (cfg.mode != "deterministic")
    for mode, grid in blocks:
        for t_f in grid:
            pc = res.protocol_at(t_f)
            stats = None
            if mode == "montecarlo":
                stats = run_ensemble(pc, cfg.n_trajectories, cfg.master_seed)
                cm = stats.conditional_estimate()
            else:
                cm = protocol.conditional_matrix(pc)
            head = [t_f, pc.n_pulses, mode]
            if kind == "conditional":
                err = (0.0, 0.0) if stats is None else stats.std_err()
                rows.append(head + [cm.p_up_given_up, cm.p_up_given_down, *err])
                continue
            atoms = protocol.energy_change_distribution(cm, pc)
            weights = tuple(core.gibbs_population(b, pc.drive, 0.0)
                            for b in (beta, -beta))
            f = (lambda v: v) if kind == "energetics" else (
                lambda v: math.exp(-gamma * v))
            err = 0.0 if stats is None else stats.functional_std_err(atoms, weights, f)
            if kind == "fr":
                value = protocol.fr_functional(atoms, gamma)
                target = protocol.fr_targets(pc, protocol.sweep_levels(pc))[0]
                rows.append(head + [gamma * w0, value, target, abs(value - target), err])
                continue
            mean_de = protocol.mean(atoms)
            if cfg.drive_family == "amplitude":
                [(w, q)] = oracle.work_heat_series_amplitude(pc)
                levels = pc.drive.level(0.0), pc.drive.level(t_f)
                df = core.free_energy_delta(beta, *levels) if beta else 0.0
                rows.append(head + [mean_de / w0, w / w0, q / w0, (w + q) / w0,
                                    df / w0, (mean_de - (w + q)) / w0, err / w0])
            else:
                [heat] = oracle.mean_heat_phase(pc)
                rows.append(head + [mean_de / w0, heat / w0, (mean_de - heat) / w0,
                                    gamma * mean_de, gamma * heat, err / w0])
    return rows


@given(family=st.sampled_from(["amplitude", "phase"]),
       kind=st.sampled_from(["conditional", "energetics", "fr"]),
       mode=st.sampled_from(["deterministic", "montecarlo", "both"]),
       mc_grid=st.sampled_from(["final", "all"]),
       tau=st.floats(50.0, 2000.0), period=st.floats(200.0, 2000.0),
       p_absorb=st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
       p_pump=st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
       beta_omega0=st.sampled_from([0.0]) | st.floats(-3.0, 3.0),
       points=st.lists(st.tuples(st.integers(0, 8),
                                 st.sampled_from([0.0, 0.5]) | st.floats(0.0, 0.999)),
                       min_size=1, max_size=10),
       repeats=st.integers(0, 2), seed=st.integers(0, 2**64 - 1))
def test_table_columns_equal_the_single_point_path(
        family, kind, mode, mc_grid, tau, period, p_absorb, p_pump, beta_omega0,
        points, repeats, seed):
    """Tables of generated sweeps on both drive families, with times off the
    pulses, repeated times, t_f = 0 and one-time sweeps, in every mode: each
    conditional, energetics and fr row equals the row built from its own
    one-time sweep, repr for repr."""
    omega0 = FAMILY_FIELDS[family]["omega0"]
    grid = sorted([0.0] * (points[0][0] == 0) + [(n + frac) * tau for n, frac in points]
                  + [points[-1][0] * tau] * repeats)
    shape = (dict(tau_a=period) if family == "amplitude"
             else dict(theta=2.0 * math.pi / period))
    cfg = scenarios.ScenarioConfig(
        name="generated", kind=kind, tau=tau, t_f_grid=tuple(grid),
        beta=beta_omega0 / omega0, p_absorb=p_absorb, p_pump=p_pump, mode=mode,
        mc_grid=mc_grid, n_trajectories=7, master_seed=seed, **shape,
        **FAMILY_FIELDS[family])
    res = scenarios.resolve(cfg)
    _, rows = scenarios.table(res)
    assert [list(map(repr, row)) for row in rows] == [
        list(map(repr, row)) for row in single_point_rows(res)]


def test_empty_sweep():
    empty = Sweep(AmplitudeModulatedDrive(OMEGA0_A, 616.0), PulseChannelParams(0.25, 0.0),
                  410.0, ThermalContext(0.0), ())
    assert (empty.counts, empty.n_pulses, empty.tails) == ((), 0, ())
    assert conditional_matrices(empty) == []
    assert run_ensembles(empty, 10, 0) == []
