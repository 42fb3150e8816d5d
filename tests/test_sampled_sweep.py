"""The single walk of a sampled sweep: ``run_ensembles`` against separate
per-point runs, against the scalar reference walker and, in distribution,
against the exact ``conditional_matrices``; a pinned CSV digest, and the
work a sampled sweep does: the streams it draws, the rotations it builds
and the atoms its rows build."""

import hashlib
import math
import random
import statistics

import numpy as np
import pytest
from hypothesis import given, strategies as st

from qubitfr import checks, montecarlo, protocol, scenarios
from qubitfr.channel import PulseChannelParams
from qubitfr.cli import main
from qubitfr.core import AmplitudeModulatedDrive, PhaseRotatingDrive, ThermalContext
from qubitfr.montecarlo import run_ensemble, run_ensembles
from qubitfr.protocol import Sweep, conditional_matrices
from scalar_sampler import run_records

OMEGA0_A = math.pi / 616.0
OMEGA0_P = 2.0 * math.pi * 0.8e-3


def preset_sweep(name, **overrides):
    cfg = scenarios.with_overrides(scenarios.get_preset(name), **overrides)
    return cfg, scenarios.resolve(cfg).sweep(cfg.sampled_grid())


def point_configs(sweep):
    """Each point of a sweep as its own one-time sweep."""
    return [sweep.replace(times=(t_f,)) for t_f in sweep.times]


def generated_sweep(drive, channel, tau, grid):
    return Sweep(drive, channel, tau, ThermalContext(0.0), grid)


@given(family=st.sampled_from(["amplitude", "phase"]),
       tau=st.floats(50.0, 2000.0),
       drive_period=st.none() | st.floats(200.0, 2000.0),
       p_absorb=st.floats(0.0, 1.0),
       p_pump=st.floats(0.0, 1.0),
       points=st.lists(st.tuples(st.integers(0, 12),
                                 st.sampled_from([0.0, 0.5]) | st.floats(0.0, 0.999)),
                       min_size=1, max_size=12),
       n=st.integers(1, 300), chunk_size=st.integers(1, 700),
       single_chunk_size=st.integers(1, 700), seed=st.integers(0, 2**64 - 1))
def test_grouped_walk_equals_separate_runs(family, tau, drive_period, p_absorb,
                                           p_pump, points, n, chunk_size,
                                           single_chunk_size, seed):
    """Ascending grids up to 12 pulses with repeated pulse counts: one walk
    of the whole sweep over both initial states equals, point by point and
    absorbed pulses included, each point run on its own under another
    chunk size."""
    period = tau if drive_period is None else drive_period
    if family == "amplitude":
        drive = AmplitudeModulatedDrive(OMEGA0_A, period)
    else:
        drive = PhaseRotatingDrive(OMEGA0_P, 2.0 * math.pi / period)
    channel = PulseChannelParams(p_absorb, p_pump)
    grid = [(k + frac) * tau for k, frac in sorted(points)]
    sweep = generated_sweep(drive, channel, tau, grid)
    grouped = run_ensembles(sweep, n, seed, chunk_size=chunk_size)
    assert len(grouped) == len(grid)
    for pc, stats in zip(point_configs(sweep), grouped):
        separate = run_ensemble(pc, n, seed, chunk_size=single_chunk_size)
        assert stats.to_dict() == separate.to_dict(), pc.times


def assert_walk_equals_scalar_reference(sweep, n, seed,
                                        chunk_size=montecarlo.DEFAULT_CHUNK):
    """Every point's counts equal the scalar walker's, up starts on
    [0, n) and down starts on [n, 2n)."""
    for pc, stats in zip(point_configs(sweep),
                         run_ensembles(sweep, n, seed, chunk_size=chunk_size)):
        up = run_records(pc, 0, n, seed)
        down = run_records(pc, 1, n, seed, index_offset=n)
        ups = [sum(r.final_index == 0 for r in side) for side in (up, down)]
        absorbed = sum(e.absorbed for r in up + down for e in r.pulse_events)
        assert stats.to_dict() == {
            "counts": [ups, [n - ups[0], n - ups[1]]], "n_per_initial": [n, n],
            "absorbed_pulses": absorbed, "total_pulses": 2 * n * pc.n_pulses,
            "master_seed": seed}, pc.times


def test_grouped_walk_equals_scalar_reference():
    """fig2a's first 17 grid points share pulse counts."""
    cfg, _ = preset_sweep("fig2a", mc_grid="all")
    sweep = scenarios.resolve(cfg).sweep(cfg.t_f_grid[:17])
    assert len(set(sweep.counts)) < len(sweep.counts)
    assert_walk_equals_scalar_reference(sweep, 60, 777)


def test_off_period_phase_walk_equals_scalar_reference():
    """A phase sweep whose tau (500 ns) is no whole number of drive periods
    (616 ns): the period rotations differ and carry outer z-rotations, and
    every point but 3.0 tau has a tail, so the measured counts depend on
    each rotation of the walk."""
    drive = PhaseRotatingDrive(OMEGA0_P, 2.0 * math.pi / 616.0)
    channel, tau = PulseChannelParams(0.4, 0.3), 500.0
    sweep = generated_sweep(drive, channel, tau, [k * tau for k in (1.3, 3.0, 4.6, 6.2)])
    assert_walk_equals_scalar_reference(sweep, 60, 777)


@pytest.mark.parametrize("p_absorb, chunk_size, n_max",
                         [(0.0, 3, 60), (1e-3, 8, 200), (0.3, 5, 120), (1.0, 4, 90)])
def test_long_walks_compact_their_label_table(monkeypatch, p_absorb, chunk_size,
                                              n_max):
    """Walks many times longer than their chunk equal the scalar walker:
    each pulse appends two poles to a chunk's table, so the table outgrows
    the chunk and is cut back to its live labels, and before each cut it
    holds at most the chunk plus the two poles just appended."""
    widths = []  # (table columns, chunk trajectories) at each compaction
    real_compact = montecarlo._compact

    def counting_compact(table, label):
        widths.append((table.shape[1], len(label)))
        return real_compact(table, label)

    monkeypatch.setattr(montecarlo, "_compact", counting_compact)
    drive = PhaseRotatingDrive(OMEGA0_P, 2.0 * math.pi / 616.0)
    channel, tau = PulseChannelParams(p_absorb, 0.3), 500.0
    sweep = generated_sweep(drive, channel, tau,
                            (0.35 * n_max * tau, (n_max + 0.6) * tau))
    assert_walk_equals_scalar_reference(sweep, 6, 777, chunk_size=chunk_size)
    assert widths
    assert all(m < k <= m + 2 for k, m in widths), widths


def off_period_sweep(rng):
    """Four points at fractional t_f up to 20 pulses, on a drive whose
    period (200-2000 ns) is unrelated to tau (50-2000 ns); p_absorb and
    p_pump each 0, 1 or uniform."""
    tau, period = rng.uniform(50.0, 2000.0), rng.uniform(200.0, 2000.0)
    drive = rng.choice([AmplitudeModulatedDrive(OMEGA0_A, period),
                        PhaseRotatingDrive(OMEGA0_P, 2.0 * math.pi / period)])
    channel = PulseChannelParams(*(rng.choice([0.0, 1.0, rng.random()])
                                   for _ in range(2)))
    return generated_sweep(drive, channel, tau,
                           sorted(rng.uniform(0.0, 20.0) * tau for _ in range(4)))


def test_off_period_walks_follow_the_exact_matrices():
    """Pooled over 300 generated sweeps, 1,000 trajectories per start: the
    pull (estimate - p) / sqrt(p (1 - p) / n) of each column with
    n p (1 - p) >= 5 is a standard normal.  One point per walk, drawn at
    random, enters, so the pulls are independent (the points of one walk
    share trajectories) and chi^2 / k has mean 1 and standard deviation
    sqrt(2 / k), about 0.065 at k of about 480; it is gated at 5 of those.
    Over generator seeds 0-39 it spread 0.82-1.14 (standard deviation
    0.071), with max |pull| 2.6-4.2.  The max |pull| is gated by Bonferroni
    at a family-wise 1e-4, about 5.1 sigma."""
    rng, n, pulls = random.Random(2021), 1000, []
    for _ in range(300):
        sweep = off_period_sweep(rng)
        pick = rng.randrange(len(sweep.times))
        stats = run_ensembles(sweep, n, rng.randrange(2**64))[pick]
        cm = conditional_matrices(sweep)[pick]
        for i, p in enumerate((cm.p_up_given_up, cm.p_up_given_down)):
            if n * p * (1.0 - p) >= 5.0:
                pulls.append((stats.conditional_estimate().prob(0, i) - p)
                             / math.sqrt(p * (1.0 - p) / n))
    k = len(pulls)
    chi2 = math.fsum(z * z for z in pulls) / k
    assert k > 400
    assert abs(chi2 - 1.0) <= 5.0 * math.sqrt(2.0 / k), (chi2, k)
    bound = statistics.NormalDist().inv_cdf(1.0 - 1e-4 / (2 * k))
    assert max(map(abs, pulls)) <= bound, (max(map(abs, pulls)), bound)


def test_sampled_sweep_csv_is_pinned(tmp_path):
    # Derived under random-number layout 3; any change to the streams, the
    # propagation or the CSV shows here.
    assert main(["run", "fig2a", "--mode", "montecarlo", "--mc-grid", "all",
                 "--trajectories", "200", "--seed", "777",
                 "--outdir", str(tmp_path)]) == 0
    digest = hashlib.sha256((tmp_path / "fig2a.csv").read_bytes()).hexdigest()
    assert digest == "c591abe63f33121959a4e46d82bc5c25267a56f13c96b6ee8582bc9f7869d607"


def record_draws(monkeypatch):
    """(Philox builds, draws) of the package from here on, each draw as
    (stream key, position of its first word, words drawn).  A discard, a
    ``random_raw`` call that returns no words, is not a draw."""
    philox_builds, draws = [], []
    real_philox = np.random.Philox

    class RecordingPhilox(real_philox):
        def __init__(self, *args, **kwargs):
            philox_builds.append(1)
            super().__init__(*args, **kwargs)

        def random_raw(self, size=None, output=True):
            if output:
                state = self.state
                next_word = 4 * int(state["state"]["counter"][0]) - 4 + state["buffer_pos"]
                draws.append((int(state["state"]["key"][1]), next_word, size))
            return super().random_raw(size, output)

    monkeypatch.setattr(np.random, "Philox", RecordingPhilox)
    return philox_builds, draws


def walk_draws(counts, roles, start, m):
    """The draws of one chunk: keys 4 n + k + 1, role 3 at each measured
    pulse count n, then ``roles`` of the pulse that follows it."""
    n_max = max(counts)
    return [(4 * n + k + 1, start, m) for n in range(n_max + 1)
            for k in ([3] if n in counts else []) + (roles if n < n_max else [])]


def test_sampled_sweep_walks_its_pulses_once(tmp_path, monkeypatch,
                                             rotations_built):
    """fig2a's 97 points on 13 pulse counts: each ``run_ensembles`` call
    builds one Philox, and each chunk steps through the longest point's
    pulses once, with one draw per pulse of the absorption and outcome
    streams (``p_pump`` 0 settles the pump stream) and one
    final-measurement draw per distinct count, each at its stream's key and
    at the chunk's first trajectory; each period rotation is built about
    once, and the 84 tails off the pulses in one batch."""
    cfg, sweep = preset_sweep("fig2a", mode="montecarlo", mc_grid="all",
                              n_trajectories=200)
    rotations_built.clear()  # building the sweep above built its rotations
    philox_builds, draws = record_draws(monkeypatch)
    scenarios.run_scenario(cfg, outdir=tmp_path)
    counts = set(sweep.counts)
    n_max = max(counts)
    assert (len(sweep.times), len(counts), n_max) == (97, 13, 12)
    assert sweep.channel.p_pump == 0.0
    assert len(philox_builds) == 1
    assert len(walk_draws(counts, [0, 1], 0, 400)) == 2 * n_max + len(counts)
    # One chunk of 400 trajectories here, chunks of 150, 150 and 100 below.
    assert draws == walk_draws(counts, [0, 1], 0, 400)
    assert 0 < sum(n for _, n in rotations_built) <= n_max + len(sweep.times) + 2
    assert [entry for entry in rotations_built if entry[0] == "tails"] == [
        ("tails", len(sweep.times) - len(counts))]
    draws.clear()
    run_ensembles(sweep, 200, 777, chunk_size=150)
    assert len(philox_builds) == 2
    assert draws == (walk_draws(counts, [0, 1], 0, 150) + walk_draws(counts, [0, 1], 150, 150)
                     + walk_draws(counts, [0, 1], 300, 100))


@pytest.mark.parametrize("preset, distinct", [("fig5d", 1), ("fig2a", 12)])
def test_walk_converts_each_period_rotation_once(monkeypatch, preset, distinct):
    """The walk makes one array of each distinct period rotation: fig5d's
    tau is its drive's period, so its 50 periods are one object; fig2a's
    tau 410 against tau_a 616 gives 12 rotations.  The counts are those of
    a walk that converts all of them."""
    _, sweep = preset_sweep(preset, mode="montecarlo", mc_grid="all")
    ids = {id(rot) for rot in sweep.periods}
    assert len(ids) == distinct
    expected = [stats.to_dict() for stats in run_ensembles(sweep, 50, 777, chunk_size=31)]
    converted, real_array = [], np.array

    class CountingNumpy:
        def __getattr__(self, name):
            return getattr(np, name)

        @staticmethod
        def array(obj, *args, **kwargs):
            converted.append(id(obj))
            return real_array(obj, *args, **kwargs)

    monkeypatch.setattr(montecarlo, "np", CountingNumpy())
    stats = run_ensembles(sweep, 50, 777, chunk_size=31)
    assert sorted(i for i in converted if i in ids) == sorted(ids)
    assert [s.to_dict() for s in stats] == expected


@pytest.mark.parametrize("p_absorb, p_pump, roles", [
    (0.3, 0.4, [0, 1, 2]), (1e-4, 5e-4, [0, 1, 2]), (0.3, 0.0, [0, 1]),
    (1.0, 1.0, [0, 1, 2]), (0.0, 1.0, [0, 1, 2]), (0.0, 0.0, [0, 1])])
def test_walk_draws_only_unsettled_streams(monkeypatch, p_absorb, p_pump, roles):
    """Uniforms lie in [0, 1), so at ``p_pump`` 0 no pump succeeds and the
    pump stream is not drawn.  Every other stream is drawn once per pulse,
    however small its threshold, and the final measurement once per
    measured count."""
    drive = PhaseRotatingDrive(OMEGA0_P, 2.0 * math.pi / 616.0)
    channel, tau = PulseChannelParams(p_absorb, p_pump), 500.0
    sweep = generated_sweep(drive, channel, tau,
                            [k * tau for k in (1.3, 3.0, 3.5, 6.2)])
    _, draws = record_draws(monkeypatch)
    run_ensembles(sweep, 5, 777, chunk_size=7)
    counts = set(sweep.counts)
    assert draws == walk_draws(counts, roles, 0, 7) + walk_draws(counts, roles, 7, 3)


@pytest.mark.parametrize("p_absorb", [0.0, 0.4, 1.0])
@pytest.mark.parametrize("p_pump", [0.0, 0.3, 1.0])
@pytest.mark.parametrize("family", ["amplitude", "phase"])
def test_settled_corners_equal_scalar_reference(family, p_absorb, p_pump):
    """The walks, which skip the pump stream at ``p_pump`` 0, count what the
    scalar walker, which reads every stream, counts: at ``p_absorb`` and
    ``p_pump`` each 0, 1 or between, on off-period sweeps of both drives."""
    if family == "amplitude":
        drive = AmplitudeModulatedDrive(OMEGA0_A, 616.0)
    else:
        drive = PhaseRotatingDrive(OMEGA0_P, 2.0 * math.pi / 616.0)
    channel, tau = PulseChannelParams(p_absorb, p_pump), 500.0
    sweep = generated_sweep(drive, channel, tau, [k * tau for k in (1.3, 3.0, 3.4, 5.6)])
    assert_walk_equals_scalar_reference(sweep, 12, 4242, chunk_size=5)


@given(family=st.sampled_from(["amplitude", "phase"]),
       tau=st.floats(50.0, 2000.0), period=st.floats(200.0, 2000.0),
       p_absorb=st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
       p_pump=st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
       fractions=st.dictionaries(st.integers(0, 5),
                                 st.lists(st.floats(0.0, 0.999), min_size=1,
                                          max_size=12),
                                 min_size=1, max_size=3),
       n=st.integers(1, 5), chunk_size=st.integers(3, 4096),
       seed=st.integers(0, 2**64 - 1))
def test_dense_off_period_sweeps_equal_single_runs_and_scalar_reference(
        family, tau, period, p_absorb, p_pump, fractions, n, chunk_size, seed):
    """Sweeps with 1-12 points at each of up to three pulse counts, off the
    drive's period: the walk's one Born product per count gives each point
    the counts of its own run and of the scalar walker."""
    if family == "amplitude":
        drive = AmplitudeModulatedDrive(OMEGA0_A, period)
    else:
        drive = PhaseRotatingDrive(OMEGA0_P, 2.0 * math.pi / period)
    channel = PulseChannelParams(p_absorb, p_pump)
    grid = sorted((k + f) * tau for k, fs in fractions.items() for f in fs)
    sweep = generated_sweep(drive, channel, tau, grid)
    for pc, stats in zip(point_configs(sweep),
                         run_ensembles(sweep, n, seed, chunk_size=chunk_size)):
        assert stats.to_dict() == run_ensemble(pc, n, seed).to_dict(), pc.times
    assert_walk_equals_scalar_reference(sweep, n, seed, chunk_size=chunk_size)


def test_born_products_in_blocks_equal_one_product(monkeypatch):
    """A count's Born product, its points' measured axes times the label
    table, is cut into blocks of at most ``BORN_BLOCK`` probabilities; cut
    to one or a few points per block, the counts stay those of one product
    per count."""
    _, sweep = preset_sweep("fig2a", mc_grid="all")
    whole = [s.to_dict() for s in run_ensembles(sweep, 300, 99, chunk_size=128)]
    for block in (1, 50):
        monkeypatch.setattr(montecarlo, "BORN_BLOCK", block)
        assert [s.to_dict() for s in run_ensembles(sweep, 300, 99,
                                                   chunk_size=128)] == whole


@pytest.mark.parametrize("name", ["fig3a", "fig6b", "fig4b", "fig6e"])
@pytest.mark.parametrize("mode", ["montecarlo", "both"])
def test_sampled_rows_build_their_atoms_once(monkeypatch, name, mode):
    """A sampled energetics or fr table computes the Gibbs weights once, in
    its one ``Sweep`` (two ``gibbs_population`` calls), and each row's four
    atoms once, in one ``energy_changes`` pass for the whole table: its
    value and its error both read them."""
    cfg = scenarios.with_overrides(scenarios.get_preset(name), mode=mode,
                                   mc_grid="all", n_trajectories=20)
    res = scenarios.resolve(cfg)
    calls = {"gibbs_population": [], "energy_changes": [],
             "energy_change_distribution": []}
    for fname in calls:
        real = getattr(protocol, fname)

        def counted(*args, _real=real, _name=fname):
            calls[_name].append(args)
            return _real(*args)

        monkeypatch.setattr(protocol, fname, counted)
    _, rows = scenarios.table(res)
    assert sum(row[2] == "montecarlo" for row in rows) == len(cfg.t_f_grid)
    [(_, levels, matrices)] = calls["energy_changes"]
    assert len(levels) == len(matrices) == len(rows)
    assert (len(calls["gibbs_population"]),
            len(calls["energy_change_distribution"])) == (2, 0)


def sampled_fig6e_table():
    cfg = scenarios.with_overrides(scenarios.get_preset("fig6e"), mode="both",
                                   mc_grid="all", n_trajectories=20)
    scenarios.table(scenarios.resolve(cfg))


def fig6b_fig6e_walk(monkeypatch):
    """Criterion 7 on one preset group, fig6b and fig6e, at 20 trajectories."""
    monkeypatch.setattr(scenarios, "PRESETS", {
        name: scenarios.with_overrides(scenarios.PRESETS[name], n_trajectories=20)
        for name in ("fig6b", "fig6e")})
    checks.check_monte_carlo()


@pytest.mark.parametrize("run", [
    lambda monkeypatch: sampled_fig6e_table(), fig6b_fig6e_walk],
    ids=["both_mode_table", "criterion_7"])
def test_each_sweep_builds_its_period_rotations_once(monkeypatch, rotations_built,
                                                     run):
    """A mode "both" table with every point sampled, and criterion 7's walk
    of a preset group and its chunk check, build one batch of period
    rotations per ``Sweep``, in its constructor: the walks and the exact
    matrices read its ``periods`` and build none."""
    per_sweep = []
    real = protocol.Sweep.__init__

    def sweep_init(self, *args, **kwargs):
        start = len(rotations_built)
        real(self, *args, **kwargs)
        per_sweep.append([kind for kind, _ in rotations_built[start:]].count("periods"))

    monkeypatch.setattr(protocol.Sweep, "__init__", sweep_init)
    run(monkeypatch)
    assert per_sweep and per_sweep == [1] * len(per_sweep)
    assert [kind for kind, _ in rotations_built].count("periods") == len(per_sweep)
