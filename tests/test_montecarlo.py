"""Trajectory sampler tests: reproducibility, engine equivalence, statistics."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qubitfr.channel import PulseChannelParams
from qubitfr.core import (AmplitudeModulatedDrive, PhaseRotatingDrive,
                          ThermalContext)
from qubitfr.montecarlo import (DEFAULT_CHUNK, EnsembleStats, run_ensemble,
                                run_ensembles)
from qubitfr.protocol import (ConditionalMatrix, Sweep,
                              conditional_matrix, energy_change_distribution,
                              fr_functional, fr_targets, mean, sweep_levels)
from qubitfr.scenarios import get_preset, resolve
from scalar_sampler import PulseEvent, derive_stream, run_records, sample_pulse

OMEGA0_A = math.pi / 616.0
OMEGA0_P = 2.0 * math.pi * 0.8e-3
SEED = 424242


def amplitude_config(n_pulses=3, tau=410.0, t_f=None):
    """One run, a one-time sweep: at most ``n_pulses`` pulses, then a coast
    to ``t_f``, by default the last pulse."""
    drive = AmplitudeModulatedDrive(OMEGA0_A, 616.0)
    t_f = n_pulses * tau if t_f is None else t_f
    return Sweep(drive, PulseChannelParams(0.25, 0.0), tau,
                 ThermalContext(2.0 / OMEGA0_A), (t_f,), n_pulses)


def phase_config(n_pulses=4, tau_theta=616.0, pd=0.45, beta=0.0, beta_r=0.0):
    """One run on the phase drive, to pulse ``n_pulses`` at tau = tau_theta."""
    drive = PhaseRotatingDrive(OMEGA0_P, 2.0 * math.pi / tau_theta)
    return Sweep(drive, PulseChannelParams(0.25, pd), tau_theta,
                 ThermalContext(beta, beta_r), (n_pulses * tau_theta,), n_pulses)


class TestStreams:
    def test_streams_are_reproducible(self):
        a = derive_stream(SEED, 2, 1, 17).random(8)
        b = derive_stream(SEED, 2, 1, 17).random(8)
        assert np.array_equal(a, b)

    def test_streams_are_distinct_per_index(self):
        # Per trajectory, and per pulse count and role of the same word.
        words = {(n, role, i): derive_stream(SEED, n, role, i).random()
                 for n in (0, 1, 12) for role in range(4) for i in (0, 1, 5)}
        assert len(set(words.values())) == len(words)

    def test_batched_draws_equal_sequential_draws(self):
        # The package engine and the scalar reference rely on a block
        # request consuming the stream exactly like repeated scalar requests.
        batch = derive_stream(SEED, 3, 0, 5).random(13)
        rng = derive_stream(SEED, 3, 0, 5)
        sequential = np.array([rng.random() for _ in range(13)])
        assert np.array_equal(batch, sequential)

    @pytest.mark.parametrize("n_pulses", [0, 50])
    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    def test_advance_counter_and_slicing_agree(self, seed, n_pulses):
        # Three independent ways to reach word i of the layout-3 stream of
        # each role read after n_pulses pulses: skip ahead, construct at a
        # counter (the scalar reference), and slice one long draw from the
        # start (the package engine).
        for role in range(4):
            key = np.array([seed, 4 * n_pulses + role + 1], dtype=np.uint64)
            whole = np.random.Generator(np.random.Philox(key=key)).random(12350)
            for i in (0, 1, 7, 12345):
                bitgen = np.random.Philox(key=key)
                bitgen.advance(i // 4)
                advanced = np.random.Generator(bitgen).random(i % 4 + 4)[i % 4:]
                assert np.array_equal(
                    advanced, derive_stream(seed, n_pulses, role, i).random(4))
                assert np.array_equal(advanced, whole[i:i + 4])


    @pytest.mark.parametrize("key", [(0, 1), (SEED, 4 * 12 + 3), (2**64 - 1, 2**64 - 1)])
    @pytest.mark.parametrize("counter", [0, 3, 2**40 + 7])
    def test_uniforms_are_the_raw_words_top_bits(self, key, counter):
        # The walk compares raw words with integer bounds, which rests on
        # numpy's uniform of word w being (w >> 11) * 2**-53 bit for bit.
        for offset in range(4):
            for size in (1, 5, 400, 16384):
                raw_bits, float_bits = (np.random.Philox(key=np.array(key, dtype=np.uint64),
                                                         counter=counter) for _ in range(2))
                raw_bits.random_raw(offset)
                float_bits.random_raw(offset)
                expected = np.random.Generator(float_bits).random(size)
                uniforms = (raw_bits.random_raw(size) >> 11) * 2.0**-53
                assert uniforms.dtype == expected.dtype
                assert np.array_equal(uniforms.view(np.uint64), expected.view(np.uint64))


# (master_seed, chunk_size) for the engine cross-check.  The first case is
# the default call; its test ids stay the bare config names.  Chunks of 97
# straddle the up/down boundary at trajectory 300; the last case draws all
# 600 trajectories in one chunk larger than the run.
REKEY_CASES = [(SEED, DEFAULT_CHUNK), (SEED, 97), (0, 97), (2**64 - 1, 97),
               (2**64 - 1, 16384)]


def rekey_params():
    for make in (amplitude_config, phase_config):
        for k, (seed, chunk) in enumerate(REKEY_CASES):
            label = make.__name__ if k == 0 else (
                f"{make.__name__}-seed{seed}-chunk{chunk}")
            yield pytest.param(make, seed, chunk, id=label)


class TestSamplePulse:
    def test_thresholds_are_strict(self):
        # A uniform equal to its probability takes the branch that the
        # probability excludes: not absorbed, then outcome 1, then not pumped.
        params = PulseChannelParams(0.5, 0.25)
        state = (0.0, 0.0, 0.0)
        assert sample_pulse(state, params, 0.5, 0.0, 0.0) == (
            state, PulseEvent(absorbed=False))
        assert sample_pulse(state, params, 0.0, 0.5, 0.25) == (
            (0.0, 0.0, -1.0), PulseEvent(True, 1, False))

    def test_not_absorbed_leaves_state(self):
        state = (0.1, 0.2, 0.3)
        out, event = sample_pulse(state, PulseChannelParams(0.0, 1.0),
                                  *np.random.default_rng(0).random(3))
        assert out == state
        assert not event.absorbed
        assert event.projection_outcome is None and event.pumped is None

    def test_certain_absorption_projects_to_poles(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            out, event = sample_pulse((0.3, -0.1, 0.4),
                                      PulseChannelParams(1.0, 0.5), *rng.random(3))
            assert event.absorbed
            rx, ry, rz = out
            assert abs(rz) == 1.0 and rx == 0.0 and ry == 0.0
            if event.projection_outcome == 0:
                assert rz == 1.0 and event.pumped is False
            else:
                assert event.pumped == (rz == 1.0)

    def test_sampling_mean_matches_channel(self):
        state = (0.4, 0.1, -0.35)
        params = PulseChannelParams(0.6, 0.45)
        rng = np.random.default_rng(123)
        n = 40_000
        total = np.zeros(3)
        for _ in range(n):
            out, _ = sample_pulse(state, params, *rng.random(3))
            total += out
        # The pulse averaged over absorption: coherences kept with weight
        # 1 - pa, and the absorbed share of rz pumped toward +1.
        (x, y, z), pa, pd = state, params.p_absorb, params.p_pump
        expected = np.array(((1 - pa) * x, (1 - pa) * y,
                             (1 - pa) * z + pa * (z + pd * (1 - z))))
        # rz outcomes are +-1 with probability ~1/2, so sigma <~ 1/sqrt(n).
        assert np.all(np.abs(total / n - expected) < 4.0 / math.sqrt(n))


class TestEngineEquivalence:
    @pytest.mark.parametrize("make,seed,chunk_size", rekey_params())
    def test_record_engine_matches_vectorized_engine(self, make, seed, chunk_size):
        # The scalar reference builds one generator per word at its
        # counter, so it checks the package engine's chunk draws across
        # chunk boundaries, across the up/down boundary and at the ends of
        # the seed range.
        config = make()
        n = 300
        fast = run_ensemble(config, n, seed, chunk_size=chunk_size)
        up = run_records(config, 0, n, seed)
        down = run_records(config, 1, n, seed, index_offset=n)
        records = up + down
        assert {r.seed_index for r in records} == set(range(2 * n))
        assert all(len(r.pulse_events) == config.n_pulses for r in records)
        ups = [sum(r.final_index == 0 for r in side) for side in (up, down)]
        absorbed = sum(e.absorbed for r in records for e in r.pulse_events)
        assert fast.to_dict() == {
            "counts": [ups, [n - ups[0], n - ups[1]]], "n_per_initial": [n, n],
            "absorbed_pulses": absorbed, "total_pulses": 2 * n * config.n_pulses,
            "master_seed": seed}

    @pytest.mark.parametrize("preset,ups,absorbed", [
        ("fig5d", (2036, 956), 499490),
        ("fig4b", (10305, 9640), 119868)],
        ids=["fig5d", "fig4b"])
    def test_realizations_are_pinned(self, preset, ups, absorbed):
        # Counts of random-number layout 3, of 20,000 trajectories per
        # initial state; any change to the streams or to the propagation
        # arithmetic shows here.
        res = resolve(get_preset(preset))
        stats = run_ensemble(res.protocol_at(res.config.t_f_grid[-1]),
                             20_000, 777)
        assert (stats.ups, stats.n_per_initial) == (ups, 20_000)
        assert stats.absorbed_pulses == absorbed

    def test_chunking_is_invisible(self):
        config = phase_config()
        small = run_ensemble(config, 3000, SEED, chunk_size=97)
        big = run_ensemble(config, 3000, SEED, chunk_size=100_000)
        assert small.to_dict() == big.to_dict()

    @given(seed=st.integers(0, 2**64 - 1), chunk_size=st.integers(1, 700),
           n_pulses=st.integers(0, 12), n=st.integers(1, 400))
    def test_any_chunking_equals_default_run(self, seed, chunk_size, n_pulses, n):
        # A sweep of up to three pulse counts, walked once.
        pc = phase_config()
        sweep = Sweep(pc.drive, pc.channel, pc.tau, pc.thermal,
                      [k * pc.tau for k in sorted({0, n_pulses // 2, n_pulses})])
        whole = [s.to_dict() for s in run_ensembles(sweep, n, seed)]
        chunked = run_ensembles(sweep, n, seed, chunk_size=chunk_size)
        assert [s.to_dict() for s in chunked] == whole


class TestEnsembleStats:
    def test_ensemble_populates_both_columns(self):
        config = amplitude_config(n_pulses=1)
        stats = run_ensemble(config, 800, SEED)
        assert stats.n_per_initial == 800
        assert all(type(up) is int for up in stats.ups)
        assert stats.total_pulses == 1600 * config.n_pulses
        assert 0 <= stats.absorbed_pulses <= stats.total_pulses

    def test_count_consistency_enforced(self):
        # No more final-up trajectories than were started, nor fewer than 0.
        for ups in ((11, 0), (5, -1)):
            with pytest.raises(ValueError, match="outside"):
                EnsembleStats(ups, 10, 0, 0, SEED)

    @pytest.mark.parametrize("column", [0, 1])
    def test_empty_column_rejected(self, column):
        # Every estimate divides by the trajectory count.
        ups = [0, 0]
        ups[column] = 3
        with pytest.raises(ValueError, match="n_per_initial"):
            EnsembleStats(tuple(ups), 0, 0, 0, SEED)

    def test_zero_pulse_trajectories_are_deterministic(self):
        # Without pulses a basis start stays a basis state, so the final
        # Born draw is a certainty no matter the seed.
        config = amplitude_config(n_pulses=0, t_f=616.0)
        stats = run_ensemble(config, 300, SEED)
        assert stats.ups == (300, 0)

    def test_std_err_is_binomial(self):
        config = phase_config(n_pulses=3)
        stats = run_ensemble(config, 2000, SEED)
        err = stats.std_err()
        assert len(err) == 2
        for i in (0, 1):
            p = stats.conditional_estimate().prob(0, i)
            assert err[i] == pytest.approx(math.sqrt(p * (1.0 - p) / 2000.0))

    def test_rejects_too_few_trajectories(self):
        for n in (0, -3, 2.0):
            with pytest.raises(ValueError, match="n_per_initial"):
                run_ensembles(amplitude_config(), n, SEED)

    def test_rejects_nonpositive_chunk_size(self):
        # A negative chunk once made the chunk loop empty and returned all
        # trajectories as "down" with no pulse absorbed.
        for chunk_size in (0, -5):
            with pytest.raises(ValueError, match="chunk_size"):
                run_ensembles(amplitude_config(), 100, SEED,
                              chunk_size=chunk_size)

    @pytest.mark.parametrize("seed", [-1, 2**64, 1.5, True])
    def test_rejects_seed_outside_uint64_ints(self, seed):
        # -1 and 2**64 once died in the key array with an OverflowError;
        # 1.5 and True ran silently as seed 1.
        with pytest.raises(ValueError, match="master_seed"):
            run_ensembles(amplitude_config(), 10, seed)


class TestStatisticalAgreement:
    @pytest.mark.parametrize("make,n", [(amplitude_config, 20_000),
                                        (phase_config, 20_000)])
    def test_estimates_within_four_sigma_of_exact(self, make, n):
        config = make()
        stats = run_ensemble(config, n, SEED)
        exact = conditional_matrix(config)
        est = stats.conditional_estimate()
        err = stats.std_err()
        for i in (0, 1):
            diff = abs(est.prob(0, i) - exact.prob(0, i))
            assert diff <= 4.0 * max(err[i], 1e-12)

    def test_fr_estimate_matches_target_within_errors(self):
        config = amplitude_config(n_pulses=3, tau=410.0)
        gamma = config.thermal.beta - config.thermal.beta_r
        stats = run_ensemble(config, 20_000, SEED)
        atoms = energy_change_distribution(stats.conditional_estimate(), config)
        value = fr_functional(atoms, gamma)
        err = stats.functional_std_err(atoms, config.weights,
                                       lambda v: math.exp(-gamma * v))
        assert err > 0.0
        assert abs(value - fr_targets(config, sweep_levels(config))[0]) <= 4.0 * err

    def test_mean_energy_matches_deterministic_within_errors(self):
        config = phase_config(n_pulses=4, pd=0.5184, beta=44.0)
        stats = run_ensemble(config, 20_000, SEED)
        atoms = energy_change_distribution(stats.conditional_estimate(), config)
        mean_mc = mean(atoms)
        err = stats.functional_std_err(atoms, config.weights, lambda v: v)
        exact = mean(energy_change_distribution(conditional_matrix(config), config))
        assert err > 0.0
        assert abs(mean_mc - exact) <= 4.0 * err


class TestFunctionalStdErr:
    @pytest.mark.parametrize("make", [
        amplitude_config,
        lambda: phase_config(n_pulses=4, pd=0.5184, beta=44.0, beta_r=-30.0)],
        ids=["amplitude", "phase"])
    @pytest.mark.parametrize("functional", ["mean", "fr"])
    def test_equals_delta_method_error(self, make, functional):
        # The delta method on the two binomial columns, with each slope taken
        # as F(column i set to 1) - F(column i set to 0): F is linear in
        # each column.
        config = make()
        gamma = config.thermal.beta - config.thermal.beta_r
        stats = run_ensemble(config, 20_000, SEED)

        def total(p_uu, p_ud):
            atoms = energy_change_distribution(
                ConditionalMatrix.from_upper_row(p_uu, p_ud), config)
            return mean(atoms) if functional == "mean" else fr_functional(atoms, gamma)

        up = [stats.conditional_estimate().prob(0, i) for i in (0, 1)]
        slopes = (total(1.0, up[1]) - total(0.0, up[1]),
                  total(up[0], 1.0) - total(up[0], 0.0))
        expected = math.sqrt(sum(s * s * p * (1.0 - p) / 20_000
                                 for s, p in zip(slopes, up)))
        f = (lambda v: v) if functional == "mean" else (lambda v: math.exp(-gamma * v))
        atoms = energy_change_distribution(stats.conditional_estimate(), config)
        assert stats.functional_std_err(atoms, config.weights, f) \
            == pytest.approx(expected, rel=1e-12)
