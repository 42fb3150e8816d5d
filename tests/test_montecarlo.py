"""Trajectory sampler tests: reproducibility, engine equivalence, statistics."""

import math

import numpy as np
import pytest

from qubitfr.channel import PulseChannelParams, apply_pulse_map
from qubitfr.core import (AmplitudeModulatedDrive, PhaseRotatingDrive,
                          QubitState, ThermalContext)
from qubitfr.montecarlo import (DEFAULT_CHUNK, EnsembleStats,
                                IncompleteEnsembleError, fr_estimate_mc,
                                mean_energy_mc, run_ensemble, run_trajectories)
from qubitfr.protocol import (ProtocolConfig, conditional_matrix,
                              energy_change_distribution, fr_target)
from qubitfr.scenarios import get_preset, resolve
from scalar_sampler import derive_stream, run_records, sample_pulse

OMEGA0_A = math.pi / 616.0
OMEGA0_P = 2.0 * math.pi * 0.8e-3
SEED = 424242


def amplitude_config(n_pulses=3, tau=410.0, t_f=None):
    drive = AmplitudeModulatedDrive(OMEGA0_A, 616.0)
    return ProtocolConfig(drive, PulseChannelParams(0.25, 0.0), tau, n_pulses,
                          ThermalContext(2.0 / OMEGA0_A), t_f=t_f)


def phase_config(n_pulses=4, tau_theta=616.0, pd=0.45, beta=0.0, beta_r=0.0):
    drive = PhaseRotatingDrive(OMEGA0_P, 2.0 * math.pi / tau_theta)
    return ProtocolConfig(drive, PulseChannelParams(0.25, pd), tau_theta,
                          n_pulses, ThermalContext(beta, beta_r))


class TestStreams:
    def test_streams_are_reproducible(self):
        a = derive_stream(SEED, 17).random(8)
        b = derive_stream(SEED, 17).random(8)
        assert np.array_equal(a, b)

    def test_streams_are_distinct_per_index(self):
        a = derive_stream(SEED, 0).random(8)
        b = derive_stream(SEED, 1).random(8)
        assert not np.array_equal(a, b)

    def test_batched_draws_equal_sequential_draws(self):
        # The package engine and the scalar reference rely on a block
        # request consuming the stream exactly like repeated scalar requests.
        batch = derive_stream(SEED, 5).random(13)
        rng = derive_stream(SEED, 5)
        sequential = np.array([rng.random() for _ in range(13)])
        assert np.array_equal(batch, sequential)


# (master_seed, index_offset, chunk_size) for the engine cross-check.  The
# first case is the default call; its test ids stay the bare config names.
REKEY_CASES = [(SEED, 0, DEFAULT_CHUNK), (SEED, 0, 97), (0, 1_000_003, 97),
               (2**64 - 1, 250, 97), (2**64 - 1, 0, DEFAULT_CHUNK)]


def rekey_params():
    for make in (amplitude_config, phase_config):
        for k, (seed, offset, chunk) in enumerate(REKEY_CASES):
            label = make.__name__ if k == 0 else (
                f"{make.__name__}-seed{seed}-offset{offset}-chunk{chunk}")
            yield pytest.param(make, seed, offset, chunk, id=label)


class TestSamplePulse:
    def test_consumes_exactly_three_uniforms(self):
        rng = np.random.default_rng(42)
        sample_pulse(QubitState(0.0, 0.0, 0.2), PulseChannelParams(0.5, 0.5), rng)
        witness = np.random.default_rng(42)
        witness.random(3)
        assert rng.random() == witness.random()

    def test_not_absorbed_leaves_state(self):
        state = QubitState(0.1, 0.2, 0.3)
        out, event = sample_pulse(state, PulseChannelParams(0.0, 1.0),
                                  np.random.default_rng(0))
        assert out == state
        assert not event.absorbed
        assert event.projection_outcome is None and event.pumped is None

    def test_certain_absorption_projects_to_poles(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            out, event = sample_pulse(QubitState(0.3, -0.1, 0.4),
                                      PulseChannelParams(1.0, 0.5), rng)
            assert event.absorbed
            assert abs(out.rz) == 1.0 and out.rx == 0.0 and out.ry == 0.0
            if event.projection_outcome == 0:
                assert out.rz == 1.0 and event.pumped is False
            else:
                assert event.pumped == (out.rz == 1.0)

    def test_sampling_mean_matches_channel(self):
        state = QubitState(0.4, 0.1, -0.35)
        params = PulseChannelParams(0.6, 0.45)
        rng = np.random.default_rng(123)
        n = 40_000
        total = np.zeros(3)
        for _ in range(n):
            out, _ = sample_pulse(state, params, rng)
            total += out.as_array()
        expected = apply_pulse_map(state, params).as_array()
        # rz outcomes are +-1 with probability ~1/2, so sigma <~ 1/sqrt(n).
        assert np.all(np.abs(total / n - expected) < 4.0 / math.sqrt(n))


class TestEngineEquivalence:
    @pytest.mark.parametrize("make,seed,offset,chunk_size", rekey_params())
    def test_record_engine_matches_vectorized_engine(self, make, seed, offset,
                                                     chunk_size):
        # The scalar reference builds one generator per trajectory, so it
        # checks the package engine's re-keyed generator across chunk
        # boundaries and at the ends of the seed range.
        config = make()
        fast = run_trajectories(config, 0, 600, seed, index_offset=offset,
                                chunk_size=chunk_size)
        records = run_records(config, 0, 600, seed, index_offset=offset)
        assert len(records) == 600
        assert {r.seed_index for r in records} == set(range(offset, offset + 600))
        assert all(len(r.pulse_events) == config.n_pulses for r in records)
        ups = sum(r.final_index == 0 for r in records)
        absorbed = sum(e.absorbed for r in records for e in r.pulse_events)
        assert fast.to_dict() == {
            "counts": [[ups, 0], [600 - ups, 0]], "n_per_initial": [600, 0],
            "absorbed_pulses": absorbed, "total_pulses": 600 * config.n_pulses,
            "master_seed": seed}

    @pytest.mark.parametrize("preset,counts,absorbed", [
        ("fig5d", [[2138, 975], [17862, 19025]], 500788),
        ("fig4b", [[10353, 9659], [9647, 10341]], 119896)],
        ids=["fig5d", "fig4b"])
    def test_realizations_are_pinned(self, preset, counts, absorbed):
        # Counts recorded before the sampler was re-keyed per chunk; any
        # change to the streams or to the propagation arithmetic shows here.
        res = resolve(get_preset(preset))
        stats = run_ensemble(res.protocol_at(res.config.t_f_grid[-1]),
                             20_000, 777)
        assert stats.counts.tolist() == counts
        assert stats.absorbed_pulses == absorbed

    def test_chunking_is_invisible(self):
        config = phase_config()
        small = run_ensemble(config, 3000, SEED, chunk_size=97)
        big = run_ensemble(config, 3000, SEED, chunk_size=100_000)
        assert small.to_dict() == big.to_dict()

    def test_offset_split_merges_to_whole(self):
        config = phase_config(n_pulses=2)
        first = run_trajectories(config, 0, 500, SEED, index_offset=0)
        second = run_trajectories(config, 0, 700, SEED, index_offset=500)
        whole = run_trajectories(config, 0, 1200, SEED)
        assert first.merge(second).to_dict() == whole.to_dict()


class TestEnsembleStats:
    def test_ensemble_populates_both_columns(self):
        config = amplitude_config(n_pulses=1)
        stats = run_ensemble(config, 800, SEED)
        assert stats.n_per_initial.tolist() == [800, 800]
        assert stats.n_trajectories == 1600
        assert stats.total_pulses == 1600 * config.n_pulses
        assert 0 <= stats.absorbed_pulses <= stats.total_pulses

    def test_single_sided_stats_raise_on_full_estimates(self):
        config = amplitude_config(n_pulses=1)
        stats = run_trajectories(config, 0, 200, SEED)
        assert 0.0 <= stats.column_estimate(0) <= 1.0
        with pytest.raises(IncompleteEnsembleError):
            stats.column_estimate(1)
        with pytest.raises(IncompleteEnsembleError):
            stats.conditional_estimate()

    def test_merge_refuses_mixed_seeds(self):
        config = amplitude_config(n_pulses=1)
        a = run_trajectories(config, 0, 100, SEED)
        b = run_trajectories(config, 1, 100, SEED + 1)
        with pytest.raises(ValueError, match="seed"):
            a.merge(b)

    def test_count_consistency_enforced(self):
        with pytest.raises(ValueError):
            EnsembleStats(np.array([[5, 0], [4, 0]]), np.array([10, 0]),
                          0, 0, SEED)

    def test_zero_pulse_trajectories_are_deterministic(self):
        # Without pulses a basis start stays a basis state, so the final
        # Born draw is a certainty no matter the seed.
        config = amplitude_config(n_pulses=0, t_f=616.0)
        stats = run_ensemble(config, 300, SEED)
        assert stats.counts.tolist() == [[300, 0], [0, 300]]

    def test_std_err_is_binomial(self):
        config = phase_config(n_pulses=3)
        stats = run_ensemble(config, 2000, SEED)
        err = stats.std_err()
        for i in (0, 1):
            p = stats.column_estimate(i)
            assert err[0, i] == pytest.approx(
                math.sqrt(p * (1.0 - p) / 2000.0))
        assert np.array_equal(err[0], err[1])

    def test_rejects_too_few_trajectories(self):
        with pytest.raises(ValueError):
            run_trajectories(amplitude_config(), 0, 0, SEED)
        with pytest.raises(ValueError):
            run_trajectories(amplitude_config(), 2, 10, SEED)


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
            diff = abs(est.matrix[0, i] - exact.matrix[0, i])
            assert diff <= 4.0 * max(err[0, i], 1e-12)

    def test_fr_estimate_matches_target_within_errors(self):
        config = amplitude_config(n_pulses=3, tau=410.0)
        stats = run_ensemble(config, 20_000, SEED)
        report = fr_estimate_mc(stats, config)
        assert report.fr_target == pytest.approx(fr_target(config))
        assert report.std_err > 0.0
        assert abs(report.fr_value - report.fr_target) <= 4.0 * report.std_err

    def test_mean_energy_matches_deterministic_within_errors(self):
        config = phase_config(n_pulses=4, pd=0.5184, beta=44.0)
        stats = run_ensemble(config, 20_000, SEED)
        mean_mc, err = mean_energy_mc(stats, config)
        dist = energy_change_distribution(conditional_matrix(config), config)
        assert err > 0.0
        assert abs(mean_mc - dist.mean()) <= 4.0 * err
