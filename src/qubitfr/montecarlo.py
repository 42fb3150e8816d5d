"""Reproducible trajectory ensembles for the pulsed protocols.

Reproducibility contract: trajectory i draws from its own counter-based
stream keyed by (master_seed, i), and every aggregate is assembled from
exact integer counts.  Results are therefore bit-identical for a fixed
(config, master_seed, n) no matter how trajectories are chunked.

Each trajectory consumes a fixed number of uniforms, 3 per pulse
(absorption, projection outcome, pump success) plus 1 for the final
measurement, whether or not the corresponding branches fire.  The
engine is vectorized over a chunk of trajectories; the tests hold it to
an independent scalar walker that builds one generator per trajectory
and walks the same streams pulse by pulse.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import instantaneous_eigensystem
from .protocol import (ConditionalMatrix, FrReport, ProtocolConfig,
                       energy_change_distribution, fr_functional, fr_target,
                       initial_probabilities, segment_rotations)

DEFAULT_CHUNK = 16384


class IncompleteEnsembleError(ValueError):
    """Raised when an estimate needs initializations that were never run."""


@dataclass(frozen=True)
class EnsembleStats:
    """Exact-integer tallies of an ensemble of trajectories.

    ``counts[j, i]`` is the number of trajectories initialized in basis
    state i whose final measurement gave j; ``n_per_initial[i]`` the
    number initialized in i.  Stats from disjoint index ranges merge by
    plain addition.
    """

    counts: np.ndarray
    n_per_initial: np.ndarray
    absorbed_pulses: int
    total_pulses: int
    master_seed: int

    def __post_init__(self) -> None:
        c = np.asarray(self.counts, dtype=np.int64)
        n = np.asarray(self.n_per_initial, dtype=np.int64)
        if c.shape != (2, 2) or n.shape != (2,):
            raise ValueError("counts must be 2x2 and n_per_initial length 2")
        if np.any(c.sum(axis=0) != n):
            raise ValueError(f"column totals {c.sum(axis=0).tolist()} disagree "
                             f"with trajectory counts {n.tolist()}")
        object.__setattr__(self, "counts", c)
        object.__setattr__(self, "n_per_initial", n)

    @property
    def n_trajectories(self) -> int:
        return int(self.n_per_initial.sum())

    def merge(self, other: "EnsembleStats") -> "EnsembleStats":
        if other.master_seed != self.master_seed:
            raise ValueError("refusing to merge stats from different master seeds")
        return EnsembleStats(self.counts + other.counts,
                             self.n_per_initial + other.n_per_initial,
                             self.absorbed_pulses + other.absorbed_pulses,
                             self.total_pulses + other.total_pulses,
                             self.master_seed)

    def column_estimate(self, initial_index: int) -> float:
        """Empirical P(final = up | initial = initial_index)."""
        n = int(self.n_per_initial[initial_index])
        if n == 0:
            raise IncompleteEnsembleError(
                f"no trajectories were initialized in state {initial_index}")
        return float(self.counts[0, initial_index]) / n

    def conditional_estimate(self) -> ConditionalMatrix:
        return ConditionalMatrix.from_upper_row(self.column_estimate(0),
                                                self.column_estimate(1))

    def std_err(self) -> np.ndarray:
        """Binomial standard errors, entry for entry with the estimate."""
        out = np.zeros((2, 2))
        for i in (0, 1):
            p = self.column_estimate(i)
            err = np.sqrt(p * (1.0 - p) / float(self.n_per_initial[i]))
            out[:, i] = err
        return out

    def to_dict(self) -> dict:
        return {
            "counts": self.counts.tolist(),
            "n_per_initial": self.n_per_initial.tolist(),
            "absorbed_pulses": int(self.absorbed_pulses),
            "total_pulses": int(self.total_pulses),
            "master_seed": int(self.master_seed),
        }


@dataclass(frozen=True)
class _Engine:
    """Precomputed geometry shared by every trajectory of one config."""

    rotations: tuple[np.ndarray, ...]
    tail: np.ndarray
    start_up: np.ndarray
    final_axis: np.ndarray
    p_absorb: float
    p_pump: float

    @classmethod
    def build(cls, config: ProtocolConfig) -> "_Engine":
        rots, tail = segment_rotations(config)
        eig0 = instantaneous_eigensystem(config.drive, 0.0)
        eigf = instantaneous_eigensystem(config.drive, config.t_f)
        return cls(tuple(rots), tail, eig0.basis_plus.as_array(),
                   eigf.basis_plus.as_array(),
                   config.channel.p_absorb, config.channel.p_pump)


@lru_cache(maxsize=1)
def _engine_for(config: ProtocolConfig) -> _Engine:
    """Engine of ``config``; the last one is kept, so the two
    initializations of ``run_ensemble`` share a single build."""
    return _Engine.build(config)


def _run_chunk_vectorized(engine: _Engine, initial_index: int, master_seed: int,
                          lo: int, hi: int) -> tuple[int, int]:
    """(final-up count, absorbed-pulse count) for trajectory indices [lo, hi).

    One Philox is re-keyed to (master_seed, i) for each trajectory: the
    reused state dict resets counter and buffer, so row i holds exactly
    ``Generator(Philox(key=[master_seed, i])).random(3 * n_pulses + 1)``
    without constructing a generator per trajectory.
    """
    m = hi - lo
    n_pulses = len(engine.rotations)
    bitgen = np.random.Philox(key=np.array([master_seed, lo], dtype=np.uint64))
    gen = np.random.Generator(bitgen)
    state = bitgen.state
    key = state["state"]["key"]
    draws = np.empty((m, 3 * n_pulses + 1))
    for i in range(m):
        key[1] = lo + i
        bitgen.state = state
        gen.random(out=draws[i])
    u = draws.T  # u[k] is draw k of every trajectory

    sign = 1.0 if initial_index == 0 else -1.0
    r = np.repeat(sign * engine.start_up[:, None], m, axis=1)  # (3, m)
    absorbed_total = 0
    for n, rot in enumerate(engine.rotations):
        r = rot @ r
        absorbed = u[3 * n] < engine.p_absorb
        ends_up = ((u[3 * n + 1] < 0.5 * (1.0 + r[2]))
                   | (u[3 * n + 2] < engine.p_pump))
        r[2] = np.where(absorbed, np.where(ends_up, 1.0, -1.0), r[2])
        r[:2] = np.where(absorbed, 0.0, r[:2])
        absorbed_total += int(np.count_nonzero(absorbed))
    # (m, 3) @ (3,) rounds differently from (3,) @ (3, m); the row-major
    # product keeps the Born probabilities of earlier releases bit for bit.
    r = np.ascontiguousarray((engine.tail @ r).T)
    p_final_up = 0.5 * (1.0 + r @ engine.final_axis)
    ups = int(np.count_nonzero(u[3 * n_pulses] < p_final_up))
    return ups, absorbed_total


def run_trajectories(config: ProtocolConfig, initial_index: int, n: int,
                     master_seed: int, *, index_offset: int = 0,
                     chunk_size: int = DEFAULT_CHUNK) -> EnsembleStats:
    """Sample n trajectories from one initial basis state.

    Trajectory i uses stream index ``index_offset + i``; pass disjoint
    offsets to combine ensembles without stream reuse.
    """
    if n < 1:
        raise ValueError(f"need at least one trajectory, got n = {n}")
    if initial_index not in (0, 1):
        raise ValueError(f"initial_index must be 0 or 1, got {initial_index}")
    engine = _engine_for(config)
    ups = absorbed = 0
    for lo in range(index_offset, index_offset + n, chunk_size):
        hi = min(lo + chunk_size, index_offset + n)
        chunk_ups, chunk_absorbed = _run_chunk_vectorized(
            engine, initial_index, master_seed, lo, hi)
        ups += chunk_ups
        absorbed += chunk_absorbed
    counts = np.zeros((2, 2), dtype=np.int64)
    counts[0, initial_index] = ups
    counts[1, initial_index] = n - ups
    n_per_initial = np.zeros(2, dtype=np.int64)
    n_per_initial[initial_index] = n
    return EnsembleStats(counts, n_per_initial, absorbed,
                         n * config.n_pulses, master_seed)


def run_ensemble(config: ProtocolConfig, n_per_initial: int, master_seed: int,
                 *, chunk_size: int = DEFAULT_CHUNK) -> EnsembleStats:
    """Both initializations with disjoint stream indices ([0,n) and [n,2n))."""
    up = run_trajectories(config, 0, n_per_initial, master_seed,
                          index_offset=0, chunk_size=chunk_size)
    down = run_trajectories(config, 1, n_per_initial, master_seed,
                            index_offset=n_per_initial, chunk_size=chunk_size)
    return up.merge(down)


def _binomial_std_err(stats: EnsembleStats, config: ProtocolConfig,
                      spreads: tuple[float, float]) -> float:
    """Standard error of sum_i w_i * spreads[i] * P(up | i), w the Gibbs
    weights, from the two independent binomial column estimates."""
    weights = initial_probabilities(config)
    variance = 0.0
    for i, spread in enumerate(spreads):
        p = stats.column_estimate(i)
        n_i = float(stats.n_per_initial[i])
        variance += (weights[i] * spread) ** 2 * p * (1.0 - p) / n_i
    return float(np.sqrt(variance))


def fr_estimate_mc(stats: EnsembleStats, config: ProtocolConfig) -> FrReport:
    """Fluctuation functional from empirical conditional frequencies.

    Gibbs weights are applied as post-weighting, with gamma = beta - beta_r
    from the thermal context; the standard error propagates the two
    independent binomial column estimates.
    """
    cm = stats.conditional_estimate()  # raises if a column is missing
    gamma = config.thermal.beta - config.thermal.beta_r
    dist = energy_change_distribution(cm, config)
    value = fr_functional(dist, gamma)

    eig0 = instantaneous_eigensystem(config.drive, 0.0)
    eigf = instantaneous_eigensystem(config.drive, config.t_f)
    spreads = tuple(np.exp(-gamma * (eigf.e_plus - e_i))
                    - np.exp(-gamma * (eigf.e_minus - e_i))
                    for e_i in (eig0.e_plus, eig0.e_minus))
    return FrReport(mean_delta_e=dist.mean(), fr_value=value,
                    fr_target=fr_target(config), gamma=gamma,
                    std_err=_binomial_std_err(stats, config, spreads))


def mean_energy_mc(stats: EnsembleStats,
                   config: ProtocolConfig) -> tuple[float, float]:
    """Empirical <dE> with its propagated binomial standard error."""
    cm = stats.conditional_estimate()
    dist = energy_change_distribution(cm, config)
    eigf = instantaneous_eigensystem(config.drive, config.t_f)
    spread = eigf.e_plus - eigf.e_minus
    return dist.mean(), _binomial_std_err(stats, config, (spread, spread))
