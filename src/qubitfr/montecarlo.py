"""Reproducible trajectory ensembles for the pulsed protocols.

Reproducibility contract (random-number layout ``RNG_LAYOUT`` = 2): all
trajectories of a run share the counter-based stream
``Philox(key=[master_seed, 0])``, and trajectory i owns its words
``[i * Wp, (i + 1) * Wp)``, ``Wp = 4 * ceil((3 * n_pulses + 1) / 4)``
(whole Philox blocks).  It uses the first 3 per pulse (absorption,
projection outcome, pump success) plus 1 for the final measurement,
whether or not the branches fire.  A chunk skips ahead to its first
trajectory and draws all its words in one call; aggregates are exact
integer counts.  Results are therefore a pure function of (master_seed,
i) per trajectory and bit-identical however trajectories are chunked.

The engine is vectorized over a chunk of trajectories; the tests hold it
to an independent scalar walker that builds each trajectory's generator
at its counter and walks the same words pulse by pulse.

Estimates are the ``protocol`` functionals evaluated on the empirical
matrix ``EnsembleStats.conditional_estimate()``; this module adds only
their binomial standard errors.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import instantaneous_eigensystem
from .protocol import (ConditionalMatrix, ProtocolConfig, initial_probabilities,
                       segment_rotations)

DEFAULT_CHUNK = 4096
# Recorded in sampling manifests.  Layout 1 keyed a separate stream
# (master_seed, i) per trajectory.
RNG_LAYOUT = 2


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
        """Binomial standard errors of the two column estimates, shape (2,)."""
        p = np.array([self.column_estimate(0), self.column_estimate(1)])
        return np.sqrt(p * (1.0 - p) / self.n_per_initial)

    def to_dict(self) -> dict:
        return {
            "counts": self.counts.tolist(),
            "n_per_initial": self.n_per_initial.tolist(),
            "absorbed_pulses": int(self.absorbed_pulses),
            "total_pulses": int(self.total_pulses),
            "master_seed": int(self.master_seed),
        }


@lru_cache(maxsize=1)
def _geometry(config: ProtocolConfig):
    """(per-period rotations, tail rotation, initial up-axis, final
    up-axis) of ``config``; the last one is kept, so the two
    initializations of ``run_ensemble`` share a single build."""
    rots, tail = segment_rotations(config)
    return (rots, tail,
            instantaneous_eigensystem(config.drive, 0.0).basis_plus.as_array(),
            instantaneous_eigensystem(config.drive, config.t_f).basis_plus.as_array())


def _run_chunk_vectorized(config: ProtocolConfig, initial_index: int,
                          master_seed: int, lo: int, hi: int) -> tuple[int, int]:
    """(final-up count, absorbed-pulse count) for trajectory indices [lo,
    hi); after a skip-ahead, one draw holds trajectory i's words in row i - lo."""
    rotations, tail, start_up, final_axis = _geometry(config)
    p_absorb, p_pump = config.channel.p_absorb, config.channel.p_pump
    m = hi - lo
    n_pulses = len(rotations)
    stride = 4 * -(-(3 * n_pulses + 1) // 4)  # Wp, whole 4-word Philox blocks
    bitgen = np.random.Philox(key=np.array([master_seed, 0], dtype=np.uint64))
    bitgen.advance(lo * stride // 4)
    u = np.random.Generator(bitgen).random((m, stride)).T  # u[k]: word k of each

    sign = 1.0 if initial_index == 0 else -1.0
    r = np.repeat(sign * start_up[:, None], m, axis=1)  # (3, m)
    absorbed_total = 0
    for n, rot in enumerate(rotations):
        r = rot @ r
        absorbed = u[3 * n] < p_absorb
        ends_up = ((u[3 * n + 1] < 0.5 * (1.0 + r[2]))
                   | (u[3 * n + 2] < p_pump))
        r[2] = np.where(absorbed, np.where(ends_up, 1.0, -1.0), r[2])
        r[:2] = np.where(absorbed, 0.0, r[:2])
        absorbed_total += int(np.count_nonzero(absorbed))
    # (m, 3) @ (3,) rounds differently from (3,) @ (3, m); the row-major
    # product keeps the Born probabilities of earlier releases bit for bit.
    r = np.ascontiguousarray((tail @ r).T)
    p_final_up = 0.5 * (1.0 + r @ final_axis)
    ups = int(np.count_nonzero(u[3 * n_pulses] < p_final_up))
    return ups, absorbed_total


def run_trajectories(config: ProtocolConfig, initial_index: int, n: int,
                     master_seed: int, *, index_offset: int = 0,
                     chunk_size: int = DEFAULT_CHUNK) -> EnsembleStats:
    """Sample n trajectories from one initial basis state.

    Trajectory i uses stream index ``index_offset + i``; pass disjoint
    offsets to combine ensembles without stream reuse.  Raises
    ``ValueError`` naming the argument when n or chunk_size is below 1 or
    index_offset is negative.
    """
    for name, value, least in (("n", n, 1), ("index_offset", index_offset, 0),
                               ("chunk_size", chunk_size, 1)):
        if not isinstance(value, numbers.Integral) or value < least:
            raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
    if initial_index not in (0, 1):
        raise ValueError(f"initial_index must be 0 or 1, got {initial_index}")
    end = index_offset + n
    ups, absorbed = map(sum, zip(*(
        _run_chunk_vectorized(config, initial_index, master_seed, lo,
                              min(lo + chunk_size, end))
        for lo in range(index_offset, end, chunk_size))))
    counts = np.zeros((2, 2), dtype=np.int64)
    counts[:, initial_index] = ups, n - ups
    return EnsembleStats(counts, counts.sum(axis=0), absorbed,
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


def fr_std_err(stats: EnsembleStats, config: ProtocolConfig) -> float:
    """Binomial standard error of <exp(-gamma dE)> evaluated on
    ``stats.conditional_estimate()``, gamma = beta - beta_r."""
    gamma = config.thermal.beta - config.thermal.beta_r
    eig0 = instantaneous_eigensystem(config.drive, 0.0)
    eigf = instantaneous_eigensystem(config.drive, config.t_f)
    spreads = tuple(np.exp(-gamma * (eigf.e_plus - e_i))
                    - np.exp(-gamma * (eigf.e_minus - e_i))
                    for e_i in (eig0.e_plus, eig0.e_minus))
    return _binomial_std_err(stats, config, spreads)


def mean_energy_std_err(stats: EnsembleStats, config: ProtocolConfig) -> float:
    """Binomial standard error of <dE> evaluated on
    ``stats.conditional_estimate()``."""
    eigf = instantaneous_eigensystem(config.drive, config.t_f)
    spread = eigf.e_plus - eigf.e_minus
    return _binomial_std_err(stats, config, (spread, spread))
