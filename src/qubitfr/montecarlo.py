"""Reproducible trajectory ensembles for the pulsed protocols.

Reproducibility contract (random-number layout ``RNG_LAYOUT`` = 2): all
trajectories of a run share the counter-based stream
``Philox(key=[master_seed, 0])``, and trajectory i owns its words
``[i * Wp, (i + 1) * Wp)``, ``Wp = 4 * ceil((3 * n_pulses + 1) / 4)``
(whole Philox blocks).  It uses the first 3 per pulse (absorption,
projection outcome, pump success) plus 1 for the final measurement,
whether or not the branches fire.  A walk starts at trajectory 0 and
draws each chunk's words in one call; aggregates are exact integer
counts.  Results are therefore a pure function of
(master_seed, i) per trajectory and bit-identical however trajectories
are chunked.

An ensemble's up starts own indices [0, n) and its down starts [n, 2n),
so both are one walk over [0, 2n).  Trajectory i's words depend only on
(master_seed, i, n_pulses), so a sweep walks once per distinct pulse
count and its points of that count differ only in tail rotation and
final axis: they share trajectories, and their estimates are correlated.

The engine is vectorized over a chunk of trajectories; the tests hold it
to an independent scalar walker that builds each trajectory's generator
at its counter and walks the same words pulse by pulse.

Estimates are the ``protocol`` functionals evaluated on the empirical
matrix ``EnsembleStats.conditional_estimate()``; this module adds only
their binomial standard errors.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .core import instantaneous_eigensystem
from .protocol import (ConditionalMatrix, ProtocolConfig, _sweep_longest,
                       _tail_rotation, initial_probabilities, segment_rotations)

DEFAULT_CHUNK = 4096
# Recorded in sampling manifests.  Layout 1 keyed a separate stream
# (master_seed, i) per trajectory.
RNG_LAYOUT = 2


@dataclass(frozen=True)
class EnsembleStats:
    """Exact-integer tallies of an ensemble of trajectories.

    ``counts[j, i]`` is the number of trajectories initialized in basis
    state i whose final measurement gave j; ``n_per_initial[i]`` the
    number initialized in i, which must be positive for both states.
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
        for i in (0, 1):
            if n[i] < 1:
                raise ValueError(f"no trajectories were initialized in state {i}")
        object.__setattr__(self, "counts", c)
        object.__setattr__(self, "n_per_initial", n)

    def column_estimate(self, initial_index: int) -> float:
        """Empirical P(final = up | initial = initial_index)."""
        return (float(self.counts[0, initial_index])
                / int(self.n_per_initial[initial_index]))

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


def _check_arguments(*table: tuple[str, object, int, float]) -> None:
    """Raise ``ValueError`` naming the first (name, value, least, end) whose
    value is not an exact int (``bool`` excluded) in [least, end)."""
    for name, value, least, end in table:
        if type(value) is not int or not least <= value < end:
            raise ValueError(f"{name} must be an int in [{least}, {end}), "
                             f"got {value!r}")


def _walk(rotations: list[np.ndarray], configs: Sequence[ProtocolConfig],
          tails: Sequence[np.ndarray], master_seed: int,
          n_per_initial: int, chunk_size: int) -> tuple[np.ndarray, int]:
    """(final-up counts of the up and the down starts per config, shape
    (len(configs), 2); absorbed-pulse count) of trajectory indices
    [0, 2 * n_per_initial) walked through ``rotations``, starting up below
    n_per_initial.  The configs share that pulse count; ``tails`` are
    their tail rotations."""
    channel = configs[0].channel
    start_up = np.array(instantaneous_eigensystem(configs[0].drive, 0.0).basis_plus)
    axes = [np.array(instantaneous_eigensystem(pc.drive, pc.t_f).basis_plus)
            for pc in configs]
    n_pulses = len(rotations)
    stride = 4 * -(-(3 * n_pulses + 1) // 4)  # Wp, whole 4-word Philox blocks
    bitgen = np.random.Philox(key=np.array([master_seed, 0], dtype=np.uint64))
    draw = np.random.Generator(bitgen).random  # each chunk draws in one call
    ups = np.zeros((len(configs), 2), dtype=np.int64)
    absorbed_total = 0
    end = 2 * n_per_initial
    for start in range(0, end, chunk_size):
        stop = min(start + chunk_size, end)
        u = draw((stop - start, stride)).T  # u[k]: word k of each trajectory
        sign = np.where(np.arange(start, stop) < n_per_initial, 1.0, -1.0)
        r = start_up[:, None] * sign
        for n, rot in enumerate(rotations):
            r = rot @ r
            absorbed = u[3 * n] < channel.p_absorb
            ends_up = ((u[3 * n + 1] < 0.5 * (1.0 + r[2]))
                       | (u[3 * n + 2] < channel.p_pump))
            r[2] = np.where(absorbed, np.where(ends_up, 1.0, -1.0), r[2])
            r[:2] = np.where(absorbed, 0.0, r[:2])
            absorbed_total += int(np.count_nonzero(absorbed))
        n_up = min(max(n_per_initial - start, 0), stop - start)
        for counts, tail, axis in zip(ups, tails, axes):
            # (m, 3) @ (3,) rounds differently from (3,) @ (3, m); the
            # row-major product keeps earlier releases' Born probabilities.
            r_final = np.ascontiguousarray((tail @ r).T)
            hit = u[3 * n_pulses] < 0.5 * (1.0 + r_final @ axis)
            counts += np.count_nonzero(hit[:n_up]), np.count_nonzero(hit[n_up:])
        del u  # free this chunk's words before the next draw
    return ups, absorbed_total


def run_ensembles(configs: Sequence[ProtocolConfig], n_per_initial: int,
                  master_seed: int, *,
                  chunk_size: int = DEFAULT_CHUNK) -> list[EnsembleStats]:
    """Both initializations at each config of a sweep, walked once per
    distinct pulse count: the sampled ``protocol.conditional_matrices``.

    The configs must share drive, channel and tau, else ``ValueError``,
    which is also raised naming the first argument that is not an int in
    range.
    """
    _check_arguments(("n_per_initial", n_per_initial, 1, math.inf),
                     ("chunk_size", chunk_size, 1, math.inf),
                     ("master_seed", master_seed, 0, 2**64))
    if not configs:
        return []
    longest = _sweep_longest(configs)
    rotations, longest_tail = segment_rotations(longest)
    n = n_per_initial
    stats = {}
    for k in {pc.n_pulses for pc in configs}:
        group = [pc for pc in configs if pc.n_pulses == k]
        tails = [longest_tail if pc is longest else _tail_rotation(pc) for pc in group]
        ups, absorbed = _walk(rotations[:k], group, tails, master_seed, n, chunk_size)
        for pc, (up, down) in zip(group, ups):
            counts = np.array([[up, down], [n - up, n - down]])
            stats[pc] = EnsembleStats(counts, counts.sum(axis=0), absorbed,
                                      2 * n * k, master_seed)
    return [stats[pc] for pc in configs]


def run_ensemble(config: ProtocolConfig, n_per_initial: int, master_seed: int,
                 *, chunk_size: int = DEFAULT_CHUNK) -> EnsembleStats:
    """Both initializations with disjoint stream indices ([0,n) and [n,2n))."""
    return run_ensembles([config], n_per_initial, master_seed,
                         chunk_size=chunk_size)[0]


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
