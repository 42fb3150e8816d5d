"""Reproducible trajectory ensembles for the pulsed protocols.

Reproducibility contract (random-number layout 3, which sampling manifests
record as ``scenarios.RNG_LAYOUT``): the
uniform of role k (0 absorption, 1 projection outcome, 2 pump success,
3 final measurement) read after j pulses is word i, for trajectory i, of
its own counter-based stream ``Philox(key=[master_seed, 4 * j + k + 1])``.
A pulse uses its three words whether or not the branches fire, and a
chunk draws its words of each stream in one call; aggregates are exact
integer counts.  Results are therefore a pure function of (master_seed, i)
per trajectory and bit-identical however trajectories are chunked.

An ensemble's up starts own indices [0, n) and its down starts [n, 2n),
so both are one walk over [0, 2n).  No word depends on a point's pulse
count, so a sweep is one walk to its largest count that measures each
point when its count comes up: the points share trajectory prefixes, and
their estimates are correlated across t_f.

The engine is vectorized over a chunk of trajectories; the tests hold it
to an independent scalar walker that builds each word's generator at its
counter and walks the same words pulse by pulse.

Estimates are the ``protocol`` sums over the four (dE, p) atoms evaluated
on the empirical matrix ``EnsembleStats.conditional_estimate()``; this
module adds only one binomial standard error for any such sum,
``EnsembleStats.functional_std_err``.  Numpy only draws and walks: the tallies
are Python ints, and the estimates and their errors are computed from
them in Python floats with libm's ``exp`` and ``sqrt``.  The walk
multiplies with numpy, so a Born probability can differ by an ulp
between hosts, and a count, and with it a sampled CSV, changes only
when a uniform lies within that ulp of its threshold.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence

import numpy as np

from .core import Value
from .protocol import (ConditionalMatrix, ProtocolConfig,
                       energy_change_distribution, initial_probabilities,
                       segment_rotations, sweep_longest, tail_rotation)

DEFAULT_CHUNK = 4096


class EnsembleStats(Value):
    """Exact-integer tallies of an ensemble of trajectories.

    ``ups[i]`` is the number of the ``n_per_initial`` trajectories
    initialized in basis state i (0 up, 1 down) whose final measurement
    gave up; the rest gave down.
    """

    def __init__(self, ups: tuple[int, int], n_per_initial: int,
                 absorbed_pulses: int, total_pulses: int, master_seed: int) -> None:
        self.__dict__.update(ups=ups, n_per_initial=n_per_initial,
                             absorbed_pulses=absorbed_pulses,
                             total_pulses=total_pulses, master_seed=master_seed)
        n = self.n_per_initial
        if not n >= 1:
            raise ValueError(f"n_per_initial must be at least 1, got {n!r}")
        if not all(0 <= up <= n for up in self.ups):
            raise ValueError(f"up counts {self.ups!r} outside [0, {n}]")

    def column_estimate(self, initial_index: int) -> float:
        """Empirical P(final = up | initial = initial_index)."""
        return self.ups[initial_index] / self.n_per_initial

    def conditional_estimate(self) -> ConditionalMatrix:
        return ConditionalMatrix.from_upper_row(self.column_estimate(0),
                                                self.column_estimate(1))

    def std_err(self) -> tuple[float, float]:
        """Binomial standard errors of the two column estimates."""
        p = (self.column_estimate(0), self.column_estimate(1))
        return tuple(math.sqrt(q * (1.0 - q) / self.n_per_initial) for q in p)

    def functional_std_err(self, config: ProtocolConfig,
                           f: Callable[[float], float]) -> float:
        """Binomial standard error of the sum of p * f(dE) over the atoms of
        ``conditional_estimate()``, e.g. <dE> for f the identity.  The sum is
        linear in each independent column P(up | i), with slope
        w_i * (f(dE_i,up) - f(dE_i,down)), w the Gibbs weights."""
        atoms = energy_change_distribution(self.conditional_estimate(), config)
        weights = initial_probabilities(config)
        variance = 0.0
        for i in (0, 1):
            (de_up, _), (de_down, _) = atoms[2 * i:2 * i + 2]
            p = self.column_estimate(i)
            variance += ((weights[i] * (f(de_up) - f(de_down))) ** 2
                         * p * (1.0 - p) / self.n_per_initial)
        return math.sqrt(variance)

    def to_dict(self) -> dict:
        (up, down), n = self.ups, self.n_per_initial
        return {
            "counts": [[up, down], [n - up, n - down]],
            "n_per_initial": [n, n],
            "absorbed_pulses": self.absorbed_pulses,
            "total_pulses": self.total_pulses,
            "master_seed": self.master_seed,
        }


def _check_arguments(*table: tuple[str, object, int, float]) -> None:
    """Raise ``ValueError`` naming the first (name, value, least, end) whose
    value is not an exact int (``bool`` excluded) in [least, end)."""
    for name, value, least, end in table:
        if type(value) is not int or not least <= value < end:
            raise ValueError(f"{name} must be an int in [{least}, {end}), "
                             f"got {value!r}")


def _walk(configs: Sequence[ProtocolConfig], master_seed: int, n_per_initial: int,
          chunk_size: int) -> tuple[list[list[int]], dict[int, int]]:
    """(final-up counts [up starts, down starts] per config; absorbed-pulse
    count at each config's pulse count)
    of trajectory indices [0, 2 * n_per_initial), starting up below
    n_per_initial, walked once to the largest pulse count."""
    longest = sweep_longest(configs)
    # Arrays once per walk; the chunk loop multiplies with numpy.
    rotations = [np.array(rot) for rot in segment_rotations(longest)]
    # The up start is also the axis every point measures along.
    up = np.array(longest.drive.basis[0])
    points: dict[int, list] = {}  # pulse count -> (config, tail)
    for c, pc in enumerate(configs):
        points.setdefault(pc.n_pulses, []).append((c, np.array(tail_rotation(pc))))

    def stream(n: int, role: int):  # role's uniforms read after n pulses
        key = np.array([master_seed, 4 * n + role + 1], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key)).random

    pulse_draws = [[stream(n, role) for role in range(3)]
                   for n in range(len(rotations))]
    final_draws = {n: stream(n, 3) for n in points}
    p_absorb, p_pump = longest.channel.p_absorb, longest.channel.p_pump
    ups = [[0, 0] for _ in configs]
    absorbed_at = dict.fromkeys(points, 0)
    end = 2 * n_per_initial
    for start in range(0, end, chunk_size):
        stop = min(start + chunk_size, end)
        m = stop - start
        n_up = min(max(n_per_initial - start, 0), m)
        sign = np.where(np.arange(start, stop) < n_per_initial, 1.0, -1.0)
        r = up[:, None] * sign
        absorbed_total = 0
        for n in range(len(rotations) + 1):
            if n in points:
                u_final = final_draws[n](m)
                for c, tail in points[n]:
                    # (m, 3) @ (3,) rounds differently from (3,) @ (3, m); the
                    # row-major product keeps earlier releases' Born probabilities.
                    r_final = np.ascontiguousarray((tail @ r).T)
                    hit = u_final < 0.5 * (1.0 + r_final @ up)
                    ups[c][0] += int(np.count_nonzero(hit[:n_up]))
                    ups[c][1] += int(np.count_nonzero(hit[n_up:]))
                absorbed_at[n] += absorbed_total
            if n == len(rotations):
                break
            u_absorb, u_outcome, u_pump = (draw(m) for draw in pulse_draws[n])
            r = rotations[n] @ r
            absorbed = u_absorb < p_absorb
            ends_up = (u_outcome < 0.5 * (1.0 + r[2])) | (u_pump < p_pump)
            r[2] = np.where(absorbed, np.where(ends_up, 1.0, -1.0), r[2])
            r[:2] = np.where(absorbed, 0.0, r[:2])
            absorbed_total += int(np.count_nonzero(absorbed))
    return ups, absorbed_at


def run_ensembles(configs: Sequence[ProtocolConfig], n_per_initial: int,
                  master_seed: int, *,
                  chunk_size: int = DEFAULT_CHUNK) -> list[EnsembleStats]:
    """Both initializations at each config of a sweep, walked once to the
    largest pulse count: the sampled ``protocol.conditional_matrices``.

    The configs must share drive, channel and tau, else ``ValueError``,
    which is also raised naming the first argument that is not an int in
    range.
    """
    _check_arguments(("n_per_initial", n_per_initial, 1, math.inf),
                     ("chunk_size", chunk_size, 1, math.inf),
                     ("master_seed", master_seed, 0, 2**64))
    if not configs:
        return []
    n = n_per_initial
    ups, absorbed = _walk(configs, master_seed, n, chunk_size)
    return [EnsembleStats(tuple(up), n, absorbed[pc.n_pulses],
                          2 * n * pc.n_pulses, master_seed)
            for pc, up in zip(configs, ups)]


def run_ensemble(config: ProtocolConfig, n_per_initial: int, master_seed: int,
                 *, chunk_size: int = DEFAULT_CHUNK) -> EnsembleStats:
    """Both initializations with disjoint stream indices ([0,n) and [n,2n))."""
    return run_ensembles([config], n_per_initial, master_seed,
                         chunk_size=chunk_size)[0]

