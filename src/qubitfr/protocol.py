"""Two-point measurement protocol over the pulsed, driven qubit.

A run is specified by a ``ProtocolConfig``: measure in the instantaneous
basis at t = 0, evolve under the drive with a pulse at each multiple of
``tau`` up to ``n_pulses``, coast to ``t_f``, measure again.  The
deterministic engine propagates the two initial basis states through the
ensemble-averaged channel, which is exact for all probabilities that are
linear in the density operator.  ``pulse_train`` is its one
rotate-then-pulse loop; a sweep over final times walks it once, since
every point's pulses are a prefix of the last point's.

The measured object is the 2x2 ``ConditionalMatrix``; from it and the
initial Gibbs weights the ``EnergyChangeDistribution`` follows, and the
fluctuation functionals <exp(-gamma * dE)> are plain sums over its atoms.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .channel import PulseChannelParams, apply_pulse_map
from .core import (DriveSpec, QubitState, ThermalContext, bloch_rotation,
                   gibbs_population, instantaneous_eigensystem)

COLUMN_SUM_TOL = 1e-12
PROBABILITY_TOL = 1e-12

# Relative slack when counting whole pulse periods inside [0, t_f].
PULSE_COUNT_RTOL = 1e-9

UPPER, LOWER = 0, 1


def pulses_applied(t_f: float, tau: float) -> int:
    """Number of pulses fired in [0, t_f] with pulses at tau, 2*tau, ...

    A pulse coinciding with t_f (within PULSE_COUNT_RTOL, relative) is
    counted: the final measurement happens immediately after it.
    """
    if t_f < 0:
        raise ValueError(f"t_f must be nonnegative, got {t_f}")
    if tau <= 0:
        raise ValueError(f"tau must be positive, got {tau}")
    ratio = t_f / tau
    nearest = round(ratio)
    if abs(ratio - nearest) <= PULSE_COUNT_RTOL * max(1.0, abs(ratio)):
        return int(nearest)
    return int(math.floor(ratio))


@dataclass(frozen=True)
class ProtocolConfig:
    """Full description of one two-point measurement run."""

    drive: DriveSpec
    channel: PulseChannelParams
    tau: float
    n_pulses: int
    thermal: ThermalContext
    t_f: float | None = None

    def __post_init__(self) -> None:
        if self.tau <= 0:
            raise ValueError(f"tau must be positive, got {self.tau}")
        if self.n_pulses < 0:
            raise ValueError(f"n_pulses must be nonnegative, got {self.n_pulses}")
        if self.t_f is None:
            object.__setattr__(self, "t_f", self.n_pulses * self.tau)
        min_tf = self.n_pulses * self.tau
        if self.t_f < min_tf * (1.0 - PULSE_COUNT_RTOL) - PULSE_COUNT_RTOL:
            raise ValueError(f"t_f = {self.t_f} precedes pulse {self.n_pulses} "
                             f"at {min_tf}")


def _tail_rotation(config: ProtocolConfig) -> np.ndarray:
    t_last = config.n_pulses * config.tau
    if config.t_f > t_last:
        return bloch_rotation(config.drive, t_last, config.t_f)
    return np.eye(3)


def segment_rotations(config: ProtocolConfig) -> tuple[list[np.ndarray], np.ndarray]:
    """Per-period drive rotations plus the final partial-interval rotation.

    Entry n-1 carries ((n-1)tau, n*tau); the tail carries (N*tau, t_f) and
    is the identity when t_f lands on the last pulse.
    """
    rots = [bloch_rotation(config.drive, (n - 1) * config.tau, n * config.tau)
            for n in range(1, config.n_pulses + 1)]
    return rots, _tail_rotation(config)


def pulse_train(config: ProtocolConfig, starts: Sequence[np.ndarray],
                counts: Sequence[int]) -> tuple[list[list[np.ndarray]], np.ndarray]:
    """Post-pulse Bloch vectors of each start at each requested pulse count.

    Walks the rotate-then-pulse steps of ``segment_rotations(config)`` once
    and keeps only the states at ``counts`` (each in 0..config.n_pulses,
    repeats allowed): entry [k][s] is start s after counts[k] pulses.  Also
    returns the config's tail rotation, which carries the last post-pulse
    state to t_f.  Every pulse goes through ``QubitState``, so a state that
    leaves the Bloch ball raises ValueError.
    """
    if any(not 0 <= n <= config.n_pulses for n in counts):
        raise ValueError(f"pulse counts {list(counts)} outside "
                         f"0..{config.n_pulses}")
    rots, tail = segment_rotations(config)
    wanted = set(counts)
    rs = [np.asarray(r, dtype=float) for r in starts]
    kept = {0: rs}
    for n, rot in enumerate(rots[:max(wanted, default=0)], start=1):
        rs = [apply_pulse_map(QubitState.from_array(rot @ r), config.channel).as_array()
              for r in rs]
        if n in wanted:
            kept[n] = rs
    return [kept[n] for n in counts], tail


def mean_trajectory(config: ProtocolConfig,
                    state: QubitState) -> list[tuple[float, QubitState]]:
    """Post-pulse snapshots (t_n, state) for n = 0..N plus the final state."""
    post, tail = pulse_train(config, [state.as_array()],
                             range(config.n_pulses + 1))
    out = [(0.0, state)] + [(n * config.tau, QubitState.from_array(rs[0]))
                            for n, rs in enumerate(post[1:], start=1)]
    if config.t_f > config.n_pulses * config.tau:
        out.append((config.t_f, QubitState.from_array(tail @ post[-1][0])))
    return out


@dataclass(frozen=True)
class ConditionalMatrix:
    """Column-stochastic matrix of transition probabilities.

    ``matrix[j, i]`` is the probability of the final measurement giving
    outcome j when the initial one gave i; index 0 is the upper level.
    """

    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=float)
        if m.shape != (2, 2):
            raise ValueError(f"conditional matrix must be 2x2, got {m.shape}")
        if np.any(m < -PROBABILITY_TOL) or np.any(m > 1.0 + PROBABILITY_TOL):
            raise ValueError(f"entries outside [0, 1]: {m.tolist()}")
        sums = m.sum(axis=0)
        if np.any(np.abs(sums - 1.0) > COLUMN_SUM_TOL):
            raise ValueError(f"columns must sum to 1, got {sums.tolist()}")
        object.__setattr__(self, "matrix", m)

    @classmethod
    def from_upper_row(cls, p_up_given_up: float,
                       p_up_given_down: float) -> "ConditionalMatrix":
        return cls(np.array([[p_up_given_up, p_up_given_down],
                             [1.0 - p_up_given_up, 1.0 - p_up_given_down]]))

    def prob(self, final_index: int, initial_index: int) -> float:
        return float(self.matrix[final_index, initial_index])

    @property
    def p_up_given_up(self) -> float:
        return float(self.matrix[UPPER, UPPER])

    @property
    def p_up_given_down(self) -> float:
        return float(self.matrix[UPPER, LOWER])

    def as_array(self) -> np.ndarray:
        return self.matrix.copy()


def conditional_matrices(configs: Sequence[ProtocolConfig]) -> list[ConditionalMatrix]:
    """Transition probabilities between the bases at 0 and each config's t_f.

    The configs must share drive, channel and tau.  Pulses fire at tau,
    2 tau, ... whatever t_f is, so every point with n pulses has the same
    post-pulse state: one ``pulse_train`` to the largest pulse count serves
    the whole sweep, and each point adds its own tail rotation and final
    basis.  A sweep costs O(N_max + grid) rotations, not O(grid * N).
    """
    if not configs:
        return []
    first = configs[0]
    if any((pc.drive, pc.channel, pc.tau) != (first.drive, first.channel, first.tau)
           for pc in configs):
        raise ValueError("a sweep's configs must share drive, channel and tau")
    longest = max(configs, key=lambda pc: pc.n_pulses)
    eig0 = instantaneous_eigensystem(first.drive, 0.0)
    post, longest_tail = pulse_train(
        longest, [eig0.basis_plus.as_array(), eig0.basis_minus.as_array()],
        [pc.n_pulses for pc in configs])
    out = []
    for pc, rs in zip(configs, post):
        tail = longest_tail if pc is longest else _tail_rotation(pc)
        final_up = instantaneous_eigensystem(pc.drive, pc.t_f).basis_plus
        up, down = (QubitState.from_array(tail @ r).population_along(final_up)
                    for r in rs)
        out.append(ConditionalMatrix.from_upper_row(up, down))
    return out


def conditional_matrix(config: ProtocolConfig) -> ConditionalMatrix:
    """Transition probabilities between the measurement bases at 0 and t_f."""
    return conditional_matrices([config])[0]


@dataclass(frozen=True)
class EnergyChangeDistribution:
    """Discrete distribution of the two-point energy difference.

    At most four atoms for a qubit; construction merges coincident values
    so cyclic drive points produce stable three-atom supports.
    """

    values: np.ndarray
    probs: np.ndarray

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=float)
        p = np.asarray(self.probs, dtype=float)
        if v.shape != p.shape or v.ndim != 1:
            raise ValueError("values and probs must be matching 1-d arrays")
        if np.any(p < -PROBABILITY_TOL):
            raise ValueError(f"negative probability in {p.tolist()}")
        total = float(p.sum())
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"probabilities sum to {total!r}, not 1")
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "probs", p)

    @classmethod
    def from_atoms(cls, atoms: list[tuple[float, float]],
                   merge_tol: float) -> "EnergyChangeDistribution":
        atoms = sorted(atoms)
        values: list[float] = []
        probs: list[float] = []
        for value, prob in atoms:
            if values and abs(value - values[-1]) <= merge_tol:
                probs[-1] += prob
            else:
                values.append(value)
                probs.append(prob)
        return cls(np.array(values), np.array(probs))

    @property
    def atoms(self) -> list[tuple[float, float]]:
        return list(zip(self.values.tolist(), self.probs.tolist()))

    def __len__(self) -> int:
        return int(self.values.size)

    def mean(self) -> float:
        return float(np.dot(self.values, self.probs))


def initial_probabilities(config: ProtocolConfig) -> np.ndarray:
    """Gibbs weights [upper, lower] of the initial measurement outcomes."""
    g = gibbs_population(config.thermal.beta, config.drive, 0.0)
    return np.array([g, 1.0 - g])


def energy_change_distribution(cm: ConditionalMatrix,
                               config: ProtocolConfig) -> EnergyChangeDistribution:
    """Distribution of E_final - E_initial with Gibbs-weighted initial outcomes."""
    eig0 = instantaneous_eigensystem(config.drive, 0.0)
    eigf = instantaneous_eigensystem(config.drive, config.t_f)
    e0 = (eig0.e_plus, eig0.e_minus)
    ef = (eigf.e_plus, eigf.e_minus)
    weights = initial_probabilities(config)
    atoms = [(ef[j] - e0[i], weights[i] * cm.prob(j, i))
             for i in (UPPER, LOWER) for j in (UPPER, LOWER)]
    return EnergyChangeDistribution.from_atoms(
        atoms, merge_tol=1e-12 * config.drive.omega0)


def fr_functional(dist: EnergyChangeDistribution, gamma: float) -> float:
    """<exp(-gamma * dE)> over the distribution."""
    return float(np.dot(dist.probs, np.exp(-gamma * dist.values)))


@dataclass(frozen=True)
class FrReport:
    """One evaluation of a fluctuation functional against its target."""

    mean_delta_e: float
    fr_value: float
    fr_target: float
    gamma: float

    def __post_init__(self) -> None:
        if not self.fr_value > 0.0:
            raise ValueError(f"fr_value must be positive, got {self.fr_value}")

    @property
    def deviation(self) -> float:
        return abs(self.fr_value - self.fr_target)


def fr_target(config: ProtocolConfig) -> float:
    """Partition-function ratio Z(t_f)/Z(0) the functional should reproduce.

    Equals exp(-beta dF); identically 1 for the rotating drive (constant
    spectrum) and for beta = 0.
    """
    from .core import partition_function

    beta = config.thermal.beta
    return (partition_function(beta, config.drive, config.t_f)
            / partition_function(beta, config.drive, 0.0))


def fr_report(config: ProtocolConfig,
              cm: ConditionalMatrix | None = None) -> FrReport:
    """Deterministic fluctuation-relation evaluation for one config,
    with gamma = beta - beta_r from the thermal context."""
    if cm is None:
        cm = conditional_matrix(config)
    gamma = config.thermal.beta - config.thermal.beta_r
    dist = energy_change_distribution(cm, config)
    return FrReport(mean_delta_e=dist.mean(),
                    fr_value=fr_functional(dist, gamma),
                    fr_target=fr_target(config),
                    gamma=gamma)


def beta_reservoir(p_up_infinity: float, gap: float) -> float:
    """Inverse pseudo-temperature matching an asymptotic upper-level weight.

    Solves p = 1/(1 + exp(beta * gap)) for beta; p = 1/2 gives 0 and
    p > 1/2 gives negative values (population inversion).
    """
    if not (0.0 < p_up_infinity < 1.0):
        raise ValueError(f"population must lie strictly inside (0, 1), "
                         f"got {p_up_infinity}")
    if gap <= 0:
        raise ValueError(f"gap must be positive, got {gap}")
    return -math.log(p_up_infinity / (1.0 - p_up_infinity)) / gap


def conditional_fixed_point(cm: ConditionalMatrix) -> float:
    """Stationary upper-level weight of the transition matrix itself.

    p* = P(up|down) / (1 - P(up|up) + P(up|down)); undefined for the
    identity matrix (no mixing).
    """
    denom = 1.0 - cm.p_up_given_up + cm.p_up_given_down
    if denom <= 0.0:
        raise ValueError("conditional matrix has no mixing; "
                         "stationary weight undefined")
    return cm.p_up_given_down / denom


def first_law_check(dist: EnergyChangeDistribution, mean_w: float,
                    mean_q: float) -> float:
    """Residual <dE> - (<W> + <Q>), both heats in the system-gained sign."""
    return dist.mean() - (mean_w + mean_q)
