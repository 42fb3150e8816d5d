"""Two-point measurement protocol over the pulsed, driven qubit.

A run is specified by a ``ProtocolConfig``: measure in the drive's fixed
``basis`` at t = 0, evolve under the drive with a pulse at each multiple of
``tau`` up to ``n_pulses``, coast to ``t_f``, measure again.  The
deterministic engine propagates the two initial basis states through the
ensemble-averaged channel, which is exact for all probabilities that are
linear in the density operator.  ``pulse_train`` is its one
rotate-then-pulse loop; a sweep over final times walks it once, since
every point's pulses are a prefix of the last point's.

The measured object is the ``ConditionalMatrix``, stored as its upper row
P(up|up), P(up|down) since each column sums to one; with the initial Gibbs
weights it gives the four (dE, p) atoms of the two-point energy change,
one per (initial, final) outcome pair.  The mean <dE> and the fluctuation
functionals <exp(-gamma * dE)> are plain sums over the atoms, taken with
``math.fsum`` so that their order does not matter.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

from .channel import PulseChannelParams, pulse_step
from .core import (IDENTITY3, DriveSpec, Matrix3, ThermalContext, Value,
                   Vector, bloch_rotation, check_bloch_vector,
                   gibbs_population, matvec3, partition_function,
                   population_along, whole_multiple)

PROBABILITY_TOL = 1e-12

UPPER, LOWER = 0, 1


def pulses_applied(t_f: float, tau: float) -> int:
    """Number of pulses fired in [0, t_f] with pulses at tau, 2*tau, ...

    A pulse coinciding with t_f (``core.whole_multiple``) is counted: the
    final measurement happens immediately after it.
    """
    if t_f < 0:
        raise ValueError(f"t_f must be nonnegative, got {t_f}")
    if tau <= 0:
        raise ValueError(f"tau must be positive, got {tau}")
    if not math.isfinite(t_f / tau):  # NaN fails too
        raise ValueError(f"t_f / tau must be finite, got t_f = {t_f!r}, "
                         f"tau = {tau!r}")
    n = whole_multiple(t_f, tau)
    return math.floor(t_f / tau) if n is None else n


class ProtocolConfig(Value):
    """Full description of one two-point measurement run; ``t_f`` defaults
    to the last pulse, ``n_pulses * tau``."""

    def __init__(self, drive: DriveSpec, channel: PulseChannelParams, tau: float,
                 n_pulses: int, thermal: ThermalContext,
                 t_f: float | None = None) -> None:
        if t_f is None:
            t_f = n_pulses * tau
        self.__dict__.update(drive=drive, channel=channel, tau=tau,
                             n_pulses=n_pulses, thermal=thermal, t_f=t_f)
        if self.tau <= 0:
            raise ValueError(f"tau must be positive, got {self.tau}")
        if self.n_pulses < 0:
            raise ValueError(f"n_pulses must be nonnegative, got {self.n_pulses}")
        if pulses_applied(self.t_f, self.tau) < self.n_pulses:
            raise ValueError(f"t_f = {self.t_f} precedes pulse {self.n_pulses} "
                             f"at {self.n_pulses * self.tau}")


def tail_rotation(config: ProtocolConfig) -> Matrix3:
    """Drive rotation over the partial interval (N*tau, t_f) after the last
    pulse; the identity when t_f lands on it."""
    t_last = config.n_pulses * config.tau
    if config.t_f > t_last:
        return bloch_rotation(config.drive, t_last, config.t_f)
    return IDENTITY3


def segment_rotations(config: ProtocolConfig) -> list[Matrix3]:
    """Per-period drive rotations: entry n-1 carries ((n-1)tau, n*tau)."""
    return [bloch_rotation(config.drive, (n - 1) * config.tau, n * config.tau)
            for n in range(1, config.n_pulses + 1)]


def pulse_train(config: ProtocolConfig, starts: Sequence[Sequence[float]],
                counts: Sequence[int]) -> list[list[Vector]]:
    """Post-pulse Bloch vectors of each start at each requested pulse count.

    Walks the rotate-then-pulse steps of ``segment_rotations(config)`` once
    and keeps only the states at ``counts`` (each in 0..config.n_pulses,
    repeats allowed): entry [k][s] is start s after counts[k] pulses.  A
    state after k pulses reaches any later t_f before the next pulse through
    that point's ``tail_rotation``.  Each step is one ``matvec3`` per start,
    then ``channel.pulse_step``; a state that leaves the Bloch ball, after
    the rotation or after the pulse, raises ValueError.
    """
    if any(not 0 <= n <= config.n_pulses for n in counts):
        raise ValueError(f"pulse counts {list(counts)} outside "
                         f"0..{config.n_pulses}")
    rots = segment_rotations(config)
    pa, pd = config.channel.p_absorb, config.channel.p_pump
    wanted = set(counts)
    rs = [tuple(float(x) for x in r) for r in starts]
    kept = {0: rs}
    for n, rot in enumerate(rots[:max(wanted, default=0)], start=1):
        stepped = []
        for r in rs:
            rotated = matvec3(rot, r)
            check_bloch_vector(*rotated)
            pulsed = pulse_step(*rotated, pa, pd)
            check_bloch_vector(*pulsed)
            stepped.append(pulsed)
        rs = stepped
        if n in wanted:
            kept[n] = rs
    return [kept[n] for n in counts]


def mean_trajectory(config: ProtocolConfig, r) -> list[tuple[float, Vector]]:
    """Snapshots (t_n, r_n) after pulses n = 0..N from start r, then (t_f, r)
    past pulse N; each r is three floats checked to lie in the Bloch ball."""
    r = tuple(float(x) for x in r)
    check_bloch_vector(*r)
    post = pulse_train(config, [r], range(config.n_pulses + 1))
    out = [(0.0, r)] + [(n * config.tau, rs[0])
                        for n, rs in enumerate(post[1:], start=1)]
    if config.t_f > config.n_pulses * config.tau:
        final = matvec3(tail_rotation(config), post[-1][0])
        check_bloch_vector(*final)
        out.append((config.t_f, final))
    return out


class ConditionalMatrix(Value):
    """Transition probabilities of the two-outcome measurement, stored as
    the upper row: the final outcome is down with probability 1 - p."""

    def __init__(self, p_up_given_up: float, p_up_given_down: float) -> None:
        self.__dict__.update(p_up_given_up=p_up_given_up,
                             p_up_given_down=p_up_given_down)
        # Written so that NaN fails it.
        if not all(-PROBABILITY_TOL <= p <= 1.0 + PROBABILITY_TOL
                   for p in (self.p_up_given_up, self.p_up_given_down)):
            raise ValueError(f"probabilities outside [0, 1]: "
                             f"{self.p_up_given_up!r}, {self.p_up_given_down!r}")

    @classmethod
    def from_upper_row(cls, p_up_given_up: float,
                       p_up_given_down: float) -> "ConditionalMatrix":
        return cls(float(p_up_given_up), float(p_up_given_down))

    def prob(self, final_index: int, initial_index: int) -> float:
        """Probability of final outcome j given initial outcome i; index 0
        is the upper level."""
        up = (self.p_up_given_up, self.p_up_given_down)[initial_index]
        return up if final_index == UPPER else 1.0 - up


def sweep_longest(configs: Sequence[ProtocolConfig]) -> ProtocolConfig:
    """The config of a sweep with the most pulses; raises ``ValueError``
    unless all share drive, channel and tau."""
    first = configs[0]
    if any((pc.drive, pc.channel, pc.tau) != (first.drive, first.channel, first.tau)
           for pc in configs):
        raise ValueError("a sweep's configs must share drive, channel and tau")
    return max(configs, key=lambda pc: pc.n_pulses)


def conditional_matrices(configs: Sequence[ProtocolConfig]) -> list[ConditionalMatrix]:
    """Transition probabilities between the bases at 0 and each config's t_f.

    The configs must share drive, channel and tau.  Pulses fire at tau,
    2 tau, ... whatever t_f is, so every point with n pulses has the same
    post-pulse state: one ``pulse_train`` to the largest pulse count serves
    the whole sweep, and each point adds its own tail rotation.  A sweep
    costs O(N_max + grid) rotations, not O(grid * N).
    """
    if not configs:
        return []
    longest = sweep_longest(configs)
    basis = longest.drive.basis
    post = pulse_train(longest, basis, [pc.n_pulses for pc in configs])
    out = []
    for pc, rs in zip(configs, post):
        tail = tail_rotation(pc)
        up, down = (population_along(matvec3(tail, r), basis[0]) for r in rs)
        out.append(ConditionalMatrix.from_upper_row(up, down))
    return out


def conditional_matrix(config: ProtocolConfig) -> ConditionalMatrix:
    """Transition probabilities between the measurement bases at 0 and t_f."""
    return conditional_matrices([config])[0]


def initial_probabilities(config: ProtocolConfig) -> tuple[float, float]:
    """Gibbs weights (upper, lower) of the initial measurement outcomes, each
    its own logistic: 1 - g would lose the small one's digits at large |beta|."""
    return tuple(gibbs_population(b, config.drive, 0.0)
                 for b in (config.thermal.beta, -config.thermal.beta))


def energy_change_distribution(cm: ConditionalMatrix,
                               config: ProtocolConfig) -> tuple[tuple[float, float], ...]:
    """The four atoms (E_final - E_initial, probability), Gibbs-weighted, in
    (initial, final) order (up, up), (up, down), (down, up), (down, down).

    Unchecked: the atoms are finite and sum to one, since a validated drive's
    levels are finite at a finite t_f, the Gibbs weights sum to one, and
    ``ConditionalMatrix`` rejects columns outside [0, 1] and NaN.
    """
    l0, lf = config.drive.level(0.0), config.drive.level(config.t_f)
    e0, ef = (l0, -l0), (lf, -lf)
    weights = initial_probabilities(config)
    return tuple((ef[j] - e0[i], weights[i] * cm.prob(j, i))
                 for i in (UPPER, LOWER) for j in (UPPER, LOWER))


def mean(atoms: Sequence[tuple[float, float]]) -> float:
    """<dE> over the atoms."""
    return math.fsum(v * p for v, p in atoms)


def fr_functional(atoms: Sequence[tuple[float, float]], gamma: float) -> float:
    """<exp(-gamma * dE)> over the atoms.

    Positive for a resolved scenario: ``scenarios.MAX_EXP_ARG`` bounds
    |gamma dE|, so every exp term is finite and positive.
    """
    return math.fsum(p * math.exp(-gamma * v) for v, p in atoms)


def fr_target(config: ProtocolConfig) -> float:
    """Partition-function ratio Z(t_f)/Z(0) the functional should reproduce.

    Equals exp(-beta dF); identically 1 for the rotating drive (constant
    spectrum) and for beta = 0.
    """
    beta = config.thermal.beta
    return (partition_function(beta, config.drive, config.t_f)
            / partition_function(beta, config.drive, 0.0))


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

