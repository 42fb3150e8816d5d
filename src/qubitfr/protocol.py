"""Two-point measurement protocol over the pulsed, driven qubit.

The engines read a ``Sweep``, runs that differ only in their final time
t_f, which computes once what all its runs share: the pulse counts, the
period and tail rotations, level(0) and the initial Gibbs weights; one
run is a sweep of one time.  The deterministic engine propagates the two
initial basis states through the ensemble-averaged channel, which is
exact for all probabilities that are linear in the density operator.
``pulse_train`` is its one rotate-then-pulse loop, and ``final_states``
(that loop plus each point's tail) its one readout of states: every
point's pulses are a prefix of the last point's, so a sweep walks the
loop once.  A drive periodic in tau has one period map, which a sweep
builds once; under it the loop stops at an exact repeat of its states,
a fixed point or a 2-cycle, and reads every later pulse count from there.

The measured object is the ``ConditionalMatrix``, stored as its upper row
P(up|up), P(up|down) since each column sums to one; with the initial Gibbs
weights it gives the four (dE, p) atoms of the two-point energy change,
one per (initial, final) outcome pair, which ``energy_changes`` builds
for a whole table from one ``sweep_levels`` pass.  The mean <dE> and the
fluctuation functionals <exp(-gamma * dE)> are plain sums over the
atoms, taken with ``math.fsum`` so that their order does not matter.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Sequence

from .channel import PulseChannelParams
from .core import (IDENTITY3, AmplitudeModulatedDrive, DriveSpec, Matrix3,
                   ThermalContext, Value, Vector, bloch_rotations, check_bloch_vector,
                   gibbs_population, interval_rotations, matvec3, whole_multiples)

PROBABILITY_TOL = 1e-12


def pulses_applied(t_f: float, tau: float) -> int:
    """Number of pulses fired in [0, t_f] with pulses at tau, 2*tau, ...

    A pulse coinciding with t_f (``core.whole_multiple``) is counted: the
    final measurement happens immediately after it.
    """
    return pulse_counts((t_f,), tau)[0]


def pulse_counts(times: Sequence[float], tau: float) -> list[int]:
    """``pulses_applied`` at each time, validated in order, from one
    ``core.whole_multiples`` pass; tau must be positive and finite, also
    with no times."""
    for t_f in times:
        if t_f < 0:
            raise ValueError(f"t_f must be nonnegative, got {t_f}")
        if tau <= 0:
            raise ValueError(f"tau must be positive, got {tau}")
        if not math.isfinite(t_f / tau):  # NaN fails too
            raise ValueError(f"t_f / tau must be finite, got t_f = {t_f!r}, "
                             f"tau = {tau!r}")
    if not 0 < tau < math.inf:  # with no times, or tau = inf; NaN fails too
        raise ValueError(f"tau must be positive and finite, got {tau!r}")
    return [math.floor(t_f / tau) if n is None else n
            for t_f, n in zip(times, whole_multiples(times, tau))]


class Sweep(Value):
    """Runs that share drive, channel, tau and thermal context, one per
    entry of ``times`` (any order, repeats allowed): measure in the drive's
    ``basis`` at t = 0, pulse at each multiple of tau up to t_f, at most
    ``max_pulses`` times (no limit when None), measure again at t_f.  It
    holds each time's pulse count, ``counts`` (``pulse_counts``, which
    validates the times), the largest of them, ``n_pulses`` (0 with no
    times), which its one walk fires, the ``periods`` that walk applies
    (entry n-1 carries ((n-1)tau, n*tau)), its ``tails``
    (``tail_rotations``), the upper level ``level0`` at t = 0 and the Gibbs
    ``weights`` (upper, lower) of the initial outcomes, each its own
    logistic: 1 - g would lose the small one's digits at large |beta|.

    When tau is a whole number n >= 1 of the drive's own period
    (``tau_a`` or ``tau_theta``, whole as ``core.whole_multiples`` rules),
    every period is one rotation over (0, tau), built once and held
    ``n_pulses`` times; otherwise they are one ``core.bloch_rotations``
    pass over 0, tau, ..., n_pulses tau."""

    def __init__(self, drive: DriveSpec, channel: PulseChannelParams, tau: float,
                 thermal: ThermalContext, times: Sequence[float],
                 max_pulses: int | None = None) -> None:
        self.__dict__.update(drive=drive, channel=channel, tau=tau, thermal=thermal,
                             times=tuple(times), max_pulses=max_pulses)
        # bool is an int subclass; reject it, and NaN and fractions, too.
        if max_pulses is not None and not (type(max_pulses) is int and max_pulses >= 0):
            raise ValueError(f"max_pulses must be None or an int >= 0, "
                             f"got {max_pulses!r}")
        limit = math.inf if max_pulses is None else max_pulses
        counts = tuple(n if n <= limit else limit for n in pulse_counts(self.times, tau))
        n_pulses = max(counts, default=0)
        period = (drive.tau_a if isinstance(drive, AmplitudeModulatedDrive)
                  else drive.tau_theta)
        if whole_multiples((tau,), period)[0]:  # n >= 1 drive periods; None fails
            periods = tuple(bloch_rotations(drive, (0.0, tau))) * n_pulses
        else:
            periods = tuple(bloch_rotations(drive, [n * tau for n in range(n_pulses + 1)]))
        self.__dict__.update(
            counts=counts, n_pulses=n_pulses, periods=periods,
            level0=drive.level(0.0),
            weights=tuple(gibbs_population(b, drive, 0.0)
                          for b in (thermal.beta, -thermal.beta)))
        self.__dict__["tails"] = tuple(tail_rotations(self))


def tail_rotations(sweep: Sweep) -> list[Matrix3]:
    """Each time's drive rotation over the partial interval (N*tau, t_f)
    after its last pulse, the identity when t_f lands on it; the others are
    one ``core.interval_rotations`` pass over their distinct endpoints."""
    tau = sweep.tau
    index: dict[float, int] = {}  # endpoint -> its position in the pass
    starts, ends = [], []
    for n, t_f in zip(sweep.counts, sweep.times):
        t_last = n * tau
        if t_f > t_last:
            starts.append(index.setdefault(t_last, len(index)))
            ends.append(index.setdefault(t_f, len(index)))
    built = iter(interval_rotations(sweep.drive, list(index), starts, ends))
    return [next(built) if t_f > n * tau else IDENTITY3
            for n, t_f in zip(sweep.counts, sweep.times)]


def pulse_train(sweep: Sweep, starts: Sequence[Sequence[float]],
                counts: Sequence[int]) -> list[list[Vector]]:
    """Post-pulse Bloch vectors of each start at each requested pulse count
    (each in 0..``sweep.n_pulses``, repeats allowed): entry [k][s] is start
    s after counts[k] pulses, from one walk of ``sweep.periods``.

    Each step applies its period's rotation to every start, summing each
    element as ``matvec3`` does, then the pulse averaged over absorption,
    (1 - pa) x, (1 - pa) y, (1 - pa) z + pa (z + pd (1 - z)); a state that
    leaves the Bloch ball, after the rotation or after the pulse, raises
    ValueError.  ``check_bloch_vector`` runs only when the squared norm,
    summed in its order, is not <= 1 (NaN included): any smaller sum has
    sqrt <= 1, which that check passes, so the verdict is always its own.

    When every period is one rotation object, the walk stops at the first
    step whose states equal, with no zero component, those two steps back,
    and reads each later count from the last two states, which alternate
    from there (or are equal, at a fixed point).  Every state it returns
    was made, and checked, by a step that ran: the result is the full
    walk's, bit for bit.
    """
    if any(not 0 <= n <= sweep.n_pulses for n in counts):
        raise ValueError(f"pulse counts {list(counts)} outside 0..{sweep.n_pulses}")
    rots = sweep.periods[:max(counts, default=0)]
    # Only a walk that applies one rotation object at every step may stop.
    may_stop = all(map(operator.is_, rots, rots[:1] * len(rots)))
    pa, pd = sweep.channel.p_absorb, sweep.channel.p_pump
    keep = 1.0 - pa
    wanted = set(counts)
    rs = [tuple(float(x) for x in r) for r in starts]
    kept = {0: rs}
    back = back2 = None  # the states one and two steps back
    for n, ((a, b, c), (d, e, f), (g, h, i)) in enumerate(rots, start=1):
        stepped = []
        for x, y, z in rs:
            x, y, z = (a * x + b * y + c * z, d * x + e * y + f * z,
                       g * x + h * y + i * z)
            if not x * x + y * y + z * z <= 1.0:
                check_bloch_vector(x, y, z)
            x, y, z = pulsed = (keep * x, keep * y, keep * z + pa * (z + pd * (1.0 - z)))
            if not x * x + y * y + z * z <= 1.0:
                check_bloch_vector(x, y, z)
            stepped.append(pulsed)
        back2, back, rs = back, rs, stepped
        if n in wanted:
            kept[n] = rs
        # A fixed point shows here one step late.  0.0 in r is true of -0.0
        # too: with no zero component, equal values are equal bits.
        if may_stop and rs == back2 and not any(0.0 in r for r in rs):
            for m in wanted:
                if m > n:
                    kept[m] = (rs, back)[(m - n) % 2]
            break
    return [kept[n] for n in counts]


class ConditionalMatrix(Value):
    """Transition probabilities of the two-outcome measurement, stored as
    the upper row: the final outcome is down with probability 1 - p."""

    def __init__(self, p_up_given_up: float, p_up_given_down: float) -> None:
        self.__dict__.update(p_up_given_up=p_up_given_up,
                             p_up_given_down=p_up_given_down)
        # One chained comparison, both entries in [-TOL, 1 + TOL]; NaN fails it.
        if not (-PROBABILITY_TOL <= p_up_given_up <= 1.0 + PROBABILITY_TOL
                >= p_up_given_down >= -PROBABILITY_TOL):
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
        return up if final_index == 0 else 1.0 - up


def final_states(sweep: Sweep,
                 starts: Sequence[Sequence[float]]) -> list[list[Vector]]:
    """Entry [k][s]: start s's Bloch vector at sweep.times[k]; one outside
    the Bloch ball raises ValueError.  One ``pulse_train`` serves the sweep
    and each point adds its own tail: O(N_max + grid) rotations."""
    post = pulse_train(sweep, starts, sweep.counts)
    out = [[matvec3(tail, r) for r in rs] for tail, rs in zip(sweep.tails, post)]
    for x, y, z in (r for rs in out for r in rs):
        if not x * x + y * y + z * z <= 1.0:  # as in pulse_train
            check_bloch_vector(x, y, z)
    return out


def conditional_matrices(sweep: Sweep) -> list[ConditionalMatrix]:
    """Transition probabilities between the bases at 0 and each time: the
    ``final_states`` of the basis states (checked there), measured along
    the upper one u as 0.5 (1 + r . u)."""
    basis = sweep.drive.basis
    ux, uy, uz = basis[0]
    return [ConditionalMatrix(0.5 * (1.0 + (x * ux + y * uy + z * uz)),
                              0.5 * (1.0 + (a * ux + b * uy + c * uz)))
            for (x, y, z), (a, b, c) in final_states(sweep, basis)]


def conditional_matrix(run: Sweep) -> ConditionalMatrix:
    """Transition probabilities between the measurement bases at 0 and the
    one time of ``run``."""
    return conditional_matrices(run)[0]


def sweep_levels(sweep: Sweep) -> list[float]:
    """The upper level at each time, one ``drive.level`` call per distinct time."""
    level = sweep.drive.level
    at = {t: level(t) for t in dict.fromkeys(sweep.times)}
    return [at[t] for t in sweep.times]


def energy_changes(sweep: Sweep, levels: Sequence[float],
                   matrices: Sequence[ConditionalMatrix]) -> list[tuple]:
    """Per pair of a level(t_f) and a ``ConditionalMatrix``, the four atoms
    (E_final - E_initial, probability) from ``sweep.level0``, Gibbs-weighted
    by ``sweep.weights``, in (initial, final) order (up, up), (up, down),
    (down, up), (down, down).

    Unchecked: the atoms are finite and sum to one, since a validated drive's
    levels are finite at a finite t_f, the Gibbs weights sum to one, and
    ``ConditionalMatrix`` rejects columns outside [0, 1] and NaN.
    """
    l0, (up, down) = sweep.level0, sweep.weights
    return [((lf - l0, up * uu), (-lf - l0, up * (1.0 - uu)),
             (lf - -l0, down * ud), (-lf - -l0, down * (1.0 - ud)))
            for lf, (uu, ud) in zip(levels, ((cm.p_up_given_up, cm.p_up_given_down)
                                             for cm in matrices))]


def energy_change_distribution(cm: ConditionalMatrix, run: Sweep) -> tuple:
    """``energy_changes`` of a one-time sweep: its four atoms."""
    return energy_changes(run, sweep_levels(run), [cm])[0]


def mean(atoms: Sequence[tuple[float, float]]) -> float:
    """<dE> over the atoms."""
    return math.fsum(v * p for v, p in atoms)


def fr_functional(atoms: Sequence[tuple[float, float]], gamma: float) -> float:
    """<exp(-gamma * dE)> over the atoms.

    Positive for a resolved scenario: ``scenarios.MAX_EXP_ARG`` bounds
    |gamma dE|, so every exp term is finite and positive.
    """
    return math.fsum(p * math.exp(-gamma * v) for v, p in atoms)


def fr_targets(sweep: Sweep, levels: Sequence[float]) -> list[float]:
    """Partition-function ratio Z(t_f)/Z(0), exp(-beta dF), the functional
    should reproduce at each of the sweep's ``levels`` (``sweep_levels``),
    with Z(t) = 2 cosh(beta level(t)).  Identically 1 for the rotating drive
    and beta = 0."""
    beta = sweep.thermal.beta
    z0 = 2.0 * math.cosh(beta * sweep.level0)
    return [2.0 * math.cosh(beta * lf) / z0 for lf in levels]


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

