"""Closed-form ground truth for the pulsed-drive protocols.

Everything in this module is a direct formula evaluation, independent of
the map-propagation engine in ``protocol``; tests compare the two.  Heats
carry the system-gained sign throughout (positive when the qubit energy
rises).

The fixed-axis (amplitude) family is exactly solvable: each pulse pulls
the measured population toward 1/2 by a factor (1 - p_absorb) and the
drive never mixes populations, so the mean work and heat are sums of
geometric per-pulse terms, evaluated once per sweep.  The rotating
(phase) family admits a one-pulse population recursion built on the
pulse-strength factor k = 1 - (1 - p_pump) cos^2(alpha), the projective
reading: its rate 1 - p_absorb k sits within 0.007 of the slow
eigenvalue of the one-period map on the fig5b-d presets (0.8080 vs
0.8058, 0.8607 vs 0.8598, 0.9383 vs 0.9446).  The recursion is still not
exact, because coherences survive between pulses; criterion 5 of
``checks`` measures the gap against the rows ``run`` writes instead of
assuming it zero.
"""

from __future__ import annotations

import math
from .core import (AmplitudeModulatedDrive, DriveSpec, PhaseRotatingDrive,
                   free_energy_delta, gibbs_population)
from .protocol import Sweep


def population_after_n_pulses(p0: float, p_absorb: float, n: int) -> float:
    """Upper-level population after n pulses under the fixed-axis drive.

    P(n) = 1/2 (1 - (1-p_absorb)^n (1 - 2 p0)); the drive axis coincides
    with the measurement axis, so only the pulses move this population.
    """
    if not (0.0 <= p0 <= 1.0):
        raise ValueError(f"p0 must be a probability, got {p0}")
    if not (0.0 <= p_absorb <= 1.0):
        raise ValueError(f"p_absorb must be a probability, got {p_absorb}")
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    return 0.5 * (1.0 - (1.0 - p_absorb) ** n * (1.0 - 2.0 * p0))


def work_heat_series_amplitude(sweep: Sweep) -> list[tuple[float, float]]:
    """Exact (mean work, mean heat) of the fixed-axis drive up to each t_f of a sweep.

    Work accrues while the populations sit still, between pulses and on each
    point's tail after the last one; pulse n adds heat (omega(n tau)/2)
    p_absorb (1-p_absorb)^(n-1) (1-2P(0)).  Each pulse's terms are evaluated
    once, and ``math.fsum`` sums the first n once per distinct pulse count n.
    """
    drive, tau, pa = sweep.drive, sweep.tau, sweep.channel.p_absorb
    if not isinstance(drive, AmplitudeModulatedDrive):
        raise TypeError("work/heat series requires the fixed-axis drive")
    d0 = 1.0 - 2.0 * sweep.weights[0]
    omegas = [drive.omega(n * tau) for n in range(sweep.n_pulses + 1)]
    per_w = [0.5 * (omegas[n - 1] - omegas[n]) * (1.0 - pa) ** (n - 1) * d0
             for n in range(1, len(omegas))]
    per_q = [0.5 * omegas[n] * pa * (1.0 - pa) ** (n - 1) * d0
             for n in range(1, len(omegas))]
    counts = sweep.counts
    sums = {n: (math.fsum(per_w[:n]), math.fsum(per_q[:n])) for n in set(counts)}
    tails = [-0.5 * (1.0 - pa) ** n * d0 * (drive.omega(t_f) - omegas[n])
             for t_f, n in zip(sweep.times, counts)]
    return [(sums[n][0] + tail, sums[n][1]) for n, tail in zip(counts, tails)]


def k_factor(p_pump: float, alpha: float) -> float:
    """Pulse-strength factor 1 - (1 - p_pump) cos^2(alpha), in [0, 1].

    The factor produced by composing projection and pumping exactly on a
    dressed-basis-diagonal state.  It is the one reading kept because its
    rate 1 - p_absorb k tracks the one-period map's slow eigenvalue to
    0.007 on fig5b-d; the reading 1 + (1 - p_pump) cos^2(alpha) missed
    it by up to 0.38.
    """
    if not (0.0 <= p_pump <= 1.0):
        raise ValueError(f"p_pump must be a probability, got {p_pump}")
    return 1.0 - (1.0 - p_pump) * math.cos(alpha) ** 2


def floquet_asymptote(p_pump: float, alpha: float) -> float:
    """Limiting upper-level weight 1/2 (1 - (p_pump/k) cos(alpha)), k from
    ``k_factor``."""
    k = k_factor(p_pump, alpha)
    return 0.5 * (1.0 - (p_pump / k) * math.cos(alpha))


def floquet_population_recursion(p0: float, p_absorb: float, p_pump: float,
                                 alpha: float, n: int) -> float:
    """n-pulse upper-level population for the rotating drive.

    P(n) = (1 - p_absorb k)^n P(0) + (1 - (1 - p_absorb k)^n) P_inf with
    P_inf from ``floquet_asymptote``.  Exactness relative to the full map
    is a measured quantity, not an assumption; see
    ``checks.check_oracle_equivalence``.
    """
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    damp = 1.0 - p_absorb * k_factor(p_pump, alpha)
    if damp == 1.0:  # the pulses move nothing, and k may be 0
        return p0
    p_inf = floquet_asymptote(p_pump, alpha)
    return damp ** n * p0 + (1.0 - damp ** n) * p_inf


def invert_pump_closed_form(target: float, alpha: float) -> float:
    """Pump probability whose recursion asymptote equals the target weight.

    Solves target = 1/2 (1 - (p/k(p)) cos(alpha)) for p.  The result can
    fall outside [0, 1] for unreachable targets; callers validate.
    """
    c = math.cos(alpha)
    if c == 0.0:
        raise ValueError("cos(alpha) = 0: asymptote is 1/2 for every pump value")
    excess = 1.0 - 2.0 * target
    denom = c * (1.0 - excess * c)
    if denom == 0.0:
        raise ValueError("target is at the inversion singularity")
    return excess * (1.0 - c * c) / denom


def mean_heat_phase(sweep: Sweep) -> list[float]:
    """Cumulative heat gap * (P(n) - P(0)) after each point's n
    stroboscopic pulses of the rotating drive, P from
    ``floquet_population_recursion``, evaluated once per distinct n."""
    drive = sweep.drive
    if not isinstance(drive, PhaseRotatingDrive):
        raise TypeError("stroboscopic heat requires the rotating drive")
    p0 = sweep.weights[0]
    pa, pp, alpha = sweep.channel.p_absorb, sweep.channel.p_pump, drive.alpha
    heat = {n: drive.gap * (floquet_population_recursion(p0, pa, pp, alpha, n) - p0)
            for n in set(sweep.counts)}
    return [heat[n] for n in sweep.counts]


def rabi_conditional(omega0: float, theta: float, t: float) -> float:
    """Dressed-state survival probability of the pulse-free rotating drive.

    1 - omega0^2/(omega0^2 + theta^2) sin^2(theta t / 2); equal to 1 at
    whole drive periods.
    """
    if t < 0:
        raise ValueError(f"t must be nonnegative, got {t}")
    weight = omega0 * omega0 / (omega0 * omega0 + theta * theta)
    return 1.0 - weight * math.sin(0.5 * theta * t) ** 2


def w_irr(beta: float, drive: DriveSpec, t_f: float) -> float:
    """Irreversible work <W> - dF of the pulse-free (closed) segment.

    Valid only before the first pulse.  Nonnegative for every t_f,
    vanishing at whole drive periods.
    """
    if not isinstance(drive, AmplitudeModulatedDrive):
        raise TypeError("irreversible work is defined for the fixed-axis drive")
    d0 = 2.0 * gibbs_population(beta, drive, 0.0) - 1.0
    mean_w = 0.5 * (drive.omega(t_f) - drive.omega(0.0)) * d0
    return mean_w - free_energy_delta(beta, drive.level(0.0), drive.level(t_f))


def irreversible_work_relative_entropy(beta: float, drive: DriveSpec,
                                       t_f: float) -> float:
    """Relative-entropy form of the closed-segment irreversible work.

    beta^-1 D(rho || thermal(t_f)) where rho keeps the initial thermal
    populations (the fixed-axis drive commutes with them).
    """
    if not isinstance(drive, AmplitudeModulatedDrive):
        raise TypeError("relative-entropy form requires the fixed-axis drive")
    if beta == 0.0:
        raise ValueError("undefined at beta = 0")
    p = gibbs_population(beta, drive, 0.0)
    q = gibbs_population(beta, drive, t_f)
    divergence = (p * math.log(p / q)
                  + (1.0 - p) * math.log((1.0 - p) / (1.0 - q)))
    return divergence / beta
