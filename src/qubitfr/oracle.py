"""Closed-form ground truth for the pulsed-drive protocols.

Everything in this module is a direct formula evaluation, independent of
the map-propagation engine in ``protocol``; tests compare the two.  Heats
carry the system-gained sign throughout (positive when the qubit energy
rises).

The fixed-axis (amplitude) family is exactly solvable: each pulse pulls
the measured population toward 1/2 by a factor (1 - p_absorb) and the
drive never mixes populations, giving geometric per-pulse work and heat
series.  The rotating (phase) family admits a one-pulse population
recursion built on a pulse-strength factor k; two readings of k are
provided (see ``k_factor`` and ``k_factor_projective``) and the gap
between recursion and full propagation is measurable via
``floquet_recursion_gap`` instead of being assumed zero.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .core import (AmplitudeModulatedDrive, DriveSpec, PhaseRotatingDrive,
                   free_energy_delta, gibbs_population,
                   instantaneous_eigensystem)
from .protocol import ProtocolConfig, pulse_train

SERIES_SUM_TOL = 1e-12


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


@dataclass(frozen=True)
class WorkHeatSeries:
    """Per-pulse work/heat terms with their totals (system-gained heat)."""

    per_pulse_w: np.ndarray
    per_pulse_q: np.ndarray
    tail_w: float
    mean_w: float
    mean_q: float

    def __post_init__(self) -> None:
        w = np.asarray(self.per_pulse_w, dtype=float)
        q = np.asarray(self.per_pulse_q, dtype=float)
        object.__setattr__(self, "per_pulse_w", w)
        object.__setattr__(self, "per_pulse_q", q)
        if abs(self.mean_w - (w.sum() + self.tail_w)) > SERIES_SUM_TOL:
            raise ValueError("total work inconsistent with its parts")
        if abs(self.mean_q - q.sum()) > SERIES_SUM_TOL:
            raise ValueError("total heat inconsistent with its parts")


def work_heat_series_amplitude(config: ProtocolConfig) -> WorkHeatSeries:
    """Exact work/heat bookkeeping for the fixed-axis drive up to config.t_f.

    Work accrues between pulses while the populations sit still; pulse n
    contributes heat (omega(n tau)/2) p_absorb (1-p_absorb)^(n-1) (1-2P(0)).
    A partial interval after the last pulse contributes only work.
    """
    drive = config.drive
    if not isinstance(drive, AmplitudeModulatedDrive):
        raise TypeError("work/heat series requires the fixed-axis drive")
    t_f, tau, n_pulses = config.t_f, config.tau, config.n_pulses
    pa = config.channel.p_absorb
    d0 = 1.0 - 2.0 * gibbs_population(config.thermal.beta, drive, 0.0)

    per_w = np.array([0.5 * (drive.omega((n - 1) * tau) - drive.omega(n * tau))
                      * (1.0 - pa) ** (n - 1) * d0
                      for n in range(1, n_pulses + 1)])
    per_q = np.array([0.5 * drive.omega(n * tau) * pa * (1.0 - pa) ** (n - 1) * d0
                      for n in range(1, n_pulses + 1)])
    tail = -0.5 * (1.0 - pa) ** n_pulses * d0 * (drive.omega(t_f)
                                                 - drive.omega(n_pulses * tau))
    return WorkHeatSeries(per_w, per_q, tail_w=tail,
                          mean_w=float(per_w.sum()) + tail,
                          mean_q=float(per_q.sum()))


def k_factor(p_pump: float, alpha: float) -> float:
    """Pulse-strength factor 1 + (1 - p_pump) cos^2(alpha), in [1, 2]."""
    if not (0.0 <= p_pump <= 1.0):
        raise ValueError(f"p_pump must be a probability, got {p_pump}")
    return 1.0 + (1.0 - p_pump) * math.cos(alpha) ** 2


def k_factor_projective(p_pump: float, alpha: float) -> float:
    """Variant reading 1 - (1 - p_pump) cos^2(alpha), in [0, 1].

    This is the factor produced by composing projection and pumping
    exactly on a dressed-basis-diagonal state; kept alongside ``k_factor``
    so the two readings can be compared against full propagation.
    """
    if not (0.0 <= p_pump <= 1.0):
        raise ValueError(f"p_pump must be a probability, got {p_pump}")
    return 1.0 - (1.0 - p_pump) * math.cos(alpha) ** 2


def floquet_asymptote(p_pump: float, alpha: float, k: float | None = None) -> float:
    """Limiting upper-level weight 1/2 (1 - (p_pump/k) cos(alpha))."""
    if k is None:
        k = k_factor(p_pump, alpha)
    return 0.5 * (1.0 - (p_pump / k) * math.cos(alpha))


def floquet_population_recursion(p0: float, p_absorb: float, p_pump: float,
                                 alpha: float, n: int,
                                 k: float | None = None) -> float:
    """n-pulse upper-level population for the rotating drive.

    P(n) = (1 - p_absorb k)^n P(0) + (1 - (1 - p_absorb k)^n) P_inf with
    P_inf from ``floquet_asymptote``.  Exactness relative to the full map
    is a measured quantity, not an assumption; see
    ``floquet_recursion_gap``.
    """
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    if k is None:
        k = k_factor(p_pump, alpha)
    damp = 1.0 - p_absorb * k
    if damp <= 0.0:
        warnings.warn(f"p_absorb * k = {p_absorb * k:.4f} >= 1: recursion "
                      "leaves the monotone-contraction regime", stacklevel=2)
    p_inf = floquet_asymptote(p_pump, alpha, k)
    return damp ** n * p0 + (1.0 - damp ** n) * p_inf


def invert_pump_closed_form(target: float, alpha: float,
                            projective: bool = False) -> float:
    """Pump probability whose recursion asymptote equals the target weight.

    Solves target = 1/2 (1 - (p/k(p)) cos(alpha)) for p with the chosen k
    reading.  The result can fall outside [0, 1] for unreachable targets;
    callers validate.
    """
    c = math.cos(alpha)
    if c == 0.0:
        raise ValueError("cos(alpha) = 0: asymptote is 1/2 for every pump value")
    s = -1.0 if projective else 1.0
    excess = 1.0 - 2.0 * target
    denom = c * (1.0 + s * excess * c)
    if denom == 0.0:
        raise ValueError("target is at the inversion singularity")
    return excess * (1.0 + s * c * c) / denom


def mean_heat_phase(config: ProtocolConfig) -> float:
    """Cumulative heat after the config's n stroboscopic pulses of the
    rotating drive, with the default k factor.

    E_theta (1 - (1 - p_absorb k)^n)(1 - (p_pump/k) cos(alpha) - 2 P(0)),
    which equals gap * (P(n) - P(0)) for the recursion populations.
    """
    drive = config.drive
    if not isinstance(drive, PhaseRotatingDrive):
        raise TypeError("stroboscopic heat requires the rotating drive")
    pd = config.channel.p_pump
    k = k_factor(pd, drive.alpha)
    p0 = gibbs_population(config.thermal.beta, drive, 0.0)
    damp = 1.0 - config.channel.p_absorb * k
    return drive.e_theta * (1.0 - damp ** config.n_pulses) * (
        1.0 - (pd / k) * math.cos(drive.alpha) - 2.0 * p0)


def rabi_conditional(omega0: float, theta: float, t: float) -> float:
    """Dressed-state survival probability of the pulse-free rotating drive.

    1 - omega0^2/(omega0^2 + theta^2) sin^2(theta t / 2); equal to 1 at
    whole drive periods.
    """
    if t < 0:
        raise ValueError(f"t must be nonnegative, got {t}")
    weight = omega0 * omega0 / (omega0 * omega0 + theta * theta)
    return 1.0 - weight * math.sin(0.5 * theta * t) ** 2


def floquet_recursion_gap(config: ProtocolConfig,
                          k: float | None = None) -> np.ndarray:
    """|recursion - full map| per pulse count 0..config.n_pulses,
    maximized over basis starts.

    Propagates both dressed basis states through ``pulse_train`` (exact
    drive periods, then pulses) and compares their upper-level weights
    with the recursion at the same pulse count; entry n is the larger of
    the two absolute gaps.
    """
    drive = config.drive
    if not isinstance(drive, PhaseRotatingDrive):
        raise TypeError("recursion gap is defined for the rotating drive")
    params = config.channel
    n_max = config.n_pulses
    axis = instantaneous_eigensystem(drive, 0.0).basis_plus.as_array()
    post, _ = pulse_train(config, [axis, -1.0 * axis], range(n_max + 1))
    gaps = np.zeros(n_max + 1)
    for start, p0 in enumerate((1.0, 0.0)):
        for n in range(n_max + 1):
            exact = 0.5 * (1.0 + float(post[n][start] @ axis))
            predicted = floquet_population_recursion(
                p0, params.p_absorb, params.p_pump, drive.alpha, n, k=k)
            gaps[n] = max(gaps[n], abs(exact - predicted))
    return gaps


def w_irr(beta: float, drive: DriveSpec, t_f: float) -> float:
    """Irreversible work <W> - dF of the pulse-free (closed) segment.

    Valid only before the first pulse.  Nonnegative for every t_f,
    vanishing at whole drive periods.
    """
    if not isinstance(drive, AmplitudeModulatedDrive):
        raise TypeError("irreversible work is defined for the fixed-axis drive")
    d0 = 2.0 * gibbs_population(beta, drive, 0.0) - 1.0
    mean_w = 0.5 * (drive.omega(t_f) - drive.omega(0.0)) * d0
    return mean_w - free_energy_delta(beta, drive, t_f)


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
