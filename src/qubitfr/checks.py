"""End-to-end numeric acceptance checks, shared by the CLI and the tests.

Each check returns a ``CheckResult`` with the measured numbers in its
detail string, so a failing run documents how far off it was.  Checks
never loosen their own tolerances: a bound that cannot be met fails
loudly and states the best achievable value.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import montecarlo, oracle, protocol, scenarios
from .channel import PulseChannelParams, _period_map
from .core import (AmplitudeModulatedDrive, ThermalContext, free_energy_delta,
                   gibbs_population)

# Empirical recursion-vs-propagation bounds for the three rotating-drive
# presets (max absolute population gap over 50 pulses, basis starts).
# Measured once on the preset parameters and frozen.  The projective
# reading differs from the full affine map only through the coherences
# that survive between pulses (measured maxima 0.011 / 0.006 / 0.053);
# the default reading also misses the contraction rate (0.12 / 0.26 /
# 0.42).
RECURSION_GAP_BOUND_DEFAULT = 0.45
RECURSION_GAP_BOUND_PROJECTIVE = 0.06

# Criterion 3 gates each plateau no earlier than PLATEAU_MIN_PULSES, and
# only once the transient bound has fallen to PLATEAU_TRANSIENT, half the
# 0.005 plateau window.
PLATEAU_MIN_PULSES = 50
PLATEAU_TRANSIENT = 0.0025


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status}  {self.name}: {self.detail}"


def check_closed_cycle_fr() -> CheckResult:
    """<exp(-beta dE)> must equal Z(t_f)/Z(0) on the fixed-axis presets."""
    start = time.perf_counter()
    worst = 0.0
    for name in ("fig4a", "fig4b"):
        res = scenarios.resolve(scenarios.get_preset(name))
        pcs = [res.protocol_at(t_f) for t_f in res.config.t_f_grid]
        for pc, cm in zip(pcs, protocol.conditional_matrices(pcs)):
            worst = max(worst, protocol.fr_report(pc, cm).deviation)
    elapsed = time.perf_counter() - start
    passed = worst <= 1e-9 and elapsed < 1.0
    return CheckResult("closed-cycle fluctuation identity", passed,
                       f"max |value - Z ratio| = {worst:.3e} (tol 1e-9), "
                       f"{elapsed:.2f} s")


def check_exchange_fr() -> CheckResult:
    """<exp(-(beta - beta_r) dE)> stays near 1 on the rotating presets.

    The sweep uses beta_r from the channel fixed point.  The one-pulse
    clause is exact only against the one-period transition matrix's own
    stationary weight, so that variant is what the 1e-10 bound tests;
    the channel-fixed-point deviation at one pulse is reported next to
    it rather than hidden.
    """
    start = time.perf_counter()
    worst_sweep = 0.0
    worst_one_pulse = 0.0
    worst_one_pulse_channel = 0.0
    for name in ("fig6d", "fig6e", "fig6f"):
        res = scenarios.resolve(scenarios.get_preset(name))
        pcs = [res.protocol_at(n * res.config.tau) for n in range(21)]
        cms = protocol.conditional_matrices(pcs)
        for pc, cm in zip(pcs, cms):
            report = protocol.fr_report(pc, cm)
            worst_sweep = max(worst_sweep, abs(report.fr_value - 1.0))
        pc1, cm1 = pcs[1], cms[1]
        report_channel = protocol.fr_report(pc1, cm=cm1)
        worst_one_pulse_channel = max(worst_one_pulse_channel,
                                      abs(report_channel.fr_value - 1.0))
        beta_r1 = protocol.beta_reservoir(protocol.conditional_fixed_point(cm1),
                                          res.drive.gap)
        gamma1 = res.thermal.beta - beta_r1
        value1 = protocol.fr_functional(
            protocol.energy_change_distribution(cm1, pc1), gamma1)
        worst_one_pulse = max(worst_one_pulse, abs(value1 - 1.0))
    elapsed = time.perf_counter() - start
    passed = worst_sweep <= 0.02 and worst_one_pulse <= 1e-10 and elapsed < 1.0
    return CheckResult(
        "exchange fluctuation identity", passed,
        f"max |value - 1| = {worst_sweep:.3e} over n <= 20 (tol 0.02); "
        f"one pulse {worst_one_pulse:.3e} (tol 1e-10) vs map stationary "
        f"weight, {worst_one_pulse_channel:.3e} vs channel fixed point; "
        f"{elapsed:.2f} s")


def check_asymptote_anchors() -> CheckResult:
    """Inverted channels must reach the published plateaus within 0.005,
    and beta_r * gap must match ln((1 - p)/p) to 1e-6.

    Each preset is gated at the pulse count its own transient needs.  A
    basis start lies at most g0 = max(p, 1 - p) from the plateau p, and
    the transient decays as |lam|^n, where |lam| is the spectral radius
    of the linear part of the one-period map (drive for tau, then pulse).
    The gate is the smallest n >= 50 with g0 |lam|^n <= 0.0025, half the
    window; the other half is left for the anchor itself.  |lam| >= 1
    means there is no plateau and fails.

    A fixed 50 pulses assumed the population recursion's fast rate
    1 - p_a k, but criterion 5 measures that recursion 0.42 off the full
    map on fig5d.  There E tau - 2 pi is only 0.188 rad, so the pump
    barely leaks between pulses and |lam| = 0.9446: 50 pulses leave
    5.5e-2 of transient, and the gate of 105 pulses leaves 2.4e-3.  The
    50-pulse deviation is reported next to the gated one.
    """
    failures = []
    details = []
    for name, target in (("fig5b", 0.276), ("fig5c", 0.138), ("fig5d", 0.050)):
        res = scenarios.resolve(scenarios.get_preset(name))
        lin, _ = _period_map(res.drive, res.channel, res.config.tau)
        slow = float(np.max(np.abs(np.linalg.eigvals(lin))))
        counts = [PLATEAU_MIN_PULSES]
        if slow < 1.0:
            g0 = max(target, 1.0 - target)
            n_gate = PLATEAU_MIN_PULSES
            if g0 * slow ** n_gate > PLATEAU_TRANSIENT:
                n_gate = math.ceil(math.log(PLATEAU_TRANSIENT / g0)
                                   / math.log(slow))
            counts.append(n_gate)
        devs = [max(abs(cm.p_up_given_up - target), abs(cm.p_up_given_down - target))
                for cm in protocol.conditional_matrices(
                    [res.protocol_at(n * res.config.tau) for n in counts])]
        dev_50, dev = devs[0], devs[-1]
        if slow < 1.0:
            gated = f"gate {n_gate}, dev at 50 {dev_50:.3e}, at gate {dev:.3e}"
        else:
            dev = math.inf
            gated = f"no plateau, dev at 50 {dev_50:.3e}"
        ratio_dev = abs(res.derived["beta_r_gap"]
                        - math.log((1.0 - target) / target))
        if not (dev <= 0.005 and ratio_dev <= 1e-6):
            failures.append(name)
        details.append(f"{name}: |lambda| {slow:.4f}, {gated}, "
                       f"temperature-ratio dev {ratio_dev:.1e}")
    passed = not failures
    return CheckResult("asymptote anchors", passed,
                       "; ".join(details) + " (tol 0.005 / 1e-6)")


def check_first_law() -> CheckResult:
    worst = 0.0
    worst_strobo_w = 0.0
    for name in ("fig3a", "fig3b"):
        res = scenarios.resolve(scenarios.get_preset(name))
        w0 = res.config.omega0
        pcs = [res.protocol_at(t_f) for t_f in res.config.t_f_grid]
        for t_f, pc, cm in zip(res.config.t_f_grid, pcs,
                               protocol.conditional_matrices(pcs)):
            dist = protocol.energy_change_distribution(cm, pc)
            series = oracle.work_heat_series_amplitude(pc)
            residual = protocol.first_law_check(dist, series.mean_w, series.mean_q)
            worst = max(worst, abs(residual) / w0)
        if res.config.tau == res.drive.tau_a:
            for n in range(13):
                series = oracle.work_heat_series_amplitude(
                    res.protocol_at(n * res.config.tau))
                worst_strobo_w = max(worst_strobo_w, abs(series.mean_w) / w0)
    passed = worst <= 1e-9 and worst_strobo_w <= 1e-12
    return CheckResult("first law", passed,
                       f"max |dE - (W+Q)| = {worst:.3e} omega0 (tol 1e-9); "
                       f"max |W| at whole periods = {worst_strobo_w:.1e} omega0")


def check_oracle_equivalence() -> CheckResult:
    """Closed forms against step-by-step map propagation.

    Fixed-axis family on a 10 x 10 x 50 grid of (p_absorb, tau/tau_a, n):
    populations, work and heat all to 1e-10.  Rotating family: the
    recursion gap is measured for the three presets and held to the
    frozen empirical bounds for both k readings.
    """
    drive = AmplitudeModulatedDrive(scenarios.AMPLITUDE_OMEGA0,
                                    scenarios.AMPLITUDE_TAU_A)
    beta = 2.0 / drive.omega0
    thermal = ThermalContext(beta)
    p0 = gibbs_population(beta, drive, 0.0)
    worst_amp = 0.0
    for pa in np.linspace(0.05, 0.95, 10):
        params = PulseChannelParams(float(pa), 0.0)
        for ratio in np.linspace(0.1, 1.3, 10):
            tau = float(ratio) * drive.tau_a
            pc = protocol.ProtocolConfig(drive, params, tau, 50, thermal)
            # An x-rotation leaves rx alone, so the post-pulse rx of pulse
            # n - 1 is also its value just before pulse n.
            post, _ = protocol.pulse_train(
                pc, [np.array([2.0 * p0 - 1.0, 0.0, 0.0])], range(51))
            rx = [rs[0][0] for rs in post]
            energy = 0.5 * drive.omega(0.0) * rx[0]
            work = heat = 0.0
            series = oracle.work_heat_series_amplitude(pc)
            for n in range(1, 51):
                e_before = 0.5 * drive.omega(n * tau) * rx[n - 1]
                work += e_before - energy
                energy = 0.5 * drive.omega(n * tau) * rx[n]
                heat += energy - e_before
                pop = 0.5 * (1.0 + rx[n])
                worst_amp = max(worst_amp, abs(
                    pop - oracle.population_after_n_pulses(p0, float(pa), n)))
            worst_amp = max(worst_amp,
                            abs(work - series.mean_w) / drive.omega0,
                            abs(heat - series.mean_q) / drive.omega0)

    gap_default = gap_projective = 0.0
    per_preset = []
    for name in ("fig5b", "fig5c", "fig5d"):
        res = scenarios.resolve(scenarios.get_preset(name))
        pc = res.protocol_at(50 * res.config.tau)
        gd = float(oracle.floquet_recursion_gap(pc).max())
        kp = oracle.k_factor_projective(res.channel.p_pump, res.drive.alpha)
        gp = float(oracle.floquet_recursion_gap(pc, k=kp).max())
        gap_default = max(gap_default, gd)
        gap_projective = max(gap_projective, gp)
        per_preset.append(f"{name} {gd:.3f}/{gp:.4f}")
    passed = (worst_amp <= 1e-10
              and gap_default <= RECURSION_GAP_BOUND_DEFAULT
              and gap_projective <= RECURSION_GAP_BOUND_PROJECTIVE)
    return CheckResult(
        "oracle equivalence", passed,
        f"fixed-axis worst dev {worst_amp:.3e} (tol 1e-10); rotating "
        f"recursion gap default/projective: {'; '.join(per_preset)} "
        f"(bounds {RECURSION_GAP_BOUND_DEFAULT}/{RECURSION_GAP_BOUND_PROJECTIVE})")


def check_rabi_oscillation() -> CheckResult:
    res = scenarios.resolve(scenarios.get_preset("fig5a"))
    worst = 0.0
    cms = protocol.conditional_matrices(
        [res.protocol_at(t_f) for t_f in res.config.t_f_grid])
    for t_f, cm in zip(res.config.t_f_grid, cms):
        closed = oracle.rabi_conditional(res.config.omega0, res.config.theta, t_f)
        worst = max(worst, abs(cm.p_up_given_up - closed),
                    abs(cm.p_up_given_down - (1.0 - closed)))
    passed = worst <= 1e-9
    return CheckResult("dressed-state oscillation", passed,
                       f"max closed-form deviation {worst:.3e} over "
                       f"{len(res.config.t_f_grid)} points (tol 1e-9)")


def check_monte_carlo() -> CheckResult:
    """Estimates vs exact maps at 4 binomial sigma, plus chunk-size invariance."""
    n_trajectories = 100_000
    worst_sigma = 0.0
    worst_name = ""
    slowest, slowest_name = 0.0, ""
    sampler_s = 0.0
    for name in scenarios.PRESETS:
        start = time.perf_counter()
        res = scenarios.resolve(scenarios.get_preset(name))
        pc = res.protocol_at(res.config.t_f_grid[-1])
        sample_start = time.perf_counter()
        stats = montecarlo.run_ensemble(pc, n_trajectories,
                                        res.config.master_seed)
        sampler_s += time.perf_counter() - sample_start
        exact = protocol.conditional_matrix(pc)
        est = stats.conditional_estimate()
        err = stats.std_err()
        for i in (0, 1):
            diff = abs(est.matrix[0, i] - exact.matrix[0, i])
            sigma = err[i]
            pulls = 0.0 if diff == 0.0 else (math.inf if sigma == 0.0
                                             else diff / sigma)
            if pulls > worst_sigma:
                worst_sigma, worst_name = pulls, name
        elapsed = time.perf_counter() - start
        if elapsed > slowest:
            slowest, slowest_name = elapsed, name
    throughput = 2 * n_trajectories * len(scenarios.PRESETS) / sampler_s

    res = scenarios.resolve(scenarios.get_preset("fig6e"))
    pc = res.protocol_at(res.config.t_f_grid[-1])
    default = montecarlo.run_ensemble(pc, 20_000, res.config.master_seed)
    chunked = montecarlo.run_ensemble(pc, 20_000, res.config.master_seed,
                                      chunk_size=97)
    identical = default.to_dict() == chunked.to_dict()
    passed = worst_sigma <= 4.0 and identical and slowest < 30.0
    return CheckResult(
        "monte carlo consistency", passed,
        f"worst pull {worst_sigma:.2f} sigma ({worst_name}, tol 4); "
        f"chunk 97 vs default chunk identical: {identical}; slowest preset "
        f"{slowest_name} {slowest:.1f} s (tol 30); sampler "
        f"{throughput:.3g} trajectories/s over {len(scenarios.PRESETS)} presets")


def check_inequalities() -> CheckResult:
    """Jensen bound <dE> >= dF with a cold start, and w_irr >= 0."""
    worst_jensen = math.inf
    for name in ("fig3a", "fig3b"):
        res = scenarios.resolve(scenarios.get_preset(name))
        w0 = res.config.omega0
        pcs = [res.protocol_at(float(t_f))
               for t_f in np.linspace(0.0, 12 * res.config.tau, 100)[1:]]
        for pc, cm in zip(pcs, protocol.conditional_matrices(pcs)):
            dist = protocol.energy_change_distribution(cm, pc)
            df = free_energy_delta(res.config.beta, res.drive, pc.t_f)
            worst_jensen = min(worst_jensen, (dist.mean() - df) / w0)

    drive = AmplitudeModulatedDrive(scenarios.AMPLITUDE_OMEGA0,
                                    scenarios.AMPLITUDE_TAU_A)
    beta = 2.0 / drive.omega0
    worst_wirr = math.inf
    worst_cross = 0.0
    for t_f in np.linspace(0.0, drive.tau_a, 102)[1:-1]:
        value = oracle.w_irr(beta, drive, float(t_f))
        worst_wirr = min(worst_wirr, value / drive.omega0)
        entropic = oracle.irreversible_work_relative_entropy(
            beta, drive, float(t_f))
        worst_cross = max(worst_cross, abs(value - entropic) / drive.omega0)
    passed = (worst_jensen >= -1e-12 and worst_wirr >= -1e-12
              and worst_cross <= 1e-10)
    return CheckResult(
        "inequality suite", passed,
        f"min (<dE> - dF) = {worst_jensen:.3e} omega0, min w_irr = "
        f"{worst_wirr:.3e} omega0 (tol -1e-12); relative-entropy "
        f"cross-check dev {worst_cross:.1e}")


ALL_CHECKS = (
    check_closed_cycle_fr,
    check_exchange_fr,
    check_asymptote_anchors,
    check_first_law,
    check_oracle_equivalence,
    check_rabi_oscillation,
    check_monte_carlo,
    check_inequalities,
)


def run_all(include_mc: bool = True) -> list[CheckResult]:
    results = []
    for check in ALL_CHECKS:
        if not include_mc and check is check_monte_carlo:
            continue
        results.append(check())
    return results
