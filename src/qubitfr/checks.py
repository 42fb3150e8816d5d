"""End-to-end numeric acceptance checks, shared by the CLI and the tests.

Each check returns a ``CheckResult`` with the measured numbers in its
detail string, so a failing run documents how far off it was.  Checks
never loosen their own tolerances: a bound that cannot be met fails
loudly and states the best achievable value.
"""

from __future__ import annotations

import math
import time

from . import oracle, protocol, scenarios
from .channel import PulseChannelParams, period_map
from .core import Matrix3, Value, free_energy_delta

# Empirical recursion-vs-propagation bound for the three rotating-drive
# presets (max absolute population gap over 50 pulses, basis starts),
# measured once on the preset parameters and frozen.  The recursion
# differs from the full affine map only through the coherences that
# survive between pulses (measured maxima 0.010 / 0.005 / 0.053).
RECURSION_GAP_BOUND_PROJECTIVE = 0.06

# Criterion 3 gates each plateau no earlier than PLATEAU_MIN_PULSES, and
# only once the transient bound has fallen to PLATEAU_TRANSIENT, half the
# 0.005 plateau window.
PLATEAU_MIN_PULSES = 50
PLATEAU_TRANSIENT = 0.0025


class CheckResult(Value):
    def __init__(self, name: str, passed: bool, detail: str) -> None:
        self.__dict__.update(name=name, passed=passed, detail=detail)

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status}  {self.name}: {self.detail}"


def check_closed_cycle_fr() -> CheckResult:
    """<exp(-beta dE)> must equal Z(t_f)/Z(0) on the fixed-axis presets."""
    start = time.perf_counter()
    worst = 0.0
    for name in ("fig4a", "fig4b"):
        res = scenarios.resolve(scenarios.get_preset(name))
        gamma = res.thermal.beta - res.thermal.beta_r
        pcs = [res.protocol_at(t_f) for t_f in res.config.t_f_grid]
        for pc, cm in zip(pcs, protocol.conditional_matrices(pcs)):
            value = protocol.fr_functional(
                protocol.energy_change_distribution(cm, pc), gamma)
            worst = max(worst, abs(value - protocol.fr_target(pc)))
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
        gamma = res.thermal.beta - res.thermal.beta_r
        pcs = [res.protocol_at(n * res.config.tau) for n in range(21)]
        cms = protocol.conditional_matrices(pcs)
        deviations = [abs(protocol.fr_functional(
                           protocol.energy_change_distribution(cm, pc), gamma)
                           - protocol.fr_target(pc))
                      for pc, cm in zip(pcs, cms)]
        worst_sweep = max(worst_sweep, *deviations)
        worst_one_pulse_channel = max(worst_one_pulse_channel, deviations[1])
        pc1, cm1 = pcs[1], cms[1]
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


def spectral_radius(m: Matrix3) -> float:
    """Largest |eigenvalue| of a real 3x3 matrix: the roots, by Cardano or
    the trigonometric form, of the characteristic cubic of m - (tr m / 3) I,
    built from the shifted entries so that close eigenvalues stay accurate."""
    (a, b, c), (d, e, f), (g, h, i) = m
    shift = (a + e + i) / 3.0
    a, e, i = a - shift, e - shift, i - shift
    p = (a * e - b * d) + (a * i - c * g) + (e * i - f * h)
    q = -(a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g))
    disc = (q / 2.0) ** 2 + (p / 3.0) ** 3  # roots t of t^3 + p t + q
    if disc > 0.0:
        u = -math.copysign((abs(q) / 2.0 + math.sqrt(disc)) ** (1.0 / 3.0), q)
        v = -p / (3.0 * u)
        return max(abs(shift + u + v), math.hypot(shift - (u + v) / 2.0,
                                                  0.75 ** 0.5 * (u - v)))
    r = 2.0 * math.sqrt(-p / 3.0)
    if r == 0.0:
        return abs(shift)
    phi = math.acos(max(-1.0, min(1.0, 3.0 * q / (p * r))))
    return max(abs(shift + r * math.cos((phi - 2.0 * math.pi * k) / 3.0))
               for k in range(3))


def check_asymptote_anchors() -> CheckResult:
    """Inverted channels must reach the published plateaus within 0.005,
    and beta_r * gap must match ln((1 - p)/p) to 1e-6.

    Each preset is gated at the pulse count its own transient needs.  A
    basis start lies at most g0 = max(p, 1 - p) from the plateau p, and
    the transient decays as |lam|^n, where |lam| is the spectral radius
    of the linear part of the one-period map (drive for tau, then pulse).
    The gate is the smallest n >= 50 with g0 |lam|^n <= 0.0025, half the
    window; the other half is left for the anchor itself.  |lam| >= 1
    means there is no plateau and fails.  The 50-pulse deviation is
    reported next to the gated one.
    """
    failures = []
    details = []
    for name in ("fig5b", "fig5c", "fig5d"):
        res = scenarios.resolve(scenarios.get_preset(name))
        target = res.config.target_upper_population
        lin, _ = period_map(res.drive, res.channel, res.config.tau)
        slow = spectral_radius(lin)
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
            mean_de = protocol.mean(protocol.energy_change_distribution(cm, pc))
            mean_w, mean_q = oracle.work_heat_series_amplitude(pc)
            residual = mean_de - (mean_w + mean_q)
            worst = max(worst, abs(residual) / w0)
        if res.config.tau == res.drive.tau_a:
            for n in range(13):
                mean_w, _ = oracle.work_heat_series_amplitude(
                    res.protocol_at(n * res.config.tau))
                worst_strobo_w = max(worst_strobo_w, abs(mean_w) / w0)
    passed = worst <= 1e-9 and worst_strobo_w <= 1e-12
    return CheckResult("first law", passed,
                       f"max |dE - (W+Q)| = {worst:.3e} omega0 (tol 1e-9); "
                       f"max |W| at whole periods = {worst_strobo_w:.1e} omega0")


def check_oracle_equivalence() -> CheckResult:
    """Closed forms against step-by-step map propagation.

    Fixed-axis family on a 10 x 10 x 50 grid of (p_absorb, tau/tau_a, n):
    populations, work and heat all to 1e-10.  Rotating family: the
    recursion gap is measured for the three presets and held to the
    frozen empirical bound.
    """
    res = scenarios.resolve(scenarios.get_preset("fig3b"))
    drive, thermal = res.drive, res.thermal
    p0 = res.derived["initial_upper_population"]
    worst_amp = 0.0
    for pa in scenarios.linspace(0.05, 0.95, 10):
        params = PulseChannelParams(pa, 0.0)
        for ratio in scenarios.linspace(0.1, 1.3, 10):
            tau = ratio * drive.tau_a
            pc = protocol.ProtocolConfig(drive, params, tau, 50, thermal)
            # An x-rotation leaves rx alone, so the post-pulse rx of pulse
            # n - 1 is also its value just before pulse n.
            post = protocol.pulse_train(pc, [(2.0 * p0 - 1.0, 0.0, 0.0)], range(51))
            rx = [rs[0][0] for rs in post]
            energy = 0.5 * drive.omega(0.0) * rx[0]
            work = heat = 0.0
            mean_w, mean_q = oracle.work_heat_series_amplitude(pc)
            for n in range(1, 51):
                e_before = 0.5 * drive.omega(n * tau) * rx[n - 1]
                work += e_before - energy
                energy = 0.5 * drive.omega(n * tau) * rx[n]
                heat += energy - e_before
                pop = 0.5 * (1.0 + rx[n])
                worst_amp = max(worst_amp, abs(
                    pop - oracle.population_after_n_pulses(p0, pa, n)))
            worst_amp = max(worst_amp,
                            abs(work - mean_w) / drive.omega0,
                            abs(heat - mean_q) / drive.omega0)

    gaps = {}
    for name in ("fig5b", "fig5c", "fig5d"):
        res = scenarios.resolve(scenarios.get_preset(name))
        pc = res.protocol_at(50 * res.config.tau)
        gaps[name] = max(oracle.floquet_recursion_gap(pc))
    passed = (worst_amp <= 1e-10
              and max(gaps.values()) <= RECURSION_GAP_BOUND_PROJECTIVE)
    per_preset = "; ".join(f"{name} {g:.4f}" for name, g in gaps.items())
    return CheckResult(
        "oracle equivalence", passed,
        f"fixed-axis worst dev {worst_amp:.3e} (tol 1e-10); rotating "
        f"recursion gap: {per_preset} (bound {RECURSION_GAP_BOUND_PROJECTIVE})")


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
    try:  # the one check that needs numpy
        from . import montecarlo
    except ImportError as exc:
        raise scenarios.ConfigError(
            f"the monte carlo check needs numpy, which cannot be imported; "
            f"{scenarios.INSTALL_MC}, or skip the check with --skip-mc") from exc

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
            diff = abs(est.prob(0, i) - exact.prob(0, i))
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
        pcs = [res.protocol_at(t_f)
               for t_f in scenarios.linspace(0.0, 12 * res.config.tau, 100)[1:]]
        for pc, cm in zip(pcs, protocol.conditional_matrices(pcs)):
            mean_de = protocol.mean(protocol.energy_change_distribution(cm, pc))
            df = free_energy_delta(res.config.beta, res.drive, pc.t_f)
            worst_jensen = min(worst_jensen, (mean_de - df) / w0)

    res = scenarios.resolve(scenarios.get_preset("fig3b"))
    drive, beta = res.drive, res.config.beta
    worst_wirr = math.inf
    worst_cross = 0.0
    for t_f in scenarios.linspace(0.0, drive.tau_a, 102)[1:-1]:
        value = oracle.w_irr(beta, drive, t_f)
        worst_wirr = min(worst_wirr, value / drive.omega0)
        entropic = oracle.irreversible_work_relative_entropy(
            beta, drive, t_f)
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
