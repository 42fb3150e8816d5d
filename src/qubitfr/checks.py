"""End-to-end numeric acceptance checks, shared by the CLI and the tests.

Each check returns a ``CheckResult`` with the measured numbers in its
detail string, so a failing run documents how far off it was.  Checks
never loosen their own tolerances: a bound that cannot be met fails
loudly and states the best achievable value.

``run_all`` builds the tables ``run`` writes for the presets the checks
read once (``preset_tables``) and hands them to criteria 1 to 6 and 8.
Criteria 1 to 6 gate those columns, not a second computation of them;
criterion 8 takes its resolved scenarios from them and walks its own
grid; criterion 7 takes no tables and samples the presets' final points
one sweep walk at a time.
"""

from __future__ import annotations

import math
import time

from . import oracle, protocol, scenarios
from .channel import PulseChannelParams, period_map
from .core import Matrix3, Value, free_energy_delta, whole_multiple

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


# The presets whose ``run`` tables criteria 1 to 6 and 8 read.
TABLE_PRESETS = ("fig3a", "fig3b", "fig4a", "fig4b", "fig5a", "fig5b", "fig5c",
                 "fig5d", "fig6d", "fig6e", "fig6f")


def preset_tables() -> dict:
    """``{name: (resolved scenario, columns, seconds)}`` for TABLE_PRESETS:
    the columns of the CSV that ``run`` writes for the preset, by header,
    and the seconds that resolving it and building them took."""
    tables = {}
    for name in TABLE_PRESETS:
        start = time.perf_counter()
        res = scenarios.resolve(scenarios.get_preset(name))
        header, rows = scenarios.table(res)
        tables[name] = (res, dict(zip(header, zip(*rows))),
                        time.perf_counter() - start)
    return tables


def check_closed_cycle_fr(tables: dict) -> CheckResult:
    """<exp(-beta dE)> must equal Z(t_f)/Z(0) on the fixed-axis presets;
    the time bound covers building their rows."""
    start = time.perf_counter()
    names = ("fig4a", "fig4b")
    worst = max(max(tables[name][1]["fr_deviation"]) for name in names)
    elapsed = (time.perf_counter() - start
               + sum(tables[name][2] for name in names))
    passed = worst <= 1e-9 and elapsed < 1.0
    return CheckResult("closed-cycle fluctuation identity", passed,
                       f"max |value - Z ratio| = {worst:.3e} (tol 1e-9), "
                       f"{elapsed:.2f} s")


def check_exchange_fr(tables: dict) -> CheckResult:
    """<exp(-(beta - beta_r) dE)> stays near 1 on the rotating presets.

    The sweep uses beta_r from the channel fixed point.  The one-pulse
    clause is exact only against the one-period transition matrix's own
    stationary weight, so that variant is what the 1e-10 bound tests;
    the channel-fixed-point deviation at one pulse is reported next to
    it rather than hidden.  The time bound covers building the rows.
    """
    start = time.perf_counter()
    names = ("fig6d", "fig6e", "fig6f")
    worst_sweep = 0.0
    worst_one_pulse = 0.0
    worst_one_pulse_channel = 0.0
    for name in names:
        res, columns, _ = tables[name]  # the grid is n tau for n = 0..20
        deviations = columns["fr_deviation"]
        worst_sweep = max(worst_sweep, *deviations)
        worst_one_pulse_channel = max(worst_one_pulse_channel,
                                      deviations[columns["n_pulses"].index(1)])
        pc1 = res.protocol_at(res.config.tau)
        cm1 = protocol.conditional_matrix(pc1)
        beta_r1 = protocol.beta_reservoir(protocol.conditional_fixed_point(cm1),
                                          res.drive.gap)
        gamma1 = res.thermal.beta - beta_r1
        value1 = protocol.fr_functional(
            protocol.energy_change_distribution(cm1, pc1), gamma1)
        worst_one_pulse = max(worst_one_pulse, abs(value1 - 1.0))
    elapsed = (time.perf_counter() - start
               + sum(tables[name][2] for name in names))
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


def check_asymptote_anchors(tables: dict) -> CheckResult:
    """Inverted channels must reach the published plateaus within 0.005,
    and beta_r * gap must match ln((1 - p)/p) to 1e-6.

    Each preset is gated at the pulse count its own transient needs.  A
    basis start lies at most g0 = max(p, 1 - p) from the plateau p, and
    the transient decays as |lam|^n, where |lam| is the spectral radius
    of the linear part of the one-period map (drive for tau, then pulse).
    The gate is the smallest n >= 50 with g0 |lam|^n <= 0.0025, half the
    window; the other half is left for the anchor itself.  |lam| >= 1
    means there is no plateau and fails.  The 50-pulse deviation, from
    the rows ``run`` writes, is reported next to the gated one.
    """
    failures, details = [], []
    for name in ("fig5b", "fig5c", "fig5d"):
        res, columns, _ = tables[name]  # the grid is n tau for n = 0..50
        target, tau = res.config.target_upper_population, res.config.tau
        at_50 = columns["n_pulses"].index(PLATEAU_MIN_PULSES)
        dev_50 = max(abs(columns[c][at_50] - target)
                     for c in ("p_up_given_up", "p_up_given_down"))
        slow = spectral_radius(period_map(res.drive, res.channel, tau)[0])
        if slow < 1.0:
            g0 = max(target, 1.0 - target)
            n_gate, dev = PLATEAU_MIN_PULSES, dev_50
            if g0 * slow ** n_gate > PLATEAU_TRANSIENT:
                n_gate = math.ceil(math.log(PLATEAU_TRANSIENT / g0)
                                   / math.log(slow))
                cm = protocol.conditional_matrix(res.protocol_at(n_gate * tau))
                dev = max(abs(p - target)
                          for p in (cm.p_up_given_up, cm.p_up_given_down))
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


def check_first_law(tables: dict) -> CheckResult:
    worst = 0.0
    worst_strobo_w = 0.0
    for name in ("fig3a", "fig3b"):
        res, columns, _ = tables[name]
        worst = max(worst, *map(abs, columns["first_law_residual"]))
        if res.config.tau == res.drive.tau_a:
            worst_strobo_w = max(worst_strobo_w, *(
                abs(w) for t_f, w in zip(columns["t_f_ns"], columns["mean_work"])
                if whole_multiple(t_f, res.config.tau) is not None))
    passed = worst <= 1e-9 and worst_strobo_w <= 1e-12
    return CheckResult("first law", passed,
                       f"max |dE - (W+Q)| = {worst:.3e} omega0 (tol 1e-9); "
                       f"max |W| at whole periods = {worst_strobo_w:.1e} omega0")


def check_oracle_equivalence(tables: dict) -> CheckResult:
    """Closed forms against step-by-step map propagation.

    Fixed-axis family on a 10 x 10 x 50 grid of (p_absorb, tau/tau_a, n):
    populations, work and heat all to 1e-10.  Rotating family: the
    recursion's gap to the rows ``run`` writes for the three presets is
    held to the frozen empirical bound.
    """
    res = tables["fig3b"][0]
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
            energy = drive.level(0.0) * rx[0]
            work = heat = 0.0
            mean_w, mean_q = oracle.work_heat_series_amplitude(pc)
            for n in range(1, 51):
                level = drive.level(n * tau)  # the same across pulse n
                e_before = level * rx[n - 1]
                work += e_before - energy
                energy = level * rx[n]
                heat += energy - e_before
                pop = 0.5 * (1.0 + rx[n])
                worst_amp = max(worst_amp, abs(
                    pop - oracle.population_after_n_pulses(p0, pa, n)))
            worst_amp = max(worst_amp,
                            abs(work - mean_w) / drive.omega0,
                            abs(heat - mean_q) / drive.omega0)

    gaps = {}
    for name in ("fig5b", "fig5c", "fig5d"):
        res, columns, _ = tables[name]  # the grid is n tau for n = 0..50
        gaps[name] = max(
            abs(p - oracle.floquet_population_recursion(
                p0, res.channel.p_absorb, res.channel.p_pump, res.drive.alpha, n))
            for p0, column in ((1.0, "p_up_given_up"), (0.0, "p_up_given_down"))
            for n, p in zip(columns["n_pulses"], columns[column]))
    passed = (worst_amp <= 1e-10
              and max(gaps.values()) <= RECURSION_GAP_BOUND_PROJECTIVE)
    per_preset = "; ".join(f"{name} {g:.4f}" for name, g in gaps.items())
    return CheckResult(
        "oracle equivalence", passed,
        f"fixed-axis worst dev {worst_amp:.3e} (tol 1e-10); rotating "
        f"recursion gap: {per_preset} (bound {RECURSION_GAP_BOUND_PROJECTIVE})")


def check_rabi_oscillation(tables: dict) -> CheckResult:
    columns = tables["fig5a"][1]
    closed = columns["closed_form_p_up_given_up"]
    worst = max(max(abs(up - c), abs(down - (1.0 - c))) for up, down, c in zip(
        columns["p_up_given_up"], columns["p_up_given_down"], closed))
    passed = worst <= 1e-9
    return CheckResult("dressed-state oscillation", passed,
                       f"max closed-form deviation {worst:.3e} over "
                       f"{len(closed)} points (tol 1e-9)")


def check_monte_carlo() -> CheckResult:
    """Estimates vs exact maps at 4 binomial sigma, plus chunk-size invariance;
    one ``run_ensembles`` walk per drive, channel, tau, count and seed."""
    try:  # the one check that needs numpy
        from . import montecarlo
    except ImportError as exc:
        raise scenarios.ConfigError(
            f"the monte carlo check needs numpy, which cannot be imported; "
            f"{scenarios.INSTALL_MC}, or skip the check with --skip-mc") from exc

    walks = {}
    for name, cfg in scenarios.PRESETS.items():
        pc = scenarios.resolve(cfg).protocol_at(cfg.t_f_grid[-1])
        key = (pc.drive, pc.channel, pc.tau, cfg.n_trajectories, cfg.master_seed)
        walks.setdefault(key, []).append((name, pc))
    worst_sigma, worst_name = 0.0, ""
    slowest, slowest_names = 0.0, ""
    sampler_s = walked = 0
    for (*_, n_trajectories, seed), points in walks.items():
        names, pcs = zip(*points)
        start = time.perf_counter()
        ensembles = montecarlo.run_ensembles(pcs, n_trajectories, seed)
        elapsed = time.perf_counter() - start
        sampler_s += elapsed
        walked += 2 * n_trajectories
        if elapsed > slowest:
            slowest, slowest_names = elapsed, "/".join(names)
        for name, stats, exact in zip(names, ensembles,
                                      protocol.conditional_matrices(pcs)):
            for i, sigma in enumerate(stats.std_err()):
                diff = abs(stats.column_estimate(i) - exact.prob(0, i))
                pulls = 0.0 if diff == 0.0 else (math.inf if sigma == 0.0
                                                 else diff / sigma)
                if pulls > worst_sigma:
                    worst_sigma, worst_name = pulls, name

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
        f"chunk 97 vs default chunk identical: {identical}; slowest walk "
        f"{slowest_names} {slowest:.1f} s (tol 30); sampler "
        f"{walked / sampler_s:.3g} trajectories/s over {len(walks)} walks "
        f"of {len(scenarios.PRESETS)} presets")


def check_inequalities(tables: dict) -> CheckResult:
    """Jensen bound <dE> >= dF with a cold start, on a grid of its own
    rather than the presets' rows, and w_irr >= 0."""
    worst_jensen = math.inf
    for name in ("fig3a", "fig3b"):
        res = tables[name][0]
        w0 = res.config.omega0
        pcs = [res.protocol_at(t_f)
               for t_f in scenarios.linspace(0.0, 12 * res.config.tau, 100)[1:]]
        for pc, cm in zip(pcs, protocol.conditional_matrices(pcs)):
            mean_de = protocol.mean(protocol.energy_change_distribution(cm, pc))
            df = free_energy_delta(res.config.beta, res.drive, pc.t_f)
            worst_jensen = min(worst_jensen, (mean_de - df) / w0)

    res = tables["fig3b"][0]
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
    """The checks' results in ALL_CHECKS order; the preset tables are built
    once, before the first check, and every check but the Monte-Carlo one
    reads them."""
    tables = preset_tables()
    return [check() if check is check_monte_carlo else check(tables)
            for check in ALL_CHECKS if include_mc or check is not check_monte_carlo]
