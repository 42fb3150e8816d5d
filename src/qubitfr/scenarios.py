"""Named parameter sets and the batch runner that turns them into files.

A ``ScenarioConfig`` is a flat, JSON-serializable description of one run:
drive family and numbers, channel probabilities (a pump value or a target
asymptotic population to invert for), the final-time grid, temperatures,
and Monte-Carlo settings.  ``run_scenario`` resolves it (inversion,
reservoir temperature), writes one CSV of results plus a JSON manifest,
and the manifest can be fed back to ``run_scenario`` to reproduce the CSV
byte for byte in deterministic mode.

Output conventions: energies in the CSV are divided by the drive's
omega0, probabilities are dimensionless, times are in ns.  Floats are
written with ``repr`` so files are stable and round-trip exactly.
"""

from __future__ import annotations

import csv
import json
import math
import numbers
import os
import reprlib
import sys
from contextlib import contextmanager
from pathlib import Path

import qubitfr

from . import oracle, protocol
from . import channel as channel_mod
from .channel import PulseChannelParams
from .core import (AmplitudeModulatedDrive, DriveSpec, PhaseRotatingDrive,
                   ThermalContext, Value, free_energy_delta, gibbs_population)


class ConfigError(Exception):
    """Scenario description is invalid; maps to exit code 2."""


class NumericalContractError(Exception):
    """A numeric invariant failed while computing; maps to exit code 3."""


KINDS = ("conditional", "bloch", "energetics", "fr", "rabi")
MODES = ("deterministic", "montecarlo", "both")
FAMILIES = ("amplitude", "phase")
MC_GRIDS = ("final", "all")
CHOICES = {"kind": KINDS, "drive_family": FAMILIES, "mode": MODES,
           "mc_grid": MC_GRIDS}

AMPLITUDE_TAU_A = 616.0
AMPLITUDE_OMEGA0 = math.pi / AMPLITUDE_TAU_A
# 800 kHz bare Rabi rate, expressed in rad/ns.
PHASE_OMEGA0 = 2.0 * math.pi * 0.8e-3

DEFAULT_MASTER_SEED = 20260814
DEFAULT_TRAJECTORIES = 100_000
# The random-number layout of ``montecarlo``, recorded in sampling
# manifests.  Layout 1 keyed a stream per trajectory, layout 2 a block of
# one stream sized by the trajectory's pulse count.
RNG_LAYOUT = 3
OUTDIR_ENV = "QUBITFR_OUTDIR"
# How to get numpy, which only the sampler needs.
INSTALL_MC = "install the mc extra: pip install 'qubitfr[mc]'"

# Admits every preset (at most 50 pulses) and 500-pulse sweeps.
MAX_PULSES = 1000
# A run's time and memory are linear in the grid length: 500x the longest
# preset grid (fig5a, 200 points).
MAX_GRID_POINTS = 10**5
# Caps a run's sampling work, one walk to the largest sampled pulse count:
# 2 x n_trajectories x (that count + the number of sampled points), for a
# run within 10 s.  Mode "both" also builds the deterministic table, so it
# gets half.  Bloch scenarios are never sampled and are exempt.
MAX_SAMPLED_STEPS = 2**27
# exp overflows past log(float max), about 709.78: the limit on beta dE in
# the Gibbs weights and (beta - beta_r) dE in the fluctuation functional.
MAX_EXP_ARG = math.log(sys.float_info.max)
# UTF-8 bytes of a name or prefix: "<prefix>_manifest.json" plus a
# temporary-file suffix must fit the common 255-byte file-name limit.
MAX_NAME_LENGTH = 200


# repr for config values in error messages: a string, sequence or integer
# is cut to a few dozen characters or items, and an int past 128 bits (whose
# repr raises past 4,300 digits) is given by its bit length, so a huge value
# still gives a short message.
_REPR = reprlib.Repr()
_REPR.repr_int = lambda x, level: (f"<int of {x.bit_length()} bits>" if x.bit_length() > 128
                                   else reprlib.Repr.repr_int(_REPR, x, level))
_quote = _REPR.repr


FLOAT_FIELDS = ("omega0", "tau", "beta", "p_absorb", "tau_a", "theta", "p_pump",
                "target_upper_population")


def _is_finite_number(value) -> bool:
    try:
        return (isinstance(value, numbers.Real) and not isinstance(value, bool)
                and math.isfinite(value))
    except OverflowError:  # an int past the float range
        return False


class ScenarioConfig(Value):
    def __init__(self, name: str, kind: str, drive_family: str, omega0: float,
                 tau: float, t_f_grid: tuple[float, ...], beta: float,
                 p_absorb: float, tau_a: float | None = None,
                 theta: float | None = None, p_pump: float | None = None,
                 target_upper_population: float | None = None,
                 mode: str = "deterministic",
                 n_trajectories: int = DEFAULT_TRAJECTORIES,
                 master_seed: int = DEFAULT_MASTER_SEED, mc_grid: str = "final",
                 prefix: str | None = None) -> None:
        self.__dict__.update(
            name=name, kind=kind, drive_family=drive_family, omega0=omega0,
            tau=tau, t_f_grid=t_f_grid, beta=beta, p_absorb=p_absorb,
            tau_a=tau_a, theta=theta, p_pump=p_pump,
            target_upper_population=target_upper_population, mode=mode,
            n_trajectories=n_trajectories, master_seed=master_seed,
            mc_grid=mc_grid, prefix=prefix)
        if not self.name:
            raise ConfigError("scenario name must be nonempty")
        for field_name in ("name", "prefix"):
            value = getattr(self, field_name)
            if value is None:
                continue
            if (not isinstance(value, str) or value in (".", "..")
                    or any(c in value for c in "/\\\0")):
                raise ConfigError(f"{field_name} must be a plain file name "
                                  f"without path separators, got {_quote(value)}")
            try:
                size = len(value.encode("utf-8"))
            except UnicodeEncodeError:  # lone surrogates have no UTF-8 form
                raise ConfigError(f"{field_name} must be valid Unicode text, "
                                  f"got {_quote(value)}") from None
            if size > MAX_NAME_LENGTH:
                raise ConfigError(f"{field_name} takes {size} bytes in UTF-8; "
                                  f"at most {MAX_NAME_LENGTH} are allowed")
        for field_name in FLOAT_FIELDS:
            value = getattr(self, field_name)
            if value is not None and not _is_finite_number(value):
                raise ConfigError(f"{field_name} must be a finite number, "
                                  f"got {_quote(value)}")
        if not isinstance(self.t_f_grid, (list, tuple)):
            raise ConfigError(f"t_f_grid must be a list of finite numbers, "
                              f"got {_quote(self.t_f_grid)}")
        if len(self.t_f_grid) > MAX_GRID_POINTS:
            raise ConfigError(f"t_f_grid has {len(self.t_f_grid)} points; at "
                              f"most {MAX_GRID_POINTS} are allowed")
        bad = next((i for i, t in enumerate(self.t_f_grid)
                    if not _is_finite_number(t)), None)
        if bad is not None:
            raise ConfigError(f"t_f_grid must be a list of finite numbers; "
                              f"entry {bad} is {_quote(self.t_f_grid[bad])}")
        for field_name, choices in CHOICES.items():
            value = getattr(self, field_name)
            if value not in choices:
                raise ConfigError(f"unknown {field_name} {_quote(value)}; "
                                  f"choose from {choices}")
        if self.drive_family == "amplitude" and not self.tau_a:
            raise ConfigError("amplitude drives need tau_a")
        if self.drive_family == "phase" and not self.theta:
            raise ConfigError("phase drives need theta")
        if self.p_pump is None and self.target_upper_population is None:
            raise ConfigError("give p_pump or a target asymptotic population")
        for field_name in ("p_absorb", "p_pump"):
            value = getattr(self, field_name)
            if value is not None and not 0.0 <= value <= 1.0:
                raise ConfigError(f"{field_name} must be in [0, 1], got {value}")
        if self.kind == "bloch" and self.mode != "deterministic":
            raise ConfigError("bloch scenarios have no stochastic estimator")
        if self.kind == "rabi" and self.drive_family != "phase":
            raise ConfigError("rabi scenarios need the phase drive")
        for field_name in (("theta", "target_upper_population")
                           if self.drive_family == "amplitude" else ("tau_a",)):
            value = getattr(self, field_name)
            if value is not None:
                raise ConfigError(f"{field_name} = {_quote(value)} has no use on the "
                                  f"{self.drive_family} drive; leave it null")
        grid = tuple(float(t) for t in self.t_f_grid)
        if not grid or any(t < 0 for t in grid) or list(grid) != sorted(grid):
            raise ConfigError("t_f_grid must be a nonempty ascending list of "
                              "nonnegative times")
        self.__dict__["t_f_grid"] = grid
        if self.tau <= 0:
            raise ConfigError(f"tau must be positive, got {self.tau}")
        # The drive phases the propagators take cos and sin of, up to the
        # last grid time or tau if later, must not overflow.
        t = max(grid[-1], self.tau)
        phases = ({"theta": self.theta * t,
                   "omega0": math.hypot(self.omega0, self.theta) * t}
                  if self.drive_family == "phase" else
                  {"tau_a": 2.0 * math.pi * t / self.tau_a, "omega0": self.omega0 * t})
        for field_name, phase in phases.items():
            if not math.isfinite(phase):
                raise ConfigError(f"{field_name} = {_quote(getattr(self, field_name))} "
                                  f"makes the drive phase overflow by t = {t} ns")
        # The ratio tests come first: pulses_applied rounds t_f / tau to an
        # int, and raises ValueError when the ratio is not finite.
        ratio = grid[-1] / self.tau
        if self.max_pulses is None and (
                ratio > 2 * MAX_PULSES
                or protocol.pulses_applied(grid[-1], self.tau) > MAX_PULSES):
            raise ConfigError(f"t_f_grid ends at {grid[-1]} ns, past pulse "
                              f"{MAX_PULSES} at tau = {self.tau} ns; at most "
                              f"{MAX_PULSES} pulses are allowed")
        if not math.isfinite(ratio):
            raise ConfigError(f"tau = {self.tau} ns is too short: t_f_grid ends "
                              f"at {grid[-1]} ns, and t_f / tau overflows")
        for field_name in ("n_trajectories", "master_seed"):
            value = getattr(self, field_name)
            if type(value) is not int:  # bool is an int subclass; reject it too
                raise ConfigError(f"{field_name} must be an integer, "
                                  f"got {_quote(value)}")
        if self.n_trajectories < 1:
            raise ConfigError("n_trajectories must be at least 1")
        if not 0 <= self.master_seed < 2**64:
            raise ConfigError(
                f"master_seed must be in [0, 2**64), got {_quote(self.master_seed)}")
        sampled = self.sampled_grid()  # ascending, so the last has the most pulses
        pulses = min(protocol.pulses_applied(sampled[-1], self.tau),
                     math.inf if self.max_pulses is None else self.max_pulses)
        steps = 2 * self.n_trajectories * (pulses + len(sampled))
        cap = MAX_SAMPLED_STEPS // 2 if self.mode == "both" else MAX_SAMPLED_STEPS
        if steps > cap and self.kind != "bloch":
            from decimal import Decimal  # formats ints past the float range
            raise ConfigError(
                f"n_trajectories = {_quote(self.n_trajectories)} asks for "
                f"{Decimal(steps):.3g} pulse steps and measurements over "
                f"{len(sampled)} sampled grid point(s); at most "
                f"{cap} are allowed in mode {self.mode!r}")

    @property
    def max_pulses(self) -> int | None:
        """``protocol.Sweep``'s pulse limit: rabi scenarios fire no pulse."""
        return 0 if self.kind == "rabi" else None

    def sampled_grid(self) -> tuple[float, ...]:
        """Final times the Monte-Carlo modes sample."""
        return self.t_f_grid if self.mc_grid == "all" else self.t_f_grid[-1:]

    def to_dict(self) -> dict:
        return {name: list(value) if isinstance(value, tuple) else value
                for name, value in self.__dict__.items()}

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioConfig":
        # Manifests of earlier versions carry the sampler's thread count,
        # which never changed a result.
        data = {k: v for k, v in data.items() if k != "workers"}
        unknown = set(data) - set(cls.fields())
        if unknown:
            raise ConfigError(f"unknown config keys: {_quote(sorted(unknown))}")
        try:
            return cls(**data)
        except (TypeError, ValueError) as exc:
            raise ConfigError(str(exc)) from exc


class ResolvedScenario(Value):
    """Scenario with every derived quantity pinned to numbers."""

    def __init__(self, config: ScenarioConfig, drive: DriveSpec,
                 channel: PulseChannelParams, thermal: ThermalContext,
                 derived: dict) -> None:
        self.__dict__.update(config=config, drive=drive, channel=channel,
                             thermal=thermal, derived=derived)

    def protocol_at(self, t_f: float) -> protocol.Sweep:
        """The one run to t_f: a sweep of one time."""
        return self.sweep((t_f,))

    def sweep(self, times) -> protocol.Sweep:
        """The protocol at each of ``times``, at most ``config.max_pulses`` pulses."""
        return protocol.Sweep(self.drive, self.channel, self.config.tau, self.thermal,
                              times, self.config.max_pulses)


def resolve(config: ScenarioConfig) -> ResolvedScenario:
    """The drive, channel and derived values that every command reads.

    The pump inversion is exact for the channel fixed point (closed form,
    ``channel.invert_pump_probability``); the ``oracle`` k-factor inversion
    is only reported.  A value the drive, channel or thermal model rejects
    raises ``ConfigError``.
    """
    try:
        return _resolve(config)
    except (ValueError, TypeError) as exc:
        raise ConfigError(str(exc)) from exc


def _resolve(config: ScenarioConfig) -> ResolvedScenario:
    drive = (AmplitudeModulatedDrive(config.omega0, config.tau_a)
             if config.drive_family == "amplitude"
             else PhaseRotatingDrive(config.omega0, config.theta))
    derived: dict = {"energy_unit": "hbar_omega0", "omega0_rad_per_ns": config.omega0}

    p_pump = config.p_pump
    if p_pump is None:
        target = config.target_upper_population  # phase configs only
        try:
            p_pump = channel_mod.invert_pump_probability(
                drive, config.p_absorb, config.tau, target)
        except ValueError as exc:
            raise ConfigError(f"pump inversion failed: {exc}") from exc
        derived["p_up_infinity_target"] = target

    params = PulseChannelParams(config.p_absorb, p_pump)
    derived["p_pump"] = p_pump

    beta_r = 0.0
    if isinstance(drive, PhaseRotatingDrive):
        derived["tau_theta_ns"] = drive.tau_theta
        derived["alpha_rad"] = drive.alpha
        derived["alpha_deg_abs"] = abs(math.degrees(drive.alpha))
        derived["e_theta"] = drive.e_theta / config.omega0
        derived["gap"] = drive.gap / config.omega0
        derived["k_factor"] = oracle.k_factor(p_pump, drive.alpha)
        if config.target_upper_population is not None:
            derived["p_pump_closed_form"] = oracle.invert_pump_closed_form(
                config.target_upper_population, drive.alpha)
        if config.p_absorb > 0.0:
            p_inf = channel_mod.stationary_upper_population(
                drive, params, config.tau)
            beta_r = protocol.beta_reservoir(p_inf, drive.gap)
            derived["p_up_infinity"] = p_inf
            derived["beta_r_gap"] = beta_r * drive.gap
            if config.target_upper_population is not None:
                derived["asymptote_gap_to_target"] = abs(
                    p_inf - config.target_upper_population)
    else:
        derived["tau_a_ns"] = drive.tau_a

    # |dE| is at most the splitting at t = 0: the dressed gap, or omega(0).
    splitting = 2.0 * drive.level(0.0)
    exponent = max(abs(config.beta), abs(config.beta - beta_r)) * splitting
    if exponent > MAX_EXP_ARG:
        raise ConfigError(f"beta = {config.beta!r} with beta_r = {beta_r!r} puts "
                          f"exponents up to {exponent:.4g} on the level splitting "
                          f"{splitting!r} rad/ns; exp overflows past {MAX_EXP_ARG:.2f}")
    thermal = ThermalContext(config.beta, beta_r)
    derived["beta_omega0"] = config.beta * config.omega0
    derived["beta_r_omega0"] = beta_r * config.omega0
    derived["gamma_omega0"] = (config.beta - beta_r) * config.omega0
    derived["initial_upper_population"] = gibbs_population(config.beta, drive, 0.0)
    return ResolvedScenario(config, drive, params, thermal, derived)


# ---------------------------------------------------------------------------
# presets


def _phase_theta(tau_theta: float) -> float:
    return 2.0 * math.pi / tau_theta


def _strobo_grid(tau: float, n_max: int) -> tuple[float, ...]:
    return tuple(n * tau for n in range(n_max + 1))


def linspace(start: float, stop: float, num: int) -> tuple[float, ...]:
    """``num`` >= 2 evenly spaced points, bit for bit those of numpy's
    ``linspace``: i * step + start, with the last point set to ``stop``."""
    step = (stop - start) / (num - 1)
    return tuple(i * step + start for i in range(num - 1)) + (stop,)


def _dense_grid(tau: float, n_max: int) -> tuple[float, ...]:
    return linspace(0.0, n_max * tau, 8 * n_max + 1)


def _amplitude_preset(name: str, kind: str, tau: float,
                      grid: tuple[float, ...]) -> ScenarioConfig:
    return ScenarioConfig(
        name=name, kind=kind, drive_family="amplitude",
        omega0=AMPLITUDE_OMEGA0, tau_a=AMPLITUDE_TAU_A, tau=tau,
        t_f_grid=grid, beta=2.0 / AMPLITUDE_OMEGA0, p_absorb=0.25, p_pump=0.0)


def _phase_preset(name: str, kind: str, tau_theta: float, target: float,
                  initial_up: float | None, n_max: int) -> ScenarioConfig:
    theta = _phase_theta(tau_theta)
    gap = math.hypot(PHASE_OMEGA0, theta)
    beta = 0.0 if initial_up is None else protocol.beta_reservoir(initial_up, gap)
    return ScenarioConfig(
        name=name, kind=kind, drive_family="phase",
        omega0=PHASE_OMEGA0, theta=theta, tau=tau_theta,
        t_f_grid=_strobo_grid(tau_theta, n_max), beta=beta,
        p_absorb=0.25, target_upper_population=target)


def _build_presets() -> dict[str, ScenarioConfig]:
    presets = {
        "fig2a": _amplitude_preset("fig2a", "conditional", 410.0,
                                   _dense_grid(410.0, 12)),
        "fig2bcd": _amplitude_preset("fig2bcd", "bloch", 410.0,
                                     _strobo_grid(410.0, 12)),
        "fig3a": _amplitude_preset("fig3a", "energetics", 410.0,
                                   _dense_grid(410.0, 12)),
        "fig3b": _amplitude_preset("fig3b", "energetics", AMPLITUDE_TAU_A,
                                   _dense_grid(AMPLITUDE_TAU_A, 12)),
        "fig4a": _amplitude_preset("fig4a", "fr", 410.0,
                                   linspace(0.0, 12 * 410.0, 50)),
        "fig4b": _amplitude_preset("fig4b", "fr", AMPLITUDE_TAU_A,
                                   linspace(0.0, 12 * AMPLITUDE_TAU_A, 50)),
        # Pulse-free dressed-state oscillations; p_absorb 0 disables pulses.
        "fig5a": ScenarioConfig(
            name="fig5a", kind="rabi", drive_family="phase",
            omega0=PHASE_OMEGA0, theta=_phase_theta(616.0), tau=616.0,
            t_f_grid=linspace(0.0, 2.0 * 616.0, 200), beta=0.0,
            p_absorb=0.0, p_pump=0.0),
        "fig5b": _phase_preset("fig5b", "conditional", 1296.0, 0.276, None, 50),
        "fig5c": _phase_preset("fig5c", "conditional", 616.0, 0.138, None, 50),
        "fig5d": _phase_preset("fig5d", "conditional", 308.0, 0.050, None, 50),
        "fig6a": _phase_preset("fig6a", "energetics", 1296.0, 0.276, 0.509, 20),
        "fig6b": _phase_preset("fig6b", "energetics", 616.0, 0.138, 0.303, 20),
        "fig6c": _phase_preset("fig6c", "energetics", 308.0, 0.050, 0.126, 20),
        "fig6d": _phase_preset("fig6d", "fr", 1296.0, 0.276, 0.509, 20),
        "fig6e": _phase_preset("fig6e", "fr", 616.0, 0.138, 0.303, 20),
        "fig6f": _phase_preset("fig6f", "fr", 308.0, 0.050, 0.126, 20),
    }
    return presets


PRESETS = _build_presets()


def get_preset(name: str) -> ScenarioConfig:
    try:
        return PRESETS[name]
    except KeyError:
        raise ConfigError(f"unknown preset {name!r}; run the presets command "
                          "for the catalog") from None


def list_presets() -> list[str]:
    """Human-readable catalog, one line per preset."""
    lines = []
    for name, cfg in PRESETS.items():
        bits = [f"{name}: {cfg.kind}", f"family={cfg.drive_family}"]
        if cfg.drive_family == "phase":
            derived = resolve(cfg).derived
            bits.append(f"tau_theta = {derived['tau_theta_ns']:.0f} ns")
            bits.append(f"alpha = {derived['alpha_deg_abs']:.1f} deg")
            if cfg.target_upper_population is not None:
                bits.append(f"target P_up_inf = {cfg.target_upper_population}")
            if cfg.beta != 0.0:
                bits.append(f"P_up(0) = {derived['initial_upper_population']:.3f}")
        else:
            bits.append(f"tau = {cfg.tau:.0f} ns")
            bits.append(f"tau_a = {cfg.tau_a:.0f} ns")
            bits.append("beta = 2/omega0")
        bits.append(f"grid points = {len(cfg.t_f_grid)}")
        lines.append("  ".join(bits))
    return lines


# ---------------------------------------------------------------------------
# execution


@contextmanager
def _replace_on_close(path: Path):
    """Text file that appears at ``path`` only once it is fully written.

    The content goes to a temporary file beside ``path`` and is renamed over
    it, so no reader sees a partial file; if writing fails, the temporary
    file is removed and ``path`` is left as it was.
    """
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", newline="", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    with _replace_on_close(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _grid(res: ResolvedScenario):
    """(sweep, index, matrices, stats): the sweep of the grid times the rows
    read (only the sampled ones when the mode only samples), and per CSV row
    the index of its time in the sweep, its conditional matrix and its
    ensemble statistics.  Deterministic rows (stats None) cover the whole
    grid with the exact matrix; Monte-Carlo rows follow at the sampled
    points, the sweep's last ones, with the empirical matrix; when every
    point is sampled, both read the one sweep and its tails."""
    cfg, sampled = res.config, res.config.sampled_grid()
    sweep = res.sweep(sampled if cfg.mode == "montecarlo" else cfg.t_f_grid)
    size, k = len(sweep.times), len(sampled)
    index, matrices, stats = [], [], []
    if cfg.mode != "montecarlo":
        index += range(size)
        matrices += protocol.conditional_matrices(sweep)
        stats += [None] * size
    if cfg.mode != "deterministic":
        try:  # loads numpy, which nothing else here needs
            from . import montecarlo
        except ImportError as exc:
            raise ConfigError(f"mode {cfg.mode!r} samples with numpy, which "
                              f"cannot be imported; {INSTALL_MC}") from exc
        ensembles = montecarlo.run_ensembles(
            sweep if k == size else res.sweep(sweep.times[-k:]),
            cfg.n_trajectories, cfg.master_seed)
        index += range(size - k, size)
        matrices += [s.conditional_estimate() for s in ensembles]
        stats += ensembles
    return sweep, index, matrices, stats


def _grid_rows(sweep: protocol.Sweep, index: list[int], stats: list,
               columns: list[str], values) -> tuple[list[str], list[list]]:
    """One CSV row per row of ``_grid``: t_f, pulse count, mode, ``values``."""
    times, counts = sweep.times, sweep.counts
    return (["t_f_ns", "n_pulses", "mode"] + columns,
            [[times[i], counts[i], "deterministic" if s is None else "montecarlo", *row]
             for i, s, row in zip(index, stats, values)])


def _conditional_rows(res: ResolvedScenario) -> tuple[list[str], list[list]]:
    cfg = res.config
    columns = ["p_up_given_up", "p_up_given_down", "err_up_given_up",
               "err_up_given_down"]
    sweep, index, matrices, stats = _grid(res)
    values = [(cm.p_up_given_up, cm.p_up_given_down,
               *((0.0, 0.0) if s is None else s.std_err()))
              for cm, s in zip(matrices, stats)]
    if cfg.kind == "rabi":
        columns.append("closed_form_p_up_given_up")
        values = [(*row, oracle.rabi_conditional(cfg.omega0, cfg.theta, sweep.times[i]))
                  for i, row in zip(index, values)]
    return _grid_rows(sweep, index, stats, columns, values)


def _bloch_rows(res: ResolvedScenario) -> tuple[list[str], list[list]]:
    """Both starts' Bloch vectors at 16 times per pulse interval (and past the
    last pulse), then at the end; ``post_pulse`` marks the pulse times n tau > 0.
    Only the last entry of ``t_f_grid`` is read: it is the end."""
    cfg = res.config
    header = ["t_f_ns", "n_pulses", "mode", "initial_state",
              "rx", "ry", "rz", "post_pulse"]
    t_f = cfg.t_f_grid[-1]
    marks = [n * cfg.tau for n in range(protocol.pulses_applied(t_f, cfg.tau) + 1)]
    marks += [t_f] if t_f > marks[-1] else []
    sweep = res.sweep([t for t0, t1 in zip(marks, marks[1:])
                       for t in linspace(t0, t1, 17)[:-1]] + marks[-1:])
    states = protocol.final_states(sweep, res.drive.basis)
    return header, [[t, n, "deterministic", label, *rs[i],
                     int(0 < t <= n * cfg.tau)]
                    for i, label in enumerate(("up", "down"))
                    for t, n, rs in zip(sweep.times, sweep.counts, states)]


def _energy_grid(res: ResolvedScenario):
    """``_grid`` with the sweep's levels and each row's four atoms, from one
    ``sweep_levels`` pass and the sweep's Gibbs weights; ``error(f)`` is each
    row's standard error of p * f(dE) over its atoms (0 for an exact row)."""
    sweep, index, matrices, stats = _grid(res)
    levels = protocol.sweep_levels(sweep)
    atoms = protocol.energy_changes(sweep, [levels[i] for i in index], matrices)

    def error(f):
        return [0.0 if s is None else s.functional_std_err(a, sweep.weights, f)
                for a, s in zip(atoms, stats)]

    return sweep, levels, index, stats, atoms, error


def _energetics_rows(res: ResolvedScenario) -> tuple[list[str], list[list]]:
    cfg = res.config
    w0 = cfg.omega0
    sweep, levels, index, stats, atoms, error = _energy_grid(res)
    rows = zip(index, [protocol.mean(a) for a in atoms], error(lambda v: v))
    if isinstance(res.drive, AmplitudeModulatedDrive):
        columns = ["mean_delta_e", "mean_work", "mean_heat", "work_plus_heat",
                   "delta_f", "first_law_residual", "err_mean_delta_e"]
        series = oracle.work_heat_series_amplitude(sweep)
        # One per grid time, which both rows of mode "both" read.
        delta_f = [free_energy_delta(cfg.beta, sweep.level0, lf) if cfg.beta else 0.0
                   for lf in levels]
        values = [(mean_de / w0, w / w0, q / w0, (w + q) / w0, delta_f[i] / w0,
                   (mean_de - (w + q)) / w0, err / w0)
                  for (i, mean_de, err), (w, q) in zip(rows, [series[i] for i in index])]
    else:
        delta_beta = res.thermal.beta - res.thermal.beta_r
        columns = ["mean_delta_e", "mean_heat_recursion", "recursion_gap",
                   "delta_beta_mean_delta_e", "delta_beta_mean_heat_recursion",
                   "err_mean_delta_e"]
        heats = oracle.mean_heat_phase(sweep)
        values = [(mean_de / w0, heats[i] / w0, (mean_de - heats[i]) / w0,
                   delta_beta * mean_de, delta_beta * heats[i], err / w0)
                  for i, mean_de, err in rows]
    return _grid_rows(sweep, index, stats, columns, values)


def _fr_rows(res: ResolvedScenario) -> tuple[list[str], list[list]]:
    gamma = res.thermal.beta - res.thermal.beta_r
    gamma_omega0 = gamma * res.config.omega0
    columns = ["gamma_omega0", "fr_value", "fr_target", "fr_deviation",
               "err_fr_value"]
    sweep, levels, index, stats, atoms, error = _energy_grid(res)
    targets = protocol.fr_targets(sweep, levels)
    fr = [protocol.fr_functional(a, gamma) for a in atoms]
    values = [(gamma_omega0, value, targets[i], abs(value - targets[i]), err)
              for i, value, err in zip(index, fr, error(lambda v: math.exp(-gamma * v)))]
    return _grid_rows(sweep, index, stats, columns, values)


_ROW_BUILDERS = {
    "conditional": _conditional_rows,
    "rabi": _conditional_rows,
    "bloch": _bloch_rows,
    "energetics": _energetics_rows,
    "fr": _fr_rows,
}


def table(res: ResolvedScenario) -> tuple[list[str], list[list]]:
    """The CSV header and rows ``run_scenario`` writes for ``res``; a
    numeric failure while computing them raises NumericalContractError."""
    try:
        return _ROW_BUILDERS[res.config.kind](res)
    except (ValueError, ArithmeticError) as exc:
        raise NumericalContractError(str(exc)) from exc


def run_scenario(config: ScenarioConfig | str | Path,
                 outdir: str | Path | None = None) -> dict:
    """Execute one scenario; returns the manifest that was written.

    ``config`` may be a ScenarioConfig, a preset name, or a path to a
    config/manifest JSON file.  Output directory resolution: explicit
    argument, then the QUBITFR_OUTDIR environment variable, then the
    current directory.
    """
    if isinstance(config, (str, Path)):
        config = load_config(config)
    resolved = resolve(config)
    header, rows = table(resolved)  # first, so a failed run creates no directory

    if outdir is None:
        outdir = os.environ.get(OUTDIR_ENV, ".")
    outdir = Path(outdir)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # e.g. the path exists and is a file
        raise ConfigError(f"cannot use output directory {outdir}: {exc}") from exc

    prefix = config.prefix or config.name
    csv_path = outdir / f"{prefix}.csv"
    _write_csv(csv_path, header, rows)

    manifest = {
        "scenario": config.name,
        "kind": config.kind,
        "mode": config.mode,
        "csv_files": [csv_path.name],
        "scenario_config": config.to_dict(),
        "derived": resolved.derived,
        "versions": {"qubitfr": qubitfr.__version__},
    }
    if config.mode != "deterministic":
        import numpy  # loaded already by the sampler

        manifest["rng_layout"] = RNG_LAYOUT
        manifest["versions"]["numpy"] = numpy.__version__
    manifest_path = outdir / f"{prefix}_manifest.json"
    with _replace_on_close(manifest_path) as fh:
        fh.write(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    manifest["manifest_path"] = str(manifest_path)
    manifest["csv_paths"] = [str(csv_path)]
    return manifest


def load_config(path: str | Path) -> ScenarioConfig:
    """The preset of that name, or the scenario in a config file or a
    previously written manifest."""
    if str(path) in PRESETS:
        return PRESETS[str(path)]
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, ValueError) as exc:  # a directory, bad UTF-8, bad JSON
        raise ConfigError(f"cannot read {path} as JSON: {exc}") from exc
    layout = RNG_LAYOUT  # a plain config pins no earlier layout
    if isinstance(data, dict) and "scenario_config" in data:
        layout = data.get("rng_layout")
        data = data["scenario_config"]
    if not isinstance(data, dict):
        raise ConfigError(f"{path} must hold a JSON object of config fields")
    config = ScenarioConfig.from_dict(data)
    if config.mode != "deterministic" and layout != RNG_LAYOUT:
        found = "no rng_layout" if layout is None else f"rng_layout {_quote(layout)}"
        raise ConfigError(f"{path} records {found}; this version samples only "
                          f"with rng_layout {RNG_LAYOUT}")
    return config


def with_overrides(config: ScenarioConfig, **overrides) -> ScenarioConfig:
    """Copy a scenario with some fields replaced; validation reruns."""
    try:
        return config.replace(**overrides)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc
