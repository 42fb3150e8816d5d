"""The four benchmark workloads: inputs, the timed call, and output checks.

A workload is built from a seed alone (``make(name, seed, workdir)``);
its inputs are a short cycle of operations that the harness repeats
until the run's time is up, always stopping at the end of a cycle so
every run times the same mix.  ``call`` is the timed operation;
``check`` runs untimed afterwards and returns the problems it found
(an empty list means the output is correct).  Repeats of the same
input within a run must reproduce the first output exactly.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import resource
import signal
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from qubitfr import channel, cli, core, montecarlo, protocol, scenarios

REFERENCE = Path(__file__).resolve().parent / "reference" / "det_sweep_long.json"
CHILD_TIMEOUT_S = 120


def run_child(argv: list[str], **kwargs) -> subprocess.CompletedProcess:
    """``subprocess.run`` with a timeout that does not round the wall time.

    Given a timeout, ``subprocess`` polls for the child's exit with sleeps
    of up to 50 ms, which rounds a timed child up to the next step.  Here
    the wait blocks, and an alarm after CHILD_TIMEOUT_S raises instead;
    ``subprocess.run`` then kills the child and waits for it.
    """
    def expire(signum, frame):
        raise subprocess.TimeoutExpired(argv, CHILD_TIMEOUT_S)

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(CHILD_TIMEOUT_S)
    try:
        return subprocess.run(argv, **kwargs)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@dataclass(frozen=True)
class Op:
    key: str
    data: object


class Workload:
    name = ""

    def __init__(self, seed: int, workdir: Path) -> None:
        self.rng = np.random.default_rng(seed)
        self.workdir = workdir
        self.ops: list[Op] = []
        self._first: dict[str, object] = {}

    def call(self, op: Op):
        raise NotImplementedError

    def call_in_process(self, op: Op):
        """The operation as the traced run performs it."""
        return self.call(op)

    def check(self, op: Op, output) -> tuple[list[str], dict]:
        """Problems found in the output, and the work it represents."""
        raise NotImplementedError

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def _same_as_first(self, key: str, value) -> list[str]:
        first = self._first.setdefault(key, value)
        return [] if first == value else [f"{key}: repeat differs from the first run"]


def _binomial_sigma(p: float, n: int) -> float:
    return math.sqrt(max(p * (1.0 - p), 0.0) / n)


# ---------------------------------------------------------------------------
# mc_ensemble


class McEnsemble(Workload):
    """run_ensemble at the last grid time of fig5d (50 pulses) and fig4b (12)."""

    name = "mc_ensemble"
    N_PER_INITIAL = 20_000
    PRESETS = ("fig5d", "fig4b")

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        self._exact: dict[str, protocol.ConditionalMatrix] = {}
        # A fixed order: peak memory depends on which ensemble runs first.
        for preset in self.PRESETS:
            res = scenarios.resolve(scenarios.get_preset(preset))
            pc = res.protocol_at(res.config.t_f_grid[-1])
            self.ops.append(Op(preset, (pc, int(self.rng.integers(2**32)))))

    def call(self, op: Op):
        pc, master_seed = op.data
        return montecarlo.run_ensemble(pc, self.N_PER_INITIAL, master_seed)

    def check(self, op: Op, output) -> tuple[list[str], dict]:
        pc, _ = op.data
        stats = output.to_dict()
        problems = self._same_as_first(op.key, stats)
        if op.key not in self._exact:
            self._exact[op.key] = protocol.conditional_matrix(pc)
        exact = self._exact[op.key]
        for i in (0, 1):
            n = stats["n_per_initial"][i]
            if n != self.N_PER_INITIAL:
                problems.append(f"{op.key}: {n} trajectories from state {i}")
                continue
            p = exact.prob(0, i)
            estimate = stats["counts"][0][i] / n
            sigma = _binomial_sigma(p, n)
            if abs(estimate - p) > 4.0 * sigma:
                problems.append(f"{op.key}: P(up|{i}) = {estimate} vs exact {p} "
                                f"(binomial sigma {sigma:.3g}, tol 4 sigma)")
        return problems, {"traj": 2 * self.N_PER_INITIAL}


# ---------------------------------------------------------------------------
# mc_grid_small


def _read_csv(text: str) -> tuple[list[str], list[list[str]]]:
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


def _scenario_output(manifest: dict) -> tuple[str, int]:
    """CSV text and total bytes of CSV plus manifest, read from disk.

    Both files are removed afterwards, so the next operation must write
    its own.
    """
    csv_path = Path(manifest["csv_paths"][0])
    manifest_path = Path(manifest["manifest_path"])
    text = csv_path.read_text(encoding="utf-8")
    size = csv_path.stat().st_size + manifest_path.stat().st_size
    csv_path.unlink()
    manifest_path.unlink()
    return text, size


class McGridSmall(Workload):
    """Monte-Carlo scenarios that sample every grid point with small ensembles."""

    name = "mc_grid_small"
    N_TRAJECTORIES = 200
    PRESETS = ("fig2a", "fig6e")
    # Each op tests about 200 estimates, so the per-estimate bound is wider
    # than the 4 sigma of a single ensemble; one count of slack covers
    # cells whose exact probability is 0 or 1.  At 200 trajectories this
    # catches gross errors only; mc_ensemble tests accuracy at 20k.
    SIGMAS = 6.0

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        self._exact: dict[str, list] = {}
        for preset in self.rng.permutation(self.PRESETS):
            cfg = scenarios.with_overrides(
                scenarios.get_preset(str(preset)), name=f"mc_grid_{preset}",
                mode="montecarlo", mc_grid="all", n_trajectories=self.N_TRAJECTORIES,
                master_seed=int(self.rng.integers(2**32)))
            self.ops.append(Op(str(preset), cfg))

    def call(self, op: Op):
        return scenarios.run_scenario(op.data, outdir=self.workdir)

    def _expected(self, cfg) -> list:
        """Per grid point: (t_f, n_pulses, exact values, tolerances) of the estimates."""
        res = scenarios.resolve(cfg)
        n = cfg.n_trajectories
        out = []
        for t_f in cfg.t_f_grid:
            pc = res.protocol_at(t_f)
            cm = protocol.conditional_matrix(pc)
            up = (cm.p_up_given_up, cm.p_up_given_down)
            if cfg.kind == "conditional":
                values = up
                tols = tuple(self.SIGMAS * _binomial_sigma(p, n) + 1.0 / n for p in up)
            else:
                gamma = res.thermal.beta - res.thermal.beta_r

                def fr(p_uu: float, p_ud: float) -> float:
                    cmat = protocol.ConditionalMatrix.from_upper_row(p_uu, p_ud)
                    return protocol.fr_functional(
                        protocol.energy_change_distribution(cmat, pc), gamma)

                # The functional is linear in each column's up-probability.
                spread = (fr(1.0, up[1]) - fr(0.0, up[1]),
                          fr(up[0], 1.0) - fr(up[0], 0.0))
                sigma = math.sqrt(sum((s * _binomial_sigma(p, n)) ** 2
                                      for s, p in zip(spread, up)))
                values = (fr(*up),)
                tols = (self.SIGMAS * sigma + sum(map(abs, spread)) / n,)
            out.append((t_f, pc.n_pulses, values, tols))
        return out

    def check(self, op: Op, output) -> tuple[list[str], dict]:
        text, size = _scenario_output(output)
        problems = self._same_as_first(op.key, text)
        if op.key not in self._exact:
            self._exact[op.key] = self._expected(op.data)
        expected = self._exact[op.key]
        header, rows = _read_csv(text)
        value_cols = ([header.index("p_up_given_up"), header.index("p_up_given_down")]
                      if op.data.kind == "conditional" else [header.index("fr_value")])
        if len(rows) != len(expected):
            problems.append(f"{op.key}: {len(rows)} rows, expected {len(expected)}")
        for row, (t_f, n_pulses, values, tols) in zip(rows, expected):
            if (float(row[0]), int(row[1]), row[2]) != (t_f, n_pulses, "montecarlo"):
                problems.append(f"{op.key}: row {row[:3]} does not match the grid")
                continue
            for col, value, tol in zip(value_cols, values, tols):
                if abs(float(row[col]) - value) > tol:
                    problems.append(f"{op.key} t_f={t_f}: {header[col]} = {row[col]} "
                                    f"vs exact {value} (tol {tol:.3g})")
                err_col = f"err_{header[col][2:]}"  # p_up_given_up -> err_up_given_up
                if err_col in header:
                    p_hat = float(row[col])
                    err = float(row[header.index(err_col)])
                    if not math.isclose(err, _binomial_sigma(p_hat, op.data.n_trajectories),
                                        rel_tol=1e-9, abs_tol=1e-15):
                        problems.append(f"{op.key} t_f={t_f}: {err_col} = {err} is not "
                                        f"the binomial error of {p_hat}")
        traj = 2 * op.data.n_trajectories * len(rows)
        return problems, {"traj": traj, "rows": len(rows), "bytes": size}


# ---------------------------------------------------------------------------
# det_sweep_long

DET_BASES = ("fig5b", "fig5c", "fig5d", "fig4b")
DET_P_ABSORB = (0.2, 0.25, 0.3)
DET_PULSES = 500
DET_POINTS = 51
DET_RTOL = 1e-9
# Absolute floor for columns that are differences of nearly equal numbers
# (fr_deviation, first-law residuals), which carry only rounding noise.
DET_ATOL = 1e-12


def det_config(base: str, p_absorb: float) -> scenarios.ScenarioConfig:
    """A preset's parameters on a 51-point grid that reaches 500 pulses."""
    cfg = scenarios.get_preset(base)
    grid = tuple(float(t) for t in np.linspace(0.0, DET_PULSES * cfg.tau, DET_POINTS))
    return scenarios.with_overrides(cfg, name=f"det_{base}_pa{round(100 * p_absorb)}",
                                    t_f_grid=grid, p_absorb=p_absorb,
                                    mode="deterministic")


def det_pool() -> list[scenarios.ScenarioConfig]:
    """Every config a seed can choose; the reference file covers all of them."""
    return [det_config(base, pa) for base in DET_BASES for pa in DET_P_ABSORB]


class DetSweepLong(Workload):
    """Deterministic sweeps with pulse counts ten times the presets'."""

    name = "det_sweep_long"

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        self._reference: dict | None = None
        for base in self.rng.permutation(DET_BASES):
            cfg = det_config(str(base), float(self.rng.choice(DET_P_ABSORB)))
            self.ops.append(Op(cfg.name, cfg))

    def call(self, op: Op):
        return scenarios.run_scenario(op.data, outdir=self.workdir)

    def check(self, op: Op, output) -> tuple[list[str], dict]:
        text, size = _scenario_output(output)
        problems = self._same_as_first(op.key, text)
        if self._reference is None:
            self._reference = json.loads(REFERENCE.read_text(encoding="utf-8"))
        header, rows = _read_csv(text)
        problems += compare_csv(op.key, header, rows,
                                *_read_csv(self._reference[op.key]))
        return problems, {"rows": len(rows), "bytes": size}


def compare_csv(key, header, rows, ref_header, ref_rows) -> list[str]:
    """Value comparison at DET_RTOL/DET_ATOL; text columns must match exactly."""
    if header != ref_header or len(rows) != len(ref_rows):
        return [f"{key}: columns {header} x {len(rows)} rows, reference "
                f"{ref_header} x {len(ref_rows)} rows"]
    problems = []
    for row, ref in zip(rows, ref_rows):
        for col, (got, want) in enumerate(zip(row, ref)):
            try:
                a, b = float(got), float(want)
            except ValueError:
                same = got == want
            else:
                same = math.isclose(a, b, rel_tol=DET_RTOL, abs_tol=DET_ATOL)
            if not same:
                problems.append(f"{key} t_f={row[0]}: {header[col]} = {got}, "
                                f"reference {want}")
    return problems


# ---------------------------------------------------------------------------
# cli_cold

CLI_COMMANDS = {
    "run fig5d": ["run", "fig5d"],
    "run fig4b": ["run", "fig4b"],
    "invert": ["invert", "--target", "0.138", "--tau-theta", "616"],
    "check": ["check", "--skip-mc"],
}
EXPECTED_CHECKS = ("closed-cycle fluctuation identity", "exchange fluctuation identity",
                   "asymptote anchors", "first law", "oracle equivalence",
                   "dressed-state oscillation", "inequality suite")
# The documented criterion-3 failure on fig5d; any other FAIL is an error.
ALLOWED_FAIL = "asymptote anchors"


@dataclass(frozen=True)
class CliResult:
    code: int
    stdout: str
    stderr: str


class CliCold(Workload):
    """One fresh interpreter per ``python -m qubitfr.cli`` command."""

    name = "cli_cold"

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        self.src = Path(scenarios.__file__).resolve().parent.parent
        self.env = dict(os.environ, PYTHONPATH=str(self.src))
        self.fail_lines: set[str] = set()
        self._expected: dict[str, object] = {}
        for key in self.rng.permutation(list(CLI_COMMANDS)):
            argv = list(CLI_COMMANDS[str(key)])
            if argv[0] == "run":
                argv += ["--outdir", str(workdir)]
            self.ops.append(Op(str(key), argv))

    def call(self, op: Op) -> CliResult:
        proc = run_child([sys.executable, "-m", "qubitfr.cli", *op.data],
                         env=self.env, cwd=self.src.parent, capture_output=True, text=True)
        return CliResult(proc.returncode, proc.stdout, proc.stderr)

    def call_in_process(self, op: Op) -> CliResult:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(op.data))
        return CliResult(code, out.getvalue(), err.getvalue())

    def peak_rss_mb(self) -> float:
        # Every child imports qubitfr, so the operations' children set the peak.
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0

    def _expected_for(self, key: str):
        if key not in self._expected:
            if key == "invert":
                drive = core.PhaseRotatingDrive(scenarios.PHASE_OMEGA0,
                                                2.0 * math.pi / 616.0)
                self._expected[key] = channel.invert_pump_probability(
                    drive, 0.25, drive.tau_theta, 0.138)
            elif key.startswith("run "):
                refdir = self.workdir / "expected"
                manifest = scenarios.run_scenario(key.split()[1], outdir=refdir)
                self._expected[key] = _scenario_output(manifest)
        return self._expected[key]

    def check(self, op: Op, output: CliResult) -> tuple[list[str], dict]:
        work = {"calls": 1}
        if op.key == "check":
            return self._check_check(output), work
        if output.code != 0:
            return [f"{op.key}: exit code {output.code}: {output.stderr.strip()}"], work
        if op.key == "invert":
            want = self._expected_for(op.key)
            lines = [ln.split() for ln in output.stdout.splitlines()]
            got = [float(ln[1]) for ln in lines if ln and ln[0] == "p_pump"]
            if len(got) != 1 or not math.isclose(got[0], want, rel_tol=1e-9):
                return [f"invert: p_pump {got}, expected {want!r}"], work
            return [], work
        text, size = _scenario_output(
            {"csv_paths": [str(self.workdir / f"{op.data[1]}.csv")],
             "manifest_path": str(self.workdir / f"{op.data[1]}_manifest.json")})
        work["bytes"] = size
        if text != self._expected_for(op.key)[0]:
            return [f"{op.key}: CSV differs from the in-process run_scenario"], work
        return [], work

    def _check_check(self, output: CliResult) -> list[str]:
        verdicts = {}
        for line in output.stdout.splitlines():
            status, _, rest = line.partition("  ")
            if status in ("PASS", "FAIL"):
                name = rest.split(":")[0]
                verdicts[name] = status
                if status == "FAIL":
                    self.fail_lines.add(line)
        problems = []
        missing = [n for n in EXPECTED_CHECKS if n not in verdicts]
        if missing:
            problems.append(f"check: no verdict printed for {missing}")
        bad = [n for n, s in verdicts.items() if s == "FAIL" and n != ALLOWED_FAIL]
        if bad:
            problems.append(f"check: unexpected FAIL for {bad}")
        want_code = 3 if "FAIL" in verdicts.values() else 0
        if output.code != want_code:
            problems.append(f"check: exit code {output.code}, expected {want_code}")
        return problems


WORKLOADS = {cls.name: cls for cls in (McEnsemble, McGridSmall, DetSweepLong, CliCold)}


def make(name: str, seed: int, workdir: Path) -> Workload:
    """Build a workload's inputs; this is what ``setup_s`` times."""
    workdir.mkdir(parents=True, exist_ok=True)
    return WORKLOADS[name](seed, workdir)
