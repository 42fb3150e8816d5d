"""Benchmark of the qubitfr package: four workloads, end-to-end and per-layer.

Usage (from the repository root):

    python3 benchmarks/run.py --workload mc_ensemble --seed 1 --seconds 20 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 20 --trace 0

Each workload is a closed loop with one caller: one operation at a time,
no worker threads, at most one child process at a time.  ``--trace 0``
measures the end-to-end metrics; ``--trace 1`` is a separate run that
installs span wrappers around qubitfr's public functions and reports the
per-layer metrics.  The end-to-end timings are normalised to the host's
speed at the time (see ``host_probe``).  The human-readable report goes
to stdout first; the last line is one JSON object with the metrics named
in BENCHMARK.json.
A record of every run, with the environment it ran in, is written under
``.bench_runs/`` in the repository root.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
OUT = ROOT / ".bench_runs"
WORKLOAD_NAMES = ("mc_ensemble", "mc_grid_small", "det_sweep_long", "cli_cold")
# Fresh interpreters timed per run for setup_s; the median is reported.
SETUP_REPEATS = 5
TAIL_BEYOND = 10
# The host speed the end-to-end timings are reported at: seconds that
# ``host_probe`` takes on it (about its median on a 2-vCPU cloud host).
PROBE_REF_S = 0.020
# Source that the probe compiles, the way an import compiles a module.
_PROBE_SOURCE = "".join(f"def f{i}(a, b):\n    return [a + b * k for k in range({i})]\n"
                        for i in range(40))


def host_probe() -> float:
    """Seconds a fixed mix of work takes on the host now.

    The benchmark's host is shared, and its speed changes by up to 2x
    within seconds and between regimes lasting minutes.  Each timed
    operation is divided by the mean of probes run just before and just
    after it, and multiplied by PROBE_REF_S, which cancels the host's
    speed but keeps a change in the program's own cost.  The probe mixes,
    in about equal shares, the kinds of work the workloads do: small
    numpy calls in a Python loop, Philox construction, passes over a
    1 MB array, compiling source and plain Python.  A mix follows the
    workloads' own speed more closely than any one kind.  It uses no
    qubitfr code, so no change to the package can move it.
    """
    import numpy as np

    t0 = time.perf_counter()
    a = np.arange(64.0)
    total = 0.0
    for i in range(700):
        total += float(np.cos(a * i) @ a) * 1e-9
    for key in range(200):
        total += np.random.Generator(np.random.Philox(key=key)).random()
    # In place and small, so as not to raise the process's peak memory.
    big = np.ones(125_000)
    for _ in range(8):
        np.multiply(big, 1.0001, out=big)
        big += 0.5
    total += float(big[-1])
    for _ in range(2):
        compile(_PROBE_SOURCE, "<host_probe>", "exec")
    counts: dict[int, int] = {}
    for i in range(13_000):
        counts[i % 97] = counts.get(i % 97, 0) + i * 3 % 11
    elapsed = time.perf_counter() - t0
    if not math.isfinite(total) or len(counts) != 97:
        raise RuntimeError("host probe computed a wrong result")
    return elapsed


def tail_percentile(samples: list[float], beyond: int = TAIL_BEYOND):
    """The highest percentile with at least ``beyond`` samples above it.

    Returns (value, percentile, samples beyond).  With ``beyond`` samples
    or fewer no percentile qualifies, and the maximum is returned with
    percentile 100 and 0 samples beyond.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n <= beyond:
        return ordered[-1], 100.0, 0
    rank = n - beyond
    return ordered[rank - 1], 100.0 * rank / n, beyond


def per_input_stats(keys: list[str], samples: list[float]):
    """Per-input medians, and the tail of every sample's ratio to its median.

    A cycle mixes inputs of different cost, and a plain median of such a
    mix falls in the gap between them, where it jumps with noise; so the
    benchmark's statistics are built from each input's own median.
    Returns (medians by input, tail ratio, tail percentile, samples beyond).
    """
    groups = defaultdict(list)
    for key, sample in zip(keys, samples):
        groups[key].append(sample)
    medians = {key: statistics.median(group) for key, group in groups.items()}
    ratio, pct, beyond = tail_percentile(
        [sample / medians[key] for key, sample in zip(keys, samples)])
    return medians, ratio, pct, beyond


@dataclass
class Loop:
    keys: list[str] = field(default_factory=list)
    samples: list[float] = field(default_factory=list)
    # Mean host probe around each sample; empty when the loop runs unprobed.
    probes: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    work: Counter = field(default_factory=Counter)
    # The work one operation on each input does; it is the same every time.
    work_by_key: dict = field(default_factory=dict)

    @property
    def op_s(self) -> float:
        return sum(self.samples)


def run_loop(workload, call, seconds: float, max_ops: int | None = None,
             tracer=None, probe: bool = False) -> Loop:
    """Run whole cycles of the workload's operations until time or ops run out.

    Only ``call`` is timed; each output is checked right after its call.
    With ``probe``, ``host_probe`` runs just before and just after each
    call, outside its timing.  An operation that raises, or whose check
    finds a problem, counts as failed.
    """
    loop = Loop()
    ops = workload.ops
    begin = time.perf_counter()
    while True:
        if loop.attempted % len(ops) == 0:
            if max_ops is not None and loop.attempted >= max_ops:
                break
            if max_ops is None and time.perf_counter() - begin >= seconds:
                break
        op = ops[loop.attempted % len(ops)]
        if tracer is not None:
            tracer.op_id = loop.attempted
        loop.attempted += 1
        before = host_probe() if probe else 0.0
        try:
            t0 = time.perf_counter()
            output = call(op)
            elapsed = time.perf_counter() - t0
        except Exception:  # a failing operation is a result, not a crash
            loop.failed += 1
            loop.problems.append(f"{op.key}: raised\n{traceback.format_exc()}")
            continue
        if probe:
            loop.probes.append(0.5 * (before + host_probe()))
        if tracer is not None:
            tracer.paused = True
        try:
            problems, work = workload.check(op, output)
        except Exception:  # e.g. an output file that was never written
            problems, work = [f"{op.key}: check raised\n{traceback.format_exc()}"], {}
        finally:
            if tracer is not None:
                tracer.paused = False
        loop.keys.append(op.key)
        loop.samples.append(elapsed)
        loop.work.update(work)
        loop.work_by_key[op.key] = work
        if problems:
            loop.failed += 1
            loop.problems.extend(problems)
    return loop


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


def setup_times(workload: str, seed: int) -> tuple[list[float], list[float]]:
    """Wall times of fresh interpreters that import qubitfr and build the inputs.

    Returns the wall times and the mean host probe around each.
    """
    import workloads

    times, probes = [], []
    for _ in range(SETUP_REPEATS):
        before = host_probe()
        t0 = time.perf_counter()
        workloads.run_child([sys.executable, str(Path(__file__).resolve()), "--setup-probe",
                             "--workload", workload, "--seed", str(seed)],
                            env=child_env(), cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
        probes.append(0.5 * (before + host_probe()))
    return times, probes


def pin_to_one_cpu() -> None:
    """Run this process and every child it starts on one CPU.

    The host's CPUs change speed independently, so the probe must run on
    the CPU that ran the operation, including a child's operation.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def at_reference_speed(times: list[float], probes: list[float]) -> list[float]:
    """Each time scaled to a host on which ``host_probe`` takes PROBE_REF_S."""
    return [t * PROBE_REF_S / p for t, p in zip(times, probes)]


def environment(args) -> dict:
    import numpy

    commit = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    digest = hashlib.sha256()
    for path in sorted((SRC / "qubitfr").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": bool(args.trace), "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": metadata.version("scipy"), "git_commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def end_to_end(workload, args):
    setups, setup_probes = setup_times(workload.name, args.seed)
    loop = run_loop(workload, workload.call, args.seconds, probe=True)
    if not loop.samples:
        raise RuntimeError("no operation completed:\n" + "\n".join(loop.problems))
    samples = at_reference_speed(loop.samples, loop.probes)
    medians, ratio, pct, beyond = per_input_stats(loop.keys, samples)
    raw_medians = per_input_stats(loop.keys, loop.samples)[0]
    typical = statistics.fmean(medians.values())
    cycle_s = sum(medians.values())

    def rate(unit: str) -> float:
        return sum(loop.work_by_key[key].get(unit, 0) for key in medians) / cycle_s

    metrics = {
        "setup_s": statistics.median(at_reference_speed(setups, setup_probes)),
        "op_s_p50": typical,
        "op_s_tail": typical * ratio,
        "peak_rss_mb": workload.peak_rss_mb(),
    }
    n = len(loop.samples)
    notes = [f"timings are at the reference host speed: each wall time times "
             f"{PROBE_REF_S} s over the mean host probe around it; the probe's median "
             f"was {statistics.median(loop.probes + setup_probes):.5f} s in this run",
             f"setup_s: median of {len(setups)} fresh interpreters, wall "
             f"({', '.join(f'{t:.3f}' for t in setups)}) s",
             f"op_s_p50: per-input medians of {n} operations "
             f"({len(medians)} inputs), averaged",
             f"op_s_tail: op_s_p50 times the p{pct:.1f} ratio to the input's "
             f"median, over {n} operations, {beyond} beyond it",
             "traj_per_s, grid_points_per_s: the work of one cycle over the summed "
             "per-input medians"]
    extra = {"op_s_p50_wall": (statistics.fmean(raw_medians.values()), "s"),
             "setup_s_wall": (statistics.median(setups), "s"),
             "fail_frac": (loop.failed / loop.attempted, "ratio")}
    if "traj" in loop.work:
        extra["traj_per_s"] = (rate("traj"), "1/s")
    if "rows" in loop.work:
        extra["grid_points_per_s"] = (rate("rows"), "1/s")
    return loop, metrics, notes, extra


def traced(workload, args, run_dir: Path):
    """Untraced then traced passes over the same operations, in process."""
    import tracing

    half = args.seconds / 2.0
    plain = run_loop(workload, workload.call_in_process, half, probe=True)
    tracer = tracing.Tracer()
    with tracing.installed(tracer) as absent:
        loop = run_loop(workload, workload.call_in_process, math.inf,
                        max_ops=plain.attempted, tracer=tracer, probe=True)
    n_ops = max(loop.attempted, 1)
    metrics, missing = tracing.layer_metrics(tracer, absent, n_ops)
    metrics["scenarios.bytes_written"] = loop.work["bytes"] / n_ops
    imports = tracing.import_breakdown(sys.executable, child_env(), ROOT)
    if imports is None:
        imports = dict.fromkeys(("import.qubitfr_us", "import.scipy_us",
                                 "import.numpy_us"), 0.0)
        missing.update(imports)
    metrics.update(imports)
    # At the reference host speed, like the end-to-end timings.
    plain_s = sum(at_reference_speed(plain.samples, plain.probes))
    traced_s = sum(at_reference_speed(loop.samples, loop.probes))
    metrics["trace.overhead_s"] = (traced_s - plain_s) / n_ops
    metrics["trace.overhead_frac"] = (traced_s - plain_s) / plain_s if plain_s else 0.0
    tracer.dump(run_dir / f"{workload.name}-seed{args.seed}-spans.npz")
    notes = [f"traced {loop.attempted} operations after {plain.attempted} untraced; "
             f"per-layer times and counts are per operation",
             f"tracing overhead: {plain_s:.4f} s untraced, {traced_s:.4f} s traced at "
             f"the reference host speed ({plain.op_s:.4f} s and {loop.op_s:.4f} s wall)",
             "scenarios.bytes_written: computed from the files in the output directory"]
    if absent:
        notes.append(f"absent spans: {', '.join(absent)}")
    combined = Loop(keys=plain.keys + loop.keys, samples=plain.samples + loop.samples,
                    probes=plain.probes + loop.probes, attempted=plain.attempted + loop.attempted,
                    failed=plain.failed + loop.failed, problems=plain.problems + loop.problems)
    return combined, metrics, notes, missing


def emit(spec_metrics: list[dict], values: dict, missing: set) -> dict:
    out = {}
    for entry in spec_metrics:
        name = entry["name"]
        if name not in values:
            raise KeyError(f"the benchmark does not compute metric {name!r}")
        out[name] = {"value": values[name], "unit": entry["unit"]}
        flag = "  ABSENT" if name in missing else ""
        print(f"  {name:<44} {values[name]:.6g} {entry['unit']}{flag}")
    return out


def run_one(args, spec: dict) -> int:
    import workloads

    run_dir = OUT
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    try:
        workload = workloads.make(args.workload, args.seed, workdir)
        env = environment(args)
        print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
              f"nproc {env['nproc']}  python {env['python']}  numpy {env['numpy']}  "
              f"scipy {env['scipy']}  commit {env['git_commit'][:12]}")
        if args.trace:
            loop, values, notes, missing = traced(workload, args, run_dir)
            extra = {}
            spec_metrics = spec["per_layer"]
        else:
            loop, values, notes, extra = end_to_end(workload, args)
            missing = set()
            spec_metrics = spec["end_to_end"]
        metrics = emit(spec_metrics, values, missing)
        for name, (value, unit) in extra.items():
            print(f"  {name:<44} {value:.6g} {unit}")
        for note in notes:
            print(f"  note: {note}")
        for line in sorted(getattr(workload, "fail_lines", ())):
            print(f"  reported check result: {line}")
        for problem in loop.problems:
            print(f"  FAILED: {problem}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = {"correct": loop.failed == 0, "attempted": loop.attempted,
              "failed": loop.failed, "metrics": metrics}
    record = dict(result, environment=env, notes=notes, problems=loop.problems,
                  absent=sorted(missing),
                  operations=[[k, t] for k, t in zip(loop.keys, loop.samples)],
                  host_probes=loop.probes,
                  extra={k: v[0] for k, v in extra.items()},
                  check_fail_lines=sorted(getattr(workload, "fail_lines", ())))
    (run_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in turn, each in its own child so peak memory is its own."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not (SRC / "qubitfr" / "__init__.py").is_file() or not SPEC.is_file():
        print(f"error: run from a qubitfr checkout; {SRC / 'qubitfr'} or {SPEC} "
              "is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    pin_to_one_cpu()
    if args.setup_probe:
        import workloads

        workloads.make(args.workload, args.seed, OUT / f"probe-{os.getpid()}")
        shutil.rmtree(OUT / f"probe-{os.getpid()}", ignore_errors=True)
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_one(args, json.loads(SPEC.read_text(encoding="utf-8")))


if __name__ == "__main__":
    sys.exit(main())
