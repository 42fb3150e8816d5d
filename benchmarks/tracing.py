"""Span tracer for the traced benchmark run.

Thin wrappers are installed around public qubitfr functions, in every
qubitfr module namespace where callers look the name up (a name imported
with ``from .core import bloch_rotation`` lives in several modules, and
``checks.ALL_CHECKS`` holds the check functions in a tuple).  Each call
records one span: name, start, end, parent span and operation id.  Spans
are kept in flat in-memory arrays and written out once, when the run
ends, so tracing adds no I/O to the traced calls.

A target whose module or attribute no longer exists is reported as
absent; the metrics derived from it read 0 and are listed as absent.
"""

from __future__ import annotations

import functools
import subprocess
import sys
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager

import numpy as np


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _count_pulse_steps(tracer, args, kwargs, result):
    tracer.add("protocol.pulse_steps", _arg(args, kwargs, 0, "config").n_pulses)


def _count_trajectories(tracer, args, kwargs, result):
    tracer.add("montecarlo.trajectories", _arg(args, kwargs, 2, "n"))


def _count_absorbed(tracer, args, kwargs, result):
    tracer.add("montecarlo.absorbed_pulses", result.absorbed_pulses)
    tracer.add("montecarlo.total_pulses", result.total_pulses)


# The seven checks that ``qubitfr check --skip-mc`` runs.
CHECKS = ("check_closed_cycle_fr", "check_exchange_fr", "check_asymptote_anchors",
          "check_first_law", "check_oracle_equivalence", "check_rabi_oscillation",
          "check_inequalities")

# (span name, module, attribute, hook run on each call's arguments and result)
TARGETS = (
    ("montecarlo.derive_stream", "qubitfr.montecarlo", "derive_stream", None),
    ("montecarlo.run_trajectories", "qubitfr.montecarlo", "run_trajectories",
     _count_trajectories),
    ("montecarlo.run_ensemble", "qubitfr.montecarlo", "run_ensemble", _count_absorbed),
    ("protocol.conditional_matrix", "qubitfr.protocol", "conditional_matrix", None),
    ("protocol.propagate_mean", "qubitfr.protocol", "propagate_mean",
     _count_pulse_steps),
    ("protocol.segment_rotations", "qubitfr.protocol", "segment_rotations", None),
    ("core.bloch_rotation", "qubitfr.core", "bloch_rotation", None),
    ("channel.invert_pump_probability", "qubitfr.channel", "invert_pump_probability",
     None),
    ("channel.stationary_upper_population", "qubitfr.channel",
     "stationary_upper_population", None),
    ("oracle.mean_heat_phase", "qubitfr.oracle", "mean_heat_phase", None),
    ("oracle.work_heat_series_amplitude", "qubitfr.oracle",
     "work_heat_series_amplitude", None),
    ("oracle.floquet_recursion_gap", "qubitfr.oracle", "floquet_recursion_gap", None),
    ("oracle.rabi_conditional", "qubitfr.oracle", "rabi_conditional", None),
    ("scenarios.resolve", "qubitfr.scenarios", "resolve", None),
    ("scenarios.run_scenario", "qubitfr.scenarios", "run_scenario", None),
    ("cli.main", "qubitfr.cli", "main", None),
) + tuple((f"checks.{name}", "qubitfr.checks", name, None) for name in CHECKS)


class Tracer:
    """In-memory span store; one per traced run."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters: dict[str, float] = defaultdict(float)
        self.broken_hooks: set[str] = set()
        self.op_id = -1
        self.paused = False
        self._stack: list[int] = []

    def add(self, counter: str, amount: float) -> None:
        self.counters[counter] += amount

    def _open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.name_id)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn, hook=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if hook is not None and name not in self.broken_hooks:
                try:
                    hook(self, args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError):
                    # The traced function changed shape; its counters go absent.
                    self.broken_hooks.add(name)
            return result
        return traced

    def span_names(self) -> list[str]:
        return [self.names[i] for i in self.name_id]

    def dump(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), name_id=self.name_id,
                            parent=self.parent, op=self.op, start=self.start,
                            end=self.end)


def _package_modules(package: str) -> list:
    return [mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == package or name.startswith(package + "."))]


@contextmanager
def installed(tracer: Tracer, targets=TARGETS, package: str = "qubitfr"):
    """Wrap every target for the duration of the block; yields the absent spans."""
    patched = []
    absent = []
    modules = _package_modules(package)
    for span_name, module_name, attr, hook in targets:
        original = getattr(sys.modules.get(module_name), attr, None)
        if not callable(original):
            absent.append(span_name)
            continue
        wrapper = tracer.wrap(span_name, original, hook)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    new = wrapper
                elif isinstance(value, tuple) and any(v is original for v in value):
                    new = tuple(wrapper if v is original else v for v in value)
                else:
                    continue
                patched.append((mod, key, value))
                setattr(mod, key, new)
    try:
        yield absent
    finally:
        for mod, key, value in reversed(patched):
            setattr(mod, key, value)


def self_times(start, end, parent) -> list[float]:
    """Each span's duration minus the union of its children's intervals.

    Children are clipped to the parent's interval, and overlapping
    children are counted once.
    """
    children = defaultdict(list)
    for idx, par in enumerate(parent):
        if par >= 0:
            children[par].append(idx)
    out = [end[i] - start[i] for i in range(len(start))]
    for par, kids in children.items():
        lo, hi = start[par], end[par]
        covered = 0.0
        run_lo = run_hi = None
        for k in sorted(kids, key=lambda k: start[k]):
            s, e = max(start[k], lo), min(end[k], hi)
            if e <= s:
                continue
            if run_hi is None or s > run_hi:
                if run_hi is not None:
                    covered += run_hi - run_lo
                run_lo, run_hi = s, e
            else:
                run_hi = max(run_hi, e)
        if run_hi is not None:
            covered += run_hi - run_lo
        out[par] -= covered
    return out


def summarize(tracer: Tracer) -> dict[str, dict[str, float]]:
    """Per span name: call count, total seconds and total self seconds."""
    selfs = self_times(tracer.start, tracer.end, tracer.parent)
    summary: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
    for idx, nid in enumerate(tracer.name_id):
        entry = summary[tracer.names[nid]]
        entry["calls"] += 1
        entry["s"] += tracer.end[idx] - tracer.start[idx]
        entry["self_s"] += selfs[idx]
    return summary


def count_nested(tracer: Tracer, name: str, ancestor: str) -> int:
    """Spans called ``name`` that run inside a span called ``ancestor``."""
    names = tracer.span_names()
    count = 0
    for idx, span in enumerate(names):
        if span != name:
            continue
        par = tracer.parent[idx]
        while par >= 0 and names[par] != ancestor:
            par = tracer.parent[par]
        count += par >= 0
    return count


def import_breakdown(python: str, env: dict, cwd) -> dict[str, float] | None:
    """Import cost of qubitfr and its two dependencies, from ``-X importtime``.

    ``import.qubitfr_us`` is the cumulative time of the top-level package;
    the numpy and scipy figures sum the self time of every module of that
    package.  Returns None when the import fails.
    """
    proc = subprocess.run([python, "-X", "importtime", "-c", "import qubitfr"],
                          env=env, cwd=cwd, capture_output=True, text=True,
                          timeout=120)
    if proc.returncode != 0:
        return None
    self_us: dict[str, int] = defaultdict(int)
    qubitfr_us = None
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        try:
            own, cumulative = int(fields[0]), int(fields[1])
        except ValueError:
            continue  # the column header
        module = fields[2].strip()
        self_us[module.split(".")[0]] += own
        if module == "qubitfr":
            qubitfr_us = cumulative
    if qubitfr_us is None:
        return None
    return {"import.qubitfr_us": float(qubitfr_us),
            "import.scipy_us": float(self_us["scipy"]),
            "import.numpy_us": float(self_us["numpy"])}


def layer_metrics(tracer: Tracer, absent: list[str], n_ops: int) -> tuple[dict, set]:
    """Per-layer metrics of a traced phase, normalized per operation.

    Returns the metric values and the names of metrics whose span or
    counter was absent (those read 0).
    """
    summary = summarize(tracer)
    missing = set()

    def span(name: str, field: str) -> float:
        if name in absent:
            missing.add(f"{name}.{field}")
        return summary[name][field] if name in summary else 0.0

    per_op = 1.0 / n_ops
    metrics = {}
    for name in ("montecarlo.derive_stream", "protocol.conditional_matrix",
                 "protocol.propagate_mean", "protocol.segment_rotations",
                 "core.bloch_rotation", "channel.invert_pump_probability",
                 "scenarios.resolve"):
        metrics[f"{name}.calls"] = span(name, "calls") * per_op
    for name in ("montecarlo.derive_stream", "montecarlo.run_ensemble",
                 "protocol.segment_rotations", "core.bloch_rotation",
                 "channel.invert_pump_probability", "oracle.mean_heat_phase",
                 "oracle.work_heat_series_amplitude", "oracle.floquet_recursion_gap",
                 "oracle.rabi_conditional", "scenarios.resolve") + tuple(
                     f"checks.{c}" for c in CHECKS):
        metrics[f"{name}.s"] = span(name, "s") * per_op
    for name in ("protocol.conditional_matrix", "protocol.propagate_mean",
                 "scenarios.run_scenario", "cli.main"):
        metrics[f"{name}.self_s"] = span(name, "self_s") * per_op

    def counter(name: str, span_name: str) -> float:
        if span_name in absent or span_name in tracer.broken_hooks:
            missing.add(name)
            return 0.0
        return tracer.counters.get(name, 0.0)

    metrics["protocol.pulse_steps"] = counter(
        "protocol.pulse_steps", "protocol.propagate_mean") * per_op
    trajectories = counter("montecarlo.trajectories", "montecarlo.run_trajectories")
    stream_s = span("montecarlo.derive_stream", "s")
    prop_s = span("montecarlo.run_trajectories", "self_s")
    metrics["montecarlo.rng_us_per_traj"] = (
        1e6 * stream_s / trajectories if trajectories else 0.0)
    metrics["montecarlo.prop_us_per_traj"] = (
        1e6 * prop_s / trajectories if trajectories else 0.0)
    ensemble_s = span("montecarlo.run_ensemble", "s")
    metrics["montecarlo.stream_prop_share"] = (
        (stream_s + prop_s) / ensemble_s if ensemble_s else 0.0)
    total_pulses = counter("montecarlo.total_pulses", "montecarlo.run_ensemble")
    metrics["montecarlo.absorbed_frac"] = (
        counter("montecarlo.absorbed_pulses", "montecarlo.run_ensemble") / total_pulses
        if total_pulses else 0.0)
    if "channel.stationary_upper_population" in absent:
        missing.add("channel.fixed_point_solves")
    inversions = span("channel.invert_pump_probability", "calls")
    metrics["channel.fixed_point_solves"] = (
        count_nested(tracer, "channel.stationary_upper_population",
                     "channel.invert_pump_probability") / inversions
        if inversions else 0.0)
    if {"montecarlo.derive_stream", "montecarlo.run_trajectories",
            "montecarlo.run_ensemble"} & set(absent):
        missing.update(("montecarlo.rng_us_per_traj", "montecarlo.prop_us_per_traj",
                        "montecarlo.stream_prop_share"))
    return metrics, missing
