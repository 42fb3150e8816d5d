"""Tests of the benchmark's own helpers.

    python3 -m pytest benchmarks/test_bench.py
"""

from __future__ import annotations

import sys
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def test_self_time_subtracts_children():
    # root [0, 10] has children a [1, 4] and b [5, 9]; a has child c [2, 3].
    start = [0.0, 1.0, 5.0, 2.0]
    end = [10.0, 4.0, 9.0, 3.0]
    parent = [-1, 0, 0, 1]
    assert tracing.self_times(start, end, parent) == pytest.approx([3.0, 2.0, 4.0, 1.0])


def test_self_time_counts_overlap_once_and_clips_to_parent():
    # Children [1, 5] and [3, 7] overlap; [8, 12] sticks out of the parent [0, 10].
    start = [0.0, 1.0, 3.0, 8.0]
    end = [10.0, 5.0, 7.0, 12.0]
    parent = [-1, 0, 0, 0]
    assert tracing.self_times(start, end, parent)[0] == pytest.approx(10.0 - 6.0 - 2.0)


def test_summarize_and_nesting_on_recorded_spans():
    tracer = tracing.Tracer()
    inner = tracer.wrap("inner", lambda: None)
    outer = tracer.wrap("outer", lambda: [inner(), inner()])
    outer()
    inner()
    summary = tracing.summarize(tracer)
    assert summary["outer"]["calls"] == 1 and summary["inner"]["calls"] == 3
    assert summary["outer"]["self_s"] <= summary["outer"]["s"]
    assert tracing.count_nested(tracer, "inner", "outer") == 2


@pytest.mark.parametrize("n, rank", [(11, 1), (20, 10), (100, 90), (1000, 990)])
def test_tail_percentile_keeps_ten_samples_beyond(n, rank):
    samples = [float(i) for i in range(n, 0, -1)]
    value, pct, beyond = run.tail_percentile(samples)
    assert value == float(rank)
    assert beyond == 10 == sum(s > value for s in samples)
    assert pct == pytest.approx(100.0 * rank / n)


def test_tail_percentile_without_enough_samples_is_the_maximum():
    assert run.tail_percentile([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)
    assert run.tail_percentile([float(i) for i in range(10)]) == (9.0, 100.0, 0)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_inputs_are_a_function_of_the_seed(name, tmp_path):
    def inputs(seed):
        return tuple((op.key, repr(op.data))
                     for op in workloads.make(name, seed, tmp_path).ops)

    assert inputs(5) == inputs(5)
    assert len({inputs(seed) for seed in range(6)}) > 1


def test_reference_covers_every_det_config():
    import json

    reference = json.loads(workloads.REFERENCE.read_text(encoding="utf-8"))
    assert sorted(reference) == sorted(cfg.name for cfg in workloads.det_pool())


def test_compare_csv_tolerates_last_ulp_but_not_real_changes():
    header = ["t_f_ns", "mode", "p"]
    ref = [["0.0", "deterministic", "0.25"]]
    assert workloads.compare_csv("k", header, [["0.0", "deterministic",
                                                repr(0.25 * (1 + 2e-16))]],
                                 header, ref) == []
    assert workloads.compare_csv("k", header, [["0.0", "deterministic", "0.2500001"]],
                                 header, ref)
    assert workloads.compare_csv("k", header, [["0.0", "montecarlo", "0.25"]],
                                 header, ref)


def test_missing_target_is_absent_and_tracing_continues(monkeypatch):
    module = types.ModuleType("fakepkg.mod")
    module.present = original = lambda x: x + 1
    monkeypatch.setitem(sys.modules, "fakepkg.mod", module)
    targets = (("mod.present", "fakepkg.mod", "present", None),
               ("mod.gone", "fakepkg.mod", "gone", None),
               ("other.gone", "fakepkg.nomodule", "gone", None))
    tracer = tracing.Tracer()
    with tracing.installed(tracer, targets, package="fakepkg") as absent:
        assert module.present(1) == 2
    assert absent == ["mod.gone", "other.gone"]
    assert tracing.summarize(tracer)["mod.present"]["calls"] == 1
    assert module.present is original


def test_layer_metrics_mark_metrics_of_absent_spans():
    tracer = tracing.Tracer()
    metrics, missing = tracing.layer_metrics(
        tracer, ["montecarlo.derive_stream", "channel.stationary_upper_population"], 1)
    assert metrics["montecarlo.derive_stream.calls"] == 0.0
    assert {"montecarlo.derive_stream.calls", "montecarlo.derive_stream.s",
            "montecarlo.rng_us_per_traj", "channel.fixed_point_solves"} <= missing


def test_reference_speed_cancels_host_speed_only():
    # The same operation on a host twice as slow reads the same; a slower
    # operation on the same host reads slower.
    ref = run.PROBE_REF_S
    assert run.at_reference_speed([1.0, 2.0], [ref, 2 * ref]) == pytest.approx([1.0, 1.0])
    assert run.at_reference_speed([3.0], [ref]) == pytest.approx([3.0])


def test_run_child_returns_output_and_clears_its_alarm():
    import signal

    before = signal.getsignal(signal.SIGALRM)
    proc = workloads.run_child([sys.executable, "-c", "print('ok')"],
                               capture_output=True, text=True)
    assert (proc.returncode, proc.stdout) == (0, "ok\n")
    assert signal.alarm(0) == 0
    assert signal.getsignal(signal.SIGALRM) is before
