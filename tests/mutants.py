"""Mutation check of the engine: which hand-written defects the tests catch.

Each entry of ``CATALOG`` is one mutant: an exact text substitution in a
file of ``src/qubitfr`` that must match exactly once, and the tests that
should catch it.  For each mutant the tool copies ``src/`` to a temporary
directory, applies the substitution there (the working tree is never
edited), and runs the named tests with ``-x`` against the copy.  A mutant
is killed when a test fails, and survives when they all pass.  Before the
mutants, the same tests must pass on the unmutated source.

Not collected by pytest; run it from the repository root as

    python3 tests/mutants.py

It prints one line per mutant, "killed" (with the first failing test) or
"survived", and exits 1 if a mutant survives, a substitution no longer
matches exactly once, or the tests fail or error without a mutant.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

BLOCH_CHECK = ["tests/test_protocol.py::TestPulseTrainBlochCheck"]
READOUT_CHECK = ["tests/test_protocol.py::TestReadoutBlochCheck"]
ROTATION_MEMO = ["tests/test_core.py::TestRotationBuilder::test_batch_memo_is_exact"]
WORK_HEAT_SWEEP = ["tests/test_sweep.py::test_work_heat_sweep_equals_per_config_reference"]
TABLE_COLUMNS = ["tests/test_sweep.py::test_table_columns_equal_the_single_point_path"]
ATOMS = ["tests/test_protocol.py::TestAtoms", "tests/test_identities.py"]
FREE_ENERGY = [
    "tests/test_identities.py::test_jensen_at_every_temperature_scale",
    "tests/test_identities.py::test_free_energy_delta_against_a_60_digit_reference",
]
OFF_PERIOD_WALK = [
    "tests/test_sampled_sweep.py::test_off_period_phase_walk_equals_scalar_reference",
    "tests/test_sampled_sweep.py::test_off_period_walks_follow_the_exact_matrices",
]
WALK = ["tests/test_montecarlo.py", "tests/test_sampled_sweep.py"]
CLOSED_FORM = [
    "tests/test_identities.py::test_channel_fixed_point_against_a_50_digit_reference",
    "tests/test_cli.py::TestCli::test_invert_reaches_ill_conditioned_plateaus",
    "tests/test_core.py::TestRotationBuilder::test_period_quaternion_is_the_period_rotation",
]
SETTLED = ["tests/test_sampled_sweep.py::test_walk_draws_only_unsettled_streams"]
SCALAR_BOUNDS = ["tests/test_identities.py::test_scalar_word_bounds_are_the_uniform_comparisons"]
BORN_BOUNDS = ["tests/test_identities.py::test_born_word_bounds_are_the_uniform_comparisons"]
COMPACTION = ["tests/test_sampled_sweep.py::test_long_walks_compact_their_label_table"]
PER_POINT = ["tests/test_sweep.py::test_preset_sweeps_equal_per_point_reference"]
NEVER_STOPS = "tests/test_sweep.py::test_pulse_train_equals_a_walk_that_never_stops"
REKEY = [
    "tests/test_sampled_sweep.py::test_sampled_sweep_csv_is_pinned",
    "tests/test_sampled_sweep.py::test_sampled_sweep_walks_its_pulses_once",
    "tests/test_sampled_sweep.py::test_grouped_walk_equals_separate_runs",
]

_ROTATED = "g * x + h * y + i * z)\n"
_DISCARD = """\
        if start % 4:
            bits.random_raw(start % 4, output=False)
"""
_GUARDS = """\
            if not x * x + y * y + z * z <= 1.0:
                check_bloch_vector(x, y, z)
            x, y, z = pulsed = (keep * x, keep * y, keep * z + pa * (z + pd * (1.0 - z)))
            if not x * x + y * y + z * z <= 1.0:
"""
_MEMO = """\
    memo = {a: _axis_angle(*axis, a) for a in set(angles)}
    rotations = [memo[a] for a in angles]
"""
_ERROR = """\
        return math.sqrt((weights[0] * (f(uu) - f(ud))) ** 2 * p * (1.0 - p) / n
                         + (weights[1] * (f(du) - f(dd))) ** 2 * q * (1.0 - q) / n)
"""
_READOUT_GUARD = "        if not x * x + y * y + z * z <= 1.0:  # as in pulse_train\n"
_TAIL = "(1.0 - pa) ** n * d0 * (drive.omega(t_f) - omegas[n])"

# (name, file under src/qubitfr, old text, new text, tests that should kill it)
CATALOG = [
    ("walk tail rotation is the identity", "montecarlo.py",
     "np.array(sweep.tails)", "np.array([np.eye(3)] * len(sweep.times))",
     OFF_PERIOD_WALK),
    ("walk carries the measured axis through the untransposed tail", "montecarlo.py",
     "up @ np.array(sweep.tails)", "np.array(sweep.tails) @ up", OFF_PERIOD_WALK),
    ("walk reverses the Born rows of a count's points", "montecarlo.py",
     "zip(cs[lo:lo + step], born)", "zip(cs[lo:lo + step], born[::-1])",
     ["tests/test_sampled_sweep.py"]),
    ("walk settles the pump stream below 1e-3", "montecarlo.py",
     "if p_pump > 0.0:", "if p_pump >= 1e-3:", SETTLED),
    ("walk reuses the second period's rotation", "montecarlo.py",
     "table = rotations[n] @ table", "table = rotations[min(n, 1)] @ table",
     OFF_PERIOD_WALK),
    # Equivalent wherever tau is whole drive periods, whose periods are one
    # rotation; the off-period Bloch rows (fig2bcd's tau 410 against tau_a
    # 616, a phase drive's tau 500 against 616) still kill it.
    ("pulse_train reuses its first rotation", "protocol.py",
     "sweep.periods[:max(counts, default=0)]",
     "sweep.periods[:1] * max(counts, default=0)",
     ["tests/test_sweep.py::test_mean_trajectory_equals_reference"]),
    ("pulse_train stops before its one map is steady", "protocol.py",
     "if may_stop and rs == back2", "if rs == back2",
     ["tests/test_sweep.py::test_pulse_train_walks_on_when_the_map_changes"]),
    ("pulse_train reads its 2-cycle in the wrong phase", "protocol.py",
     "(rs, back)[(m - n) % 2]", "(back, rs)[(m - n) % 2]",
     [NEVER_STOPS + "[fig5b_two_cycle]"]),
    ("pulse_train stops at equal values with zero components", "protocol.py",
     " and not any(0.0 in r for r in rs)", "",
     [NEVER_STOPS + "[fig5b_signed_zeros]"]),
    ("a sweep's periodicity test accepts n = 0", "protocol.py",
     "if whole_multiples((tau,), period)[0]:",
     "if whole_multiples((tau,), period)[0] is not None:",
     ["tests/test_sweep.py::test_off_period_sweep_builds_each_interval"]),
    ("walk keeps coherences after absorption", "montecarlo.py",
     "np.concatenate((table, poles), axis=1)",
     "np.concatenate((table, np.vstack((table[:2, :2], poles[2:]))), axis=1)", WALK),
    ("walk swaps the +z and -z poles", "montecarlo.py",
     "(k + 1) - ends_up", "k + ends_up", WALK),
    ("walk builds the down start's column with +1", "montecarlo.py",
     "up[:, None] * np.array([1.0, -1.0])", "up[:, None] * np.array([1.0, 1.0])", WALK),
    ("walk compaction keeps the old labels", "montecarlo.py",
     "live, label = np.unique(label, return_inverse=True)", "live = np.unique(label)",
     COMPACTION),
    ("walk never compacts its table", "montecarlo.py",
     "if k + 2 > m:", "if False:", COMPACTION),
    ("walk re-keys one Philox block past the chunk's first word", "montecarlo.py",
     "counter[0] = start // 4", "counter[0] = start // 4 + 1", REKEY),
    ("walk keeps the words before the chunk's first in its block", "montecarlo.py",
     _DISCARD, "", REKEY),
    ("walk keys each stream one role low", "montecarlo.py",
     "key[1] = 4 * n + role + 1", "key[1] = 4 * n + role", REKEY),
    ("scalar word bound drops its -1", "montecarlo.py",
     "np.uint64((t << 11) - 1)", "np.uint64(t << 11)", SCALAR_BOUNDS),
    ("scalar word bound floors p * 2**53", "montecarlo.py",
     "t = math.ceil(p * 2.0**53)", "t = math.floor(p * 2.0**53)", SCALAR_BOUNDS),
    ("Born bound floors its scaled probability", "montecarlo.py",
     "np.ceil((1.0 + z) * 2.0**52)", "np.floor((1.0 + z) * 2.0**52)", BORN_BOUNDS),
    ("Born bound scaled by 2**53", "montecarlo.py",
     "np.ceil((1.0 + z) * 2.0**52)", "np.ceil((1.0 + z) * 2.0**53)", BORN_BOUNDS),
    ("functional_std_err reads the other column", "montecarlo.py",
     "p, q = up / n, down / n\n        return math.sqrt((weights",
     "p, q = down / n, up / n\n        return math.sqrt((weights",
     ["tests/test_montecarlo.py"]),
    ("row error swaps the Gibbs weights", "montecarlo.py",
     _ERROR, _ERROR.replace("weights[", "weights[1 - "), ["tests/test_montecarlo.py"]),
    ("pulse_train drops the check after the rotation", "protocol.py",
     _ROTATED + "            if not x * x + y * y + z * z <= 1.0:\n"
     "                check_bloch_vector(x, y, z)\n",
     _ROTATED, BLOCH_CHECK),
    ("pulse_train guards widened to 1 + 1e-9", "protocol.py",
     _GUARDS, _GUARDS.replace("<= 1.0:", "<= 1.0 + 1e-9:"), BLOCH_CHECK),
    ("pulse_train guards blind to NaN", "protocol.py",
     _GUARDS, _GUARDS.replace("not x * x + y * y + z * z <= 1.0:",
                              "x * x + y * y + z * z > 1.0:"), BLOCH_CHECK),
    ("rotating call skips composition when any time is whole", "core.py",
     "if all(whole):", "if any(whole):",
     PER_POINT + [
         "tests/test_core.py::TestRotationBuilder::test_batch_bits_match_reference_pair_by_pair"]),
    ("batched whole test drops its absolute floor", "core.py",
     "-ratio if ratio < -1.0 else 1.0) else None",
     "-ratio if ratio < -1.0 else abs(ratio)) else None",
     ["tests/test_identities.py::test_time_lists_follow_the_one_time_rules"]),
    ("rotation memo keyed on the angle to 9 decimals", "core.py",
     _MEMO, _MEMO.replace("{a:", "{round(a, 9):").replace("memo[a]", "memo[round(a, 9)]"),
     ROTATION_MEMO),
    ("final_states guard widened to 1 + 1e-9", "protocol.py",
     _READOUT_GUARD, _READOUT_GUARD.replace("<= 1.0:", "<= 1.0 + 1e-9:"), READOUT_CHECK),
    ("final_states guard blind to NaN", "protocol.py",
     _READOUT_GUARD, _READOUT_GUARD.replace("not x * x + y * y + z * z <= 1.0:",
                                            "x * x + y * y + z * z > 1.0:"), READOUT_CHECK),
    ("work/heat prefix sums one pulse short", "oracle.py",
     "math.fsum(per_w[:n])", "math.fsum(per_w[:n - 1])", WORK_HEAT_SWEEP),
    ("work/heat tail takes the sweep's largest pulse count", "oracle.py",
     _TAIL, _TAIL.replace("[n]", "[sweep.n_pulses]").replace("** n ", "** sweep.n_pulses "),
     WORK_HEAT_SWEEP),
    ("a sweep's pulse count is its last time's", "protocol.py",
     "n_pulses = max(counts, default=0)", "n_pulses = (counts or (0,))[-1]",
     ["tests/test_sweep.py::test_sweep_counts_and_tails"] + WORK_HEAT_SWEEP),
    ("rabi grids skip the finite t_f / tau check", "scenarios.py",
     "if not math.isfinite(ratio):",
     "if self.max_pulses is None and not math.isfinite(ratio):",
     ["tests/test_cli.py::TestScenarioConfig::test_grid_past_a_finite_pulse_count_is_rejected"]),
    ("a sweep swaps its Gibbs weights", "protocol.py",
     "for b in (thermal.beta, -thermal.beta)", "for b in (-thermal.beta, thermal.beta)",
     TABLE_COLUMNS + ["tests/test_protocol.py::TestInitialWeights"]),
    ("atoms read level(0) as level(t_f)", "protocol.py",
     "for lf, (uu, ud) in zip(levels,", "for lf, l0, (uu, ud) in zip(levels, levels,",
     ATOMS),
    ("delta_f as the cancelling log of Z(t_f)/Z(0)", "core.py",
     "    return -log_ratio / beta\n",
     "    return -math.log(math.cosh(beta * lf) / math.cosh(beta * l0)) / beta\n",
     FREE_ENERGY),
    ("period quaternion drops the off-period z-turn", "core.py",
     "if whole_multiple(tau, drive.tau_theta) is not None:", "if True:", CLOSED_FORM),
    ("closed form flips the sign of sin phi", "channel.py",
     "cw = 2.0 * c * (1.0 + c) * z, 2.0 * c * w * pa",
     "cw = 2.0 * c * (1.0 + c) * z, -2.0 * c * w * pa", CLOSED_FORM),
    ("closed form takes 1 - k_z^2 by subtraction", "channel.py",
     "2.0 * (x * x + y * y) * (1.0 + c) / d", "2.0 * (sin2 - z * z) * (1.0 + c) / d",
     CLOSED_FORM),
]


def run_tests(src: Path, tests: list[str]) -> tuple[int, str]:
    """(pytest exit code, first failing test or "") for ``tests`` run with
    the package imported from ``src``."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-rf", "-p", "no:cacheprovider",
         *tests], cwd=ROOT, env=env, capture_output=True, text=True)
    failed = re.search(r"^FAILED (\S+)", proc.stdout, re.MULTILINE)
    return proc.returncode, failed.group(1) if failed else ""


def check_mutant(name: str, filename: str, old: str, new: str,
                 tests: list[str]) -> bool:
    """Print the mutant's verdict; True if the tests killed it."""
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src,
                        ignore=shutil.ignore_patterns("__pycache__"))
        path = src / "qubitfr" / filename
        text = path.read_text(encoding="utf-8")
        if text.count(old) != 1:
            print(f"stale     {name}: the substitution matches "
                  f"{text.count(old)} times in {filename}")
            return False
        path.write_text(text.replace(old, new), encoding="utf-8")
        code, first = run_tests(src, tests)
    if code == 1:
        print(f"killed    {name}  by {first}")
        return True
    print(f"survived  {name}" if code == 0 else
          f"error     {name}: pytest exited {code}")
    return False


def main() -> int:
    code, first = run_tests(ROOT / "src",
                            sorted({test for *_, tests in CATALOG for test in tests}))
    if code != 0:
        print(f"the tests fail without a mutant (pytest exited {code}; {first})")
        return 1
    killed = [check_mutant(*entry) for entry in CATALOG]
    print(f"{sum(killed)} of {len(killed)} mutants killed")
    return 0 if all(killed) else 1


if __name__ == "__main__":
    sys.exit(main())
