"""SHA-256 digests of every output the command line produces.

Runs, in-process through ``qubitfr.cli.main`` and inside a temporary
directory:

* ``run`` of each preset (CSV and manifest);
* ``run --mode both --mc-grid all --trajectories 500 --seed 7`` of a
  sampled subset of the presets;
* the stdout of ``presets`` and of ``invert --target 0.138 --tau-theta 616``;
* the stdout of ``check --skip-mc`` and of ``check``, with elapsed
  seconds, the sampler's trajectories per second and the name of the
  slowest walk, which all vary from run to run, masked.

Prints one ``<sha256>  <label>`` line per output.  Two trees whose
digests match produce byte-identical files and text.  Exits 1 if any
command exits nonzero or writes a manifest that is not strict JSON
(``Infinity``, ``-Infinity`` or ``NaN``).  Not collected by pytest; run it as

    python3 tests/output_digest.py > digests.txt
    python3 tests/output_digest.py --against digests.txt

with the package importable (installed, or ``PYTHONPATH=src``).  With
``--against FILE`` it compares with digests saved earlier instead of
printing them: it prints each label whose digest differs or that only
one side has, and exits 1 if there is any.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import re
import sys
import tempfile
from pathlib import Path

from qubitfr import cli
from qubitfr.scenarios import PRESETS

SAMPLED = ("fig2a", "fig3a", "fig3b", "fig4b", "fig5a", "fig5d", "fig6b", "fig6e")
SAMPLED_ARGS = ("--mode", "both", "--mc-grid", "all", "--trajectories", "500",
                "--seed", "7")
MASKS = ((re.compile(r"\b\d+\.\d+ s\b"), "<elapsed> s"),
         (re.compile(r"\S+ trajectories/s\b"), "<rate> trajectories/s"),
         (re.compile(r"\bslowest walk \S+"), "slowest walk <presets>"))


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def strict_json(text: str, name: str):
    """Parse JSON text; the constants ``Infinity``, ``-Infinity`` and ``NaN``,
    which ``json`` accepts by default, raise ValueError naming ``name``."""
    def reject(constant: str):
        raise ValueError(f"{name} holds {constant}, which is not valid JSON")

    return json.loads(text, parse_constant=reject)


def _main(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def digests() -> tuple[list[str], list[str]]:
    """(``<sha256>  <label>`` lines, one message per failed command or
    non-strict manifest)."""
    failed = []
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        runs = [("presets", name, ()) for name in PRESETS]
        runs += [("sampled", name, SAMPLED_ARGS) for name in SAMPLED]
        for group, name, extra in runs:
            outdir = Path(tmp) / group
            code, _ = _main(["run", name, "--outdir", str(outdir), *extra])
            if code:
                failed.append(f"nonzero exit: run {name} {' '.join(extra)}".strip())
                continue
            for path in (outdir / f"{name}.csv", outdir / f"{name}_manifest.json"):
                lines.append(f"{_digest(path.read_bytes())}  {group}/{path.name}")
            manifest = f"{name}_manifest.json"
            try:
                strict_json((outdir / manifest).read_text(encoding="utf-8"),
                            f"{group}/{manifest}")
            except ValueError as exc:
                failed.append(str(exc))
        for argv in (["presets"], ["invert", "--target", "0.138", "--tau-theta", "616"],
                     ["check", "--skip-mc"], ["check"]):
            code, text = _main(argv)
            if code:
                failed.append(f"nonzero exit: {' '.join(argv)}")
            for pattern, mask in MASKS:
                text = pattern.sub(mask, text)
            lines.append(f"{_digest(text.encode('utf-8'))}  stdout of {' '.join(argv)}")
    return lines, failed


def _by_label(lines: list[str]) -> dict[str, str]:
    return {label: digest for digest, label in
            (line.split("  ", 1) for line in lines if line.strip())}


def differing_labels(saved: list[str], current: list[str]) -> list[str]:
    """Labels whose digest differs, or that only one of the two lists has."""
    old, new = _by_label(saved), _by_label(current)
    return [label for label in sorted(old.keys() | new.keys())
            if old.get(label) != new.get(label)]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", metavar="FILE",
                        help="compare with digests saved from an earlier run")
    args = parser.parse_args(argv)
    lines, failed = digests()
    if args.against is None:
        print("\n".join(lines))
        differ = []
    else:
        saved = Path(args.against).read_text(encoding="utf-8").splitlines()
        differ = differing_labels(saved, lines)
        for label in differ:
            print(f"differs: {label}")
        if not differ:
            print(f"all {len(lines)} digests match {args.against}")
    for message in failed:
        print(message, file=sys.stderr)
    return 1 if failed or differ else 0


if __name__ == "__main__":
    sys.exit(main())
