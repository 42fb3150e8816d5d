"""SHA-256 digests of every output the command line produces.

Runs, in-process through ``qubitfr.cli.main`` and inside a temporary
directory:

* ``run`` of each preset (CSV and manifest);
* ``run --mode both --mc-grid all --trajectories 500 --seed 7`` of a
  sampled subset of the presets;
* the stdout of ``presets`` and of ``invert --target 0.138 --tau-theta 616``;
* the stdout of ``check --skip-mc``, with elapsed seconds masked.

Prints one ``<sha256>  <label>`` line per output.  Two trees whose
digests match produce byte-identical files and text.  Exits 1 if any
command exits nonzero.  Not collected by pytest; run it as

    python3 tests/output_digest.py

with the package importable (installed, or ``PYTHONPATH=src``).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import re
import sys
import tempfile
from pathlib import Path

from qubitfr import cli
from qubitfr.scenarios import PRESETS

SAMPLED = ("fig2a", "fig3a", "fig3b", "fig4b", "fig5a", "fig5d", "fig6b", "fig6e")
SAMPLED_ARGS = ("--mode", "both", "--mc-grid", "all", "--trajectories", "500",
                "--seed", "7")
ELAPSED = re.compile(r"\b\d+\.\d+ s\b")


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _main(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def main() -> int:
    failed = []
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        runs = [("presets", name, ()) for name in PRESETS]
        runs += [("sampled", name, SAMPLED_ARGS) for name in SAMPLED]
        for group, name, extra in runs:
            outdir = Path(tmp) / group
            code, _ = _main(["run", name, "--outdir", str(outdir), *extra])
            if code:
                failed.append(f"run {name} {' '.join(extra)}".strip())
                continue
            for path in (outdir / f"{name}.csv", outdir / f"{name}_manifest.json"):
                lines.append(f"{_digest(path.read_bytes())}  {group}/{path.name}")
        for argv in (["presets"], ["invert", "--target", "0.138", "--tau-theta", "616"],
                     ["check", "--skip-mc"]):
            code, text = _main(argv)
            if code:
                failed.append(" ".join(argv))
            text = ELAPSED.sub("<elapsed> s", text)
            lines.append(f"{_digest(text.encode('utf-8'))}  stdout of {' '.join(argv)}")
    print("\n".join(lines))
    for command in failed:
        print(f"nonzero exit: {command}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
