"""Regenerate the det_sweep_long reference CSVs.

    python3 benchmarks/make_reference.py

Runs every config a det_sweep_long seed can choose and stores each CSV's
text in ``reference/det_sweep_long.json``.  The benchmark compares later
runs with it by value (see ``workloads.compare_csv``), so regenerate it
only when the expected numbers change on purpose.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402
from qubitfr import scenarios  # noqa: E402


def main() -> int:
    reference = {}
    with tempfile.TemporaryDirectory() as tmp:
        for cfg in workloads.det_pool():
            manifest = scenarios.run_scenario(cfg, outdir=tmp)
            reference[cfg.name] = Path(manifest["csv_paths"][0]).read_text(
                encoding="utf-8")
    workloads.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True)
                                   + "\n", encoding="utf-8")
    print(f"wrote {len(reference)} configs to {workloads.REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
