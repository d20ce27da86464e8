"""Write ``golden.json``: the timing-stripped records of every item any seed
of any workload can run, keyed by item label.

Usage, from the root of a checkout::

    python3 perfbench/capture_golden.py

Capture only at a commit whose verdicts are known to be right; the
benchmark then fails any later run whose statuses differ.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from workloads import pool

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from supercong import harness, registry  # noqa: E402


def main() -> None:
    reg = registry.load_registry()
    golden = {}
    for label, kwargs in pool():
        config = harness.RunConfig(**kwargs, include_timing=False)
        golden[label] = harness.run(config, registry=reg).results
        if not golden[label]:
            raise SystemExit(f"{label}: the harness plans no job for this item")
        print(f"{label}: {len(golden[label])} records", flush=True)
    (HERE / "golden.json").write_text(json.dumps(golden, sort_keys=True, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
