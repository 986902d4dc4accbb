"""Regenerate ``tests/golden/kernel_results.json``.

Run after an *intentional* kernel or strategy change moves a pinned
result::

    PYTHONPATH=src python tests/regen_kernel_golden.py

Review the diff before committing — the golden file is the reference
every kernel change is held to.  The case matrix lives in
``tests/test_kernel_golden.py``.
"""

from __future__ import annotations

import json

from test_kernel_golden import CASES, GOLDEN, result_entry


def main() -> None:
    golden = {key: result_entry(run()) for key, run in CASES.items()}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(golden, indent=2) + "\n")
    print(f"wrote {GOLDEN} — {len(golden)} pinned results")


if __name__ == "__main__":
    main()
