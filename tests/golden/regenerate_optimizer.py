"""Rewrite ``tests/golden/optimizer.json`` from the current optimizer.

    PYTHONPATH=src python tests/golden/regenerate_optimizer.py

Run this only in a change whose goal is to alter optimizer output, and
say so in its description; no test or CI step runs it.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from tests.test_optimizer_golden import GOLDEN, render, snapshot  # noqa: E402


def main() -> int:
    GOLDEN.write_text(render(snapshot()))
    print(f"wrote {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
