"""Regenerate the expected outputs of the CLI workloads from the oracle.

Runs every CLI workload once per input set with ``--engine reference``
(the tree-walking interpreter) and stores its canonical ``--json``
document under ``perfbench/expected/``.  The benchmark only reads these
files; nothing runs this script implicitly.  Regenerate after a change
that is meant to alter the program's results; the benchmark names the
first JSON path that differs from these files.

    python3 perfbench/make_expected.py      # ~25 min on a 2-vCPU Xeon
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import common


def generate(workload: str, index: int) -> None:
    common.WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=common.WORK) as tmp:
        out = Path(tmp) / "out.json"
        argv = common.cli_argv(workload, index, "none", str(out),
                               engine="reference")
        started = time.perf_counter()
        subprocess.run([sys.executable, "-m", "repro", *argv],
                       env=common.isolated_env(), cwd=common.ROOT,
                       stdout=subprocess.DEVNULL, check=True)
        with open(out, encoding="utf-8") as fh:
            text = common.canonical(json.load(fh))
    common.write_expected(workload, index, text)
    print(f"{common.expected_path(workload, index).name}: "
          f"{time.perf_counter() - started:.1f} s", flush=True)


def main() -> int:
    for workload in common.CLI_WORKLOADS:
        for index in range(common.INPUT_POOL):
            generate(workload, index)
    return 0


if __name__ == "__main__":
    sys.exit(main())
