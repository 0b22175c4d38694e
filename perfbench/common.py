"""Shared pieces of the end-to-end benchmark: paths, environment, inputs.

Every process the benchmark starts gets :func:`isolated_env`, and every
CLI workload's argument list comes from :func:`cli_argv`, so the timed
runs, the traced runs and the expected-output generator
(``make_expected.py``) run exactly the same commands.
"""

from __future__ import annotations

import gzip
import json
import os
from pathlib import Path

#: The directory holding this file; the checkout root is its parent.
BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
EXPECTED_DIR = BENCH_DIR / "expected"
#: Working files the benchmark owns, ignored by git.  Each run removes
#: its own ``run-*`` directory; ``results/`` and ``last/`` (the latest
#: trace documents) persist across runs.
WORK = ROOT / ".perfbench"

#: Environment knobs that change what the program does.  They are
#: removed from every child environment so a developer's shell cannot
#: leak into the numbers.
SCRUBBED_ENV = ("REPRO_ENGINE", "REPRO_JOBS", "REPRO_CACHE",
                "REPRO_RESULT_CACHE", "REPRO_CACHE_MAX_MB",
                "REPRO_VERIFY", "REPRO_RANGES")

#: Workloads whose outputs are checked against committed oracle files.
CLI_WORKLOADS = ("study-cold", "study-seeds-warm", "frontier")
#: The serve mix checks itself against the daemon's own oracle answers.
WORKLOADS = CLI_WORKLOADS + ("serve-mix",)

#: Each CLI workload draws its inputs from this many input sets.  The
#: pool is finite because every input set needs an expected file from
#: the (slow) reference engine; benchmark seed ``s`` uses input set
#: ``s % INPUT_POOL``, so seed 0 runs the CLI's own default inputs.
INPUT_POOL = 4
#: Seed used while developing a change, and the seed kept back for
#: checking a claimed gain on inputs the change was not tuned on.
DEV_SEED = 0
HELDOUT_SEED = 1
#: Input seeds per cell of ``study-seeds-warm``.
WARM_SEEDS = 8


def pool_index(seed: int) -> int:
    return seed % INPUT_POOL


def warm_seeds(seed: int) -> list:
    """The ``--seeds`` list of ``study-seeds-warm`` for benchmark *seed*."""
    base = WARM_SEEDS * pool_index(seed)
    return list(range(base, base + WARM_SEEDS))


def cli_argv(workload: str, seed: int, cache_dir: str, json_out: str,
             engine: str = None) -> list:
    """``repro`` arguments of one operation of a CLI workload.

    *engine* ``None`` keeps the CLI default, which is what users run.
    """
    j = pool_index(seed)
    if workload == "study-cold":
        argv = ["study", "--seed", str(j)]
    elif workload == "study-seeds-warm":
        argv = ["study", "--seeds", ",".join(map(str, warm_seeds(seed)))]
    elif workload == "frontier":
        argv = ["explore-study", "--frontier", "--seed", str(j)]
    else:
        raise ValueError(f"not a CLI workload: {workload}")
    argv += ["--cache-dir", cache_dir, "--json", json_out]
    if engine is not None:
        argv += ["--engine", engine]
    return argv


def isolated_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in SCRUBBED_ENV}
    env["PYTHONPATH"] = str(SRC)
    return env


def canonical(doc: dict) -> str:
    """A ``--json`` document in comparable form: keys sorted, and the
    echoed engine name dropped (engines must agree on everything else)."""
    config = doc.get("config")
    if isinstance(config, dict):
        config.pop("engine", None)
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def first_difference(got, want, path: str = "$") -> str:
    """JSON path of the first value where two documents differ."""
    if isinstance(got, dict) and isinstance(want, dict):
        for key in sorted(set(got) | set(want)):
            if got.get(key) != want.get(key):
                return first_difference(got.get(key), want.get(key),
                                        f"{path}.{key}")
    elif isinstance(got, list) and isinstance(want, list) \
            and len(got) == len(want):
        for i, (a, b) in enumerate(zip(got, want)):
            if a != b:
                return first_difference(a, b, f"{path}[{i}]")
    return f"{path}: got {json.dumps(got)[:80]}, expected " \
           f"{json.dumps(want)[:80]}"


def expected_path(workload: str, seed: int) -> Path:
    return EXPECTED_DIR / f"{workload}-{pool_index(seed)}.json.gz"


def read_expected(workload: str, seed: int) -> str:
    with gzip.open(expected_path(workload, seed), "rt",
                   encoding="utf-8") as fh:
        return fh.read()


def write_expected(workload: str, seed: int, text: str) -> None:
    path = expected_path(workload, seed)
    path.parent.mkdir(parents=True, exist_ok=True)
    # mtime=0 keeps the bytes a pure function of the document.
    with open(path, "wb") as raw, \
            gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as fh:
        fh.write(text.encode("utf-8"))
