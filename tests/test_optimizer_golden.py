"""Golden optimizer output: the machine check for "bit-identical".

``tests/golden/optimizer.json`` holds, for every suite benchmark at
levels 0-2 and for the fuzz programs ``generate_case(0..49)`` (seed
1995) at levels 1-2, the :func:`~repro.sim.diskcache.module_digest` of
the optimized graph module plus every per-function statistic of the
optimization report (cleanups, LICM, pipelining, compaction).  A change
that alters any schedule, register name, node id or pass count fails
here and the message names the first differing benchmark, function and
field.

The file is only rewritten on purpose, by a change whose goal is to
alter optimizer output::

    PYTHONPATH=src python tests/golden/regenerate_optimizer.py
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

from repro.frontend import compile_source
from repro.opt.pipeline import OptLevel, optimize_module
from repro.sim.diskcache import module_digest
from repro.suite import benchmark_names, get_benchmark

from tests.test_fuzz_engines import generate_case

GOLDEN = Path(__file__).resolve().parent / "golden" / "optimizer.json"
FUZZ_SEED = 1995
FUZZ_CASES = 50


def optimizer_cases():
    """``(label, level, source)`` for every golden entry, in file order."""
    for name in benchmark_names():
        source = get_benchmark(name).source
        for level in (0, 1, 2):
            yield name, level, source
    for case in range(FUZZ_CASES):
        source = generate_case(case, base_seed=FUZZ_SEED)
        for level in (1, 2):
            yield f"fuzz-{case}", level, source


def optimizer_entry(source: str, label: str, level: int) -> dict:
    """Digest and per-function report of one optimized module."""
    gm, report = optimize_module(compile_source(source, label),
                                 OptLevel(level))
    functions = {}
    for name in gm.graphs:
        stats = {}
        if name in report.cleanups:
            stats["cleanups"] = dict(report.cleanups[name])
        if name in report.licm_hoisted:
            stats["licm_hoisted"] = report.licm_hoisted[name]
        if name in report.pipelining:
            stats["pipelining"] = dataclasses.asdict(
                report.pipelining[name])
        if name in report.compaction:
            stats["compaction"] = dataclasses.asdict(
                report.compaction[name])
        functions[name] = stats
    return {"module_digest": module_digest(gm), "functions": functions}


def snapshot() -> dict:
    return {f"{label} L{level}": optimizer_entry(source, label, level)
            for label, level, source in optimizer_cases()}


def render(data: dict) -> str:
    return json.dumps(data, indent=1) + "\n"


def first_difference(golden: dict, current: dict) -> str:
    """Where *current* first departs from *golden*, as a readable path."""
    one_sided = sorted(golden.keys() ^ current.keys())
    if one_sided:
        return f"{one_sided[0]}: entry present on one side only"
    for key, want in golden.items():
        got = current[key]
        detail = _stats_difference(want["functions"], got["functions"])
        if want["module_digest"] != got["module_digest"]:
            return f"{key}: module_digest differs" + (
                f"; first stats difference: {detail}" if detail else "")
        if detail:
            return f"{key}: {detail}"
    return ""


def _stats_difference(want: dict, got: dict) -> str:
    for function in list(want) + [f for f in got if f not in want]:
        a, b = want.get(function, {}), got.get(function, {})
        for group in list(a) + [g for g in b if g not in a]:
            x, y = a.get(group), b.get(group)
            if x == y:
                continue
            if isinstance(x, dict) and isinstance(y, dict):
                for field in list(x) + [f for f in y if f not in x]:
                    if x.get(field) != y.get(field):
                        return (f"function {function}: {group}.{field} "
                                f"golden {x.get(field)!r}, "
                                f"now {y.get(field)!r}")
            return (f"function {function}: {group} golden {x!r}, "
                    f"now {y!r}")
    return ""


def test_optimizer_output_matches_golden():
    golden_text = GOLDEN.read_text()
    current = snapshot()
    if render(current) != golden_text:
        where = first_difference(json.loads(golden_text), current)
        raise AssertionError(
            "optimizer output departs from tests/golden/optimizer.json: "
            + (where or "same values, different serialization"))


def test_first_difference_names_benchmark_function_and_field():
    golden = {"fir L2": {"module_digest": "a", "functions": {
        "main": {"compaction": {"passes": 3, "moves": 9}}}}}
    current = json.loads(json.dumps(golden))
    assert first_difference(golden, current) == ""
    current["fir L2"]["functions"]["main"]["compaction"]["moves"] = 8
    current["fir L2"]["module_digest"] = "b"
    assert first_difference(golden, current) == (
        "fir L2: module_digest differs; first stats difference: "
        "function main: compaction.moves golden 9, now 8")
