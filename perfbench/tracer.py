"""Run one ``repro`` command in-process with every layer wrapped in spans.

    python3 perfbench/tracer.py OUT.json study --seed 0 ...

Each public function named in ``layers.json`` is replaced, in its
defining module and at every ``repro.*`` module that imported it, by a
wrapper that records a span ``[layer, start, end, parent, thread]``.  Spans
stay in memory and are written to OUT.json, with the disk-cache
counters and a few counts taken at the wrappers, when the command
returns.  Nothing under ``src/`` changes; this works because the CLI
runs everything in one process at its default ``--jobs 1``.
"""

from __future__ import annotations

import functools
import importlib
import json
import pkgutil
import sys
import threading
import time
from pathlib import Path

LAYERS_FILE = Path(__file__).resolve().parent / "layers.json"
#: Span name of the tracer's own counting work (no layer's self time).
BOOKKEEPING = "tracer"


class Tracer:
    """Span and count recorder shared by every wrapper of one process."""

    def __init__(self):
        self.spans = []
        self.local = threading.local()
        self.cycles = 0
        self.digests = {"sim.compile": [], "sim.codegen": []}
        self.module_digest = None  # the unwrapped digest function

    def stack(self):
        stack = getattr(self.local, "stack", None)
        if stack is None:
            stack = self.local.stack = []
        return stack

    def wrap(self, layer: str, func):
        spans = self.spans
        clock = time.perf_counter
        thread = threading.get_ident
        tracer = self
        counting = layer == "sim.run" or layer in self.digests

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            stack = tracer.stack()
            span = [layer, 0.0, 0.0, stack[-1] if stack else None,
                    thread()]
            spans.append(span)
            stack.append(span)
            span[1] = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if counting:
                # Recorded as a child of the caller's span so the
                # counting costs no layer any self time.
                started = clock()
                tracer.count(layer, span, args, kwargs, result)
                spans.append([BOOKKEEPING, started, clock(), span[3],
                              span[4]])
            return result

        return wrapper

    def count(self, layer, span, args, kwargs, result) -> None:
        """Simulated cycles and module digests, taken after the call."""
        if layer == "sim.run" and not self._inside(span, "sim.run"):
            if isinstance(result, list):
                self.cycles += sum(r.cycles for r in result)
            else:
                self.cycles += result.cycles
        elif layer in self.digests:
            module = args[0] if args else kwargs["module"]
            self.digests[layer].append(self.module_digest(module))

    @staticmethod
    def _inside(span, layer) -> bool:
        parent = span[3]
        while parent is not None:
            if parent[0] == layer:
                return True
            parent = parent[3]
        return False


def _import_all() -> None:
    """Load every ``repro`` module so each import site exists to patch."""
    import repro
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if not info.name.endswith("__main__"):
            importlib.import_module(info.name)


def install(tracer: Tracer) -> None:
    """Wrap every layer function at every import site."""
    _import_all()
    layers = load_layers()["layers"]
    from repro.sim import diskcache
    tracer.module_digest = diskcache.module_digest
    modules = [m for name, m in sorted(sys.modules.items())
               if name == "repro" or name.startswith("repro.")]
    for layer, targets in layers.items():
        for target in targets:
            module_name, qualname = target.split(":")
            *outer, name = qualname.split(".")
            try:
                owner = importlib.import_module(module_name)
                for part in outer:
                    owner = getattr(owner, part)
                original = getattr(owner, name)
            except (ImportError, AttributeError):
                # Code a change deleted is never called: its layer
                # reads zero rather than breaking the traced run.
                print(f"tracer: {target} not found, {layer} counts "
                      "nothing", file=sys.stderr)
                continue
            wrapper = tracer.wrap(layer, original)
            setattr(owner, name, wrapper)
            if outer:  # a method: the class attribute is the only site
                continue
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)


def _cache_snapshot():
    from repro.sim import diskcache
    cache = diskcache.get_cache()
    return cache.stats_snapshot() if cache is not None else None


def load_layers() -> dict:
    with open(LAYERS_FILE, encoding="utf-8") as fh:
        return json.load(fh)


def _ratio(part, whole) -> float:
    return part / whole if whole else 0.0


def summarize(docs: list) -> dict:
    """Per-layer metrics of one or more traced processes, summed.

    ``self_s`` is a span's duration minus the durations of its direct
    child spans, so the self times of all layers add up to the time the
    outermost spans cover.  The ``serve.*`` and ``trace.*`` metrics are
    the caller's.
    """
    spec = load_layers()
    calls = dict.fromkeys(spec["layers"], 0)
    self_s = dict.fromkeys(spec["layers"], 0.0)
    digests = {"sim.compile": [], "sim.codegen": []}
    cycles = 0
    cache = {}
    for doc in docs:
        spans = doc["spans"]
        child = [0.0] * len(spans)
        for layer, start, end, parent, _ in spans:
            if parent is not None:
                child[parent] += end - start
        for i, (layer, start, end, _, _) in enumerate(spans):
            if layer != BOOKKEEPING:
                calls[layer] += 1
                self_s[layer] += end - start - child[i]
        for layer, found in doc["digests"].items():
            digests[layer] += found
        cycles += doc["sim_cycles"]
        kinds = (doc["diskcache"] or {}).get("kinds", {})
        for kind, counters in kinds.items():
            into = cache.setdefault(kind, dict.fromkeys(counters, 0))
            for key, value in counters.items():
                into[key] += value
    metrics = {}
    for layer in spec["layers"]:
        metrics[f"{layer}.calls"] = calls[layer]
        metrics[f"{layer}.self_s"] = self_s[layer]
    metrics["sim.cycles"] = cycles
    metrics["sim.host_ns_per_cycle"] = _ratio(self_s["sim.run"] * 1e9,
                                              cycles)
    for layer, found in digests.items():
        metrics[f"{layer}.distinct"] = len(set(found))
        metrics[f"{layer}.reuse"] = _ratio(len(set(found)), len(found))
    kinds = spec["diskcache_kinds"]
    for prefix, chosen in [("diskcache", sorted(cache))] + \
            [(f"diskcache.{kind}", [kind]) for kind in kinds]:
        got = {key: sum(cache.get(kind, {}).get(key, 0) for kind in chosen)
               for key in ("hits", "misses", "bytes_read",
                           "bytes_written")}
        metrics[f"{prefix}.hits"] = got["hits"]
        metrics[f"{prefix}.misses"] = got["misses"]
        metrics[f"{prefix}.hit_ratio"] = _ratio(
            got["hits"], got["hits"] + got["misses"])
        metrics[f"{prefix}.bytes_read"] = got["bytes_read"]
        metrics[f"{prefix}.bytes_written"] = got["bytes_written"]
    metrics["asip.design_points"] = calls["asip.measure"]
    metrics["trace.self_sum_s"] = sum(self_s.values())
    return metrics


def nesting_errors(doc: dict) -> list:
    """What breaks span nesting in one traced process's document.

    Spans of one thread nest, so no span is shorter than its direct
    children together, and one thread's outermost spans cannot cover
    more time than the command ran.  A parent link lost or crossed
    between threads breaks one of the two.
    """
    spans = doc["spans"]
    child = [0.0] * len(spans)
    roots = {}
    for layer, start, end, parent, thread in spans:
        if parent is None:
            roots[thread] = roots.get(thread, 0.0) + end - start
        else:
            child[parent] += end - start
    errors = []
    short = [(layer, end - start, inner)
             for (layer, start, end, _, _), inner in zip(spans, child)
             if inner > end - start + 1e-6]
    if short:
        layer, own, inner = short[0]
        errors.append(f"{len(short)} spans are shorter than their "
                      f"children, the first a {layer} span of {own:.6f} s "
                      f"with {inner:.6f} s of child spans")
    ran = doc["end"] - doc["start"]
    for thread, covered in sorted(roots.items()):
        if covered > ran:
            errors.append(f"thread {thread}: outermost spans cover "
                          f"{covered:.3f} s, more than the {ran:.3f} s "
                          "the command ran")
    return errors


def counts(metrics: dict) -> dict:
    """The exact counts two traced runs of one seed must agree on."""
    return {name: value for name, value in metrics.items()
            if name.endswith(".calls")
            or name in ("sim.cycles", "asip.design_points")}


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    install(tracer)
    from repro.cli import main as repro_main
    started = time.perf_counter()
    code = repro_main(argv)
    ended = time.perf_counter()
    index = {id(span): i for i, span in enumerate(tracer.spans)}
    doc = {
        "exit": code,
        "start": started,
        "end": ended,
        "spans": [[s[0], s[1], s[2],
                   None if s[3] is None else index[id(s[3])], s[4]]
                  for s in tracer.spans],
        "sim_cycles": tracer.cycles,
        "digests": tracer.digests,
        "diskcache": _cache_snapshot(),
    }
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, separators=(",", ":"))
    return code


if __name__ == "__main__":
    sys.exit(main())
