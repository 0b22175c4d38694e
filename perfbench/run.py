"""End-to-end benchmark of the repro CLI.

    python3 perfbench/run.py --workload WORKLOAD --seed N --seconds S --trace 0|1

Runs one workload from the root of a source checkout and prints, as its
last line, one JSON object ``{"correct", "attempted", "failed",
"metrics"}``.  With ``--trace 0`` the metrics are the end-to-end ones
BENCHMARK.json declares; the lines above show those and the rest
(``cache_mb``, ``error_rate`` and, on ``serve-mix``, ``req_p50_ms``,
``req_p90_ms`` and ``req_per_s``) with unit and sample count.  With
``--trace 1`` the workload runs as usual and then twice more under
``tracer.py``; the metrics are the per-layer ones of the first traced
pass, and any count the two passes disagree on is flagged.

Workloads, all at the CLI defaults (default engine, ``--jobs 1``):

* ``study-cold``: ``repro study`` on an empty cache directory.
* ``study-seeds-warm``: ``repro study --seeds`` (8 seeds) on a cache
  filled by one earlier run of the same command.
* ``frontier``: ``repro explore-study --frontier`` on an empty cache.
* ``serve-mix``: one ``repro serve`` daemon per run, driven by the
  closed-loop client in ``serve_client.py``.

A CLI operation is one process, timed from spawn to exit, repeated
until ``--seconds`` have passed; ``wall_s``, ``cpu_s`` (user + system,
from ``wait4``) and ``peak_rss_mb`` are medians over operations.  On
``serve-mix`` the operation is the daemon, from spawn to exit, serving
``max(2, seconds // 4)`` rounds of the mix.  ``setup_s`` is the median
of several set-ups: a process that only imports ``repro.cli``
(study-cold, frontier), the cache-filling run (study-seeds-warm), or
daemon spawn to its first ``status`` answer (serve-mix).

Outputs are checked against ``expected/`` (written by
``make_expected.py`` from the reference engine) or, on ``serve-mix``,
against the daemon's own first answers and a sample re-asked with
``"engine": "reference"``.  The traced run of ``study-seeds-warm``
covers its fill and one warm run, summed.  ``layers.json`` names the
functions timed per layer and which end-to-end metric each layer should
move on which workload.  Seed ``common.DEV_SEED`` (0) is for
development; ``common.HELDOUT_SEED`` (1) is kept back for checking a
claimed gain.
"""

from __future__ import annotations

import argparse
import collections
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import common
import tracer

sys.path.insert(0, str(common.SRC))
try:
    from repro.serve.client import ServeClient
except ImportError:  # no sources to run: main() says so
    ServeClient = None

#: Every run ends well inside the 180 s a run may take.
DEADLINE_S = 170.0
#: Set-up samples per run (the median is reported).
SETUP_IMPORTS = 9
WARM_FILLS = 3
SERVE_STARTS = 5
#: Fresh serve answers re-asked with the reference engine per run.
SERVE_REFERENCE_CHECKS = 2


#: How a child ended: exit code, spawn-to-exit seconds, user + system
#: CPU seconds, peak resident MB, and whether the deadline killed it.
Outcome = collections.namedtuple("Outcome", "code wall cpu rss_mb timed_out")


class Child:
    """A process the benchmark started, reaped with its resource usage."""

    def __init__(self, run: "Run", cmd: list, log: Path):
        self.run = run
        self.log = open(log, "ab")
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            cmd, cwd=common.ROOT, env=common.isolated_env(),
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
            stderr=self.log)
        run.children.append(self)

    def alive(self) -> bool:
        return self.proc.returncode is None

    def wait(self) -> Outcome:
        if not self.alive():  # already reaped by Popen.poll()
            self.log.close()
            self.run.children.remove(self)
            return Outcome(self.proc.returncode,
                           time.perf_counter() - self.started, 0.0, 0.0,
                           False)
        fired = threading.Event()

        def kill():
            fired.set()
            self.proc.kill()

        timer = threading.Timer(max(1.0, self.run.remaining()), kill)
        timer.start()
        try:
            _, status, usage = os.wait4(self.proc.pid, 0)
        finally:
            timer.cancel()
            self.log.close()
        wall = time.perf_counter() - self.started
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.run.children.remove(self)
        return Outcome(self.proc.returncode, wall,
                       usage.ru_utime + usage.ru_stime,
                       usage.ru_maxrss / 1024.0, fired.is_set())


class Run:
    """State of one benchmark invocation."""

    def __init__(self, workload: str, seed: int, seconds: int):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.started = time.perf_counter()
        self.work = common.WORK / f"run-{workload}-{os.getpid()}"
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.children = []
        self.attempted = 0
        self.failures = []
        self.samples = {}   # end-to-end metric -> list of values
        self.fresh_dirs = 0

    def remaining(self) -> float:
        return DEADLINE_S - (time.perf_counter() - self.started)

    def sample(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)

    def fail(self, why: str) -> None:
        self.failures.append(why)
        print(f"FAIL {why}", file=sys.stderr)

    def log_tail(self, log: str, lines: int = 20) -> str:
        """The end of a child's stderr log (the work dir is removed
        when the run ends)."""
        try:
            text = (self.work / log).read_text(errors="replace")
        except OSError:
            return ""
        return "\n".join(text.splitlines()[-lines:])

    def fresh_dir(self, stem: str) -> Path:
        self.fresh_dirs += 1
        path = self.work / f"{stem}-{self.fresh_dirs}"
        path.mkdir()
        return path

    def spawn(self, cmd: list, log: str = "child.log") -> Child:
        if self.remaining() <= 0:
            raise TimeoutError("run deadline passed")
        return Child(self, cmd, self.work / log)

    def close(self) -> None:
        for child in list(self.children):
            if child.alive():
                child.proc.kill()
            child.wait()
        shutil.rmtree(self.work, ignore_errors=True)


def dir_mb(path: Path) -> float:
    total = 0
    for root, _, files in os.walk(path):
        for name in files:
            try:
                total += os.stat(os.path.join(root, name)).st_size
            except OSError:
                continue
    return total / 1e6


# -- CLI workloads -----------------------------------------------------------------


def import_floor(run: Run) -> None:
    """Set-up of study-cold/frontier: a process that only imports the CLI."""
    for _ in range(SETUP_IMPORTS):
        out = run.spawn([sys.executable, "-c", "import repro.cli"]).wait()
        if out.code != 0:
            run.fail(f"importing repro.cli exited {out.code}")
        run.sample("setup_s", out.wall)


def cli_op(run: Run, cache: Path, trace_out: Path = None) -> Outcome:
    """One CLI operation, checked against its expected document."""
    json_out = run.work / "out.json"
    if json_out.exists():
        json_out.unlink()
    argv = common.cli_argv(run.workload, run.seed, str(cache),
                           str(json_out))
    if trace_out is None:
        cmd = [sys.executable, "-m", "repro", *argv]
    else:
        cmd = [sys.executable, str(common.BENCH_DIR / "tracer.py"),
               str(trace_out), *argv]
    run.attempted += 1
    out = run.spawn(cmd).wait()
    what = f"{run.workload} seed {run.seed}"
    if out.timed_out:
        run.fail(f"{what}: timed out")
    elif out.code != 0:
        run.fail(f"{what}: exit code {out.code}\n"
                 f"{run.log_tail('child.log')}")
    else:
        with open(json_out, encoding="utf-8") as fh:
            got = common.canonical(json.load(fh))
        want = common.read_expected(run.workload, run.seed)
        if got != want:
            where = common.first_difference(json.loads(got),
                                            json.loads(want))
            run.fail(f"{what}: --json output differs from "
                     f"{common.expected_path(run.workload, run.seed).name}"
                     f" at {where}")
    return out


def timed_ops(run: Run, cache_for) -> list:
    """Operations back to back until ``--seconds`` have passed."""
    walls = []
    began = time.perf_counter()
    while True:
        cache = cache_for()
        out = cli_op(run, cache)
        walls.append(out.wall)
        run.sample("wall_s", out.wall)
        run.sample("cpu_s", out.cpu)
        run.sample("peak_rss_mb", out.rss_mb)
        run.sample("cache_mb", dir_mb(cache))
        if time.perf_counter() - began >= run.seconds:
            return walls


def traced_passes(run: Run, one_pass) -> list:
    """Two traced passes, the second only to check the first's counts
    against; it is left out when the deadline leaves no room for it.

    A pass is a list of ``(trace document, traced outcome, untraced
    wall it compares against)``, one per traced process.
    """
    first = one_pass(1)
    took = sum(out.wall for _, out, _ in first)
    if run.remaining() < 1.5 * took + 5.0:
        print("NOTE no time left for a second traced pass; counts are "
              "not checked", file=sys.stderr)
        return [first]
    return [first, one_pass(2)]


def run_cli(run: Run, traced: bool) -> list:
    """Samples the end-to-end metrics; when *traced*, also returns the
    traced passes (see :func:`traced_passes`)."""
    if run.workload == "study-seeds-warm":
        fills = []
        for _ in range(1 if traced else WARM_FILLS):
            cache = run.fresh_dir("cache")
            out = cli_op(run, cache)
            fills.append((cache, out.wall))
            run.sample("setup_s", out.wall)
        warm = fills[0][0]
        walls = timed_ops(run, lambda: warm)

        def one_pass(tag):
            fill_doc = run.work / f"trace{tag}-fill.json"
            fill = cli_op(run, run.fresh_dir("cache"), fill_doc)
            op_doc = run.work / f"trace{tag}-op.json"
            op = cli_op(run, warm, op_doc)
            return [(fill_doc, fill, fills[0][1]),
                    (op_doc, op, statistics.median(walls))]
    else:
        if not traced:
            import_floor(run)
        walls = timed_ops(run, lambda: run.fresh_dir("cache"))

        def one_pass(tag):
            doc = run.work / f"trace{tag}-op.json"
            op = cli_op(run, run.fresh_dir("cache"), doc)
            return [(doc, op, statistics.median(walls))]
    return traced_passes(run, one_pass) if traced else []


# -- serve-mix ---------------------------------------------------------------------


def start_daemon(run: Run, traced_doc: Path = None,
                 result_cache: bool = True):
    """Spawn a daemon on a fresh cache; returns ``(child, socket, cache,
    seconds from spawn to its first status answer)``."""
    cache = run.fresh_dir("cache")
    # Relative to the checkout root (every process's working directory),
    # which keeps the path inside the AF_UNIX length limit.
    sock = os.path.relpath(cache / "s.sock", common.ROOT)
    argv = ["serve", "--socket", sock, "--cache-dir", str(cache)]
    if not result_cache:
        argv.append("--no-result-cache")
    if traced_doc is None:
        cmd = [sys.executable, "-m", "repro", *argv]
    else:
        cmd = [sys.executable, str(common.BENCH_DIR / "tracer.py"),
               str(traced_doc), *argv]
    child = run.spawn(cmd, "daemon.log")
    while True:
        if child.proc.poll() is not None or run.remaining() <= 0:
            raise RuntimeError("repro serve did not come up\n"
                               f"{run.log_tail('daemon.log')}")
        try:
            client = ServeClient(sock, timeout=run.remaining())
        except (FileNotFoundError, ConnectionRefusedError):
            time.sleep(0.005)
            continue
        with client:
            answer = client.request({"op": "status"})
        if not answer.get("ok"):
            raise RuntimeError(f"status answered {answer}")
        return child, sock, cache, time.perf_counter() - child.started


def serve_mix_once(run: Run, traced_doc: Path = None):
    """One daemon serving the seed's mix; returns ``(outcome, client
    report, set-up seconds, cache MB)``."""
    rounds = max(2, run.seconds // 4)
    child, sock, cache, setup = start_daemon(run, traced_doc)
    report = run.work / "client.json"
    client = run.spawn([sys.executable,
                        str(common.BENCH_DIR / "serve_client.py"),
                        sock, str(run.seed), str(rounds), str(report)],
                       "client.log").wait()
    if client.code != 0:
        child.proc.kill()
    out = child.wait()
    if client.code != 0 or out.code != 0:
        raise RuntimeError(f"serve-mix run failed: client exit "
                           f"{client.code}, daemon exit {out.code}\n"
                           f"{run.log_tail('client.log')}\n"
                           f"{run.log_tail('daemon.log')}")
    with open(report, encoding="utf-8") as fh:
        doc = json.load(fh)
    run.attempted += doc["requests"]
    for failure in doc["failures"]:
        run.fail(f"serve-mix item {failure['item']}: {failure['why']}")
    return out, doc, setup, dir_mb(cache)


def reference_checks(run: Run, doc: dict) -> None:
    """Re-ask a seed-drawn sample of fresh answers with the oracle engine."""
    rng = random.Random(f"serve-check:{run.seed}")
    picks = rng.sample(doc["fresh"], SERVE_REFERENCE_CHECKS)
    child, sock, _, _ = start_daemon(run, result_cache=False)
    try:
        with ServeClient(sock, timeout=run.remaining()) as client:
            for pick in picks:
                run.attempted += 1
                request = dict(pick["request"], engine="reference")
                answer = client.request(request)
                got = json.dumps(answer.get("result"), sort_keys=True)
                if not answer.get("ok") or got != pick["result"]:
                    run.fail(f"serve-mix {request['op']} "
                             f"{request.get('name') or request['benchmark']}"
                             ": answer differs from the reference engine")
            client.request({"op": "shutdown"})
    finally:
        child.wait()


def run_serve(run: Run, traced: bool):
    """Samples the end-to-end metrics; when *traced*, also returns the
    traced passes and the client report of the first."""
    if not traced:
        for _ in range(SERVE_STARTS - 1):
            child, sock, _, setup = start_daemon(run)
            run.sample("setup_s", setup)
            with ServeClient(sock, timeout=run.remaining()) as client:
                client.request({"op": "shutdown"})
            child.wait()
    out, doc, setup, cache_mb = serve_mix_once(run)
    run.sample("setup_s", setup)
    run.sample("cache_mb", cache_mb)
    run.sample("wall_s", out.wall)
    run.sample("cpu_s", out.cpu)
    run.sample("peak_rss_mb", out.rss_mb)
    latencies = sorted(doc["latencies_s"])
    for latency in latencies:
        run.sample("req_ms", latency * 1000.0)
    run.sample("req_per_s", doc["requests"] / doc["mix_s"])
    reference_checks(run, doc)
    if not traced:
        return [], None
    reports = []

    def one_pass(tag):
        trace_doc = run.work / f"trace{tag}-daemon.json"
        traced_out, report, _, _ = serve_mix_once(run, trace_doc)
        reports.append(report)
        return [(trace_doc, traced_out, out.wall)]
    return traced_passes(run, one_pass), reports[0]


# -- reporting ---------------------------------------------------------------------


def git_commit() -> str:
    git = common.ROOT / ".git"
    try:
        ref = (git / "HEAD").read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        ref = ref[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment() -> dict:
    return {"python": platform.python_version(),
            "nproc": os.cpu_count(),
            "commit": git_commit()}


def end_to_end_rows(run: Run) -> list:
    """``(name, value, unit, samples)`` for every end-to-end metric
    sampled in this run."""
    s = run.samples
    rows = [(name, statistics.median(s[name]), unit, len(s[name]))
            for name, unit in (("setup_s", "s"), ("wall_s", "s"),
                               ("cpu_s", "s"), ("peak_rss_mb", "MB"),
                               ("cache_mb", "MB"))
            if name in s]
    rows.append(("error_rate", len(run.failures) / max(1, run.attempted),
                 "ratio", run.attempted))
    if "req_ms" in s:
        req = s["req_ms"]
        rows += [("req_p50_ms", statistics.median(req), "ms", len(req)),
                 ("req_p90_ms", statistics.quantiles(req, n=10)[-1], "ms",
                  len(req)),
                 ("req_per_s", s["req_per_s"][0], "1/s", len(req))]
    return rows


def per_layer(run: Run, passes: list, declared: list,
              serve_doc: dict = None) -> dict:
    """The *declared* per-layer metrics of the first traced pass; zero
    where a workload does not reach the layer."""
    docs = []
    for traced in passes:
        docs.append([])
        for path, _, _ in traced:
            with open(path, encoding="utf-8") as fh:
                docs[-1].append(json.load(fh))
            for error in tracer.nesting_errors(docs[-1][-1]):
                run.fail(f"{path.name}: {error}")
    traced = passes[0]
    metrics = dict.fromkeys(declared, 0)
    metrics.update(tracer.summarize(docs[0]))
    traced_wall = sum(out.wall for _, out, _ in traced)
    metrics["trace.wall_s"] = traced_wall
    metrics["trace.overhead_s"] = traced_wall - sum(
        base for _, _, base in traced)
    if serve_doc is not None:
        stats = serve_doc["status"]["stats"]
        requests = serve_doc["requests"]
        metrics["serve.dispatches"] = stats["dispatches"]
        metrics["serve.dedup_coalesced"] = stats["dedup_coalesced"]
        metrics["serve.result_hits"] = stats["result_hits"]
        metrics["serve.result_hit_ratio"] = tracer._ratio(
            stats["result_hits"], stats["dispatches"])
        metrics["serve.evaluation_s"] = stats["evaluation_seconds"]
        metrics["serve.overhead_ms"] = 1000.0 * (
            sum(serve_doc["latencies_s"])
            - stats["evaluation_seconds"]) / requests
    if len(docs) > 1:
        metrics["trace.count_mismatches"] = check_counts(
            metrics, tracer.summarize(docs[1]))
    keep = common.WORK / "last"
    keep.mkdir(parents=True, exist_ok=True)
    for traced in passes:
        for path, _, _ in traced:
            shutil.copyfile(path, keep / f"{run.workload}-{path.name}")
    return metrics


def check_counts(first: dict, second: dict) -> int:
    """Flag every exact count the two traced passes disagree on."""
    before, after = tracer.counts(first), tracer.counts(second)
    differ = sorted(name for name in before
                    if before[name] != after.get(name))
    for name in differ:
        print(f"FLAG {name}: {before[name]} in the first traced pass, "
              f"{after.get(name)} in the second", file=sys.stderr)
    return len(differ)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=common.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (common.SRC / "repro" / "cli.py").is_file():
        print(f"error: no repro sources under {common.SRC}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    os.chdir(common.ROOT)
    with open(common.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        declared = json.load(fh)["per_layer" if args.trace
                                 else "end_to_end"]
    # Byte-compile up front so no timed process pays for it.
    subprocess.run([sys.executable, "-m", "compileall", "-q",
                    str(common.SRC / "repro")], check=True,
                   stdout=subprocess.DEVNULL, env=common.isolated_env())
    run = Run(args.workload, args.seed, args.seconds)
    traced = bool(args.trace)
    serve_doc = None
    try:
        if args.workload == "serve-mix":
            passes, serve_doc = run_serve(run, traced)
        else:
            passes = run_cli(run, traced)
        layers = (per_layer(run, passes, [m["name"] for m in declared],
                            serve_doc) if traced else None)
    finally:
        run.close()

    env = environment()
    role = {common.DEV_SEED: " (dev seed)",
            common.HELDOUT_SEED: " (held-out seed)"}.get(run.seed, "")
    inputs = ("" if run.workload == "serve-mix"
              else f", input set {common.pool_index(run.seed)}")
    print(f"workload {run.workload}  seed {run.seed}{role}{inputs}  "
          f"python {env['python']}  nproc {env['nproc']}  "
          f"commit {env['commit']}")
    rows = end_to_end_rows(run)
    for name, value, unit, n in rows:
        print(f"  {name:<12} {value:>12.4f} {unit:<6} n={n}")
    if traced:
        for name, value in layers.items():
            print(f"  {name:<36} {value:>14.6g}")
    # The reported metrics are exactly those BENCHMARK.json declares.
    values = layers if traced else {name: value
                                    for name, value, _, _ in rows}
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared}
    record = {"workload": run.workload, "seed": run.seed,
              "seconds": run.seconds, "trace": args.trace,
              "environment": env, "failures": run.failures,
              "end_to_end": {name: {"value": value, "unit": unit,
                                    "samples": n}
                             for name, value, unit, n in rows},
              "per_layer": layers}
    results = common.WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{run.workload}-seed{run.seed}-trace{args.trace}.json") \
        .write_text(json.dumps(record, indent=1))
    print(json.dumps({"correct": not run.failures,
                      "attempted": run.attempted,
                      "failed": len(run.failures),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
