"""Closed-loop client of the ``serve-mix`` workload.

    python3 perfbench/serve_client.py SOCKET SEED ROUNDS OUT.json

Opens two connections to a running ``repro serve`` daemon and sends the
request mix drawn from SEED, each connection waiting for its reply
before sending again, as a developer's tools would.  Each round holds:

* one fresh ``analyze`` request per suite source (seed-drawn input seed)
  and one fresh ``explore`` request per suite benchmark (seed-drawn
  budget), in seed-drawn order;
* as many repeats of already answered requests, which the daemon's
  result tier answers;
* four of the fresh requests sent on both connections at once, which
  the daemon's in-flight dedup coalesces onto one evaluation.

A repeat is only sent once its original has been answered, and a pair
only when both connections are idle, so the daemon's counters are a
function of SEED alone.  Every answer is checked: repeats must carry a
result identical to the first answer, and both halves of a pair must be
byte-identical.  The client asks for ``status``, shuts the daemon down
and writes latencies, failures, the status document and every fresh
answer to OUT.json.
"""

from __future__ import annotations

import json
import random
import selectors
import socket
import sys
import time

from repro.serve.client import ServeClient
from repro.suite.registry import all_benchmarks

#: ``flatten`` reads its input as pixel values and faults on the signed
#: random arrays ``analyze`` generates, so it is left out of analyze.
ANALYZE_SKIP = ("flatten",)
PAIRS_PER_ROUND = 4
TIMEOUT_S = 120.0


def build_mix(seed: int, rounds: int) -> list:
    """``[(kind, request, original_index)]``; kind is ``fresh``,
    ``pair`` or ``repeat`` (which names the fresh item it repeats)."""
    rng = random.Random(f"serve-mix:{seed}")
    specs = all_benchmarks()
    seen = set()
    items = []
    originals = []  # indices of the fresh items placed so far
    for _ in range(rounds):
        fresh = []
        for spec in specs:
            if spec.name not in ANALYZE_SKIP:
                fresh.append({"op": "analyze", "source": spec.source,
                              "name": spec.name,
                              "seed": rng.randrange(1_000_000)})
            while True:  # a budget already asked for would be a repeat
                budget = rng.randrange(1000, 4001, 50)
                if (spec.name, budget) not in seen:
                    seen.add((spec.name, budget))
                    break
            fresh.append({"op": "explore", "benchmark": spec.name,
                          "budget": budget})
        rng.shuffle(fresh)
        paired = set(rng.sample(range(len(fresh)), PAIRS_PER_ROUND))
        for i, request in enumerate(fresh):
            originals.append(len(items))
            items.append(("pair" if i in paired else "fresh", request, None))
            original = rng.choice(originals)
            items.append(("repeat", items[original][1], original))
    return items


def result_text(response: dict) -> str:
    """The answer without its per-dispatch ``meta`` field."""
    return json.dumps(response.get("result"), sort_keys=True)


class Connection:
    def __init__(self, path: str):
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.settimeout(TIMEOUT_S)
        self.sock.connect(path)
        self.buffer = b""
        self.item = None  # index of the item awaiting an answer
        self.sent = 0.0

    def send(self, index: int, request: dict) -> None:
        self.item = index
        self.sent = time.perf_counter()
        self.sock.sendall(json.dumps(request).encode("utf-8") + b"\n")

    def read_line(self):
        """One complete line if buffered, else ``None``."""
        line, sep, rest = self.buffer.partition(b"\n")
        if not sep:
            return None
        self.buffer = rest
        return line


class MixClient:
    def __init__(self, path: str, items: list):
        self.items = items
        self.conns = [Connection(path), Connection(path)]
        self.selector = selectors.DefaultSelector()
        for conn in self.conns:
            self.selector.register(conn.sock, selectors.EVENT_READ, conn)
        self.latencies = []
        self.failures = []
        self.answers = {}  # item index -> (raw line, result text)

    def fail(self, index: int, why: str) -> None:
        self.failures.append({"item": index, "why": why})

    def pending(self) -> int:
        return sum(conn.item is not None for conn in self.conns)

    def wait_one(self) -> None:
        """Block until one outstanding request is answered."""
        deadline = time.perf_counter() + TIMEOUT_S
        while True:
            for conn in self.conns:
                if conn.item is not None:
                    line = conn.read_line()
                    if line is not None:
                        self.answered(conn, line)
                        return
            left = deadline - time.perf_counter()
            if left <= 0:
                raise TimeoutError("no answer within "
                                   f"{TIMEOUT_S:.0f} s")
            for key, _ in self.selector.select(left):
                conn = key.data
                chunk = conn.sock.recv(1 << 16)
                if not chunk:
                    raise ConnectionError("daemon closed the connection")
                conn.buffer += chunk

    def answered(self, conn: Connection, line: bytes) -> None:
        index, conn.item = conn.item, None
        self.latencies.append(time.perf_counter() - conn.sent)
        kind, _, original = self.items[index]
        response = json.loads(line)
        if not response.get("ok"):
            self.fail(index, f"ok:false: {response.get('error')}")
            return
        text = result_text(response)
        if kind == "repeat":
            first = self.answers.get(original)
            if first is None or text != first[1]:
                self.fail(index, "repeat differs from the first answer")
        elif index in self.answers:  # the second half of a pair
            if line != self.answers[index][0]:
                self.fail(index, "pair answers are not byte-identical")
        else:
            self.answers[index] = (line, text)

    def idle(self, count: int = 1) -> list:
        while len(self.conns) - self.pending() < count:
            self.wait_one()
        return [conn for conn in self.conns if conn.item is None]

    def run(self) -> float:
        started = time.perf_counter()
        for index, (kind, request, original) in enumerate(self.items):
            if kind == "repeat":
                while original not in self.answers and \
                        not any(f["item"] == original
                                for f in self.failures):
                    self.wait_one()
            if kind == "pair":
                for conn in self.idle(2):
                    conn.send(index, request)
            else:
                self.idle()[0].send(index, request)
        while self.pending():
            self.wait_one()
        return time.perf_counter() - started

    def close(self) -> None:
        self.selector.close()
        for conn in self.conns:
            conn.sock.close()


def main() -> int:
    path, seed, rounds, out = sys.argv[1:5]
    items = build_mix(int(seed), int(rounds))
    client = MixClient(path, items)
    try:
        mix_s = client.run()
    finally:
        client.close()
    with ServeClient(path, timeout=TIMEOUT_S) as control:
        status = control.request({"op": "status"})["result"]
        control.request({"op": "shutdown"})
    fresh = [{"request": items[i][1], "result": text}
             for i, (_, text) in sorted(client.answers.items())]
    doc = {"requests": len(client.latencies), "mix_s": mix_s,
           "latencies_s": client.latencies, "failures": client.failures,
           "status": status, "fresh": fresh}
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
