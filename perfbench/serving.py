"""The served phase of every traced run: an open-loop load generator
against a ``python -m repro serve`` process.

The server runs in its own process with its default configuration, so its
interpreter lock is not shared with the load generator. Requests arrive on
a seeded Poisson schedule at one fixed rate and go out over
:data:`CONNECTIONS` connections; each is timed from when it was due, so a
stall also charges the requests queued behind it. Nine in ten requests
hit a prewarmed fingerprint; the rest carry an iteration count no earlier
request used and so compile cold beside the warm traffic. This is the
only path through wire, admission, workload resolution and the shared
plan cache's write and read sides.

Correctness: the first response for every fingerprint carries the result
values, which are checked against the NumPy reference; every later
response must carry the same SHA-256 digests.
"""

from __future__ import annotations

import itertools
import os
import queue
import random
import re
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import repro.data
from repro.algorithms import ALGORITHMS, get_algorithm, run_reference
from repro.server.client import ServerClient
from repro.server.protocol import decode_array

from inprocess import TOLERANCES

ROOT = Path(__file__).resolve().parent.parent
#: Where a traced server writes its spans (inside the checkout).
SCRATCH = ROOT / ".perfbench"

SERVE_DATASETS = ("red1", "cri2")
SERVE_SCALE = 0.2
SERVE_ITERATIONS = 8
#: Cold requests run ``SERVE_ITERATIONS -/+ k`` iterations, k in [1, this].
COLD_ITERATION_SPREAD = 6
#: Arrival rate, requests per second: about a fifth of the closed-loop
#: capacity over 2 connections (about 29 requests/s on a 2-core host).
RATE = 6.0
COLD_SHARE = 0.1
CONNECTIONS = 2
TENANTS = ("tenant-a", "tenant-b", "tenant-c", "tenant-d")
#: A run is invalid when the generator itself (not the server) sent late:
#: its 90th-percentile dispatch lateness exceeds this.
GENERATOR_LAG_LIMIT_MS = 50.0
START_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 60.0


def warm_pairs() -> list[tuple[str, str]]:
    return [(algorithm, dataset) for algorithm in sorted(ALGORITHMS)
            for dataset in SERVE_DATASETS]


def fingerprint(payload: dict) -> tuple[str, str, int]:
    return (payload["algorithm"], payload["dataset"], payload["iterations"])


def _payload(algorithm: str, dataset: str, iterations: int, tenant: str,
             return_values: bool) -> dict:
    return {"op": "run", "tenant": tenant, "algorithm": algorithm,
            "dataset": dataset, "scale": SERVE_SCALE,
            "iterations": iterations, "return_values": return_values}


def prewarm_payloads() -> list[dict]:
    return [_payload(algorithm, dataset, SERVE_ITERATIONS, TENANTS[0], True)
            for algorithm, dataset in warm_pairs()]


def schedule(seed: int, seconds: float) -> list[tuple[float, dict]]:
    """Seeded (due offset, payload) list for an open loop.

    It holds ``RATE * seconds`` requests whose arrival gaps are
    exponential, rescaled so the last is due at ``count / RATE`` seconds:
    every seed offers the same mean rate. Exactly ``COLD_SHARE`` of the
    requests (an even number), at seeded positions, are cold; warm
    and cold requests each walk seeded permutations of the (algorithm,
    dataset) pairs, and cold ones come in antithetic twins with iteration
    counts ``SERVE_ITERATIONS - k`` and ``SERVE_ITERATIONS + k``, so the
    mix, and the simulated time of the plans served, hardly move with the
    seed.
    """
    rng = random.Random(seed)
    count = round(RATE * seconds)
    gaps = [rng.expovariate(1.0) for _ in range(count)]
    stretch = count / RATE / sum(gaps)
    offsets = list(itertools.accumulate(gap * stretch for gap in gaps))
    # One cold request at a seeded position in each block of
    # 1 / COLD_SHARE requests, so cold compiles spread over the run.
    block = round(1 / COLD_SHARE)
    cold_count = 2 * (count // block // 2)
    cold_positions = {number * block + rng.randrange(block)
                      for number in range(cold_count)}
    pairs = warm_pairs()

    def walk():
        while True:
            order = list(pairs)
            rng.shuffle(order)
            yield from order

    warm_walk = walk()
    colds: list[tuple[str, str, int]] = []
    used: set[tuple[str, str, int]] = set()
    for algorithm, dataset in walk():
        if len(colds) >= cold_count:
            break
        spread = [k for k in range(1, COLD_ITERATION_SPREAD + 1)
                  if (algorithm, dataset, SERVE_ITERATIONS + k) not in used]
        k = rng.choice(spread)
        for iterations in (SERVE_ITERATIONS - k, SERVE_ITERATIONS + k):
            used.add((algorithm, dataset, iterations))
            colds.append((algorithm, dataset, iterations))
    cold_walk = iter(colds)
    result = []
    for index, offset in enumerate(offsets):
        tenant = rng.choice(TENANTS)
        if index in cold_positions:
            algorithm, dataset, iterations = next(cold_walk)
            result.append((offset, _payload(algorithm, dataset, iterations,
                                            tenant, True)))
        else:
            algorithm, dataset = next(warm_walk)
            result.append((offset, _payload(algorithm, dataset,
                                            SERVE_ITERATIONS, tenant, False)))
    return result


# ----------------------------------------------------------------------
# Server process
# ----------------------------------------------------------------------
class ServerProcess:
    """One ``repro serve`` process on an ephemeral port.

    The server starts through ``traced_server.py``, which installs the
    benchmark's span wrappers first and writes the spans to ``trace_path``
    when the server exits.
    """

    def __init__(self, trace_path: Path):
        SCRATCH.mkdir(exist_ok=True)
        env = dict(os.environ)
        env["PYTHONPATH"] = str(ROOT / "src")
        env["PYTHONUNBUFFERED"] = "1"
        command = [sys.executable,
                   str(Path(__file__).with_name("traced_server.py")),
                   str(trace_path)]
        self._stderr = open(SCRATCH / f"server-{os.getpid()}.log", "w+",
                            encoding="utf-8")
        self.process = subprocess.Popen(
            command + ["serve", "--port", "0"], cwd=ROOT, env=env,
            stdout=subprocess.PIPE, stderr=self._stderr, text=True)
        self.port = self._await_port()

    def _await_port(self) -> int:
        found: list[int] = []

        def read() -> None:
            line = self.process.stdout.readline()
            match = re.search(r"listening on [^:]+:(\d+)", line)
            if match:
                found.append(int(match.group(1)))

        reader = threading.Thread(target=read, daemon=True)
        reader.start()
        reader.join(START_TIMEOUT_S)
        if not found:
            self.kill()
            raise RuntimeError("server did not announce its port: "
                               + self._log())
        return found[0]

    def _log(self) -> str:
        self._stderr.flush()
        self._stderr.seek(0)
        return self._stderr.read()[-2000:]

    def client(self) -> ServerClient:
        return ServerClient("127.0.0.1", self.port, timeout=120.0)

    def peak_rss_mb(self) -> float:
        """The server's peak resident set (``VmHWM``), read from outside."""
        status = Path(f"/proc/{self.process.pid}/status").read_text()
        match = re.search(r"^VmHWM:\s+(\d+)\s+kB", status, re.MULTILINE)
        return int(match.group(1)) / 1024.0

    def drain(self) -> int:
        """Drain and wait for exit; returns the requests the drain shed.

        Raises when the server exits with a nonzero status or does not
        report its drain.
        """
        with self.client() as client:
            response = client.drain()
        if response.get("status") != "ok":
            raise RuntimeError(f"drain refused: {response}")
        try:
            stdout, _ = self.process.communicate(timeout=STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.kill()
            raise RuntimeError("server did not stop after drain") from None
        finally:
            self._stderr.close()
        if self.process.returncode != 0:
            raise RuntimeError(f"server exited with status "
                               f"{self.process.returncode}")
        match = re.search(r"drain: (\d+) completed, (\d+) shed", stdout)
        if match is None:
            raise RuntimeError(f"server reported no drain: {stdout[-500:]}")
        return int(match.group(2))

    def remove_log(self) -> None:
        Path(self._stderr.name).unlink(missing_ok=True)

    def kill(self) -> None:
        if self.process.poll() is None:
            self.process.kill()
        self.process.wait()
        if not self._stderr.closed:
            self._stderr.close()


# ----------------------------------------------------------------------
# Measurement
# ----------------------------------------------------------------------
@dataclass
class Served:
    """Responses of one server lifetime, in schedule order."""

    #: Per request: (due, sent, done, response or None, error or None).
    records: list[tuple] = field(default_factory=list)
    lags: list[float] = field(default_factory=list)
    #: First value-bearing response per fingerprint (prewarm included).
    first: dict = field(default_factory=dict)
    shed: int = 0
    peak_rss_mb: float = 0.0


def start_server(trace_path: Path):
    """Launch and prewarm a server; returns it and its prewarm responses."""
    server = ServerProcess(trace_path)
    try:
        first = {}
        with server.client() as client:
            for payload in prewarm_payloads():
                response = client.request(payload)
                if response.get("status") != "ok":
                    raise RuntimeError(f"prewarm failed: {response}")
                first[fingerprint(payload)] = response
    except BaseException:
        server.kill()
        raise
    return server, first


def open_loop(server: ServerProcess, plan: list[tuple[float, dict]]
              ) -> tuple[list[tuple], list[float]]:
    """Send ``plan`` on schedule over the connections; wait for all."""
    work: queue.Queue = queue.Queue()
    records: list[tuple | None] = [None] * len(plan)

    def connection() -> None:
        with server.client() as client:
            while True:
                item = work.get()
                if item is None:
                    return
                index, due, payload = item
                sent = time.perf_counter()
                try:
                    response, error = client.request(payload), None
                except (ConnectionError, OSError) as failure:
                    response, error = None, f"{type(failure).__name__}: " \
                                            f"{failure}"
                records[index] = (due, sent, time.perf_counter(), response,
                                  error)

    threads = [threading.Thread(target=connection, daemon=True)
               for _ in range(CONNECTIONS)]
    for thread in threads:
        thread.start()
    lags = []
    start = time.perf_counter() + 0.05
    for index, (offset, payload) in enumerate(plan):
        due = start + offset
        delay = due - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        lags.append(time.perf_counter() - due)
        work.put((index, due, payload))
    for _ in threads:
        work.put(None)
    for thread in threads:
        thread.join(STOP_TIMEOUT_S + 120.0)
    if any(thread.is_alive() for thread in threads):
        raise RuntimeError("load generator connections did not finish")
    return records, lags


def serve(plan: list[tuple[float, dict]], trace_path: Path) -> Served:
    """Start and prewarm a server, run ``plan``, read the server's peak
    RSS, then drain it."""
    served = Served()
    server, served.first = start_server(trace_path)
    try:
        served.records, served.lags = open_loop(server, plan)
        served.peak_rss_mb = server.peak_rss_mb()
    except BaseException:
        server.kill()
        raise
    served.shed = server.drain()
    server.remove_log()
    for (offset, payload), record in zip(plan, served.records):
        response = record[3]
        if payload["return_values"] and response is not None \
                and response.get("status") == "ok":
            served.first.setdefault(fingerprint(payload), response)
    return served


def check(served: Served, plan: list[tuple[float, dict]]
          ) -> tuple[list[bool], list[str]]:
    """Per request: ok and correct? Plus a description of each failure."""
    bad_fingerprints: dict = {}
    inputs: dict = {}
    for key, response in served.first.items():
        problem = _check_values(key, response, inputs)
        if problem is not None:
            bad_fingerprints[key] = problem
    passed, failures = [], []
    for (offset, payload), record in zip(plan, served.records):
        key = fingerprint(payload)
        response, error = record[3], record[4]
        problem = error
        if problem is None and response.get("status") != "ok":
            problem = f"{response.get('status')}: {response.get('error')}"
        if problem is None:
            problem = bad_fingerprints.get(key)
        if problem is None and key in served.first:
            expected = {name: entry["sha256"] for name, entry
                        in served.first[key]["results"].items()}
            got = {name: entry["sha256"]
                   for name, entry in response["results"].items()}
            if got != expected:
                problem = "result digest differs from the first response"
        passed.append(problem is None)
        if problem is not None:
            failures.append(f"{'/'.join(map(str, key))}: {problem}")
    if served.shed:
        failures.append(f"drain shed {served.shed} requests")
    return passed, failures


def _check_values(key: tuple[str, str, int], response: dict,
                  inputs: dict) -> str | None:
    """Compare a response's values with the reference on the inputs the
    server generated (``inputs`` caches them per algorithm and dataset)."""
    algorithm, dataset, iterations = key
    if (algorithm, dataset) not in inputs:
        matrix = repro.data.load_dataset(dataset, scale=SERVE_SCALE).matrix
        inputs[algorithm, dataset] = \
            get_algorithm(algorithm).make_inputs(matrix)[1]
    reference = run_reference(algorithm, inputs[algorithm, dataset],
                              iterations)
    tolerance = TOLERANCES[algorithm]
    for name, entry in response["results"].items():
        value = decode_array(entry)
        if not np.allclose(value, reference[name], atol=tolerance,
                           rtol=10 * tolerance):
            return f"output {name} differs from the reference"
    return None


def server_metrics(served: Served) -> dict[str, float]:
    """Per-layer server metrics read from the responses."""
    ok = [record for record in served.records
          if record[3] is not None and record[3].get("status") == "ok"]

    def field_of(name: str) -> list[float]:
        return [record[3][name] for record in ok]

    wire = [(record[2] - record[1]) * 1e3 - record[3]["total_ms"]
            for record in ok]
    execute = field_of("execute_ms")
    rejected = sum(1 for record in served.records
                   if record[3] is not None
                   and record[3].get("status") == "rejected")
    cold = sum(1 for record in ok if record[3].get("plan_cache") != "hit")
    return {
        "server.resolve_wait.p50_ms": statistics.median(field_of("queue_ms")),
        "server.compile.p50_ms": statistics.median(field_of("compile_ms")),
        "server.execute.p50_ms": statistics.median(execute),
        "server.execute.p90_ms": p90(execute),
        "server.total.p50_ms": statistics.median(field_of("total_ms")),
        "server.wire.p50_ms": statistics.median(wire),
        "server.rejected": rejected,
        "server.cold_share": cold / len(ok) if ok else 0.0,
        "generator.lag_p90_ms": p90(served.lags) * 1e3,
    }


def p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10)[-1]
