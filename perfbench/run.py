"""Benchmark of the ReMac reproduction: one workload per run.

Usage (from the repository root)::

    python3 perfbench/run.py --workload compile-cold --seed 1 --seconds 12 --trace 0

Workloads (see ``DESIGN.md`` beside this file):

* ``compile-cold`` — serial ``Engine.compile`` calls on fresh engines;
* ``exec-warm`` — serial ``Engine.execute`` calls of resident plans.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``; their
times are host-normalized (``hostclock.py``), and the raw wall times are
printed beside them.
``--trace 1`` runs a fixed amount of the workload twice, untraced and then
traced (spans recorded around each layer's public functions), then an
open loop against a traced ``repro serve`` process, and reports the
per-layer metrics. Every metric line is printed with its unit; the last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import re
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = ("compile-cold", "exec-warm")
#: Set-ups per untraced run; ``setup_s`` is their median. A compile-cold
#: set-up takes about 0.25 s and varies most, an exec-warm one about 7 s.
SETUP_REPEATS = {"compile-cold": 5, "exec-warm": 3}
#: Fewest timed ops per untraced run, so the 90th percentile has more
#: than ten samples beyond it.
MIN_OPS = 110
#: An in-process op counts towards ``slo_share`` when it succeeds within
#: this many host-normalized milliseconds.
LATENCY_LIMIT_MS = 1000.0
#: Passes over the pool in each half (untraced, traced) of a traced run.
TRACE_PASSES = {"compile-cold": 1, "exec-warm": 2}
#: Datasets of the light execute phase of a traced ``compile-cold`` run.
LIGHT_EXEC_DATASETS = ("red1", "cri2")
#: Length of the open loop in the served phase of a traced run.
SERVE_SECONDS = 8.0


def _bootstrap() -> None:
    """Put the program and the benchmark on the path, or exit nonzero."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}",
              file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))


def _spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def peak_rss_mb() -> float:
    """This process's peak resident set (``VmHWM``)."""
    status = Path("/proc/self/status").read_text()
    match = re.search(r"^VmHWM:\s+(\d+)\s+kB", status, re.MULTILINE)
    return int(match.group(1)) / 1024.0


class Report:
    """Outcome of one run: op counts, failures by name, metric values."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.invalid: list[str] = []
        self.metrics: dict[str, float] = {}
        #: Lines printed beside the metrics, such as the raw wall times.
        self.notes: list[str] = []

    def end_to_end(self, outcome, passed: list, plan_sim_s: float,
                   setup_s: float, rss_mb: float) -> None:
        """Score a measured phase; ``passed`` are its ops that passed.

        Times are host-normalized (see ``hostclock``); the raw wall times
        go to ``notes``.
        """
        latencies = [op.normalized for op in passed]
        within = sum(1 for latency in latencies
                     if latency * 1e3 <= LATENCY_LIMIT_MS)
        self.attempted = len(outcome.ops)
        self.failed = self.attempted - len(passed)
        self.metrics.update({
            "latency_p50_ms": statistics.median(latencies) * 1e3,
            "latency_p90_ms": statistics.quantiles(latencies, n=10)[-1]
            * 1e3,
            "ops_per_s": len(passed) / outcome.busy_seconds,
            "slo_share": within / self.attempted,
            "ok_share": len(passed) / self.attempted,
            "plan_sim_s": plan_sim_s,
            "setup_s": setup_s,
            "peak_rss_mb": rss_mb,
        })
        wall = [op.latency for op in passed]
        self.notes.append(
            f"wall time: latency p50 {statistics.median(wall) * 1e3:.1f} ms"
            f", p90 {statistics.quantiles(wall, n=10)[-1] * 1e3:.1f} ms, "
            f"{len(passed) / outcome.wall_seconds:.2f} ops/s; host scale "
            f"median {statistics.median(op.scale for op in outcome.ops):.3f}")


# ----------------------------------------------------------------------
# In-process workloads
# ----------------------------------------------------------------------
def _in_process_setup(workload: str, seed: int):
    """(pool, op) of a workload; an exec-warm op holds its engine."""
    import inprocess
    if workload == "compile-cold":
        return inprocess.cold_setup(seed), inprocess.cold_op
    engine, pool = inprocess.warm_setup(seed)
    return pool, inprocess.warm_op(engine)


def _in_process_check(workload: str, pool) -> list[str]:
    import inprocess
    if workload == "compile-cold":
        return inprocess.cold_check(pool)
    return inprocess.warm_check(pool)


def _passed(outcome, failures: list[str]) -> list:
    """The ops of ``outcome`` that raised nothing and whose entry has no
    failure."""
    bad = {failure.split(":", 1)[0] for failure in failures}
    return [op for op in outcome.ops
            if op.latency is not None and op.key not in bad]


def _normalized_p50(ops: list) -> float:
    return statistics.median(op.normalized for op in ops)


def run_in_process(workload: str, seed: int, seconds: float,
                   report: Report) -> None:
    import hostclock
    import inprocess
    setup_times, wall_times = [], []
    for _ in range(SETUP_REPEATS[workload]):
        pool = op = None
        gc.collect()  # free the previous set-up before timing the next
        before = hostclock.scale()
        started = time.perf_counter()
        pool, op = _in_process_setup(workload, seed)
        wall_times.append(time.perf_counter() - started)
        setup_times.append(wall_times[-1] * (before + hostclock.scale()) / 2)
    gc.collect()  # no set-up garbage is collected inside the timed phase
    outcome = inprocess.run_phase(pool, seed, op, seconds, MIN_OPS)
    failures = outcome.failures + _in_process_check(workload, pool)
    report.failures = failures
    report.end_to_end(
        outcome, _passed(outcome, failures),
        statistics.fmean(entry.sim_seconds for entry in pool),
        statistics.median(setup_times), peak_rss_mb())
    report.notes.append(
        f"wall time: set-up {statistics.median(wall_times):.3f} s")


def trace_in_process(workload: str, seed: int, report: Report) -> dict:
    import inprocess
    from tracing import Tracer
    tracer = Tracer()
    with tracer:
        pool, op = _in_process_setup(workload, seed)
    passes = TRACE_PASSES[workload]
    untraced = inprocess.run_phase(pool, seed, op, 0, 0, max_passes=passes)
    with tracer:
        traced = inprocess.run_phase(pool, seed, op, 0, 0,
                                     max_passes=passes, tracer=tracer)
        failures = untraced.failures + traced.failures \
            + _in_process_check(workload, pool)
        if workload == "compile-cold":
            # Load the executor lightly too: one warm pass on a dense and
            # a sparse mini reaches every kernel group.
            light = inprocess.warm_setup(seed, LIGHT_EXEC_DATASETS)[1]
            failures += inprocess.warm_check(light)
    report.failures = failures
    report.attempted = len(untraced.ops) + len(traced.ops)
    untraced_passed = _passed(untraced, failures)
    traced_passed = _passed(traced, failures)
    report.failed = report.attempted - len(untraced_passed) \
        - len(traced_passed)
    report.metrics["trace_overhead"] = \
        _normalized_p50(traced_passed) / _normalized_p50(untraced_passed)
    report.metrics["plan_sim_s"] = statistics.fmean(
        entry.sim_seconds for entry in pool)
    return tracer.export()


# ----------------------------------------------------------------------
# Served phase of a traced run
# ----------------------------------------------------------------------
def trace_serve(seed: int, report: Report, exports: list) -> None:
    """Run the open loop against a traced server and score its responses.

    Checking the responses (reference runs in this process) is traced
    too, for ``data.load_dataset``.
    """
    import serving
    from tracing import Tracer
    plan = serving.schedule(seed, SERVE_SECONDS)
    trace_path = serving.SCRATCH / f"server-trace-{seed}.json"
    served = serving.serve(plan, trace_path=trace_path)
    with open(trace_path, encoding="utf-8") as handle:
        exports.append(json.load(handle))
    trace_path.unlink()
    tracer = Tracer()
    with tracer:
        passed, failures = serving.check(served, plan)
    exports.append(tracer.export())
    report.failures.extend(failures)
    report.attempted += len(plan) + served.shed
    report.failed += len(plan) + served.shed - sum(passed)
    lag_ms = serving.p90(served.lags) * 1e3
    if lag_ms > serving.GENERATOR_LAG_LIMIT_MS:
        report.invalid.append(
            f"load generator ran late: p90 dispatch lag {lag_ms:.1f} ms "
            f"> {serving.GENERATOR_LAG_LIMIT_MS} ms")
    report.metrics.update(serving.server_metrics(served))
    report.metrics["server.peak_rss_mb"] = served.peak_rss_mb


def run_traced(workload: str, seed: int, report: Report) -> dict:
    from tracing import layer_metrics, merge
    exports = [trace_in_process(workload, seed, report)]
    trace_serve(seed, report, exports)
    trace = merge(exports)
    report.metrics.update(layer_metrics(trace))
    return trace


# ----------------------------------------------------------------------
def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _bootstrap()
    spec = _spec()
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    report = Report()
    if args.trace:
        trace = run_traced(args.workload, args.seed, report)
        import serving
        out = serving.SCRATCH / f"trace-{args.workload}-{args.seed}.json"
        with open(out, "w", encoding="utf-8") as handle:
            json.dump(trace, handle)
    else:
        run_in_process(args.workload, args.seed, args.seconds, report)

    missing = [metric["name"] for metric in wanted
               if metric["name"] not in report.metrics]
    if missing:
        print(f"perfbench: metrics not measured: {', '.join(missing)}",
              file=sys.stderr)
        return 1
    metrics = {metric["name"]: {"value": report.metrics[metric["name"]],
                                "unit": metric["unit"]}
               for metric in wanted}
    print(f"workload {args.workload} seed {args.seed}: "
          f"{report.attempted} ops attempted, {report.failed} failed")
    for name, entry in metrics.items():
        print(f"  {name} = {entry['value']:.6g} {entry['unit']}")
    for note in report.notes:
        print(f"  {note}")
    for problem in report.failures + report.invalid:
        print(f"  FAILED {problem}")
    correct = not report.failures and not report.invalid \
        and report.failed == 0
    print(json.dumps({"correct": correct, "attempted": report.attempted,
                      "failed": report.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
