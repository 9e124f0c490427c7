"""The two in-process workloads: ``compile-cold`` and ``exec-warm``.

Both draw a fixed pool of inputs from the workload seed, then run whole
passes over it, each in a fresh seeded order, so every run sees the same
mix of (algorithm, dataset) pairs and a faster program runs more passes,
never a different mix. The seed changes the generated data (dataset and
input seeds) and the pass order.

Each distinct plan is executed once outside the timed region and checked
against the independent NumPy reference :func:`repro.algorithms.
run_reference`; its simulated seconds make ``plan_sim_s``. Every timed op
must reproduce that checked plan: a recompile the same plan, an execute
the same outputs bit for bit and the same simulated seconds.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field

import numpy as np

import repro.data
from repro.algorithms import ALGORITHMS, get_algorithm, run_reference
from repro.engines import make_engine

import hostclock

#: Per-algorithm tolerances, copied from ``tests/test_integration.py``;
#: a value passes when ``np.allclose(value, reference, atol=tol,
#: rtol=10 * tol)``.
TOLERANCES = {"gd": 1e-6, "dfp": 1e-4, "bfgs": 1e-4, "gnmf": 1e-6,
              "partial_dfp": 1e-6, "ridge": 1e-6, "power_iteration": 1e-6,
              "logistic": 1e-6}

#: The six Table-2 minis.
MINIS = ("cri1", "cri2", "cri3", "red1", "red2", "red3")

#: compile-cold: the two algorithms whose compiles take 100-300 ms (gd-
#: and gnmf-class compiles take under 15 ms and would make the median
#: bimodal), at a small scale, each pair at fixed iteration counts. The
#: seed draws only the data, which changes no plan, so every seed asks the
#: compiler for the same work. Counts stay at or below 16: past
#: convergence DFP's H update amplifies roundoff about 30x every two
#: iterations, so at 20 any reordered plan's H differs from the
#: reference's by up to 7% (x still agrees to 1e-14), while at 16 the two
#: agree to 1e-5.
COLD_ALGORITHMS = ("dfp", "bfgs")
COLD_SCALE = 0.1
COLD_ITERATIONS = (5, 13)

#: exec-warm: every algorithm on dense and sparse minis at a moderate
#: scale with one fixed iteration count, so an op's cost depends only on
#: its (algorithm, dataset) pair.
WARM_SCALE = 0.3
WARM_ITERATIONS = 8


@dataclass
class Entry:
    """One distinct input of a workload's pool."""

    algorithm: str
    dataset: str
    iterations: int
    meta: dict
    data: dict
    compiled: object = None
    #: :func:`plan_identity` of ``compiled``.
    plan: tuple | None = None
    #: Simulated execution seconds of the checked plan.
    sim_seconds: float | None = None
    outputs: dict = field(default_factory=dict)

    @property
    def key(self) -> str:
        return f"{self.algorithm}/{self.dataset}/{self.iterations}"

    @property
    def program(self):
        return get_algorithm(self.algorithm).program(self.iterations)

    @property
    def symmetric(self):
        return get_algorithm(self.algorithm).symmetric_inputs


def new_engine():
    """A ReMac engine as ``repro run`` builds one: fusion on."""
    return make_engine("remac").with_fusion(True)


def _load(rng: random.Random, datasets, scale: float) -> dict:
    """Generate each dataset once, from a seed drawn from ``rng``."""
    return {name: repro.data.load_dataset(
                name, seed=rng.randrange(2**31), scale=scale).matrix
            for name in datasets}


def cold_pool(seed: int) -> list[Entry]:
    rng = random.Random(seed)
    matrices = _load(rng, MINIS, COLD_SCALE)
    pool = []
    for algorithm in COLD_ALGORITHMS:
        for dataset in MINIS:
            meta, data = get_algorithm(algorithm).make_inputs(
                matrices[dataset], seed=rng.randrange(2**31))
            for iterations in COLD_ITERATIONS:
                pool.append(Entry(algorithm, dataset, iterations, meta, data))
    return pool


def warm_pool(seed: int, datasets=MINIS) -> list[Entry]:
    rng = random.Random(seed)
    matrices = _load(rng, datasets, WARM_SCALE)
    pool = []
    for algorithm in sorted(ALGORITHMS):
        for dataset in datasets:
            meta, data = get_algorithm(algorithm).make_inputs(
                matrices[dataset], seed=rng.randrange(2**31))
            pool.append(Entry(algorithm, dataset, WARM_ITERATIONS, meta,
                              data))
    return pool


def plan_identity(compiled) -> tuple:
    """What makes two compiled plans the same plan: the rewritten program's
    text, the options applied and the estimated cost."""
    return (repr(compiled.program),
            tuple(str(option) for option in compiled.applied_options),
            compiled.estimated_cost)


def execute_entry(engine, entry: Entry):
    return engine.execute(entry.compiled, entry.data,
                          symmetric=entry.symmetric)


def record_outputs(entry: Entry, result) -> None:
    entry.sim_seconds = result.execution_seconds
    entry.outputs = {name: result.value(name)
                     for name in get_algorithm(entry.algorithm).outputs}


def same_outputs(entry: Entry, result) -> bool:
    """Whether ``result`` reproduces the entry's recorded outputs bit for
    bit."""
    return all(np.array_equal(result.value(name), value)
               for name, value in entry.outputs.items())


def check_entry(entry: Entry) -> str | None:
    """Compare an entry's outputs with the NumPy reference; None if equal."""
    reference = run_reference(entry.algorithm, entry.data, entry.iterations)
    tolerance = TOLERANCES[entry.algorithm]
    for name, value in entry.outputs.items():
        if not np.allclose(value, reference[name], atol=tolerance,
                           rtol=10 * tolerance):
            return f"{entry.key}: output {name} differs from the reference"
    return None


@dataclass
class Op:
    """One timed op of a measured phase."""

    key: str
    #: Wall seconds of the op, None when it raised.
    latency: float | None
    #: :func:`hostclock.scale` just before the op.
    scale: float
    #: Wall seconds of the op and its checks.
    slot: float

    @property
    def normalized(self) -> float | None:
        """Host-normalized latency in seconds."""
        return None if self.latency is None else self.latency * self.scale


@dataclass
class Outcome:
    """What one measured phase produced."""

    ops: list[Op] = field(default_factory=list)
    wall_seconds: float = 0.0
    failures: list[str] = field(default_factory=list)

    @property
    def busy_seconds(self) -> float:
        """Host-normalized seconds spent in ops and their checks."""
        return sum(op.slot * op.scale for op in self.ops)


def _passes(pool: list[Entry], seed: int):
    """Endless seeded passes over the pool, each in a fresh order."""
    rng = random.Random(seed ^ 0x5EED)
    while True:
        order = list(pool)
        rng.shuffle(order)
        yield order


def run_phase(pool: list[Entry], seed: int, op, seconds: float,
              min_ops: int, max_passes: int | None = None,
              tracer=None) -> Outcome:
    """Run whole passes until ``seconds`` and ``min_ops`` are both reached.

    ``op(entry)`` times itself and returns its latency in seconds, raising
    on a failed op; the reference loop of :mod:`hostclock` runs before
    each op, outside its slot. With ``max_passes`` the phase runs exactly
    that many passes instead (the fixed work of a traced run).
    """
    outcome = Outcome()
    started = time.perf_counter()
    for number, order in enumerate(_passes(pool, seed)):
        if max_passes is not None:
            if number >= max_passes:
                break
        elif len(outcome.ops) >= min_ops \
                and time.perf_counter() - started >= seconds:
            break
        for entry in order:
            scale = hostclock.scale()
            if tracer is not None:
                tracer.op_id = len(outcome.ops)
            slot_started = time.perf_counter()
            try:
                latency = op(entry)
            except Exception as error:  # a failed op is counted, not fatal
                latency = None
                outcome.failures.append(
                    f"{entry.key}: {type(error).__name__}: {error}")
            outcome.ops.append(Op(entry.key, latency, scale,
                                  time.perf_counter() - slot_started))
    outcome.wall_seconds = time.perf_counter() - started
    if tracer is not None:
        tracer.op_id = None
    return outcome


# ----------------------------------------------------------------------
# compile-cold
# ----------------------------------------------------------------------
def cold_setup(seed: int) -> list[Entry]:
    """Draw the pool and warm the process up with one throwaway compile."""
    pool = cold_pool(seed)
    entry = pool[0]
    new_engine().compile(entry.program, entry.meta, entry.data,
                         iterations=entry.iterations)
    return pool


def cold_op(entry: Entry) -> float:
    """One ``Engine.compile`` on a fresh engine (empty cache and memo)."""
    engine = new_engine()
    started = time.perf_counter()
    compiled = engine.compile(entry.program, entry.meta, entry.data,
                              iterations=entry.iterations)
    latency = time.perf_counter() - started
    if entry.compiled is None:
        entry.compiled, entry.plan = compiled, plan_identity(compiled)
    elif plan_identity(compiled) != entry.plan:
        raise AssertionError("recompiling chose another plan")
    return latency


def cold_check(pool: list[Entry]) -> list[str]:
    """Execute every compiled plan once and check it against the reference."""
    failures = []
    engine = new_engine()
    for entry in pool:
        if entry.compiled is None:
            failures.append(f"{entry.key}: never compiled")
            continue
        record_outputs(entry, execute_entry(engine, entry))
        problem = check_entry(entry)
        if problem is not None:
            failures.append(problem)
    return failures


# ----------------------------------------------------------------------
# exec-warm
# ----------------------------------------------------------------------
def warm_setup(seed: int, datasets=MINIS):
    """Draw the pool, compile one plan per entry, execute each once.

    The executions prewarm lazy state (kernel pools and their calibration)
    and record the outputs and simulated seconds every later execute of
    the same plan must reproduce.
    """
    pool = warm_pool(seed, datasets)
    engine = new_engine()
    for entry in pool:
        entry.compiled = engine.compile(entry.program, entry.meta, entry.data,
                                        iterations=entry.iterations)
        record_outputs(entry, execute_entry(engine, entry))
    return engine, pool


def warm_op(engine):
    def op(entry: Entry) -> float:
        """One ``Engine.execute`` of a resident plan."""
        started = time.perf_counter()
        result = execute_entry(engine, entry)
        latency = time.perf_counter() - started
        if result.execution_seconds != entry.sim_seconds:
            raise AssertionError("simulated seconds differ from the "
                                 "prewarm execution of the same plan")
        if not same_outputs(entry, result):
            raise AssertionError("outputs differ from the prewarm "
                                 "execution of the same plan")
        return latency
    return op


def warm_check(pool: list[Entry]) -> list[str]:
    return [problem for problem in map(check_entry, pool)
            if problem is not None]
