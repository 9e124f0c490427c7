"""Self-checks of the benchmark: traced counts repeat, seeds draw inputs.

Run with ``python3 -m pytest perfbench -q`` from the repository root.
Each traced run takes about half a minute.
"""

from __future__ import annotations

import pytest

import run

run._bootstrap()

import inprocess  # noqa: E402
import serving  # noqa: E402
from repro.cluster import PRIMITIVES  # noqa: E402
from tracing import KERNEL_GROUPS  # noqa: E402

#: Counts that depend only on the seed, never on timing.
DETERMINISTIC = ("core.probe.entries_explored", "core.search.windows",
                 "core.optimizer.options_applied", "matrix.blockpool.tiles",
                 "plan_sim_s")


def _counts(report: run.Report) -> dict:
    return {name: value for name, value in report.metrics.items()
            if name in DETERMINISTIC or name.startswith("cluster.bytes_")
            or (name.startswith("runtime.physical.")
                and name.endswith(".calls"))}


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_counts_repeat_on_one_seed(workload):
    first, second = run.Report(), run.Report()
    run.run_traced(workload, 7, first)
    run.run_traced(workload, 7, second)
    assert first.failed == 0 and not first.failures and not first.invalid
    counts = _counts(first)
    # every primitive, plus bytes_materialized
    assert len(counts) == len(DETERMINISTIC) + len(PRIMITIVES) + 1 \
        + len(KERNEL_GROUPS)
    assert counts == _counts(second)


def _signature(pool) -> list:
    """Each entry's key and the sum of its data matrix (``A`` or ``V``)."""
    return [(entry.key, float(entry.data[next(iter(entry.meta))].sum()))
            for entry in pool]


def test_another_seed_draws_other_inputs():
    assert _signature(inprocess.cold_pool(1)) \
        == _signature(inprocess.cold_pool(1))
    assert _signature(inprocess.cold_pool(1)) \
        != _signature(inprocess.cold_pool(2))
    assert _signature(inprocess.warm_pool(1, ("red1", "cri2"))) \
        != _signature(inprocess.warm_pool(2, ("red1", "cri2")))
    assert serving.schedule(1, 8.0) == serving.schedule(1, 8.0)
    assert serving.schedule(1, 8.0) != serving.schedule(2, 8.0)
