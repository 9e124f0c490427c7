"""Pin the probe DP's plan against the original frozenset formulation.

The DP in :mod:`repro.core.probe` keys candidate entries by ``int``
bitmasks. This module keeps the earlier formulation, which keys them by
frozensets of ``(option_id, occurrence_index)`` pairs, as a small oracle
and checks that both agree exactly: the same chosen options, chain cost,
plain cost and number of explored entries. Agreement of
``entries_explored`` under tight caps shows the entry caps prune the same
entries in the same tie order.
"""

import importlib

import pytest

from repro.config import ClusterConfig, OptimizerConfig
from repro.algorithms import ALGORITHMS, get_algorithm
from repro.core import ReMacOptimizer, blockwise_search, build_chains, probe
from repro.core.build import build_all_tables, cost_option, \
    statement_sketch_envs
from repro.core.cost import CostModel, sketch_inputs
from repro.core.probe import ProbeResult
from repro.core.sparsity import make_estimator
from repro.data import load_dataset
from repro.lang import parse
from repro.matrix.meta import MatrixMeta

INFINITY = float("inf")
#: The module itself; ``repro.core.probe`` names the re-exported function.
probe_module = importlib.import_module("repro.core.probe")


# ----------------------------------------------------------------------
# Oracle: the frozenset-keyed DP
# ----------------------------------------------------------------------
def oracle_probe_with_tables(chains, tables, costings, options,
                             entry_cap, global_cap) -> ProbeResult:
    result = ProbeResult(costings=costings)
    by_id = {opt.option_id: opt for opt in options}
    group_size = {opt.option_id: len(opt.occurrences) for opt in options}
    activations: dict = {}
    option_sites: dict = {}
    for opt in options:
        for occ_idx, occ in enumerate(opt.occurrences):
            activations.setdefault(occ.site_id, {}).setdefault(
                occ.span, []).append((opt.option_id, occ_idx))
            option_sites.setdefault(opt.option_id, set()).add(occ.site_id)

    site_roots = []
    for site in chains.sites:
        table = tables[site.site_id]
        n = len(site)
        state = {}
        empty = frozenset()
        for i in range(n):
            state[(i, i)] = {empty: 0.0}
        site_acts = activations.get(site.site_id, {})
        for width in range(2, n + 1):
            for i in range(0, n - width + 1):
                j = i + width - 1
                entries = {}
                for k in range(i, j):
                    op_cost = table.op_cost[(i, k, j)]
                    for key_l, cost_l in state[(i, k)].items():
                        for key_r, cost_r in state[(k + 1, j)].items():
                            key = key_l | key_r
                            cost = cost_l + cost_r + op_cost
                            if cost < entries.get(key, INFINITY):
                                entries[key] = cost
                fused = table.fused_cost.get((i, j))
                if fused is not None:
                    for key, cost in state[(i + 2, j)].items():
                        total = cost + fused
                        if total < entries.get(key, INFINITY):
                            entries[key] = total
                for pair in site_acts.get((i, j), ()):
                    gid, occ_idx = pair
                    occurrence = by_id[gid].occurrences[occ_idx]
                    cost = costings[gid].activation_cost(occurrence, n,
                                                         table.weight)
                    key = frozenset((pair,))
                    if cost < entries.get(key, INFINITY):
                        entries[key] = cost
                result.entries_explored += len(entries)
                state[(i, j)] = _oracle_prune(entries, entry_cap,
                                              lambda kv: kv[1])
        root = state[(0, n - 1)] if n >= 1 else {empty: 0.0}
        site_roots.append((site.site_id, root))
        result.plain_cost += table.plain_cost[(0, n - 1)] if n >= 2 else 0.0

    combined = {frozenset(): (0.0, frozenset())}
    processed = set()
    for site_id, root in site_roots:
        processed.add(site_id)
        merged = {}
        for key_g, (cost_g, applied) in combined.items():
            for key_s, cost_s in root.items():
                key = key_g | key_s
                cost = cost_g + cost_s
                current = merged.get(key)
                if current is None or cost < current[0]:
                    merged[key] = (cost, applied)
        combined = _oracle_resolve(merged, group_size, option_sites,
                                   processed)
        combined = _oracle_prune(combined, global_cap, lambda kv: kv[1][0])
        result.entries_explored += len(combined)

    best_cost = INFINITY
    best_applied = frozenset()
    for key, (cost, applied) in combined.items():
        if not key and cost < best_cost:
            best_cost = cost
            best_applied = applied
    result.chain_cost = best_cost if best_cost < INFINITY \
        else result.plain_cost
    result.chosen = [by_id[gid] for gid in sorted(best_applied)]
    return result


def _oracle_resolve(entries, group_size, option_sites, processed):
    resolvable = {gid for gid, sites in option_sites.items()
                  if sites <= processed}
    if not resolvable:
        return entries
    resolved = {}
    for key, (cost, applied) in entries.items():
        pending = set()
        new_applied = set(applied)
        counts = {}
        for gid, occ_idx in key:
            if gid in resolvable:
                counts[gid] = counts.get(gid, 0) + 1
            else:
                pending.add((gid, occ_idx))
        if any(count != group_size[gid] for gid, count in counts.items()):
            continue
        new_applied.update(counts)
        new_key = frozenset(pending)
        current = resolved.get(new_key)
        if current is None or cost < current[0]:
            resolved[new_key] = (cost, frozenset(new_applied))
    return resolved


def _oracle_prune(entries, cap, cost_of):
    if len(entries) <= cap:
        return entries
    empty = frozenset()
    kept = dict(sorted(entries.items(), key=cost_of)[:cap])
    if empty in entries:
        kept[empty] = entries[empty]
    return kept


def oracle_probe(chains, model, options, sketches, entry_cap=128,
                 global_cap=512) -> ProbeResult:
    envs = statement_sketch_envs(chains, model, sketches)
    tables = build_all_tables(chains, model, envs)
    costings = {opt.option_id: cost_option(opt, chains, model, tables, envs)
                for opt in options}
    return oracle_probe_with_tables(chains, tables, costings, options,
                                    entry_cap, global_cap)


def outcome(result: ProbeResult) -> tuple:
    return ([opt.option_id for opt in result.chosen], result.chain_cost,
            result.plain_cost, result.entries_explored)


# ----------------------------------------------------------------------
# The (AB)^k thicket
# ----------------------------------------------------------------------
@pytest.fixture
def thicket(cluster):
    inputs = {"A": MatrixMeta(48, 48, 0.5), "B": MatrixMeta(48, 48, 0.5),
              "i": MatrixMeta(1, 1)}
    program = parse("""
        i = 0
        while (i < 10) {
          R = A %*% B %*% A %*% B %*% A %*% B %*% A %*% B
          i = i + 1
        }
    """, scalar_names={"i"})
    chains = build_chains(program, inputs, iterations=10)
    options = blockwise_search(chains).options
    model = CostModel(cluster, make_estimator("metadata"))
    return chains, options, model, sketch_inputs(model, inputs)


@pytest.mark.parametrize("caps", [{}, {"entry_cap": 2, "global_cap": 4}],
                         ids=["default-caps", "tight-caps"])
@pytest.mark.parametrize("order", [1, -1], ids=["id-order", "reversed"])
def test_thicket_matches_oracle(thicket, caps, order):
    chains, options, model, sketches = thicket
    options = options[::order]
    expected = oracle_probe(chains, model, options, sketches, **caps)
    actual = probe(chains, model, options, sketches, **caps)
    assert outcome(actual) == outcome(expected)
    assert actual.chosen  # the thicket does pick options


# ----------------------------------------------------------------------
# Real compiles: every algorithm on a dense and a sparse mini
# ----------------------------------------------------------------------
PIN_CLUSTER = ClusterConfig(driver_memory_bytes=120_000,
                            broadcast_limit_bytes=30_000, block_size=128)
PIN_ITERATIONS = 5


@pytest.fixture(scope="module")
def matrices():
    return {name: load_dataset(name, scale=0.1).matrix
            for name in ("cri2", "red1")}


def _compile(algo_name, matrix, estimator):
    algo = get_algorithm(algo_name)
    meta, data = algo.make_inputs(matrix)
    optimizer = ReMacOptimizer(
        PIN_CLUSTER, OptimizerConfig(estimator=estimator, plan_cache=False))
    return optimizer.compile(algo.program(PIN_ITERATIONS), meta, data,
                             iterations=PIN_ITERATIONS)


@pytest.mark.parametrize("estimator", ["metadata", "mnc"])
@pytest.mark.parametrize("dataset", ["cri2", "red1"])
@pytest.mark.parametrize("algo_name", sorted(ALGORITHMS))
def test_compile_matches_oracle(monkeypatch, matrices, algo_name, dataset,
                                estimator):
    bitmask_dp = probe_module._probe_with_tables
    calls = []

    def checked(*args):
        actual = bitmask_dp(*args)
        calls.append((outcome(actual), outcome(oracle_probe_with_tables(*args))))
        return actual

    monkeypatch.setattr(probe_module, "_probe_with_tables", checked)
    compiled = _compile(algo_name, matrices[dataset], estimator)
    assert calls
    for actual, expected in calls:
        assert actual == expected

    monkeypatch.setattr(probe_module, "_probe_with_tables",
                        oracle_probe_with_tables)
    reference = _compile(algo_name, matrices[dataset], estimator)
    assert [str(o) for o in compiled.applied_options] \
        == [str(o) for o in reference.applied_options]
    assert compiled.estimated_cost == reference.estimated_cost
