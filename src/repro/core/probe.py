"""Probing phase: dynamic programming with candidate costs (§4.3.2).

An interval DP per chain block computes, for every operand span, a table of
*candidate entries*: the minimum accumulated cost (Eqs. 7-8) keyed by which
option occurrences were activated inside the span (Eqs. 9-10 — the
"accumulated costs containing candidate costs"). Activating an occurrence
replaces its span's computation by the option's apportioned cost.

Because a CSE's apportioning is only valid when *every* occurrence of the
group activates, entries carrying a partially-activated group are discarded
at the group's joint upstream — the smallest scope containing all its
occurrences (site root for within-block groups, the program root for
cross-block groups). That withdrawal is the paper's "pick the whole group
of relevant CSE costs or none of them".

Candidate keys are ``int`` bitmasks. Every ``(option, occurrence)`` pair
owns one bit, so combining two sub-spans' keys is ``key_l | key_r``, and
each option has an *occurrence mask* of its pairs' bits. The options
folded in so far form a second mask, ``applied``, with one bit per option
in ``option_id`` order. Once the last site holding an option merges into
the program-level table, each entry is resolved against that option with
``hit = key & mask``: ``hit == mask`` folds the option into ``applied`` and
clears its bits, ``hit == 0`` leaves the entry alone, and any other value
is a partial group, which drops the entry. Only the options whose last
site just merged are checked. Partial combinations are dropped while the
site merges, before they are stored; the folds follow in a second pass, so
ties break exactly as they would with the fold and the drop in one pass
over the stored entries.

The complexity is polynomial in chain length with a bounded candidate-set
width, versus the exponential subset enumeration of
:mod:`repro.core.enumerate`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from .build import (
    OptionCosting,
    SpanTable,
    build_all_tables,
    cost_option,
    statement_sketch_envs,
)
from .chains import ProgramChains
from .cost.model import CostModel
from .options import EliminationOption
from .sparsity.base import Sketch

INFINITY = float("inf")

#: Candidate key: one bit per activated occurrence pending resolution.
Key = int
#: Program-level entry value: (accumulated cost, mask of applied options).
Combined = tuple[float, int]


@dataclass
class ProbeResult:
    """Outcome of the probing phase."""

    chosen: list[EliminationOption] = field(default_factory=list)
    #: Minimum accumulated chain cost over all sites (program-total seconds).
    chain_cost: float = 0.0
    #: Plain chain cost with no options, for the savings report.
    plain_cost: float = 0.0
    entries_explored: int = 0
    #: Host seconds spent on span tables and option costing.
    tables_seconds: float = 0.0
    #: Host seconds spent in the candidate DP itself.
    dp_seconds: float = 0.0
    costings: dict[int, OptionCosting] = field(default_factory=dict)

    @property
    def predicted_saving(self) -> float:
        return self.plain_cost - self.chain_cost

    @property
    def wall_seconds(self) -> float:
        return self.tables_seconds + self.dp_seconds


def probe(chains: ProgramChains, model: CostModel,
          options: list[EliminationOption],
          input_sketches: dict[str, Sketch],
          entry_cap: int = 128, global_cap: int = 512) -> ProbeResult:
    """Run building + probing; returns the chosen options and predicted cost."""
    started = time.perf_counter()
    envs = statement_sketch_envs(chains, model, input_sketches)
    tables = build_all_tables(chains, model, envs)
    costings = {opt.option_id: cost_option(opt, chains, model, tables, envs)
                for opt in options}
    priced = time.perf_counter()
    result = _probe_with_tables(chains, tables, costings, options,
                                entry_cap, global_cap)
    result.tables_seconds = priced - started
    result.dp_seconds = time.perf_counter() - priced
    return result


def _probe_with_tables(chains: ProgramChains, tables: dict[int, SpanTable],
                       costings: dict[int, OptionCosting],
                       options: list[EliminationOption],
                       entry_cap: int, global_cap: int) -> ProbeResult:
    result = ProbeResult(costings=costings)
    ranked = sorted(options, key=lambda opt: opt.option_id)
    applied_bit = {opt.option_id: 1 << rank for rank, opt in enumerate(ranked)}
    position = {site.site_id: index for index, site in enumerate(chains.sites)}
    #: site_id -> span -> (key bit, activation cost) pairs activatable there.
    activations: dict[int, dict[tuple[int, int], list[tuple[Key, float]]]] = {}
    #: site position -> (occurrence mask, applied bit) of the options whose
    #: last site that is; they resolve when it merges.
    resolve_at: dict[int, list[tuple[Key, int]]] = {}
    next_bit = 0
    for opt in options:
        costing = costings[opt.option_id]
        occ_mask = 0
        last = -1
        for occurrence in opt.occurrences:
            bit = 1 << next_bit
            next_bit += 1
            occ_mask |= bit
            table = tables[occurrence.site_id]
            cost = costing.activation_cost(occurrence, len(table.site),
                                           table.weight)
            activations.setdefault(occurrence.site_id, {}).setdefault(
                occurrence.span, []).append((bit, cost))
            last = max(last, position.get(occurrence.site_id, len(position)))
        if occ_mask and last < len(position):
            resolve_at.setdefault(last, []).append(
                (occ_mask, applied_bit[opt.option_id]))

    # ------------------------------------------------------------------
    # Per-site interval DP with candidate keys
    # ------------------------------------------------------------------
    site_roots: list[dict[Key, float]] = []
    for site in chains.sites:
        table = tables[site.site_id]
        n = len(site)
        state: dict[tuple[int, int], dict[Key, float]] = {}
        for i in range(n):
            state[(i, i)] = {0: 0.0}
        site_acts = activations.get(site.site_id, {})
        for width in range(2, n + 1):
            for i in range(0, n - width + 1):
                j = i + width - 1
                entries: dict[Key, float] = {}
                for k in range(i, j):
                    op_cost = table.op_cost[(i, k, j)]
                    right_items = state[(k + 1, j)].items()
                    for key_l, cost_l in state[(i, k)].items():
                        for key_r, cost_r in right_items:
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
                for key, cost in site_acts.get((i, j), ()):
                    if cost < entries.get(key, INFINITY):
                        entries[key] = cost
                result.entries_explored += len(entries)
                state[(i, j)] = _prune(entries, entry_cap, _entry_cost)
        site_roots.append(state[(0, n - 1)] if n >= 1 else {0: 0.0})
        result.plain_cost += table.plain_cost[(0, n - 1)] if n >= 2 else 0.0

    # ------------------------------------------------------------------
    # Program-level combination with joint-upstream resolution
    # ------------------------------------------------------------------
    combined: dict[Key, Combined] = {0: (0.0, 0)}
    for index, root in enumerate(site_roots):
        resolving = resolve_at.get(index, [])
        scope = 0
        for occ_mask, _bit in resolving:
            scope |= occ_mask
        merged = _merge(combined, root, resolving, scope)
        if scope:
            merged = _resolve(merged, resolving, scope)
        combined = _prune(merged, global_cap, _combined_cost)
        result.entries_explored += len(combined)

    # Everything should be resolved now; the empty key is the only valid
    # leftover (nonzero keys are unresolved/partial).
    best_cost, best_applied = combined.get(0, (INFINITY, 0))
    if best_cost < INFINITY:
        result.chain_cost = best_cost
    else:
        result.chain_cost, best_applied = result.plain_cost, 0
    result.chosen = [opt for rank, opt in enumerate(ranked)
                     if best_applied >> rank & 1]
    return result


def _merge(combined: dict[Key, Combined], root: dict[Key, float],
           resolving: list[tuple[Key, int]],
           scope: Key) -> dict[Key, Combined]:
    """Combine every program-level entry with every entry of a site root.

    Each key keeps its cheapest combination (the first one on ties) at the
    position where the key first appeared. ``resolving`` holds the
    (occurrence mask, applied bit) of every option whose last site this
    is, and ``scope`` the union of their masks. A combination that
    activates one of those groups partially is withdrawn right here, before
    it is stored: its key would be dropped at resolution anyway, and no
    other key's entry or position depends on it.
    """
    root_items = list(root.items())
    root_hits = [key & scope for key in root]
    #: key_g & scope -> the root items that complete or skip every group.
    compatible: dict[Key, list[tuple[Key, float]]] = {}
    merged: dict[Key, Combined] = {}
    for key_g, (cost_g, applied) in combined.items():
        hits_g = key_g & scope
        items = compatible.get(hits_g)
        if items is None:
            whole = {hits_s: _whole_groups(hits_g | hits_s, resolving)
                     for hits_s in set(root_hits)}
            items = compatible[hits_g] = [
                item for item, hits_s in zip(root_items, root_hits)
                if whole[hits_s]]
        for key_s, cost_s in items:
            key = key_g | key_s
            cost = cost_g + cost_s
            current = merged.get(key)
            if current is None or cost < current[0]:
                merged[key] = (cost, applied)
    return merged


def _whole_groups(hits: Key, resolving: list[tuple[Key, int]]) -> bool:
    """Whether ``hits`` activates each resolving group wholly or not at all."""
    return all(hits & occ_mask in (0, occ_mask) for occ_mask, _bit in resolving)


def _resolve(entries: dict[Key, Combined], resolving: list[tuple[Key, int]],
             scope: Key) -> dict[Key, Combined]:
    """Fold the groups whose joint upstream was just reached.

    Every entry activates each resolving group wholly or not at all (see
    :func:`_merge`). A wholly-activated group folds into the applied mask —
    its apportioned costs already sum to the shared cost — and its bits
    leave the key. Entries whose keys become equal keep the cheapest.
    """
    #: key & scope -> applied bits of the groups it activates.
    folds: dict[Key, int] = {}
    resolved: dict[Key, Combined] = {}
    for key, value in entries.items():
        hits = key & scope
        if hits:
            bits = folds.get(hits)
            if bits is None:
                bits = 0
                for occ_mask, bit in resolving:
                    if hits & occ_mask:
                        bits |= bit
                folds[hits] = bits
            key ^= hits
            value = (value[0], value[1] | bits)
        current = resolved.get(key)
        if current is None or value[0] < current[0]:
            resolved[key] = value
    return resolved


def _entry_cost(item: tuple[Key, float]) -> float:
    return item[1]


def _combined_cost(item: tuple[Key, Combined]) -> float:
    return item[1][0]


def _prune(entries: dict, cap: int, cost_of) -> dict:
    """Keep the empty key and the ``cap`` cheapest entries by ``cost_of``."""
    if len(entries) <= cap:
        return entries
    kept = dict(sorted(entries.items(), key=cost_of)[:cap])
    if 0 in entries:
        kept[0] = entries[0]
    return kept
