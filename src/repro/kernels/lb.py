"""Load-buffer emulation shared by the batch kernels.

In the immediate model every dynamic load performs a predict-time lookup
(inserting a fresh entry on the first access) and an update-time lookup,
so the table's behaviour depends only on the per-load key sequence — not
on any predictor state.  :func:`lb_solve` exploits that to factor the
whole run into **generations**: maximal stretches of a static load's
dynamic instances during which its entry stays resident.  Rows grouped
by generation behave exactly like rows grouped by key in an eviction-free
run (a re-inserted key restarts from a fresh entry), so every per-key
segmented solver downstream works unchanged on the generation grouping.

* Sets that never see more distinct keys than they have ways are
  closed-form: one generation per key, ways filled in first-occurrence
  order, ``lru = 2 * t_last + 2`` (``_clock`` advances exactly twice per
  dynamic load).
* Overflowing sets are replayed with a tiny per-set LRU loop over that
  set's loads only — the one genuinely sequential part of the table —
  yielding each load's generation and the final way placement.

``hits = 2 * loads - generations``, ``misses = generations`` (each
generation opens with the predict-time miss that inserted it).
"""

from __future__ import annotations

import numpy as np

from .segops import seg_last_index_where, sorted_unique

__all__ = ["overflow_sets", "lb_solve", "lb_commit"]


def overflow_sets(table, unique_keys: np.ndarray) -> np.ndarray:
    """Per set of ``table``: do more distinct keys map there than it has ways?"""
    index_mask = np.int64((1 << table.index_bits) - 1)
    set_counts = np.bincount(
        (unique_keys & index_mask).astype(np.int64), minlength=table.num_sets
    )
    return set_counts > table.ways


def lb_solve(table, key: np.ndarray) -> dict:
    """Generation-aware grouping of the per-load key sequence.

    Returns the sorted (group, time) layout used by every kernel, one
    segment per *generation* — plus the per-group arrays and the
    placement info :func:`lb_commit` needs:

    * ``order`` — permutation putting loads into (group, time) order;
    * ``starts``/``ends`` — segment head/tail markers in that layout;
    * ``occ`` — per sorted position, the load's index within its group
      (0 for the load that opened the generation);
    * ``group_keys``/``first_load``/``last_load`` — indexed by group id;
    * ``n_normal`` — groups below this id live in never-overflowing sets
      (committed by first-occurrence way fill); the rest were replayed;
    * ``placed`` — explicit ``(set, way, gid, last_load)`` placement for
      the ways of replayed sets still valid at end of run;
    * ``evictions`` — total evictions performed.
    """
    n = len(key)
    index_mask = (1 << table.index_bits) - 1
    ways = table.ways
    gid = np.empty(n, dtype=np.int64)
    placed: list = []
    evictions = 0

    u_keys = sorted_unique(key)
    overflowing = overflow_sets(table, u_keys)
    if overflowing.any():
        ovf = overflowing[(key & np.int64(index_mask)).astype(np.int64)]
        normal = ~ovf
        nk = key[normal]
        u_norm, inv = (
            np.unique(nk, return_inverse=True) if len(nk)
            else (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
        )
        gid[normal] = inv
        n_normal = len(u_norm)
        next_gid = n_normal
        # Sequential LRU replay, restricted to the overflowing sets.  A
        # way is a mutable [key, last_load, gid] cell; eviction replaces
        # the least-recently-used cell in place (the scalar table breaks
        # lru ties by way order, and per-load times make ties impossible).
        resident: dict = {}       # key -> way cell
        set_ways: dict = {}       # set index -> list of way cells
        out = []
        ovf_pos = np.flatnonzero(ovf)
        for pos, k in zip(ovf_pos.tolist(), key[ovf].tolist()):
            cell = resident.get(k)
            if cell is not None:
                cell[1] = pos
                out.append(cell[2])
                continue
            s = k & index_mask
            cells = set_ways.setdefault(s, [])
            if len(cells) < ways:
                cell = [k, pos, next_gid]
                cells.append(cell)
            else:
                cell = min(cells, key=lambda c: c[1])
                del resident[cell[0]]
                evictions += 1
                cell[0] = k
                cell[1] = pos
                cell[2] = next_gid
            resident[k] = cell
            out.append(next_gid)
            next_gid += 1
        gid[ovf_pos] = np.asarray(out, dtype=np.int64)
        for s, cells in set_ways.items():
            for wi, cell in enumerate(cells):
                placed.append((s, wi, cell[2], cell[1]))
    else:
        _, inv = (
            np.unique(key, return_inverse=True) if n
            else (None, np.empty(0, dtype=np.int64))
        )
        gid[:] = inv
        n_normal = int(gid.max()) + 1 if n else 0

    order = np.argsort(gid, kind="stable")
    g_sorted = gid[order]
    starts = np.empty(n, dtype=bool)
    if n:
        starts[0] = True
        starts[1:] = g_sorted[1:] != g_sorted[:-1]
    occ = np.arange(n, dtype=np.int64) - seg_last_index_where(starts, starts)
    ends = np.empty(n, dtype=bool)
    if n:
        ends[:-1] = starts[1:]
        ends[-1] = True
    empty = np.empty(0, dtype=np.int64)
    return {
        "order": order,
        "starts": starts,
        "occ": occ,
        "ends": ends,
        "group_keys": key[order][starts] if n else empty,
        "first_load": order[starts] if n else empty,
        "last_load": order[ends] if n else empty,
        "n_normal": n_normal,
        "placed": placed,
        "evictions": evictions,
    }


def lb_commit(table, solved: dict, entries: list, total_loads: int) -> None:
    """Write a :func:`lb_solve` end state into a live SetAssociativeTable.

    ``entries`` is parallel to the group ids (one per generation; entries
    of evicted generations are simply never placed).
    """
    index_mask = (1 << table.index_bits) - 1
    group_keys = solved["group_keys"]
    first_load = solved["first_load"]
    last_load = solved["last_load"]
    n_normal = solved["n_normal"]
    append_way = table._append_way
    # The table is fresh, so each set's ways fill in order: normal sets
    # by first occurrence, replayed sets in their replay's way order.
    fill = np.argsort(first_load[:n_normal], kind="stable")
    keys = group_keys[fill]
    for index, tag, gid, lru in zip(
        (keys & index_mask).tolist(),
        (keys >> table.index_bits).tolist(),
        fill.tolist(),
        (2 * last_load[fill] + 2).tolist(),
    ):
        append_way(index, tag, entries[gid], lru)
    for s, _wi, gid, last in solved["placed"]:
        append_way(
            s, int(group_keys[gid]) >> table.index_bits, entries[gid],
            2 * last + 2,
        )
    groups = len(entries)
    table._clock += 2 * total_loads
    table.hits += 2 * total_loads - groups
    table.misses += groups
    table.evictions += solved["evictions"]
