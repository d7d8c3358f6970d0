"""Desk-scale ground truth: exact min-max solver plus a sweep/NN baseline.

brute_force enumerates unordered set partitions of the customers (pairs for
MPDP) into M non-empty routes and orders each route optimally with one
Held-Karp for every kind (an MPDP delivery only after its pickup), memoizing
optimal sub-tours per customer subset. Tractable up to N=10 (N=8 for MPDP),
M=4. nn_heuristic is the deterministic comparison baseline; two_opt improves
closed tours.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .problems import RouteSet, minmax_objective, validate

BRUTE_FORCE_MAX_N = 10
BRUTE_FORCE_MAX_N_MPDP = 8
BRUTE_FORCE_MAX_M = 4


@dataclass
class OracleResult:
    objective: float
    solution: RouteSet
    nodes_explored: int


def _dist_tables(instance):
    c = instance.coords
    d = instance.depot_coords
    cc = np.sqrt(((c[:, None, :] - c[None, :, :]) ** 2).sum(-1))
    dc = np.sqrt(((d[:, None, :] - c[None, :, :]) ** 2).sum(-1))
    return cc, dc


def _route_order_paths(members, cc, start_dist, n_pairs=0):
    """Held-Karp over paths from the start point through all members.

    members: customer indexes. start_dist[j]: start-to-customer distance.
    With n_pairs > 0, a delivery n_pairs + p comes after its pickup p, which
    must be a member too. Returns {last: (cost, order)}: the cheapest
    full-set path ending at each member that can end one, with its visiting
    order.
    """
    k = len(members)
    idx = {j: i for i, j in enumerate(members)}
    # need[i]: the bit of the pickup that member i waits for (0: none)
    need = [1 << idx[j - n_pairs] if 0 < n_pairs <= j else 0 for j in members]
    step = cc[np.ix_(members, members)].tolist()
    full = (1 << k) - 1
    dp = {}
    for i, j in enumerate(members):
        if not need[i]:
            dp[(1 << i, i)] = (float(start_dist[j]), (j,))
    for mask in range(1, full + 1):
        free = [n for n in range(k) if not mask & (1 << n) and mask & need[n] == need[n]]
        for last in range(k):
            entry = dp.get((mask, last))
            if entry is None:
                continue
            cost, path = entry
            for nxt in free:
                cand = cost + step[last][nxt]
                key = (mask | (1 << nxt), nxt)
                if key not in dp or cand < dp[key][0]:
                    dp[key] = (cand, path + (members[nxt],))
    return {members[last]: dp[(full, last)] for last in range(k) if (full, last) in dp}


def _partitions(items, m):
    """Unordered partitions of items into exactly m non-empty blocks.

    Canonical labeling: the block containing the first item is block 0, the
    block containing the first item outside it is block 1, and so on.
    """
    n = len(items)
    blocks = []

    def rec(i):
        if i == n:
            if len(blocks) == m:
                yield tuple(tuple(b) for b in blocks)
            return
        if m - len(blocks) > n - i:
            return  # not enough items left to open the missing blocks
        for b in blocks:
            b.append(items[i])
            yield from rec(i + 1)
            b.pop()
        if len(blocks) < m:
            blocks.append([items[i]])
            yield from rec(i + 1)
            blocks.pop()

    yield from rec(0)


def _best_block(members_key, kind, D, cc, dc, n_pairs=0):
    """Optimal (cost, order, start_depot, end_depot) for one customer block;
    only an FMDVRP route may end at another depot than its start."""
    members = list(members_key)
    best = None
    for s in range(D):
        paths = _route_order_paths(members, cc, dc[s], n_pairs)
        for last, (cost, order) in paths.items():
            for e in (range(D) if kind == "FMDVRP" else (s,)):
                total = cost + dc[e, last]
                if best is None or total < best[0]:
                    best = (total, order, s, e)
    return best


def brute_force(instance):
    """Exact min-max optimum by exhaustive partition + optimal per-route order."""
    kind = instance.kind
    max_n = BRUTE_FORCE_MAX_N_MPDP if kind == "MPDP" else BRUTE_FORCE_MAX_N
    if instance.N > max_n:
        raise ValueError(f"brute_force limit: {kind} N={instance.N} > {max_n}")
    if instance.M > BRUTE_FORCE_MAX_M:
        raise ValueError(f"brute_force limit: M={instance.M} > {BRUTE_FORCE_MAX_M}")

    cc, dc = _dist_tables(instance)
    n_pairs = instance.n_pairs if kind == "MPDP" else 0

    @lru_cache(maxsize=None)
    def block_value(block):
        """(cost, order, start_depot, end_depot) of one block of customers
        (of pickup-delivery pairs for MPDP: their pickups, then deliveries)."""
        members = block + tuple(p + n_pairs for p in block if n_pairs)
        return _best_block(members, kind, instance.D, cc, dc, n_pairs)

    explored = 0
    best = None
    for part in _partitions(list(range(n_pairs or instance.N)), instance.M):
        explored += 1
        blocks = [block_value(tuple(block)) for block in part]
        worst = max(cost for cost, *_ in blocks)
        if best is None or worst < best[0]:
            best = (worst, blocks)

    _, orders, starts, ends = zip(*best[1])
    solution = RouteSet(routes=[list(o) for o in orders], start_depots=list(starts),
                        end_depots=list(ends))
    report = validate(solution, instance)
    if report is not None:
        raise AssertionError(f"oracle produced an infeasible solution: {report}")
    objective = minmax_objective(solution, instance)
    return OracleResult(objective=objective, solution=solution, nodes_explored=explored)


# ---------------------------------------------------------------------------
# sweep + nearest-neighbor baseline
# ---------------------------------------------------------------------------

def _sweep_chunks(points, center, m):
    """Split point indexes into m contiguous angular arcs, sizes balanced."""
    angles = np.arctan2(points[:, 1] - center[1], points[:, 0] - center[0])
    order = sorted(range(len(points)), key=lambda i: (angles[i], i))
    n = len(order)
    sizes = [n // m + (1 if i < n % m else 0) for i in range(m)]
    chunks = []
    at = 0
    for s in sizes:
        chunks.append(order[at:at + s])
        at += s
    return chunks


def _nn_order(members, cc, start_dist, n_pairs=0):
    """Nearest-neighbor walk from the start point through all members; with
    n_pairs > 0, a delivery n_pairs + p waits until its pickup p is taken."""
    left = list(members)
    order = []
    pos = -1
    while left:
        dist = start_dist if pos < 0 else cc[pos]
        nxt = min((j for j in left if not 0 < n_pairs <= j or j - n_pairs not in left),
                  key=lambda j: (dist[j], j))
        order.append(nxt)
        left.remove(nxt)
        pos = nxt
    return order


def nn_heuristic(instance):
    """Angular sweep around the depot centroid, nearest-neighbor per route.
    MPDP sweeps the pickups, and each route adds their deliveries."""
    cc, dc = _dist_tables(instance)
    center = instance.depot_coords.mean(axis=0)
    kind = instance.kind
    n_pairs = instance.n_pairs if kind == "MPDP" else 0

    chunks = _sweep_chunks(instance.coords[:n_pairs or instance.N], center, instance.M)
    routes = []
    starts = []
    ends = []
    for chunk in chunks:
        centroid = instance.coords[chunk].mean(axis=0)
        s = int(np.argmin(np.hypot(instance.depot_coords[:, 0] - centroid[0],
                                   instance.depot_coords[:, 1] - centroid[1])))
        members = chunk + [p + n_pairs for p in chunk if n_pairs]
        order = _nn_order(members, cc, dc[s], n_pairs)
        e = s
        if kind == "FMDVRP":
            e = int(np.argmin(dc[:, order[-1]]))
        routes.append(order)
        starts.append(s)
        ends.append(e)
    return RouteSet(routes=routes, start_depots=starts, end_depots=ends)


def two_opt(route, instance, start_depot=0):
    """First-improvement 2-opt on one closed tour (MTSP/MDVRP only)."""
    if instance.kind not in ("MTSP", "MDVRP"):
        raise ValueError(f"two_opt handles closed-tour kinds only, not {instance.kind}")
    pts = [instance.depot_coords[start_depot]] + [instance.coords[j] for j in route]
    n = len(pts)
    tour = list(range(n))  # position 0 is the depot, fixed

    def d(a, b):
        pa, pb = pts[a], pts[b]
        return math.hypot(pa[0] - pb[0], pa[1] - pb[1])

    improved = True
    while improved:
        improved = False
        for i in range(n - 1):
            for j in range(i + 2, n):
                a, b = tour[i], tour[i + 1]
                c, e = tour[j], tour[(j + 1) % n]
                if (j + 1) % n == i:
                    continue
                delta = d(a, c) + d(b, e) - d(a, b) - d(c, e)
                if delta < -1e-12:
                    tour[i + 1:j + 1] = reversed(tour[i + 1:j + 1])
                    improved = True
        # loop again until a full sweep finds nothing
    start = tour.index(0)
    cycle = tour[start:] + tour[:start]
    return [route[k - 1] for k in cycle[1:]]


def gap(obj, ref):
    """Percentage above the reference: (obj - ref) / ref * 100."""
    if ref <= 0:
        raise ValueError(f"gap reference must be positive, got {ref}")
    return (obj - ref) / ref * 100.0
