"""Desk-scale ground truth: exact min-max solver plus a sweep/NN baseline.

brute_force enumerates unordered set partitions of the customers (pairs for
MPDP) into M non-empty routes and orders each route optimally, memoizing
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


def _route_order_paths(members, cc, start_dist):
    """Held-Karp over paths from the start point through all members.

    members: customer indexes. start_dist[j]: start-to-customer distance.
    Returns {last: (cost, order)}: the cheapest full-set path ending at
    each member, with its visiting order.
    """
    k = len(members)
    idx = {j: i for i, j in enumerate(members)}
    full = (1 << k) - 1
    dp = {}
    for j in members:
        dp[(1 << idx[j], idx[j])] = (start_dist[j], (j,))
    for mask in range(1, full + 1):
        for last in range(k):
            if not mask & (1 << last):
                continue
            cost, path = dp[(mask, last)]
            for nxt in range(k):
                if mask & (1 << nxt):
                    continue
                cand = cost + cc[members[last], members[nxt]]
                key = (mask | (1 << nxt), nxt)
                if key not in dp or cand < dp[key][0]:
                    dp[key] = (cand, path + (members[nxt],))
    return {members[last]: dp[(full, last)] for last in range(k)}


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


def _best_tsp_block(members_key, kind, D, cc, dc):
    """Optimal (cost, order, start_depot, end_depot) for one customer block;
    only an FMDVRP route may end at another depot than its start."""
    members = list(members_key)
    best = None
    for s in range(D):
        paths = _route_order_paths(members, cc, dc[s])
        for last, (cost, order) in paths.items():
            for e in (range(D) if kind == "FMDVRP" else (s,)):
                total = cost + dc[e, last]
                if best is None or total < best[0]:
                    best = (total, order, s, e)
    return best


def _pdp_block_orders(pairs, n_pairs, cc, dc):
    """Optimal order for a set of pickup-delivery pairs from the single depot.

    Exhaustive DFS over interleavings where each delivery follows its pickup.
    """
    best = [math.inf, None]
    pair_list = list(pairs)
    k = len(pair_list)

    def rec(pos, cost, picked, delivered, order):
        if cost >= best[0]:
            return
        if len(order) == 2 * k:
            total = cost + dc[0, pos]
            if total < best[0]:
                best[0] = total
                best[1] = tuple(order)
            return
        for i, p in enumerate(pair_list):
            bit = 1 << i
            if not picked & bit:
                j = p
                step = dc[0, j] if pos < 0 else cc[pos, j]
                order.append(j)
                rec(j, cost + step, picked | bit, delivered, order)
                order.pop()
            elif not delivered & bit:
                j = p + n_pairs
                step = cc[pos, j]
                order.append(j)
                rec(j, cost + step, picked, delivered | bit, order)
                order.pop()

    rec(-1, 0.0, 0, 0, [])
    return best[0], best[1]


def brute_force(instance):
    """Exact min-max optimum by exhaustive partition + optimal per-route order."""
    kind = instance.kind
    max_n = BRUTE_FORCE_MAX_N_MPDP if kind == "MPDP" else BRUTE_FORCE_MAX_N
    if instance.N > max_n:
        raise ValueError(f"brute_force limit: {kind} N={instance.N} > {max_n}")
    if instance.M > BRUTE_FORCE_MAX_M:
        raise ValueError(f"brute_force limit: M={instance.M} > {BRUTE_FORCE_MAX_M}")

    cc, dc = _dist_tables(instance)
    n_items = instance.n_pairs if kind == "MPDP" else instance.N

    @lru_cache(maxsize=None)
    def block_value(block):
        """(cost, order, start_depot, end_depot) of one block of customers
        (of pickup-delivery pairs for MPDP)."""
        if kind == "MPDP":
            return (*_pdp_block_orders(block, instance.n_pairs, cc, dc), 0, 0)
        return _best_tsp_block(block, kind, instance.D, cc, dc)

    explored = 0
    best = None
    for part in _partitions(list(range(n_items)), instance.M):
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


def _nn_order(members, cc, start_dist):
    left = list(members)
    order = []
    pos = -1
    while left:
        if pos < 0:
            nxt = min(left, key=lambda j: (start_dist[j], j))
        else:
            nxt = min(left, key=lambda j: (cc[pos, j], j))
        order.append(nxt)
        left.remove(nxt)
        pos = nxt
    return order


def nn_heuristic(instance):
    """Angular sweep around the depot centroid, nearest-neighbor per route."""
    cc, dc = _dist_tables(instance)
    center = instance.depot_coords.mean(axis=0)
    kind = instance.kind

    if kind == "MPDP":
        n_pairs = instance.n_pairs
        chunks = _sweep_chunks(instance.coords[:n_pairs], center, instance.M)
        routes = []
        for chunk in chunks:
            left_pick = set(chunk)
            can_drop = set()
            order = []
            pos = -1
            while left_pick or can_drop:
                cand = [(dc[0, j] if pos < 0 else cc[pos, j], j) for j in left_pick]
                cand += [(cc[pos, j + n_pairs], j + n_pairs) for j in can_drop]
                _, j = min(cand)
                order.append(j)
                if j < n_pairs:
                    left_pick.remove(j)
                    can_drop.add(j)
                else:
                    can_drop.remove(j - n_pairs)
                pos = j
            routes.append(order)
        return RouteSet(routes=routes)

    chunks = _sweep_chunks(instance.coords, center, instance.M)
    routes = []
    starts = []
    ends = []
    for chunk in chunks:
        centroid = instance.coords[chunk].mean(axis=0)
        s = int(np.argmin(np.hypot(instance.depot_coords[:, 0] - centroid[0],
                                   instance.depot_coords[:, 1] - centroid[1])))
        order = _nn_order(chunk, cc, dc[s])
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
