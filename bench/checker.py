"""Output checker for the benchmark, written apart from the program.

It reads instances and solutions as plain JSON records and imports nothing
from minmaxvrp, so a fault in `problems` or `oracle` cannot hide itself by
agreeing with its own checker.

An instance record is a dataset line: {"kind", "M", "depots", "customers"}.
A solution record is a solutions-file line: {"objective", "routes",
"start_depots", "end_depots", ...}. Every check returns None when it passes
and a one-line reason when it fails.
"""

import json
import math

OBJ_RTOL = 1e-9


def read_jsonl(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def _dist(a, b):
    return math.sqrt((float(a[0]) - float(b[0])) ** 2
                     + (float(a[1]) - float(b[1])) ** 2)


def feasibility(ins, sol):
    """M non-empty routes, every customer once, depot rules per kind,
    and each MPDP pickup before its delivery in the same route."""
    kind, M = ins["kind"], int(ins["M"])
    n, n_depots = len(ins["customers"]), len(ins["depots"])
    routes, starts, ends = sol["routes"], sol["start_depots"], sol["end_depots"]
    if len(routes) != M or len(starts) != M or len(ends) != M:
        return f"{len(routes)} routes, {len(starts)} starts, {len(ends)} ends for M={M}"
    served = [0] * n
    for i, route in enumerate(routes):
        if not route:
            return f"route {i} is empty"
        for j in route:
            if not (isinstance(j, int) and 0 <= j < n):
                return f"route {i} visits {j!r}, not a customer index"
            served[j] += 1
    for j, count in enumerate(served):
        if count != 1:
            return f"customer {j} served {count} times"
    for i, (s, e) in enumerate(zip(starts, ends)):
        if not (0 <= s < n_depots and 0 <= e < n_depots):
            return f"route {i} uses depot {s}->{e} of {n_depots}"
        if kind != "FMDVRP" and s != e:
            return f"route {i} leaves depot {s} but returns to {e}"
    if kind == "MPDP":
        half = n // 2
        for i, route in enumerate(routes):
            where = {j: t for t, j in enumerate(route)}
            for p in range(half):
                if (p in where) != (p + half in where):
                    return f"pair {p} split across routes (route {i})"
                if p in where and where[p] > where[p + half]:
                    return f"delivery {p + half} before pickup {p} in route {i}"
    return None


def objective(ins, sol):
    """Longest route, recomputed in float64: closed tours, except FMDVRP
    routes, which run from their start depot to their end depot."""
    cust, depots = ins["customers"], ins["depots"]
    longest = 0.0
    for route, s, e in zip(sol["routes"], sol["start_depots"], sol["end_depots"]):
        end = e if ins["kind"] == "FMDVRP" else s
        pts = [depots[s]] + [cust[j] for j in route] + [depots[end]]
        longest = max(longest, sum(_dist(a, b) for a, b in zip(pts, pts[1:])))
    return longest


def lower_bound(ins):
    """The longest round trip any solution must make: out to the farthest
    customer from its nearest depot and back; for MPDP the trip
    depot -> pickup -> delivery -> depot."""
    cust, depots = ins["customers"], ins["depots"]
    if ins["kind"] == "MPDP":
        half, d0 = len(cust) // 2, depots[0]
        return max(_dist(d0, cust[p]) + _dist(cust[p], cust[p + half])
                   + _dist(cust[p + half], d0) for p in range(half))
    return max(2.0 * min(_dist(d, c) for d in depots) for c in cust)


def check_solution(ins, sol):
    """Feasible, stored objective equal to the recomputed one, and not
    below the instance lower bound."""
    err = feasibility(ins, sol)
    if err is not None:
        return err
    obj = objective(ins, sol)
    stored = float(sol["objective"])
    if not abs(stored - obj) <= OBJ_RTOL * abs(obj):
        return f"stored objective {stored!r} but routes give {obj!r}"
    lb = lower_bound(ins)
    if obj < lb * (1.0 - OBJ_RTOL):
        return f"objective {obj!r} below the lower bound {lb!r}"
    return None


def check_metrics_row(row):
    """The APS baseline is the mean of K objectives and mean_obj averages
    their minimum, so the baseline can never be the smaller."""
    if not row["mean_baseline"] >= row["mean_obj"]:
        return (f"epoch {row['epoch']}: mean_baseline {row['mean_baseline']!r}"
                f" < mean_obj {row['mean_obj']!r}")
    return None
