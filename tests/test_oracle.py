import itertools
import math

import numpy as np
import pytest
from conftest import random_feasible

from minmaxvrp import oracle as oc
from minmaxvrp import problems as pb


def dist(a, b):
    return math.hypot(a[0] - b[0], a[1] - b[1])


def closed_tour_cost(order, coords, depot):
    pts = [depot] + [coords[j] for j in order] + [depot]
    return sum(dist(a, b) for a, b in zip(pts[:-1], pts[1:]))


def exhaustive_tsp(coords, depot):
    """Independent exact closed-tour TSP by full permutation enumeration."""
    n = len(coords)
    return min(closed_tour_cost(p, coords, depot)
               for p in itertools.permutations(range(n)))


# ---------------------------------------------------------------------------
# brute_force frozen cases
# ---------------------------------------------------------------------------

def test_collinear_pair_optimum():
    ins = pb.Instance(kind="MTSP", coords=np.array([[0.3, 0.0], [0.7, 0.0]]),
                      depot_coords=np.array([[0.0, 0.0]]), M=2)
    res = oc.brute_force(ins)
    assert math.isclose(res.objective, 1.4, rel_tol=1e-12)


def test_unit_square_corners_adjacent_pairing():
    ins = pb.Instance(kind="MTSP",
                      coords=np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]),
                      depot_coords=np.array([[0.5, 0.5]]), M=2)
    res = oc.brute_force(ins)
    assert abs(res.objective - 2.41421) < 1e-5  # 1 + sqrt(2)
    for route in res.solution.routes:
        assert len(route) == 2


def test_m1_matches_exhaustive_tsp():
    for seed in range(8):
        ins = pb.Instance(kind="MTSP",
                          coords=np.random.default_rng(seed).uniform(0, 1, (7, 2)),
                          depot_coords=np.random.default_rng(seed + 100).uniform(0, 1, (1, 2)),
                          M=1)
        res = oc.brute_force(ins)
        ref = exhaustive_tsp(ins.coords, ins.depot_coords[0])
        assert math.isclose(res.objective, ref, rel_tol=1e-9)


def test_mtsp_matches_exhaustive_partition_enumeration():
    # independent check: enumerate ordered splits + permutations directly
    for seed in range(5):
        rng = np.random.default_rng(seed)
        ins = pb.Instance(kind="MTSP", coords=rng.uniform(0, 1, (6, 2)),
                          depot_coords=rng.uniform(0, 1, (1, 2)), M=2)
        best = math.inf
        for size_a in range(1, 6):
            for block_a in itertools.combinations(range(6), size_a):
                block_b = [j for j in range(6) if j not in block_a]
                if not block_b:
                    continue
                cost_a = min(closed_tour_cost(p, ins.coords, ins.depot_coords[0])
                             for p in itertools.permutations(block_a))
                cost_b = min(closed_tour_cost(p, ins.coords, ins.depot_coords[0])
                             for p in itertools.permutations(block_b))
                best = min(best, max(cost_a, cost_b))
        res = oc.brute_force(ins)
        assert math.isclose(res.objective, best, rel_tol=1e-9)


def test_mdvrp_depot_choice_matters():
    for seed in range(5):
        rng = np.random.default_rng(40 + seed)
        ins = pb.Instance(kind="MDVRP", coords=rng.uniform(0, 1, (5, 2)),
                          depot_coords=rng.uniform(0, 1, (2, 2)), M=2)
        res = oc.brute_force(ins)
        assert pb.validate(res.solution, ins) is None
        # independent: best over partitions, per-block best depot by permutations
        best = math.inf
        for size_a in range(1, 5):
            for block_a in itertools.combinations(range(5), size_a):
                block_b = [j for j in range(5) if j not in block_a]
                if not block_b:
                    continue
                costs = []
                for block in (block_a, tuple(block_b)):
                    c = min(closed_tour_cost(p, ins.coords, ins.depot_coords[d])
                            for d in range(2)
                            for p in itertools.permutations(block))
                    costs.append(c)
                best = min(best, max(costs))
        assert math.isclose(res.objective, best, rel_tol=1e-9)


def test_fmdvrp_open_chain_beats_or_ties_mdvrp():
    for seed in range(5):
        rng = np.random.default_rng(60 + seed)
        coords = rng.uniform(0, 1, (6, 2))
        depots = rng.uniform(0, 1, (2, 2))
        closed = oc.brute_force(pb.Instance(kind="MDVRP", coords=coords,
                                            depot_coords=depots, M=2))
        free = oc.brute_force(pb.Instance(kind="FMDVRP", coords=coords,
                                          depot_coords=depots, M=2))
        assert free.objective <= closed.objective + 1e-12


def test_fmdvrp_matches_exhaustive():
    rng = np.random.default_rng(3)
    ins = pb.Instance(kind="FMDVRP", coords=rng.uniform(0, 1, (5, 2)),
                      depot_coords=rng.uniform(0, 1, (2, 2)), M=2)

    def open_cost(order, s, e):
        pts = [ins.depot_coords[s]] + [ins.coords[j] for j in order] + [ins.depot_coords[e]]
        return sum(dist(a, b) for a, b in zip(pts[:-1], pts[1:]))

    best = math.inf
    for size_a in range(1, 5):
        for block_a in itertools.combinations(range(5), size_a):
            block_b = [j for j in range(5) if j not in block_a]
            if not block_b:
                continue
            costs = []
            for block in (block_a, tuple(block_b)):
                c = min(open_cost(p, s, e)
                        for s in range(2) for e in range(2)
                        for p in itertools.permutations(block))
                costs.append(c)
            best = min(best, max(costs))
    assert math.isclose(oc.brute_force(ins).objective, best, rel_tol=1e-9)


def pdp_orders(pairs, n_pairs):
    """Every order of the pairs' pickups and deliveries that puts each
    delivery p + n_pairs after its pickup p."""
    nodes = list(pairs) + [p + n_pairs for p in pairs]
    for perm in itertools.permutations(nodes):
        at = {j: t for t, j in enumerate(perm)}
        if all(at[p] < at[p + n_pairs] for p in pairs):
            yield perm


def exhaustive_mpdp(ins):
    """Independent exact MPDP optimum: every labelling of the pairs with M
    routes that uses each route, every valid order of each route."""
    n_pairs = ins.N // 2
    best_order = {}

    def block_cost(block):
        if block not in best_order:
            best_order[block] = min(closed_tour_cost(o, ins.coords, ins.depot_coords[0])
                                    for o in pdp_orders(block, n_pairs))
        return best_order[block]

    best = math.inf
    for labels in itertools.product(range(ins.M), repeat=n_pairs):
        if len(set(labels)) < ins.M:
            continue
        blocks = [tuple(p for p in range(n_pairs) if labels[p] == m) for m in range(ins.M)]
        best = min(best, max(block_cost(b) for b in blocks))
    return best


MPDP_CASES = [(seed, N, M) for seed in (8, 9, 10) for N in (2, 4, 6, 8)
              for M in range(1, N // 2 + 1)]


@pytest.mark.parametrize("seed,N,M", MPDP_CASES + [("lattice", 8, 2)],
                         ids=[f"seed{s}-N{n}-M{m}" for s, n, m in MPDP_CASES] + ["lattice"])
def test_mpdp_matches_exhaustive(seed, N, M):
    """M=1 puts every pair in one block; on the lattice, many orders tie, so
    only objectives are compared."""
    if seed == "lattice":
        rng = np.random.default_rng(5)
        coords, depot = rng.integers(0, 3, (N, 2)) / 2.0, np.array([[0.5, 0.5]])
    else:
        rng = np.random.default_rng(seed)
        coords, depot = rng.uniform(0, 1, (N, 2)), rng.uniform(0, 1, (1, 2))
    ins = pb.Instance(kind="MPDP", coords=coords, depot_coords=depot, M=M)
    res = oc.brute_force(ins)
    assert pb.validate(res.solution, ins) is None
    assert math.isclose(res.objective, exhaustive_mpdp(ins), rel_tol=1e-9)


def test_brute_force_limits():
    rng = np.random.default_rng(0)
    big = pb.Instance(kind="MTSP", coords=rng.uniform(0, 1, (11, 2)),
                      depot_coords=rng.uniform(0, 1, (1, 2)), M=2)
    with pytest.raises(ValueError):
        oc.brute_force(big)
    many = pb.Instance(kind="MTSP", coords=rng.uniform(0, 1, (10, 2)),
                       depot_coords=rng.uniform(0, 1, (1, 2)), M=5)
    with pytest.raises(ValueError):
        oc.brute_force(many)


def test_brute_force_lower_bounds_random_feasible():
    for kind, N, D in [("MTSP", 7, 1), ("MPDP", 6, 1), ("MDVRP", 7, 2), ("FMDVRP", 7, 2)]:
        ins = pb.gen_uniform(kind, N=N, D=D, M=2, seed=17)
        res = oc.brute_force(ins)
        rng = np.random.default_rng(99)
        for _ in range(250):
            sol = random_feasible(ins, rng)
            assert pb.minmax_objective(sol, ins) >= res.objective - 1e-12


def test_brute_force_customer_relabel_symmetry():
    rng = np.random.default_rng(21)
    coords = rng.uniform(0, 1, (8, 2))
    depot = rng.uniform(0, 1, (1, 2))
    a = oc.brute_force(pb.Instance(kind="MTSP", coords=coords, depot_coords=depot, M=3))
    shuffle = rng.permutation(8)
    b = oc.brute_force(pb.Instance(kind="MTSP", coords=coords[shuffle],
                                   depot_coords=depot, M=3))
    assert math.isclose(a.objective, b.objective, rel_tol=1e-9)


def test_nodes_explored_counts_partitions():
    ins = pb.gen_uniform("MTSP", N=6, D=1, M=2, seed=2)
    res = oc.brute_force(ins)
    assert res.nodes_explored == 31  # Stirling S(6,2)


# ---------------------------------------------------------------------------
# nn_heuristic
# ---------------------------------------------------------------------------

def test_nn_heuristic_always_valid():
    for seed in range(30):
        for kind, D in [("MTSP", 1), ("MPDP", 1), ("MDVRP", 3), ("FMDVRP", 3)]:
            N = 12 if kind != "MPDP" else 12
            ins = pb.gen_uniform(kind, N=N, D=D, M=3, seed=seed)
            sol = oc.nn_heuristic(ins)
            assert pb.validate(sol, ins) is None, pb.validate(sol, ins)


def test_nn_heuristic_deterministic():
    ins = pb.gen_uniform("MTSP", N=15, D=1, M=4, seed=5)
    a = oc.nn_heuristic(ins)
    b = oc.nn_heuristic(ins)
    assert a.routes == b.routes and a.start_depots == b.start_depots


def test_nn_heuristic_upper_bounds_oracle():
    for seed in range(10):
        ins = pb.gen_uniform("MTSP", N=8, D=1, M=2, seed=seed)
        nn = pb.minmax_objective(oc.nn_heuristic(ins), ins)
        assert nn >= oc.brute_force(ins).objective - 1e-12


# ---------------------------------------------------------------------------
# two_opt
# ---------------------------------------------------------------------------

def test_two_opt_uncrosses_collinear():
    ins = pb.Instance(kind="MTSP",
                      coords=np.array([[1.0, 0.0], [2.0, 0.0], [3.0, 0.0], [4.0, 0.0]]),
                      depot_coords=np.array([[0.0, 0.0]]), M=2)
    crossed = [2, 0, 3, 1]
    before = pb.route_length(crossed, ins)
    improved = oc.two_opt(crossed, ins)
    after = pb.route_length(improved, ins)
    assert after < before
    assert math.isclose(after, 8.0, rel_tol=1e-12)  # out-and-back along the line


def test_two_opt_leaves_square_alone():
    ins = pb.Instance(kind="MTSP",
                      coords=np.array([[1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]),
                      depot_coords=np.array([[0.0, 0.0]]), M=2)
    assert oc.two_opt([0, 1, 2], ins) == [0, 1, 2]


def test_two_opt_never_lengthens_and_is_idempotent():
    for seed in range(20):
        rng = np.random.default_rng(seed)
        ins = pb.Instance(kind="MTSP", coords=rng.uniform(0, 1, (9, 2)),
                          depot_coords=rng.uniform(0, 1, (1, 2)), M=2)
        route = list(rng.permutation(9))
        out = oc.two_opt(route, ins)
        assert pb.route_length(out, ins) <= pb.route_length(route, ins) + 1e-12
        assert oc.two_opt(out, ins) == out


def test_two_opt_rejects_open_chain_kinds():
    ins = pb.gen_uniform("MPDP", N=6, D=1, M=2, seed=0)
    with pytest.raises(ValueError):
        oc.two_opt([0, 3, 1, 4, 2, 5], ins)


# ---------------------------------------------------------------------------
# gap
# ---------------------------------------------------------------------------

def test_gap_reproduces_published_pair():
    g = oc.gap(2.0337, 2.0154)
    assert round(g, 3) == 0.908
    assert abs(g - 0.9087) < 1e-3


def test_gap_zero_cases():
    assert oc.gap(2.0154, 2.0154) == 0.0
    assert oc.gap(1.4, 1.4) == 0.0


def test_gap_rejects_nonpositive_reference():
    with pytest.raises(ValueError):
        oc.gap(1.0, 0.0)
