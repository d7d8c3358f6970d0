import math

import numpy as np
import pytest
from conftest import tiny_model
from hypothesis import given, settings
from hypothesis import strategies as st

from minmaxvrp import decoder as de
from minmaxvrp import diffcore as dc
from minmaxvrp import encoder as en
from minmaxvrp import problems as pb
from minmaxvrp import rollout as ro


def mtsp(N, M, seed=0):
    return pb.gen_uniform("MTSP", N=N, D=1, M=M, seed=seed)


def one(ins, perm, rng=None):
    """A one-row decode state."""
    return ro.DecodeState(ins, [perm], rng=rng)


def walk(state, actions):
    for a in actions:
        ro.step(state, [a])
    return state


def mask0(state):
    return de.feasibility_mask(state)[0].tolist()


def batch_inputs(emb, cfg, params):
    """The per-batch tensors decode_batch builds from the V-variant
    embeddings."""
    cand = de.candidate_rows(emb)
    return (emb.H_a, cand, de.pooled_graph(emb, params),
            de.glimpse_kv(cand, params),
            dc.transpose(dc.matmul(cand, params["dec.logit"])))


# ---------------------------------------------------------------------------
# feasibility masks
# ---------------------------------------------------------------------------

def test_mask_walkthrough_four_customers_three_routes():
    ins = mtsp(4, 3)
    s = one(ins, (0, 1, 2))
    M = 3
    # empty first route: depot masked, every customer open
    assert mask0(s) == [False] * 3 + [True] * 4
    walk(s, [M + 0])
    assert mask0(s) == [True, False, False, False, True, True, True]
    walk(s, [M + 1])
    # two unvisited left, two empty routes pending: depot is forced
    assert mask0(s) == [True] + [False] * 6
    walk(s, [0, M + 2])
    assert mask0(s) == [False, True, False, False, False, False, False]
    walk(s, [1, M + 3])
    # last route holds the last customer: only its depot return remains
    assert mask0(s) == [False, False, True, False, False, False, False]
    walk(s, [2])
    assert s.terminal


def test_mask_last_route_depot_blocked_while_customers_remain():
    ins = mtsp(3, 2)
    s = one(ins, (0, 1))
    walk(s, [2 + 0, 0, 2 + 1])
    assert s.pos.tolist() == [1] and s.node.tolist() == [2 + 1]
    mask = mask0(s)
    assert not mask[1]  # one customer left, so no depot return yet
    assert mask[2 + 2]


def test_mask_mpdp_full_walkthrough():
    coords = np.array([[0.1, 0.1], [0.9, 0.1], [0.1, 0.9], [0.9, 0.9]])
    ins = pb.Instance(kind="MPDP", coords=coords,
                      depot_coords=np.array([[0.5, 0.5]]), M=2)
    M = 2
    s = one(ins, (0, 1))
    assert mask0(s) == [False, False, True, True, False, False]
    walk(s, [M + 0])
    # pair 1 must go to route 2, so only this pair's delivery is open
    assert mask0(s) == [False, False, False, False, True, False]
    walk(s, [M + 2])
    assert mask0(s) == [True] + [False] * 5
    walk(s, [0])
    assert mask0(s) == [False, False, False, True, False, False]
    walk(s, [M + 1])
    assert mask0(s) == [False, False, False, False, False, True]
    walk(s, [M + 3])
    assert mask0(s) == [False, True, False, False, False, False]
    walk(s, [1])
    assert s.terminal
    assert pb.validate(ro.finish(s)[0], ins) is None


def test_mask_multi_depot_phases():
    rng_coords = np.random.default_rng(5)
    coords = rng_coords.uniform(0, 1, (3, 2))
    depots = rng_coords.uniform(0, 1, (2, 2))
    for kind in ("MDVRP", "FMDVRP"):
        ins = pb.Instance(kind=kind, coords=coords, depot_coords=depots, M=2)
        s = one(ins, (0, 1))
        assert mask0(s) == [True, True, False, False, False]
        walk(s, [1])  # start at depot 1
        assert mask0(s) == [False, False, True, True, True]
        walk(s, [2 + 0])
        if kind == "MDVRP":
            assert mask0(s)[:2] == [False, True]  # must close where it started
        else:
            assert mask0(s)[:2] == [True, True]


def test_masked_probability_is_exactly_zero():
    cfg, params = tiny_model("MTSP")
    ins = mtsp(5, 2)
    H_a, cand, pooled, kv, proj = batch_inputs(en.encode([ins], cfg, params),
                                                 cfg, params)
    s = one(ins, (0, 1))
    ctx = de.context(s, H_a, cand, pooled, params)
    q = de.glimpse(ctx, kv, cfg, params)
    mask = de.feasibility_mask(s)[None]
    logp = de.logits(q, proj, de.dist_exp_row(s)[None], mask,
                     params, cfg.d_model)
    probs = np.exp(logp.data.astype(np.float64))[0, 0]
    assert (probs[~mask[0, 0]] == 0.0).all()
    assert abs(probs[mask[0, 0]].sum() - 1.0) < 1e-6
    # logit clipping bounds any two feasible log-probs within 2*50
    finite = logp.data[0, 0][mask[0, 0]]
    assert finite.max() - finite.min() <= 100.0 + 1e-3


def test_all_masked_row_raises():
    cfg, params = tiny_model("MTSP")
    q = dc.constant(np.zeros((1, cfg.d_model)))
    proj = dc.constant(np.zeros((cfg.d_model, 7)))
    with pytest.raises(ValueError):
        de.logits(q, proj, np.ones((1, 7)), np.zeros((1, 7), dtype=bool),
                  params, cfg.d_model)


def test_nonfinite_logit_input_raises():
    """A NaN or inf in the glimpse output, the distance factors or any
    parameter fails the decode step's one finiteness check."""
    cfg, params = tiny_model("MTSP")
    proj = dc.constant(np.ones((cfg.d_model, 7)))
    mask = np.ones((1, 7), dtype=bool)
    for bad in (np.nan, np.inf):
        q, exp_rows = np.zeros((1, cfg.d_model)), np.ones((1, 7))
        q[0, 3] = bad
        # an inf times 0 in the matmul makes a NaN, which NumPy warns of
        with (pytest.raises(FloatingPointError, match="non-finite"),
              np.errstate(invalid="ignore")):
            de.logits(dc.constant(q), proj, exp_rows, mask, params, cfg.d_model)
        q[0, 3], exp_rows[0, 5] = 0.0, bad
        with pytest.raises(FloatingPointError, match="non-finite"):
            de.logits(dc.constant(q), proj, exp_rows, mask, params, cfg.d_model)
    params["embed.customer.W"].data[0, 0] = np.nan
    with pytest.raises(FloatingPointError, match="decoder logits"):
        ro.decode_batch(mtsp(5, 2), [(0, 1)], cfg, params)


# ---------------------------------------------------------------------------
# distance bias
# ---------------------------------------------------------------------------

def test_dist_exp_row_range_and_fallback():
    ins = mtsp(5, 2)
    s = one(ins, (0, 1))
    row = de.dist_exp_row(s)[0]
    assert row.shape == (7,)
    assert (row >= 1.0 - 1e-12).all() and (row <= math.exp(30.0)).all()
    # farthest unvisited customer sits at ratio exactly 1
    cust = row[2:]
    assert abs(cust.max() - math.e) < 1e-9
    s.visited[:] = True
    s.n_unvisited[:] = 0
    assert np.allclose(de.dist_exp_row(s), math.e)


def test_alpha_d_only_shifts_logits_not_masks():
    cfg, params = tiny_model("MTSP", seed=3)
    ins = mtsp(6, 2)
    H_a, cand, pooled, kv, proj = batch_inputs(en.encode([ins], cfg, params),
                                                 cfg, params)
    s = one(ins, (0, 1))
    mask = de.feasibility_mask(s)[None]
    ctx = de.context(s, H_a, cand, pooled, params)
    q = de.glimpse(ctx, kv, cfg, params)
    exp_rows = de.dist_exp_row(s)[None]
    with_bias = de.logits(q, proj, exp_rows, mask, params, cfg.d_model).data.copy()
    params["dec.alpha_dist"].data[:] = 0.0
    no_bias = de.logits(q, proj, exp_rows, mask, params, cfg.d_model).data
    assert not np.allclose(with_bias, no_bias)
    assert de.feasibility_mask(s).tolist() == mask[0].tolist()


# ---------------------------------------------------------------------------
# scalar features and context
# ---------------------------------------------------------------------------

def features0(state):
    """(agents fraction, customers fraction, length features) of row 0."""
    fracs, feats = de.scalar_features(state)
    return fracs[0, 0], fracs[0, 1], feats[0].tolist()


def test_first_route_fractions_are_one():
    ins = mtsp(6, 3)
    s = one(ins, (2, 0, 1))
    frac_m, frac_n, feats = features0(s)
    assert frac_m == 1.0 and frac_n == 1.0
    assert feats[0] == 0.0
    assert feats[1] == feats[2] > 0.0  # nothing visited: LD equals the span


def test_mtsp_span_feature_is_constant_ld_shrinks():
    ins = mtsp(6, 2)
    s = one(ins, (0, 1))
    span0 = features0(s)[2][1]
    depot_d = np.sqrt(((ins.coords - ins.depot_coords[0]) ** 2).sum(axis=1))
    far = int(np.argmax(depot_d))
    walk(s, [2 + far])
    frac_m, frac_n, feats = features0(s)
    assert feats[1] == span0
    assert feats[2] < span0
    assert frac_n == (ins.N - 1) / ins.N


def test_mpdp_sum_pd_halves_on_symmetric_pairs():
    coords = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
    ins = pb.Instance(kind="MPDP", coords=coords,
                      depot_coords=np.array([[0.5, 0.5]]), M=2)
    s = one(ins, (0, 1))
    assert features0(s)[2][4] == 2.0  # both unit pairs pending
    walk(s, [2 + 0, 2 + 2])
    frac_m, frac_n, feats = features0(s)
    assert feats[4] == 1.0
    assert feats[1] == 1.0  # pair 0 finished inside this route
    assert frac_n == 0.5


def test_mpdp_longest_p_and_d_track_unvisited():
    ins = pb.gen_uniform("MPDP", N=6, D=1, M=2, seed=9)
    s = one(ins, (0, 1))
    depot_d = np.sqrt(((ins.coords - ins.depot_coords[0]) ** 2).sum(axis=1))
    _, _, feats = features0(s)
    assert abs(feats[2] - depot_d[:3].max()) < 1e-12
    assert abs(feats[3] - depot_d[3:].max()) < 1e-12
    assert feats[1] == 0.0  # no pair served yet


def mpdp_loop_reference(s):
    """The MPDP mask, served-pair feature and pending-pair feature of a
    one-row state as per-pair loops over the current route's contents."""
    ins = s.variants[0]
    M, n = ins.M, ins.n_pairs
    current = []
    for a in s.actions[0].tolist():
        current = current + [a - M] if a >= M else []
    visited, pos = s.visited[0], int(s.pos[0])
    open_pairs = {j for j in current if j < n and j + n not in current}
    served = [j - n for j in current if j >= n]
    pairs_left = int((~visited[:n]).sum())
    routes_after = M - pos - 1
    mask = np.zeros(M + ins.N, dtype=bool)
    for p in range(n):
        mask[M + p] = not visited[p] and pairs_left - 1 >= routes_after
        mask[M + n + p] = not visited[n + p] and p in open_pairs
    if current and not open_pairs:
        mask[s.o[0, pos]] = (pairs_left >= routes_after if routes_after
                             else pairs_left == 0)
    pair_d = np.sqrt(((ins.coords[:n] - ins.coords[n:]) ** 2).sum(axis=1))
    pending = sum(float(pair_d[p]) for p in range(n) if not visited[p])
    return (mask, max((float(pair_d[p]) for p in served), default=0.0),
            pending / max(routes_after, 1))


@settings(max_examples=40)
@given(kind=st.sampled_from(["MTSP", "MPDP", "MDVRP", "FMDVRP"]), V=st.integers(1, 3),
       K=st.integers(1, 3), M=st.integers(1, 3), D=st.integers(1, 3),
       grid=st.sampled_from([0, 4]), seed=st.integers(0, 2 ** 16))
def test_decode_constants_match_the_per_variant_norm(kind, V, K, M, D, grid, seed):
    """The candidate distances of all variants, made in one pass, are
    bitwise (sign bits included) the norm of each variant's coordinate
    differences, one variant at a time; repeated points (grid 4) give exact
    zeros. The per-row constants are the rows of their variant's."""
    rng = np.random.default_rng(seed)
    D = D if kind in pb.MULTI_DEPOT_KINDS else 1
    N = 2 * M + 2 if kind == "MPDP" else M + 3

    def point(shape):
        xy = rng.uniform(-1.0, 1.0, shape)
        return np.round(xy * grid) / grid if grid else xy

    variants = [pb.Instance(kind=kind, coords=point((N, 2)), depot_coords=point((D, 2)), M=M)
                for _ in range(V)]
    state = ro.DecodeState(variants, [tuple(range(M))] * K)
    c = state.consts
    for a, v in enumerate(variants):
        slots = np.repeat(v.depot_coords, state.n_slots // D, axis=0)
        cand = np.concatenate([slots, v.coords])
        want = np.sqrt(((cand - cand[:, None]) ** 2).sum(axis=2))
        assert np.array_equal(c.cand_dist[a], want)
        assert np.array_equal(np.signbit(c.cand_dist[a]), np.signbit(want))
    rows, n = state.variant, state.n_slots
    if kind == "MPDP":
        pickup = n + np.arange(N // 2)
        assert np.array_equal(c.pair_d, c.cand_dist[:, pickup, pickup + N // 2][rows])
        assert np.array_equal(c.depot_d, c.cand_dist[rows, 0, n:])
    else:
        nearest = c.cand_dist[:, :n, n:].min(axis=1)
        assert np.array_equal(c.nearest, nearest[rows])
        assert np.array_equal(c.span, nearest.max(axis=1)[rows])


@pytest.mark.parametrize("seed", range(6))
def test_mpdp_arrays_match_per_pair_loops(seed):
    ins = pb.gen_uniform("MPDP", N=10, D=1, M=2 + seed % 3, seed=seed)
    rng = np.random.default_rng(seed)
    s = one(ins, tuple(rng.permutation(ins.M)))
    while not s.terminal:
        mask, longest_pd, pending_pd = mpdp_loop_reference(s)
        assert mask0(s) == mask.tolist()
        assert features0(s)[2][1] == longest_pd
        # summed in another order than the loop: equal to rounding
        assert math.isclose(features0(s)[2][4], pending_pd, rel_tol=1e-12, abs_tol=1e-12)
        walk(s, [int(rng.choice(np.flatnonzero(mask)))])


def test_context_row_shape_and_multi_depot_pool():
    for kind in ("MTSP", "MDVRP"):
        cfg, params = tiny_model(kind)
        ins = pb.gen_uniform(kind, N=5, D=2 if kind == "MDVRP" else 1,
                             M=2, seed=1)
        H_a, cand, pooled, _, _ = batch_inputs(en.encode([ins], cfg, params),
                                               cfg, params)
        s = one(ins, (0, 1), rng=np.random.default_rng(0))
        row = de.context(s, H_a, cand, pooled, params)
        assert row.shape == (1, 1, cfg.d_model)
        assert np.isfinite(row.data).all()


@pytest.mark.parametrize("kind", ["MTSP", "MPDP", "MDVRP", "FMDVRP"])
def test_context_rows_match_one_state_calls(kind):
    """Along random walks, each row of a 2-variant x 3-permutation batch
    gets the context a one-row state of its variant and permutation gets
    (rtol 1e-6: BLAS may sum a many-row matmul in another order)."""
    cfg, params = tiny_model(kind, seed=4)
    multi = kind in ("MDVRP", "FMDVRP")
    ins = pb.gen_uniform(kind, N=6, D=2 if multi else 1, M=2, seed=6)
    variants = [ins, pb.augment8(ins)[5]]
    perms = [(1, 0), (0, 1), (1, 0)]
    H_a, cand, pooled, _, _ = batch_inputs(en.encode(variants, cfg, params),
                                           cfg, params)
    singles = [(one(v, o), batch_inputs(en.encode([v], cfg, params), cfg, params))
               for v in variants for o in perms]
    batch = ro.DecodeState(variants, perms)
    rng = np.random.default_rng(1)
    while not batch.terminal:
        rows = de.context(batch, H_a, cand, pooled, params).data
        assert rows.shape == (2, 3, cfg.d_model)
        for r, (s, (h_a, c, p, _, _)) in enumerate(singles):
            row = de.context(s, h_a, c, p, params).data[0, 0]
            np.testing.assert_allclose(rows[r // 3, r % 3], row, rtol=1e-6, atol=1e-7)
        masks = de.feasibility_mask(batch)
        acts = [int(rng.choice(np.flatnonzero(m))) for m in masks]
        ro.step(batch, acts, masks)
        for (s, _), a in zip(singles, acts):
            walk(s, [a])


def test_glimpse_gradients_reach_encoder_params():
    cfg, params = tiny_model("MTSP", seed=2)
    ins = mtsp(5, 2)
    H_a, cand, pooled, kv, _ = batch_inputs(en.encode([ins], cfg, params),
                                            cfg, params)
    s = one(ins, (0, 1))
    ctx = de.context(s, H_a, cand, pooled, params)
    q = de.glimpse(ctx, kv, cfg, params)
    dc.backward(dc.sum_all(q))
    assert params["embed.customer.W"].grad is not None
    assert np.abs(params["embed.customer.W"].grad).sum() > 0
