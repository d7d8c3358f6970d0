from collections import Counter
from unittest import mock

import numpy as np
import pytest
from conftest import params64, tiny_cfg, tiny_model
from hypothesis import given, settings
from hypothesis import strategies as st

from minmaxvrp import decoder as de
from minmaxvrp import diffcore as dc
from minmaxvrp import encoder as en
from minmaxvrp import problems as pb
from minmaxvrp import rollout as ro

ALL_KINDS = ("MTSP", "MPDP", "MDVRP", "FMDVRP")


def make(kind, N=6, M=2, D=2, seed=0):
    return pb.gen_uniform(kind, N=N, D=D if kind in ("MDVRP", "FMDVRP") else 1,
                          M=M, seed=seed)


def model_free_walk(ins, perm, rng=None):
    """Drive a one-row state to terminal picking the first feasible action
    each step."""
    s = ro.DecodeState(ins, [perm], rng=rng)
    while not s.terminal:
        ro.step(s, de.feasibility_mask(s).argmax(axis=1))
    return s


# ---------------------------------------------------------------------------
# state mechanics
# ---------------------------------------------------------------------------

def test_bad_permutation_rejected():
    ins = make("MTSP")
    for bad in [(0, 0), (0, 2), (0,), (0, 1, 2)]:
        with pytest.raises(ValueError):
            ro.DecodeState(ins, [(0, 1), bad])


def test_masked_action_and_terminal_step_raise():
    ins = make("MTSP", N=4, M=2)
    s = ro.DecodeState(ins, [(0, 1)])
    with pytest.raises(ValueError, match="masked"):
        ro.step(s, [0])  # depot close on an empty route
    s = model_free_walk(ins, (0, 1))
    with pytest.raises(RuntimeError):
        ro.step(s, [2])
    with pytest.raises(RuntimeError):
        ro.finish(ro.DecodeState(ins, [(0, 1)]))


def test_step_counts_match_problem_family():
    for kind in ALL_KINDS:
        for N, M in [(6, 2), (8, 3)]:
            if kind == "MPDP" and N % 2:
                continue
            ins = make(kind, N=N, M=M)
            s = model_free_walk(ins, tuple(range(M)),
                                rng=np.random.default_rng(0))
            expect = N + 2 * M if kind in ("MDVRP", "FMDVRP") else N + M
            assert s.t == expect
            assert s.actions.shape == (1, expect)
            assert pb.validate(ro.finish(s)[0], ins) is None


def test_route_length_accumulates_from_depot():
    ins = make("MTSP", N=4, M=2)
    s = ro.DecodeState(ins, [(1, 0)])
    ro.step(s, [2 + 0])
    ro.step(s, [2 + 3])
    d = ins.depot_coords[0]
    manual = (np.hypot(*(d - ins.coords[0]))
              + np.hypot(*(ins.coords[0] - ins.coords[3])))
    assert abs(s.route_len[0] - manual) < 1e-12
    ro.step(s, [1])  # close agent 1's route
    assert s.pos.tolist() == [1]
    assert s.route_len.tolist() == [0.0]
    for a in (2 + 1, 2 + 2, 0):
        ro.step(s, [a])
    assert ro.finish(s)[0].routes == [[0, 3], [1, 2]]


def test_permutation_decides_depot_slots():
    ins = make("MTSP", N=4, M=3)
    s = ro.DecodeState(ins, [(2, 0, 1)])
    ro.step(s, [3 + 0])
    mask = de.feasibility_mask(s)[0]
    assert mask[2] and not mask[0] and not mask[1]


# ---------------------------------------------------------------------------
# model rollouts
# ---------------------------------------------------------------------------

def test_greedy_rollout_is_deterministic():
    cfg, params = tiny_model("MTSP")
    ins = make("MTSP", N=7, M=2, seed=3)
    (rs1,), lp1, _ = ro.decode_batch(ins, [(0, 1)], cfg, params)
    (rs2,), lp2, _ = ro.decode_batch(ins, [(0, 1)], cfg, params)
    assert rs1.routes == rs2.routes
    assert pb.minmax_objective(rs1, ins) == pb.minmax_objective(rs2, ins)
    assert np.array_equal(lp1.data, lp2.data)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_rollouts_always_feasible(kind):
    cfg, params = tiny_model(kind)
    for seed in range(15):
        ins = make(kind, N=6, M=2, seed=seed)
        rng = np.random.default_rng(seed)
        for mode in ("greedy", "sample"):
            (rs,), logp, _ = ro.decode_batch(ins, [(0, 1)], cfg, params,
                                             mode=mode, rng=rng)
            assert pb.validate(rs, ins) is None, pb.validate(rs, ins)
            assert logp.data[0, 0, 0] <= 1e-6


def test_forced_replay_reproduces_solution():
    cfg, params = tiny_model("MDVRP")
    ins = make("MDVRP", N=6, M=2, seed=4)
    (rs,), logp, _ = ro.decode_batch(ins, [(1, 0)], cfg, params, mode="sample",
                                     rng=np.random.default_rng(7))
    acts = ro.actions_from_solution(rs, (1, 0), ins)
    # replay under the same seed so the random start-context node matches
    (rs2,), total, _ = ro.decode_batch(ins, [(1, 0)], cfg, params,
                                       forced=[acts],
                                       rng=np.random.default_rng(7))
    assert rs2.routes == rs.routes
    assert rs2.start_depots == rs.start_depots
    assert rs2.end_depots == rs.end_depots
    assert abs(pb.minmax_objective(rs2, ins) - pb.minmax_objective(rs, ins)) < 1e-12
    assert abs(float(total.data[0, 0, 0]) - float(logp.data[0, 0, 0])) <= 1e-5


def test_forced_replay_recovers_logp_all_kinds():
    for kind in ALL_KINDS:
        cfg, params = tiny_model(kind)
        ins = make(kind, N=6, M=3, seed=11)
        seed = ALL_KINDS.index(kind)
        perm = (2, 0, 1)
        (rs,), logp, _ = ro.decode_batch(ins, [perm], cfg, params, mode="sample",
                                         rng=np.random.default_rng(seed))
        acts = ro.actions_from_solution(rs, perm, ins)
        _, total, _ = ro.decode_batch(ins, [perm], cfg, params, forced=[acts],
                                      rng=np.random.default_rng(seed))
        assert abs(float(total.data[0, 0, 0]) - float(logp.data[0, 0, 0])) <= 1e-5


def test_decode_batch_matches_stacked_single_rollouts():
    cfg, params = tiny_model("MTSP")
    ins = make("MTSP", N=6, M=3, seed=5)
    perms = [(0, 1, 2), (2, 1, 0), (1, 2, 0)]
    results, total, _ = ro.decode_batch(ins, perms, cfg, params)
    assert total.shape == (1, 3, 1)
    for k, perm in enumerate(perms):
        (rs,), logp, _ = ro.decode_batch(ins, [perm], cfg, params)
        assert results[k].routes == rs.routes
        assert abs(pb.minmax_objective(results[k], ins) - pb.minmax_objective(rs, ins)) < 1e-12
        assert abs(float(total.data[0, k, 0]) - float(logp.data[0, 0, 0])) <= 1e-5


def test_decode_batch_rejects_masked_forced_action():
    cfg, params = tiny_model("MTSP")
    ins = make("MTSP", N=4, M=2)
    # closing the first route before it holds a customer is masked; the
    # sequence has the episode's N + M = 6 steps
    with pytest.raises(ValueError, match="masked"):
        ro.decode_batch(ins, [(0, 1)], cfg, params, forced=[[0] * 6])


def test_step_rejects_an_action_outside_the_candidates():
    """-1 would wrap round to the last candidate and C index past the mask;
    both fail as one ValueError naming the action and the step, and leave
    the state as it was. A forced sequence reaches step the same way."""
    ins = make("MTSP", N=4, M=2)
    C = ins.M + ins.N
    for bad in (-1, C):
        s = ro.DecodeState(ins, [(0, 1)])
        with pytest.raises(ValueError, match=rf"action {bad} is not a candidate 0\.\.{C - 1} "
                                             r"at step 0"):
            ro.step(s, [bad])
        assert s.t == 0 and s.log == [] and not s.taken.any()
    cfg, params = tiny_model("MTSP")
    forced = ro.actions_from_solution(pb.RouteSet(routes=[[0, 1], [2, 3]]), (0, 1), ins)
    forced[2] = -1  # in place of closing the first route
    with pytest.raises(ValueError, match="action -1 is not a candidate .* at step 2"):
        ro.decode_batch(ins, [(0, 1)], cfg, params, forced=[forced])


def test_decode_batch_masks_each_state_once_per_step(monkeypatch):
    real = de.feasibility_mask
    calls = Counter()

    def counted(state):
        calls["masks"] += 1
        calls["rows"] += len(state.rows)
        return real(state)

    monkeypatch.setattr(de, "feasibility_mask", counted)
    for kind in ALL_KINDS:
        calls.clear()
        cfg, params = tiny_model(kind)
        ins = make(kind, N=6, M=3, seed=5)
        ro.decode_batch(ins, [(0, 1, 2), (2, 1, 0), (1, 2, 0)], cfg, params)
        steps = ins.N + (2 if kind in ("MDVRP", "FMDVRP") else 1) * ins.M
        assert calls == {"masks": steps, "rows": 3 * steps}


def has_choice(mask):
    """Some row of the R x C mask has more than one legal action."""
    return bool((np.count_nonzero(mask, axis=1) > 1).any())


def test_decode_batch_builds_constants_once_and_one_context_per_step(monkeypatch):
    """Every decoder layer the benchmark's tracer wraps runs through its
    module attribute, so an inlined or renamed layer fails here: the mask
    once per step over every row; the head (features, distance bias,
    context, glimpse, logits) once per step on which some row has a choice,
    over every row; and once per batch (constants, glimpse keys and
    values), under no_grad, with the graph recorded, and with forced
    actions."""
    head = ("scalar_features", "dist_exp_row", "context", "glimpse", "logits")
    calls = Counter()

    def counted(name, real):
        def layer(*args, **kwargs):
            calls[name] += 1
            if name == "context":
                calls["rows"] += len(args[0].rows)
            out = real(*args, **kwargs)
            if name == "feasibility_mask":
                calls["choices"] += has_choice(out)
            return out
        return layer

    for name in head + ("feasibility_mask", "DecodeConstants", "glimpse_kv"):
        monkeypatch.setattr(de, name, counted(name, getattr(de, name)))
    perms = [(0, 1, 2), (2, 1, 0), (1, 2, 0)]
    skipped = 0
    for kind in ALL_KINDS:
        cfg, params = tiny_model(kind)
        ins = make(kind, N=6, M=3, seed=5)
        steps = ins.N + (2 if kind in ("MDVRP", "FMDVRP") else 1) * ins.M
        calls.clear()
        with dc.no_grad():
            sols, _, _ = ro.decode_batch(ins, perms, cfg, params)
        choices = calls["choices"]
        want = dict.fromkeys(head, choices)
        want.update(feasibility_mask=steps, choices=choices, DecodeConstants=1,
                    glimpse_kv=1, rows=3 * choices)
        assert calls == want
        skipped += steps - choices
        forced = [ro.actions_from_solution(rs, o, ins) for rs, o in zip(sols, perms)]
        for kw in ({}, {"forced": forced}):
            calls.clear()
            ro.decode_batch(ins, perms, cfg, params, **kw)
            assert calls == want
    assert skipped > 0


def graph_nodes(loss):
    """Tensors reachable from loss through recorded parents, counted as
    the benchmark's tracer counts them."""
    return len(reachable(loss))


def reachable(t):
    """The ids of t and of every tensor behind it through recorded parents."""
    seen, stack = {id(t)}, [t]
    while stack:
        for parent in stack.pop()._parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return seen


def test_a_decode_step_records_three_graph_nodes(monkeypatch):
    """Context query, glimpse and masked logits: a decode step on which
    some row has a choice records exactly 3 graph nodes of its own behind
    the log-prob total, and a step without one a single constant leaf, its
    log-prob rows; one pick_sum node adds the chosen log-probs of every
    step. So one more customer adds steps and nodes by just those counts."""
    masks, picked = [], []
    real_mask, real_pick_sum = de.feasibility_mask, dc.pick_sum
    monkeypatch.setattr(de, "feasibility_mask",
                        lambda state: masks.append(real_mask(state)) or masks[-1])
    monkeypatch.setattr(dc, "pick_sum",
                        lambda steps, idx: picked.append(steps) or real_pick_sum(steps, idx))
    cfg, params = tiny_model("MTSP")
    perms = [(0, 1, 2), (2, 0, 1), (1, 2, 0)]
    fixed = []
    for N in (6, 7):
        masks.clear()
        picked.clear()
        ins = make("MTSP", N=N, M=3, seed=4)
        _, total, _ = ro.decode_batch(ins, perms, cfg, params, mode="sample",
                                      rng=np.random.default_rng(0))
        (steps,) = picked
        choices = [has_choice(m) for m in masks]
        assert len(steps) == len(choices) and 0 < sum(choices) < len(choices)
        behind = [reachable(t) for t in steps]
        for t, choice in enumerate(choices):
            own = behind[t].difference(*behind[:t], *behind[t + 1:])
            assert len(own) == (3 if choice else 1)
            assert steps[t].requires_grad == choice
        fixed.append(graph_nodes(total) - 3 * sum(choices) - (len(choices) - sum(choices)))
    assert fixed[0] == fixed[1]


def test_a_step_without_a_choice_scores_as_the_head_would(monkeypatch):
    """At every step on which each row has one legal action, the decoder
    head run on that state gives the constant log-prob rows that
    decode_batch uses in its place the same argmax and chosen value (0.0),
    and every other action a probability of exactly 0; mixed M, so done
    rows' no-op steps are among them."""
    real_encode, real_mask, real_pick_sum = en.encode, de.feasibility_mask, dc.pick_sum
    head, picked = {}, []

    def encode(variants, cfg, params):
        emb = real_encode(variants, cfg, params)
        cand = de.candidate_rows(emb)
        head.update(emb=emb, cand=cand, pooled=de.pooled_graph(emb, params),
                    kv=de.glimpse_kv(cand, params), bias=de.candidate_bias(emb, cfg.n_heads),
                    proj_t=dc.transpose(dc.matmul(cand, params["dec.logit"])))
        return emb

    def feasibility_mask(state):
        mask = real_mask(state)
        if not has_choice(mask):
            cfg, params = head["model"]
            with dc.no_grad():
                ctx = de.context(state, head["emb"].H_a, head["cand"], head["pooled"], params)
                q = de.glimpse(ctx, head["kv"], cfg, params, head["bias"])
                logp = de.logits(q, head["proj_t"], de.dist_exp_row(state), mask, params,
                                 cfg.d_model)
            head["rows"].append((state.t, logp.data.reshape(mask.shape)))
        return mask

    def pick_sum(steps, indexes):
        picked[:] = steps
        return real_pick_sum(steps, indexes)

    monkeypatch.setattr(en, "encode", encode)
    monkeypatch.setattr(de, "feasibility_mask", feasibility_mask)
    monkeypatch.setattr(dc, "pick_sum", pick_sum)
    for kind in ALL_KINDS:
        cfg, params = tiny_model(kind)
        head.update(model=(cfg, params), rows=[])
        D = 2 if kind in ("MDVRP", "FMDVRP") else 1
        instances = [make(kind, N=6, M=M, D=D, seed=M) for M in (2, 3)]
        perms = [ro.sample_permutations(v.M, 2, np.random.default_rng(v.M)) for v in instances]
        ro.decode_batch(instances, perms, cfg, params, mode="sample",
                        rng=np.random.default_rng(1))
        assert head["rows"]
        for t, rows in head["rows"]:
            assert not picked[t].requires_grad
            const = picked[t].data.reshape(rows.shape)
            legal = const == 0.0
            assert (legal.sum(axis=1) == 1).all()
            assert np.array_equal(rows.argmax(axis=1), const.argmax(axis=1))
            assert (rows[legal] == 0.0).all()
            assert (np.exp(rows[~legal].astype(np.float64)) == 0.0).all()
            assert (np.exp(const[~legal].astype(np.float64)) == 0.0).all()


@pytest.mark.parametrize("kind,N", [("MTSP", 1), ("MPDP", 2)])
def test_a_decode_without_a_choice_returns_its_only_solution_and_a_zero_total(kind, N):
    """With one route and no customer to order, no step has a choice:
    greedy, sampled with the graph and forced, each row returns the one
    solution, a total of exactly 0 that is a constant, and entropies of 0."""
    rng = np.random.default_rng(0)
    ins = pb.Instance(kind=kind, coords=rng.uniform(0, 1, (N, 2)),
                      depot_coords=rng.uniform(0, 1, (1, 2)), M=1)
    cfg, params = tiny_model(kind)
    only = pb.RouteSet(routes=[list(range(N))])
    forced = [ro.actions_from_solution(only, (0,), ins)] * 2
    for kw in ({}, {"mode": "sample", "rng": np.random.default_rng(1)}, {"forced": forced}):
        sols, total, entropy = ro.decode_batch(ins, [(0,), (0,)], cfg, params, **kw)
        assert sols == [only, only]
        assert total.data.tolist() == [[[0.0], [0.0]]] and not total.requires_grad
        assert entropy.shape == (2 * (N + 1),) and (entropy == 0.0).all()


@settings(max_examples=40)
@given(kind=st.sampled_from(ALL_KINDS), M=st.integers(1, 3), K=st.integers(1, 3),
       V=st.integers(1, 3), seed=st.integers(0, 2 ** 16))
def test_graph_decode_matches_the_decode_without_a_graph(kind, M, K, V, seed):
    """A sampled decode takes the same actions, rng draws and RouteSets
    under no_grad, which scores nothing, and with the graph recorded.
    Replaying those actions (forced) under no_grad scores them bitwise as
    the graph decode did."""
    N = 2 * M + 2 if kind == "MPDP" else M + 3
    D = 2 if kind in ("MDVRP", "FMDVRP") else 1
    rng = np.random.default_rng(seed)
    instances = [pb.Instance(kind=kind, coords=rng.uniform(0, 1, (N, 2)),
                             depot_coords=rng.uniform(0, 1, (D, 2)), M=M)
                 for _ in range(V)]
    perms = [ro.sample_permutations(M, K, rng) for _ in instances]
    cfg = tiny_cfg(kind)
    params = params64(cfg, seed=seed % 5)
    rngs = [np.random.default_rng(seed) for _ in range(2)]
    with dc.no_grad():
        sols_free, *unscored = ro.decode_batch(instances, perms, cfg, params,
                                               mode="sample", rng=rngs[0])
    assert unscored == [None, None]
    sols, total, entropy = ro.decode_batch(instances, perms, cfg, params,
                                           mode="sample", rng=rngs[1])
    assert sols == sols_free
    assert rngs[1].bit_generator.state == rngs[0].bit_generator.state
    steps = N + (2 if D == 2 else 1) * M
    assert total.shape == (V, K, 1) and entropy.shape == (V * K * steps,)
    forced = [ro.actions_from_solution(rs, o, ins)
              for i, ins in enumerate(instances)
              for rs, o in zip(sols[i * K:(i + 1) * K], perms[i])]
    with dc.no_grad():
        sols1, total1, entropy1 = ro.decode_batch(instances, perms, cfg, params,
                                                  forced=forced,
                                                  rng=np.random.default_rng(seed))
    assert sols1 == sols
    assert np.array_equal(total1.data, total.data)
    assert np.array_equal(entropy1, entropy)


@settings(max_examples=60)
@given(kind=st.sampled_from(ALL_KINDS), M=st.integers(1, 3),
       seed=st.integers(0, 2 ** 16), data=st.data())
def test_any_legal_walk_is_valid_and_replays(kind, M, seed, data):
    units = data.draw(st.integers(M, 3 if kind == "MPDP" else 6), label="N")
    N = 2 * units if kind == "MPDP" else units  # MPDP counts pairs
    D = data.draw(st.integers(1, 3), label="D") if kind in ("MDVRP", "FMDVRP") else 1
    rng = np.random.default_rng(seed)
    ins = pb.Instance(kind=kind, coords=rng.uniform(0, 1, (N, 2)),
                      depot_coords=rng.uniform(0, 1, (D, 2)), M=M)
    perm = tuple(int(v) for v in rng.permutation(M))
    s = ro.DecodeState(ins, [perm], rng=rng)
    while not s.terminal:
        legal = np.flatnonzero(de.feasibility_mask(s)[0]).tolist()
        ro.step(s, [data.draw(st.sampled_from(legal), label="action")])
    rs, = ro.finish(s)
    assert pb.validate(rs, ins) is None
    actions = ro.actions_from_solution(rs, perm, ins)
    assert actions == s.actions[0].tolist()
    replay = ro.DecodeState(ins, [perm])
    for a in actions:
        ro.step(replay, [a])
    again, = ro.finish(replay)
    assert (again.routes, again.start_depots, again.end_depots) == \
        (rs.routes, rs.start_depots, rs.end_depots)


def scripted_draws(script):
    """A stand-in for rollout.sample_rows that replays a script of actions,
    one per row per step."""
    script = list(script)
    return lambda rng, rows: np.array([script.pop(0) for _ in rows])


@settings(max_examples=50)
@given(seed=st.integers(0, 2 ** 32 - 1), R=st.integers(1, 12),
       C=st.integers(1, 9), dtype=st.sampled_from([np.float32, np.float64]))
def test_sample_rows_matches_per_row_choice(seed, R, C, dtype):
    """One inverse-CDF draw over all rows takes the actions that
    rng.choice takes row by row, and leaves the generator in its state."""
    gen = np.random.default_rng(seed)
    legal = gen.random((R, C)) < 0.5
    legal[np.arange(R), gen.integers(C, size=R)] = True
    legal[0] = np.arange(C) == gen.integers(C)  # one legal action only
    z = np.where(legal, gen.normal(scale=3.0, size=(R, C)), dc.MASK_VALUE).astype(dtype)
    shifted = z - z.max(axis=1, keepdims=True)
    rows = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    a, b = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)
    got = ro.sample_rows(a, rows)
    probs = np.exp(rows.astype(np.float64))
    probs /= probs.sum(axis=1, keepdims=True)
    assert got.tolist() == [b.choice(C, p=p) for p in probs]
    assert a.bit_generator.state == b.bit_generator.state
    assert legal[np.arange(R), got].all()


@settings(max_examples=40)
@given(kind=st.sampled_from(ALL_KINDS), M=st.integers(1, 3),
       seed=st.integers(0, 2 ** 16), data=st.data())
def test_forced_replay_of_any_legal_walk_matches_free_decode(kind, M, seed, data):
    units = data.draw(st.integers(M, 3 if kind == "MPDP" else 5), label="N")
    N = 2 * units if kind == "MPDP" else units
    D = data.draw(st.integers(1, 3), label="D") if kind in ("MDVRP", "FMDVRP") else 1
    rng = np.random.default_rng(seed)
    ins = pb.Instance(kind=kind, coords=rng.uniform(0, 1, (N, 2)),
                      depot_coords=rng.uniform(0, 1, (D, 2)), M=M)
    perm = tuple(int(v) for v in rng.permutation(M))
    walk = ro.DecodeState(ins, [perm], rng=np.random.default_rng(seed))
    while not walk.terminal:
        legal = np.flatnonzero(de.feasibility_mask(walk)[0]).tolist()
        ro.step(walk, [data.draw(st.sampled_from(legal), label="action")])
    actions = walk.actions[0].tolist()
    cfg, params = tiny_model(kind, seed=seed % 7)
    # sampled decoding whose draws follow the walk
    with mock.patch.object(ro, "sample_rows", scripted_draws(actions)):
        [rs], free, _ = ro.decode_batch(ins, [perm], cfg, params, mode="sample",
                                        rng=np.random.default_rng(seed))
    assert ro.actions_from_solution(rs, perm, ins) == actions
    _, forced, _ = ro.decode_batch(ins, [perm], cfg, params, forced=[actions],
                                   rng=np.random.default_rng(seed))
    assert abs(float(forced.data[0, 0, 0]) - float(free.data[0, 0, 0])) <= 1e-5


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_batched_rows_match_one_variant_decodes(kind):
    """Row (a, k) of the 8-symmetry x 3-permutation batch that infer
    decodes is the V=1 decode of symmetry a under permutation k, given the
    same pre-start depot draws."""
    cfg, params = tiny_model(kind, seed=2)
    ins = make(kind, N=8 if kind == "MPDP" else 7, M=3, D=3, seed=21)
    variants = pb.augment8(ins)
    perms = [(0, 1, 2), (2, 0, 1), (1, 2, 0)]
    results, total, _ = ro.decode_batch(
        variants, perms, cfg, params,
        rng=[np.random.default_rng((5, a)) for a in range(8)])
    assert total.shape == (8, 3, 1)
    if kind in ("MDVRP", "FMDVRP"):  # K scalar draws per variant, in order
        state = ro.DecodeState(variants, perms,
                               rng=[np.random.default_rng((5, a)) for a in range(8)])
        expect = []
        for a in range(8):
            rng = np.random.default_rng((5, a))
            expect += [int(rng.integers(ins.D)) for _ in perms]
        assert state.node.tolist() == expect
    for a, var in enumerate(variants):
        for k, perm in enumerate(perms):
            rng = np.random.default_rng((5, a))
            if kind in ("MDVRP", "FMDVRP"):
                for _ in range(k):  # the draws of rows (a, 0..k-1)
                    rng.integers(ins.D)
            [rs1], total1, _ = ro.decode_batch(var, [perm], cfg, params, rng=rng)
            rs = results[a * 3 + k]
            assert (ro.actions_from_solution(rs, perm, var)
                    == ro.actions_from_solution(rs1, perm, var))
            assert pb.minmax_objective(rs, var) == pb.minmax_objective(rs1, var)
            assert abs(float(total.data[a, k, 0])
                       - float(total1.data[0, 0, 0])) <= 1e-5


@settings(max_examples=30)
@given(kind=st.sampled_from(ALL_KINDS), M=st.integers(1, 3), K=st.integers(1, 3),
       n=st.integers(1, 4), aug8=st.booleans(), seed=st.integers(0, 2 ** 16),
       data=st.data())
def test_mixed_instance_batch_rows_match_their_own_decodes(kind, M, K, n, aug8, seed,
                                                           data):
    """In one decode_batch over the variants of n same-size instances, each
    with its own K permutations and node rngs, every row's RouteSet and
    log-prob sum are bitwise those of a batch of its instance alone, greedy
    and forced; and infer over the list is infer instance by instance."""
    units = data.draw(st.integers(M, 3 if kind == "MPDP" else 5), label="N")
    N = 2 * units if kind == "MPDP" else units
    D = data.draw(st.integers(1, 3), label="D") if kind in ("MDVRP", "FMDVRP") else 1
    rng = np.random.default_rng(seed)
    instances = [pb.Instance(kind=kind, coords=rng.uniform(0, 1, (N, 2)),
                             depot_coords=rng.uniform(0, 1, (D, 2)), M=M, uid=seed + i)
                 for i in range(n)]
    perms = [[tuple(int(v) for v in rng.permutation(M)) for _ in range(K)]
             for _ in instances]
    groups = [pb.augment8(ins) if aug8 else [ins] for ins in instances]
    V = len(groups[0])

    def node_rngs(i):
        return [np.random.default_rng((seed, i, a)) for a in range(V)]

    def decode(idx, **kw):
        return ro.decode_batch([v for i in idx for v in groups[i]],
                               [perms[i] for i in idx for _ in range(V)],
                               cfg, params, rng=[g for i in idx for g in node_rngs(i)], **kw)

    cfg, params = MODELS[kind]
    forced = []
    for i in range(n):  # one sampled walk per row, to replay
        sols, _, _ = ro.decode_batch(groups[i], perms[i], cfg, params, mode="sample",
                                     rng=np.random.default_rng(seed + i))
        forced += [ro.actions_from_solution(rs, perms[i][r % K], groups[i][r // K])
                   for r, rs in enumerate(sols)]
    for kw in ({}, {"forced": forced}):
        sols, total, _ = decode(range(n), **kw)
        for i in range(n):
            rows = slice(i * V * K, (i + 1) * V * K)
            own = {k: v[rows] for k, v in kw.items()}
            sols1, total1, _ = decode([i], **own)
            assert sols[rows] == sols1
            assert np.array_equal(total.data[i * V:(i + 1) * V], total1.data)
    assert (ro.infer(instances, cfg, params, n_per=K, use_aug8=aug8, seed=seed % 3)
            == [ro.infer(ins, cfg, params, n_per=K, use_aug8=aug8, seed=seed % 3)
                for ins in instances])


class ReplayedDraws:
    """Stands in for the Generator that draws a multi-depot decode's
    pre-start nodes, returning given values in order."""

    def __init__(self, values):
        self.values = list(values)

    def integers(self, high):
        return self.values.pop(0)


@settings(max_examples=30)
@given(kind=st.sampled_from(ALL_KINDS), K=st.integers(2, 3), seed=st.integers(0, 2 ** 16),
       data=st.data())
def test_mixed_m_batch_rows_match_their_own_single_m_decodes(kind, K, seed, data):
    """In one sampled decode_batch over instances of one kind, N and D whose
    M differs, each row is its own single-M decode: replaying its actions
    (forced) in a batch of its instance alone gives the same RouteSet, a
    log-prob sum within 1e-5 relative (absolute below 1) and the same step
    entropies. The entropy array holds exactly the real steps, and every
    no-op step of a finished row adds exactly 0.0."""
    Ms = data.draw(st.lists(st.integers(1, 3), min_size=2, max_size=4)
                   .filter(lambda ms: len(set(ms)) > 1), label="Ms")
    units = data.draw(st.integers(max(Ms), 3 if kind == "MPDP" else 5), label="N")
    N = 2 * units if kind == "MPDP" else units
    multi = kind in ("MDVRP", "FMDVRP")
    D = data.draw(st.integers(1, 3), label="D") if multi else 1
    rng = np.random.default_rng(seed)
    depots = rng.uniform(0, 1, (D, 2))
    instances = [pb.Instance(kind=kind, coords=rng.uniform(0, 1, (N, 2)),
                             depot_coords=depots, M=M, uid=i) for i, M in enumerate(Ms)]
    perms = [ro.sample_permutations(M, K, rng) for M in Ms]
    steps = [N + (2 if multi else 1) * M for M in Ms]
    T = max(steps)
    cfg, params = MODELS[kind]
    picked = []

    def pick_sum(steps, indexes, _real=dc.pick_sum):
        # each step's chosen log-probs, T x V x K
        picked.append(np.take_along_axis(np.stack([t.data for t in steps]),
                                         indexes[..., None], axis=-1)[..., 0])
        return _real(steps, indexes)

    draws = np.random.default_rng(seed)
    with mock.patch.object(dc, "pick_sum", pick_sum):
        sols, total, entropy = ro.decode_batch(instances, perms, cfg, params,
                                               mode="sample", rng=draws)
    # chosen[i, t, k] is step t of rollout (i, k)
    assert len(picked) == 1 and picked[0].shape == (T, len(Ms), K)
    chosen = picked[0].transpose(1, 0, 2)
    assert entropy.shape == (K * sum(steps),)
    # the pre-start nodes the batch drew, K per variant in row order
    nodes = ro.DecodeState(instances, perms, rng=np.random.default_rng(seed)).node.tolist()
    at = 0
    for i, ins in enumerate(instances):
        assert (chosen[i, steps[i]:] == 0.0).all()
        forced = [ro.actions_from_solution(rs, o, ins)
                  for rs, o in zip(sols[i * K:(i + 1) * K], perms[i])]
        own = ReplayedDraws(nodes[i * K:(i + 1) * K]) if multi else None
        sols1, total1, entropy1 = ro.decode_batch(ins, perms[i], cfg, params,
                                                  forced=forced, rng=own)
        assert sols1 == sols[i * K:(i + 1) * K]
        for rs in sols1:
            assert pb.validate(rs, ins) is None
        want = total1.data[0, :, 0].astype(np.float64)
        got = total.data[i, :, 0].astype(np.float64)
        assert (np.abs(got - want) <= 1e-5 * np.maximum(np.abs(want), 1.0)).all()
        np.testing.assert_allclose(entropy[at:at + K * steps[i]], entropy1,
                                   rtol=1e-5, atol=1e-5)
        at += K * steps[i]


def test_infer_decodes_every_symmetry_in_one_loop(monkeypatch):
    """One encoder pass, one mask per step and one head run per step on
    which some of the 24 rows has a choice."""
    calls = Counter()
    for mod, name in ((de, "logits"), (de, "feasibility_mask"), (en, "encode")):
        real = getattr(mod, name)

        def counted(*args, _real=real, _name=name, **kwargs):
            calls[_name] += 1
            out = _real(*args, **kwargs)
            if _name == "feasibility_mask":
                calls["choices"] += has_choice(out)
            return out

        monkeypatch.setattr(mod, name, counted)
    for kind in ALL_KINDS:
        calls.clear()
        cfg, params = tiny_model(kind)
        ins = make(kind, N=6, M=3, seed=4)
        ro.infer(ins, cfg, params, n_per=3, use_aug8=True)
        steps = ins.N + (2 if kind in ("MDVRP", "FMDVRP") else 1) * ins.M
        choices = calls["choices"]
        assert 0 < choices <= steps
        assert calls == {"logits": choices, "feasibility_mask": steps, "encode": 1,
                         "choices": choices}


def _instance(kind, N, M, D=1, coincident=False, seed=0):
    rng = np.random.default_rng(seed)
    depots = rng.uniform(0, 1, (D, 2))
    coords = (np.repeat(depots[:1], N, axis=0) if coincident
              else rng.uniform(0, 1, (N, 2)))
    if coincident:
        depots[:] = depots[0]
    return pb.Instance(kind=kind, coords=coords, depot_coords=depots, M=M)


BOUNDARY_CASES = {
    "MTSP M=1": ("MTSP", 5, 1, 1),
    "FMDVRP M=1": ("FMDVRP", 5, 1, 2),
    "MDVRP M=1": ("MDVRP", 5, 1, 2),
    "MTSP N=M": ("MTSP", 3, 3, 1),
    "MDVRP N=M": ("MDVRP", 3, 3, 2),
    "FMDVRP N=M": ("FMDVRP", 3, 3, 2),
    "MDVRP D>N": ("MDVRP", 3, 2, 5),
    "MPDP N=2M": ("MPDP", 6, 3, 1),
}


@pytest.mark.parametrize("case", BOUNDARY_CASES)
def test_infer_boundary_instances(case):
    kind, N, M, D = BOUNDARY_CASES[case]
    cfg, params = tiny_model(kind)
    ins = _instance(kind, N, M, D, seed=len(case))
    res = ro.infer(ins, cfg, params, n_per=3, use_aug8=True)
    assert pb.validate(res.solution, ins) is None


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_infer_every_point_on_the_depot(kind):
    cfg, params = tiny_model(kind)
    ins = _instance(kind, 6, 2, 3 if kind in ("MDVRP", "FMDVRP") else 1,
                    coincident=True)
    res = ro.infer(ins, cfg, params, n_per=3, use_aug8=True)
    assert pb.validate(res.solution, ins) is None
    assert res.objective == 0.0


def test_decode_state_rejects_variants_of_mixed_sizes():
    """Mixed N, D or kind fails as one line; mixed M is padded instead, but
    infer, whose results depend on each instance alone, takes one M."""
    for variants, sizes in (
            ([make("MTSP", N=6), make("MTSP", N=7)], "('MTSP', 6, 1, 2), ('MTSP', 7, 1, 2)"),
            ([make("MDVRP", D=2), make("MDVRP", D=3)],
             "('MDVRP', 6, 2, 2), ('MDVRP', 6, 3, 2)"),
            ([make("MDVRP"), make("FMDVRP", M=3)],
             "('FMDVRP', 6, 2, 3), ('MDVRP', 6, 2, 2)")):
        with pytest.raises(ValueError) as exc:
            ro.DecodeState(variants, [(0, 1)])
        assert str(exc.value) == f"a decode batch needs variants of one kind and size, got [{sizes}]"
    state = ro.DecodeState([make("MTSP", M=2), make("MTSP", M=3)], [[(1, 0)], [(2, 0, 1)]])
    assert state.M.tolist() == [2, 3] and state.row_steps.tolist() == [8, 9]
    assert (state.n_slots, state.n_steps) == (3, 9)
    assert state.o.tolist() == [[1, 0, 0, 0], [2, 0, 1, 1]]
    cfg, params = tiny_model("MTSP")
    with pytest.raises(ValueError) as exc:
        ro.infer([make("MTSP", M=3), make("MTSP", M=2)], cfg, params)
    assert str(exc.value) == ("infer needs instances of one kind and size, "
                              "got [('MTSP', 6, 1, 2), ('MTSP', 6, 1, 3)]")


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_done_rows_repeat_their_last_action_and_change_nothing(kind):
    """In a batch of M = 2, 4 and 3, a row past its own steps may only
    repeat its last action, and that step leaves its state as it was; no
    row may take a padded slot."""
    variants = [make(kind, N=8, M=M, D=2, seed=M) for M in (2, 4, 3)]
    s = ro.DecodeState(variants, [[(0, 1)], [(2, 0, 3, 1)], [(1, 0, 2)]],
                       rng=np.random.default_rng(0))
    multi = kind in ("MDVRP", "FMDVRP")
    fields = ("pos", "agent", "node", "route_len", "needs_start", "n_unvisited")
    frozen = {}
    while not s.terminal:
        mask = de.feasibility_mask(s)
        for r in np.flatnonzero(s.done):
            assert np.flatnonzero(mask[r]).tolist() == [s.actions[r, -1]]
            frozen.setdefault(r, [getattr(s, f)[r].copy() for f in fields])
            assert [getattr(s, f)[r] for f in fields] == frozen[r]
        if not multi:
            assert not mask[0, 2:4].any() and not mask[2, 3]
        ro.step(s, mask.argmax(axis=1), mask)
    assert s.row_steps.tolist() == [8 + (2 if multi else 1) * M for M in (2, 4, 3)]
    for rs, ins in zip(ro.finish(s), variants):
        assert pb.validate(rs, ins) is None


def test_decode_state_rejects_a_wrong_count_of_permutations():
    variants = [make("MTSP", seed=0), make("MTSP", seed=1)]
    for table, counts in (([[(0, 1)]], [1]), ([[(0, 1)], [(0, 1), (1, 0)]], [1, 2]),
                          ([], []), ([[], []], [0, 0])):
        with pytest.raises(ValueError) as exc:
            ro.DecodeState(variants, table)
        assert str(exc.value) == f"need K permutations for each of the 2 variants, got {counts}"


def test_decode_state_rejects_a_wrong_count_of_variant_rngs():
    variants = [make("MDVRP", seed=s) for s in range(3)]
    rngs = [np.random.default_rng(s) for s in range(2)]
    with pytest.raises(ValueError) as exc:
        ro.DecodeState(variants, [(0, 1)], rng=rngs)
    assert str(exc.value) == "need one rng for each of the 3 variants, got 2"


def test_decode_batch_rejects_forced_sequences_of_the_wrong_shape():
    cfg, params = tiny_model("MDVRP")
    ins = make("MDVRP", N=4, M=2)  # T = N + 2M = 8 steps, R = 2 rows
    perms = [(0, 1), (1, 0)]
    for forced, lengths in (([[0] * 8], [8]), ([[0] * 8] * 3, [8, 8, 8]),
                            ([[0] * 8, [0] * 7], [8, 7])):
        with pytest.raises(ValueError) as exc:
            ro.decode_batch(ins, perms, cfg, params, forced=forced)
        assert str(exc.value) == f"forced needs 2 action sequences of 8 steps, got lengths {lengths}"
    # with mixed M each row's sequence has its own row's steps
    with pytest.raises(ValueError) as exc:
        ro.decode_batch([ins, make("MDVRP", N=4, M=3)], [[(0, 1)], [(0, 1, 2)]], cfg, params,
                        forced=[[0] * 8, [0] * 8])
    assert str(exc.value) == "forced needs 2 action sequences of [8, 10] steps, got lengths [8, 8]"


def test_infer_of_no_instances_is_empty():
    cfg, params = tiny_model("MTSP")
    assert ro.infer([], cfg, params, n_per=2, use_aug8=True) == []


def test_decode_mode_validation():
    cfg, params = tiny_model("MTSP")
    ins = make("MTSP")
    with pytest.raises(ValueError):
        ro.decode_batch(ins, [(0, 1)], cfg, params, mode="argmax")
    with pytest.raises(ValueError):
        ro.decode_batch(ins, [(0, 1)], cfg, params, mode="sample")


# ---------------------------------------------------------------------------
# permutation sampling
# ---------------------------------------------------------------------------

def test_sample_permutations_uniform():
    rng = np.random.default_rng(0)
    counts = {}
    draws = 6000
    for o in ro.sample_permutations(3, draws, rng):
        counts[o] = counts.get(o, 0) + 1
    assert sum(counts.values()) == draws
    assert len(counts) == 6
    # each cell is Binomial(6000, 1/6): 3 sigma is about 87
    for c in counts.values():
        assert abs(c - 1000) < 87


def test_sample_permutations_m1_and_validation():
    rng = np.random.default_rng(0)
    assert ro.sample_permutations(1, 5, rng) == [(0,)] * 5
    with pytest.raises(ValueError):
        ro.sample_permutations(3, 0, rng)


# ---------------------------------------------------------------------------
# inference
# ---------------------------------------------------------------------------

def test_infer_returns_valid_solution_on_original_coords():
    for kind in ALL_KINDS:
        cfg, params = tiny_model(kind)
        ins = make(kind, N=6, M=2, seed=8)
        res = ro.infer(ins, cfg, params, n_per=2, use_aug8=True, seed=1)
        assert pb.validate(res.solution, ins) is None
        assert abs(res.objective - pb.minmax_objective(res.solution, ins)) < 1e-12
        assert 0 <= res.aug_index < 8
        assert sorted(res.permutation) == list(range(ins.M))


def test_infer_monotone_in_sampling_budget():
    cfg, params = tiny_model("MTSP", seed=1)
    ins = make("MTSP", N=8, M=3, seed=13)
    objs = [ro.infer(ins, cfg, params, n_per=n, seed=0).objective
            for n in (1, 4, 8)]
    assert objs[0] >= objs[1] >= objs[2]
    aug = ro.infer(ins, cfg, params, n_per=4, use_aug8=True, seed=0).objective
    assert aug <= objs[1] + 1e-12


MODELS = {kind: tiny_model(kind, seed=3) for kind in ALL_KINDS}


@settings(max_examples=30)
@given(kind=st.sampled_from(ALL_KINDS), M=st.integers(1, 3),
       seed=st.integers(0, 2 ** 16), data=st.data())
def test_infer_never_worse_with_more_permutations_or_symmetries(kind, M, seed, data):
    """The best objective does not rise as n_per grows, and the 8
    symmetries never do worse than the original alone (up to infer's
    1e-12 tie tolerance: of two near-equal solutions it keeps the first)."""
    units = data.draw(st.integers(M, 3 if kind == "MPDP" else 6), label="N")
    N = 2 * units if kind == "MPDP" else units
    D = data.draw(st.integers(1, 3), label="D") if kind in ("MDVRP", "FMDVRP") else 1
    rng = np.random.default_rng(seed)
    ins = pb.Instance(kind=kind, coords=rng.uniform(0, 1, (N, 2)),
                      depot_coords=rng.uniform(0, 1, (D, 2)), M=M, uid=seed)
    cfg, params = MODELS[kind]
    obj = {(n, aug): ro.infer(ins, cfg, params, n_per=n, use_aug8=aug,
                              seed=seed % 3).objective
           for n in (1, 2, 5) for aug in (False, True)}
    for aug in (False, True):
        assert obj[1, aug] + 1e-12 >= obj[2, aug]
        assert obj[2, aug] + 1e-12 >= obj[5, aug]
    for n in (1, 2, 5):
        assert obj[n, True] <= obj[n, False] + 1e-12


def test_infer_rejects_bad_budget():
    cfg, params = tiny_model("MTSP")
    with pytest.raises(ValueError):
        ro.infer(make("MTSP"), cfg, params, n_per=0)


def test_infer_leaves_no_gradients_behind():
    cfg, params = tiny_model("MTSP")
    ins = make("MTSP", N=5, M=2, seed=2)
    ro.infer(ins, cfg, params, n_per=2)
    assert all(t.grad is None for t in params.values())
