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
    rs1, obj1, lp1 = ro.rollout(ins, (0, 1), cfg, params)
    rs2, obj2, lp2 = ro.rollout(ins, (0, 1), cfg, params)
    assert rs1.routes == rs2.routes
    assert obj1 == obj2 and lp1 == lp2


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_rollouts_always_feasible(kind):
    cfg, params = tiny_model(kind)
    for seed in range(15):
        ins = make(kind, N=6, M=2, seed=seed)
        rng = np.random.default_rng(seed)
        for mode in ("greedy", "sample"):
            rs, obj, logp = ro.rollout(ins, (0, 1), cfg, params,
                                       mode=mode, rng=rng)
            assert pb.validate(rs, ins) is None, pb.validate(rs, ins)
            assert abs(obj - pb.minmax_objective(rs, ins)) < 1e-12
            assert logp <= 1e-6


def test_forced_replay_reproduces_solution():
    cfg, params = tiny_model("MDVRP")
    ins = make("MDVRP", N=6, M=2, seed=4)
    rs, obj, logp = ro.rollout(ins, (1, 0), cfg, params, mode="sample",
                               rng=np.random.default_rng(7))
    acts = ro.actions_from_solution(rs, (1, 0), ins)
    # replay under the same seed so the random start-context node matches
    (rs2,), total, _ = ro.decode_batch(ins, [(1, 0)], cfg, params,
                                       forced=[acts],
                                       rng=np.random.default_rng(7))
    obj2 = pb.minmax_objective(rs2, ins)
    assert rs2.routes == rs.routes
    assert rs2.start_depots == rs.start_depots
    assert rs2.end_depots == rs.end_depots
    assert abs(obj2 - obj) < 1e-12
    assert abs(float(total.data[0, 0, 0]) - logp) <= 1e-5


def test_forced_replay_recovers_logp_all_kinds():
    for kind in ALL_KINDS:
        cfg, params = tiny_model(kind)
        ins = make(kind, N=6, M=3, seed=11)
        seed = ALL_KINDS.index(kind)
        perm = (2, 0, 1)
        rs, obj, logp = ro.rollout(ins, perm, cfg, params, mode="sample",
                                   rng=np.random.default_rng(seed))
        acts = ro.actions_from_solution(rs, perm, ins)
        _, total, _ = ro.decode_batch(ins, [perm], cfg, params, forced=[acts],
                                      rng=np.random.default_rng(seed))
        assert abs(float(total.data[0, 0, 0]) - logp) <= 1e-5


def test_decode_batch_matches_stacked_single_rollouts():
    cfg, params = tiny_model("MTSP")
    ins = make("MTSP", N=6, M=3, seed=5)
    perms = [(0, 1, 2), (2, 1, 0), (1, 2, 0)]
    results, total, _ = ro.decode_batch(ins, perms, cfg, params)
    assert total.shape == (1, 3, 1)
    for k, perm in enumerate(perms):
        rs, obj, logp = ro.rollout(ins, perm, cfg, params)
        assert results[k].routes == rs.routes
        assert abs(pb.minmax_objective(results[k], ins) - obj) < 1e-12
        assert abs(float(total.data[0, k, 0]) - logp) <= 1e-5


def test_decode_batch_rejects_masked_forced_action():
    cfg, params = tiny_model("MTSP")
    ins = make("MTSP", N=4, M=2)
    # closing the first route before it holds a customer is masked; the
    # sequence has the episode's N + M = 6 steps
    with pytest.raises(ValueError, match="masked"):
        ro.decode_batch(ins, [(0, 1)], cfg, params, forced=[[0] * 6])


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


def test_decode_batch_builds_constants_once_and_one_context_per_step(monkeypatch):
    """Without a graph the loop runs one context per step. With gradients
    on it adds one scoring pass over every step's rows; a forced decode
    runs only that pass. Past SCORE_CELLS both run one context per step,
    recording the graph there."""
    real_consts, real_context = de.DecodeConstants, de.context
    calls = Counter()

    def consts(variants):
        calls["consts"] += 1
        return real_consts(variants)

    def context(inputs, *args):
        calls["context"] += 1
        calls["rows"] += inputs.agent.size
        return real_context(inputs, *args)

    monkeypatch.setattr(de, "DecodeConstants", consts)
    monkeypatch.setattr(de, "context", context)
    perms = [(0, 1, 2), (2, 1, 0), (1, 2, 0)]
    for kind in ALL_KINDS:
        cfg, params = tiny_model(kind)
        ins = make(kind, N=6, M=3, seed=5)
        steps = ins.N + (2 if kind in ("MDVRP", "FMDVRP") else 1) * ins.M
        calls.clear()
        with dc.no_grad():
            sols, _, _ = ro.decode_batch(ins, perms, cfg, params)
        assert calls == {"consts": 1, "context": steps, "rows": 3 * steps}
        calls.clear()
        ro.decode_batch(ins, perms, cfg, params)
        assert calls == {"consts": 1, "context": steps + 1, "rows": 6 * steps}
        calls.clear()
        forced = [ro.actions_from_solution(rs, o, ins) for rs, o in zip(sols, perms)]
        ro.decode_batch(ins, perms, cfg, params, forced=forced)
        assert calls == {"consts": 1, "context": 1, "rows": 3 * steps}
        # past SCORE_CELLS the loop records the graph instead: no extra pass
        with monkeypatch.context() as m:
            m.setattr(ro, "SCORE_CELLS", 0)
            for kw in ({}, {"forced": forced}):
                calls.clear()
                ro.decode_batch(ins, perms, cfg, params, **kw)
                assert calls == {"consts": 1, "context": steps, "rows": 3 * steps}


@settings(max_examples=40)
@given(kind=st.sampled_from(ALL_KINDS), M=st.integers(1, 3), K=st.integers(1, 3),
       V=st.integers(1, 3), seed=st.integers(0, 2 ** 16))
def test_scoring_pass_matches_the_decode_without_a_graph(kind, M, K, V, seed):
    """A sampled decode takes the same actions, rng draws and RouteSets
    under no_grad, which scores nothing, with one scoring pass over all
    steps, and with the graph recorded step by step (SCORE_CELLS 0). The
    two graphs give the same log-prob sums, entropies and gradients within
    1e-5."""
    N = 2 * M + 2 if kind == "MPDP" else M + 3
    D = 2 if kind in ("MDVRP", "FMDVRP") else 1
    rng = np.random.default_rng(seed)
    instances = [pb.Instance(kind=kind, coords=rng.uniform(0, 1, (N, 2)),
                             depot_coords=rng.uniform(0, 1, (D, 2)), M=M)
                 for _ in range(V)]
    perms = [ro.sample_permutations(M, K, rng) for _ in instances]
    cfg = tiny_cfg(kind)
    params = params64(cfg, seed=seed % 5)
    rngs = [np.random.default_rng(seed) for _ in range(3)]
    with dc.no_grad():
        sols_free, *unscored = ro.decode_batch(instances, perms, cfg, params,
                                               mode="sample", rng=rngs[0])
    assert unscored == [None, None]
    runs = [ro.decode_batch(instances, perms, cfg, params, mode="sample", rng=rngs[1])]
    with mock.patch.object(ro, "SCORE_CELLS", 0):
        runs.append(ro.decode_batch(instances, perms, cfg, params, mode="sample",
                                    rng=rngs[2]))
    steps = N + (2 if D == 2 else 1) * M
    grads = []
    for (sols, total, entropy), g in zip(runs, rngs[1:]):
        assert sols == sols_free
        assert g.bit_generator.state == rngs[0].bit_generator.state
        assert total.shape == (V, K, 1) and entropy.shape == (V * K, steps)
        dc.backward(dc.sum_all(total))
        grads.append({name: p.grad for name, p in params.items()})
        for p in params.values():
            p.zero_grad()
    (_, stacked, h_stacked), (_, stepwise, h_stepwise) = runs
    np.testing.assert_allclose(stacked.data, stepwise.data, rtol=0, atol=1e-5)
    np.testing.assert_allclose(h_stacked, h_stepwise, rtol=0, atol=1e-5)
    for name, g in grads[0].items():
        if g is None:
            assert grads[1][name] is None
        else:
            np.testing.assert_allclose(g, grads[1][name], rtol=1e-5, atol=1e-5)


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
    z = np.where(legal, gen.normal(scale=3.0, size=(R, C)), de.MASK_VALUE).astype(dtype)
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


def test_infer_decodes_every_symmetry_in_one_loop(monkeypatch):
    calls = Counter()
    for mod, name in ((de, "logits"), (de, "feasibility_mask"), (en, "encode")):
        real = getattr(mod, name)

        def counted(*args, _real=real, _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(mod, name, counted)
    for kind in ALL_KINDS:
        calls.clear()
        cfg, params = tiny_model(kind)
        ins = make(kind, N=6, M=3, seed=4)
        ro.infer(ins, cfg, params, n_per=3, use_aug8=True)
        steps = ins.N + (2 if kind in ("MDVRP", "FMDVRP") else 1) * ins.M
        assert calls == {"logits": steps, "feasibility_mask": steps, "encode": 1}


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
    with pytest.raises(ValueError) as exc:
        ro.DecodeState([make("MTSP", N=6), make("MTSP", N=7)], [(0, 1)])
    assert str(exc.value) == ("a decode batch needs variants of one kind and size, "
                              "got [('MTSP', 6, 1, 2), ('MTSP', 7, 1, 2)]")


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
