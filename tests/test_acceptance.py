"""End-to-end acceptance battery.

Each test is one numbered criterion and prints a single PASS/FAIL verdict
line with the measured figures, so a plain pytest run doubles as the
acceptance report. The training check (criterion 3) is the slow one and
runs last.
"""

import itertools
import math
import os
import time
from dataclasses import replace

import numpy as np

from minmaxvrp import cli
from minmaxvrp import decoder as de
from minmaxvrp import diffcore as dc
from minmaxvrp import encoder as en
from minmaxvrp import oracle as oc
from minmaxvrp import problems as pb
from minmaxvrp import rollout as ro
from minmaxvrp import training as tr
from conftest import params64, random_feasible, tiny_cfg, tiny_model

ALL_KINDS = ("MTSP", "MPDP", "MDVRP", "FMDVRP")
DATA = os.path.join(os.path.dirname(__file__), "data")


def report(capsys, num, name, ok, detail):
    verdict = "PASS" if ok else "FAIL"
    with capsys.disabled():
        print(f"\ncriterion {num} {verdict} - {name}: {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


# ---------------------------------------------------------------------------
# criterion 1: analytic gradients vs central finite differences, d=16
# ---------------------------------------------------------------------------

def _t64(rng, shape, scale=0.3):
    return dc.Tensor(rng.normal(0.0, scale, shape), requires_grad=True,
                     dtype=np.float64)


def _attn_params64(rng, prefix, d, d_k, n_heads, split_query=False):
    """One d x d matrix per role, drawn head block by head block."""
    roles = ("qp", "qd", "k", "v") if split_query else ("q", "k", "v")
    heads = [[rng.normal(0.0, 0.3, (d, d_k)) for _ in roles]
             for _ in range(n_heads)]
    p = {f"{prefix}.{role}": dc.Tensor(np.hstack(blocks), requires_grad=True,
                                       dtype=np.float64)
         for role, blocks in zip(roles, zip(*heads))}
    p[f"{prefix}.proj"] = _t64(rng, (d, d))
    return p


def _surrogate_case(seed):
    """A frozen REINFORCE surrogate built from freshly sampled rollouts."""
    kind = ALL_KINDS[seed % len(ALL_KINDS)]
    cfg = tiny_cfg(kind)
    N = 4 if kind == "MPDP" else 5
    D = 2 if cfg.multi_depot else 1
    ins = pb.gen_uniform(kind, N, D, 2, seed=seed)
    params = params64(cfg, seed=seed)
    rng = np.random.default_rng(seed)
    perms = ro.sample_permutations(ins.M, 2, rng)
    solutions, _, _ = ro.decode_batch(ins, perms, cfg, params, mode="sample",
                                      rng=rng)
    objs = [pb.minmax_objective(rs, ins) for rs in solutions]
    base = tr.aps_baseline(objs)
    forced = [ro.actions_from_solution(rs, o, ins)
              for rs, o in zip(solutions, perms)]
    f = tr.frozen_surrogate(ins, perms, forced, [o - base for o in objs],
                            cfg, seed=seed + 1000)
    return f, params


def _padded_surrogate_case(seed):
    """A frozen REINFORCE surrogate over one decode of two instances of
    M=2 and M=3, the first padded to the second's agent slots."""
    kind = ALL_KINDS[seed % len(ALL_KINDS)]
    cfg = tiny_cfg(kind)
    N = 6 if kind == "MPDP" else 5
    D = 2 if cfg.multi_depot else 1
    instances = [pb.gen_uniform(kind, N, D, M, seed=seed + M) for M in (2, 3)]
    params = params64(cfg, seed=seed)
    rng = np.random.default_rng(seed)
    perms = [ro.sample_permutations(ins.M, 2, rng) for ins in instances]
    solutions, _, _ = ro.decode_batch(instances, perms, cfg, params, mode="sample",
                                      rng=rng)
    forced, advantages = [], []
    for i, ins in enumerate(instances):
        rows = solutions[2 * i:2 * i + 2]
        objs = [pb.minmax_objective(rs, ins) for rs in rows]
        forced += [ro.actions_from_solution(rs, o, ins) for rs, o in zip(rows, perms[i])]
        advantages += [o - tr.aps_baseline(objs) for o in objs]
    f = tr.frozen_surrogate(instances, perms, forced, advantages, cfg, seed=seed + 1000)
    return f, params


def test_criterion_1_gradient_fidelity(capsys):
    d, d_k, n_heads = 16, 8, 2
    cfg = tiny_cfg("MTSP")
    start = time.perf_counter()
    worst = {}

    def check(label, f, params, spp, seed):
        err = dc.grad_check(f, params, samples_per_param=spp,
                            rng=np.random.default_rng(seed))
        worst[label] = max(worst.get(label, 0.0), err)

    for seed in range(20):
        rng = np.random.default_rng(seed)
        X = dc.constant(rng.normal(0.0, 1.0, (4, d)), dtype=np.float64)
        C = dc.constant(rng.normal(0.0, 1.0, (6, d)), dtype=np.float64)

        p = _attn_params64(rng, "blk", d, d_k, n_heads)
        check("mha", lambda pp: dc.sum_all(dc.tanh(
            en._mh_attention(X, C, pp, "blk", n_heads, scaled=True))), p, 4, seed)

        p = _attn_params64(rng, "blk", d, d_k, n_heads)
        keep = np.arange(6)[None, :] < 3 + seed % 3  # the last keys are padding
        check("mha-key-pad", lambda pp: dc.sum_all(dc.tanh(en._mh_attention(
            X, C, pp, "blk", n_heads, True, bias=en.key_bias(keep)))), p, 4, seed)

        p = _attn_params64(rng, "blk", d, d_k, n_heads)
        check("mhsa", lambda pp: dc.sum_all(dc.tanh(
            en._mh_attention(X, C, pp, "blk", n_heads, scaled=False))), p, 4, seed)

        p = _attn_params64(rng, "blk", d, d_k, n_heads, split_query=True)
        rows = rng.random(4) < 0.5
        check("mhsa-pd", lambda pp: dc.sum_all(dc.tanh(
            en._mh_attention(X, C, pp, "blk", n_heads, scaled=False,
                             pickup_rows=rows))), p, 4, seed)

        p = {"blk.w1": _t64(rng, (d, 32)), "blk.w2": _t64(rng, (32, d))}
        check("ff", lambda pp: dc.sum_all(dc.tanh(
            en.ff(X, pp, "blk"))), p, 6, seed)

        p = _attn_params64(rng, "layer0.blk_attn", d, d_k, n_heads)
        p["layer0.blk_ff.w1"] = _t64(rng, (d, 32))
        p["layer0.blk_ff.w2"] = _t64(rng, (32, d))
        p["layer0.a1"] = _t64(rng, (1, 1), scale=0.4)
        p["layer0.a2"] = _t64(rng, (1, 1), scale=0.4)
        scaled = seed % 2 == 0
        check("rezero-layer", lambda pp: dc.sum_all(dc.tanh(
            en._attn_block(X, C, pp, 0, "blk", 1, scaled, cfg, "r"))),
            p, 3, seed)

        gp = _attn_params64(rng, "dec.glimpse", d, d_k, n_heads)
        gp["dec.glimpse.proj"] = _t64(rng, (d, d))
        ctx = dc.constant(rng.normal(0.0, 1.0, (3, d)), dtype=np.float64)
        cand = dc.constant(rng.normal(0.0, 1.0, (7, d)), dtype=np.float64)
        check("glimpse", lambda pp: dc.sum_all(dc.tanh(
            de.glimpse(dc.matmul(ctx, pp["dec.glimpse.q"]), de.glimpse_kv(cand, pp), cfg, pp))),
            gp, 4, seed)

        lp = {"dec.logit": _t64(rng, (d, d)),
              "dec.alpha_dist": _t64(rng, (1, 1), scale=0.4)}
        qc = dc.constant(rng.normal(0.0, 1.0, (3, d)), dtype=np.float64)
        exp_rows = rng.uniform(1.0, math.e, (3, 7))
        masks = rng.random((3, 7)) < 0.5
        masks[:, :2] = True
        # sum only feasible entries: the masked ones carry the huge
        # penalty constant, which would swamp the finite differences
        feas = dc.constant(masks.astype(np.float64))
        check("logits", lambda pp: dc.sum_all(dc.mul(de.logits(
            qc, dc.transpose(dc.matmul(cand, pp["dec.logit"])), exp_rows,
            masks, pp, d),
            feas)), lp, 4, seed)

        f, params = _surrogate_case(seed)
        check("full-surrogate", f, params, 1, seed)

        f, params = _padded_surrogate_case(seed)
        check("padded-surrogate", f, params, 1, seed)

    elapsed = time.perf_counter() - start
    top = max(worst.values())
    ok = top < 5e-3 and elapsed < 60.0
    blocks = ", ".join(f"{k} {v:.1e}" for k, v in worst.items())
    report(capsys, 1, "gradient fidelity", ok,
           f"20 seeds, worst rel err {top:.1e} ({blocks}), {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 2: every rollout feasible across 1000 instances per kind
# ---------------------------------------------------------------------------

def test_criterion_2_feasibility_suite(capsys):
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    checked = 0
    bad = 0
    mpdp_violations = 0
    with dc.no_grad():
        for kind in ALL_KINDS:
            cfg, params = tiny_model(kind)
            for _ in range(1000):
                N = int(rng.integers(6, 31))
                if kind == "MPDP":
                    N += N % 2
                    M = int(rng.integers(2, min(5, N // 2) + 1))
                else:
                    M = int(rng.integers(2, 6))
                D = int(rng.integers(2, 5)) if cfg.multi_depot else 1
                ins = pb.gen_uniform(kind, N, D, M,
                                     seed=int(rng.integers(2 ** 63)))
                perm = ro.sample_permutations(M, 1, rng)[0]
                for mode in ("greedy", "sample"):
                    (rs,), _, _ = ro.decode_batch(ins, [perm], cfg, params,
                                                  mode=mode, rng=rng)
                    msg = pb.validate(rs, ins)
                    checked += 1
                    if msg is not None:
                        bad += 1
                        if kind == "MPDP":
                            mpdp_violations += 1
    elapsed = time.perf_counter() - start
    ok = bad == 0 and mpdp_violations == 0 and elapsed < 120.0
    report(capsys, 2, "feasibility suite", ok,
           f"{checked} rollouts (1000 instances x 4 kinds x 2 modes), "
           f"{bad} invalid, {mpdp_violations} pairing violations, "
           f"{elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 4: symmetry invariances of the objective, loss, and inference
# ---------------------------------------------------------------------------

def test_criterion_4_aps_invariances(capsys):
    rng = np.random.default_rng(4)
    # (a) route order never matters to the min-max objective
    order_exact = 0
    for i in range(200):
        kind = ALL_KINDS[i % 4]
        N = 8 if kind == "MPDP" else int(rng.integers(4, 10))
        D = 2 if kind in ("MDVRP", "FMDVRP") else 1
        M = int(rng.integers(2, 4))
        ins = pb.gen_uniform(kind, N, D, M, seed=4000 + i)
        sol = random_feasible(ins, rng)
        perm = rng.permutation(len(sol.routes))
        shuffled = pb.RouteSet(
            routes=[sol.routes[j] for j in perm],
            start_depots=[sol.start_depots[j] for j in perm],
            end_depots=[sol.end_depots[j] for j in perm])
        if pb.minmax_objective(shuffled, ins) == pb.minmax_objective(sol, ins):
            order_exact += 1

    # (b) K identical objectives leave an exactly zero gradient
    cfg, params = tiny_model("MTSP")
    twin = pb.gen_uniform("MTSP", 2, 1, 2, seed=7)
    loss, *_ = tr.aps_loss([twin], cfg, params, K=2,
                           rng=np.random.default_rng(7))
    dc.backward(loss)
    grads_zero = all(
        p.grad is None or not p.grad.any()
        for p in params.values() if p.requires_grad)
    zero_loss = loss.data.item() == 0.0

    # (c) objective is monotone in n_per and in enabling the 8 symmetries
    mono = 0
    for i in range(200):
        kind = ALL_KINDS[i % 4]
        cfg_k, params_k = tiny_model(kind)
        D = 2 if kind in ("MDVRP", "FMDVRP") else 1
        ins = pb.gen_uniform(kind, 6, D, 2, seed=4400 + i)
        o1 = ro.infer(ins, cfg_k, params_k, n_per=1, seed=0).objective
        o2 = ro.infer(ins, cfg_k, params_k, n_per=2, seed=0).objective
        o4 = ro.infer(ins, cfg_k, params_k, n_per=4, seed=0).objective
        oa = ro.infer(ins, cfg_k, params_k, n_per=4, use_aug8=True,
                      seed=0).objective
        if o2 <= o1 and o4 <= o2 and oa <= o4:
            mono += 1

    ok = order_exact == 200 and zero_loss and grads_zero and mono == 200
    report(capsys, 4, "APS invariances", ok,
           f"route-order exact {order_exact}/200, identical-K loss "
           f"{loss.data.item():.1f} with zero grad {grads_zero}, "
           f"monotone n_per/aug {mono}/200")


# ---------------------------------------------------------------------------
# criterion 5: fresh encoder is the identity map (ReZero at alpha=0)
# ---------------------------------------------------------------------------

def test_criterion_5_rezero_identity(capsys):
    identical = []
    for seed, kind in enumerate(ALL_KINDS):
        cfg = replace(tiny_cfg(kind), n_layers=2)
        params = en.init_params(cfg, np.random.default_rng(seed))
        D = 2 if cfg.multi_depot else 1
        ins = pb.gen_uniform(kind, 7 if kind != "MPDP" else 6, D, 3,
                             seed=50 + seed)
        out = en.encode([ins], cfg, params)
        base = en.initial_embeddings([ins], cfg, params)
        same = (np.array_equal(out.H_a.data, base.H_a.data)
                and np.array_equal(out.H_c.data, base.H_c.data))
        if cfg.multi_depot:
            same = same and np.array_equal(out.H_d.data, base.H_d.data)
        identical.append(same)
    ok = all(identical)
    report(capsys, 5, "ReZero identity at init", ok,
           f"bitwise identity on all streams for "
           f"{sum(identical)}/{len(ALL_KINDS)} kinds (2 layers)")


# ---------------------------------------------------------------------------
# criterion 6: the 8 square symmetries preserve every route length
# ---------------------------------------------------------------------------

def test_criterion_6_augmentation_isometry(capsys):
    rng = np.random.default_rng(6)
    worst = 0.0
    for i in range(200):
        kind = ALL_KINDS[i % 4]
        D = 2 if kind in ("MDVRP", "FMDVRP") else 1
        ins = pb.gen_uniform(kind, 8, D, 2, seed=6000 + i)
        sol = random_feasible(ins, rng)
        base = pb.minmax_objective(sol, ins)
        variants = pb.augment8(ins)
        for var in variants:
            worst = max(worst, abs(pb.minmax_objective(sol, var) - base))
    ok = worst <= 1e-9
    report(capsys, 6, "augmentation isometry", ok,
           f"200 instances x 8 maps, worst objective drift {worst:.2e}")


# ---------------------------------------------------------------------------
# criterion 7: sharp attention on pre-scaled queries == scaled attention
# ---------------------------------------------------------------------------

def test_criterion_7_mhsa_mha_equivalence(capsys):
    d, d_k, n_heads = 16, 8, 2
    worst = 0.0
    for seed in range(10):
        rng = np.random.default_rng(700 + seed)
        heads = [[rng.normal(0.0, 0.3, (d, d_k)) for _ in "qkv"]
                 for _ in range(n_heads)]
        p = {f"blk.{nm}": dc.Tensor(np.hstack(blocks))
             for nm, blocks in zip("qkv", zip(*heads))}
        p["blk.proj"] = dc.Tensor(rng.normal(0.0, 0.3, (d, d)))
        X = rng.normal(0.0, 1.0, (5, d))
        C = dc.constant(rng.normal(0.0, 1.0, (7, d)))
        soft = en._mh_attention(dc.constant(X), C, p, "blk", n_heads, scaled=True)
        sharp = en._mh_attention(dc.constant(X / math.sqrt(d_k)), C, p, "blk", n_heads,
                                 scaled=False)
        worst = max(worst, float(np.abs(soft.data - sharp.data).max()))
    ok = worst < 1e-5
    report(capsys, 7, "MHSA/MHA equivalence", ok,
           f"10 seeds, max |difference| {worst:.2e}")


# ---------------------------------------------------------------------------
# criterion 8: eil51 parse + exhaustively verified sub-instance optimum
# ---------------------------------------------------------------------------

def _exhaustive_minmax(instance):
    """Optimum by direct enumeration: every split, every route order."""
    depot = instance.depot_coords[0]

    def tour(order):
        pts = [depot] + [instance.coords[j] for j in order] + [depot]
        return sum(math.hypot(a[0] - b[0], a[1] - b[1])
                   for a, b in zip(pts[:-1], pts[1:]))

    def best_order(group):
        return min(tour(p) for p in itertools.permutations(group))

    idx = list(range(instance.N))
    best = math.inf
    # customer 0 pinned to side A kills the mirror-image duplicates
    for r in range(0, instance.N):
        for rest in itertools.combinations(idx[1:], r):
            A = [0] + list(rest)
            B = [j for j in idx if j not in A]
            if not B:
                continue
            best = min(best, max(best_order(A), best_order(B)))
    return best


def test_criterion_8_benchmark_parse_sanity(capsys):
    ins = cli.parse_tsplib(os.path.join(DATA, "eil51.tsp"), 10)
    nodes = ins.N + 1

    sub = pb.Instance(kind="MTSP", coords=ins.coords[:8].copy(),
                      depot_coords=ins.depot_coords.copy(), M=2)
    independent = _exhaustive_minmax(sub)
    res = oc.brute_force(sub)
    opt = res.objective

    nn_sol = oc.nn_heuristic(sub)
    nn_obj = pb.minmax_objective(nn_sol, sub)
    improved = pb.RouteSet(routes=[oc.two_opt(r, sub) for r in nn_sol.routes])
    two_opt_obj = pb.minmax_objective(improved, sub)

    cfg, params = tiny_model("MTSP")
    model_res = ro.infer(cli.normalized_for_model(sub), cfg, params,
                         n_per=2, use_aug8=True, seed=0)
    model_obj = pb.minmax_objective(model_res.solution, sub)

    ok = (nodes == 51
          and abs(opt - independent) < 1e-9
          and abs(opt - 92.4779815382) < 1e-6
          and pb.validate(nn_sol, sub) is None
          and pb.validate(model_res.solution, sub) is None
          and opt <= nn_obj + 1e-9
          and opt <= two_opt_obj + 1e-9 <= nn_obj + 2e-9
          and opt <= model_obj + 1e-9)
    report(capsys, 8, "benchmark parse sanity", ok,
           f"eil51 {nodes} nodes; 8-customer optimum {opt:.4f} "
           f"(exhaustive {independent:.4f}) <= nn {nn_obj:.4f}, "
           f"2-opt {two_opt_obj:.4f}, model {model_obj:.4f}")


# ---------------------------------------------------------------------------
# criterion 9: gap arithmetic spot check
# ---------------------------------------------------------------------------

def test_criterion_9_gap_anchor(capsys):
    g = oc.gap(2.0337, 2.0154)
    ok = round(g, 3) == 0.908 and abs(g - 0.9087) < 1e-3
    report(capsys, 9, "gap arithmetic anchor", ok,
           f"gap(2.0337, 2.0154) = {g:.4f}%, rounds to 0.908")


# ---------------------------------------------------------------------------
# criterion 3: desk-scale training beats the sweep heuristic on MTSP N=8
# (last: trains for ~6 minutes on one CPU core)
# ---------------------------------------------------------------------------

def test_criterion_3_oracle_gap_training(capsys):
    start = time.perf_counter()
    model = en.ModelConfig(kind="MTSP", n_layers=2, d_model=32, n_heads=4,
                           d_ff=64)
    tc = tr.TrainConfig(kind="MTSP", N=8, m_min=2, m_max=2, batch_size=32,
                        epoch_size=1024, epochs=10, K=8, lr=1e-3, seed=0,
                        model=model)

    held = [pb.gen_uniform("MTSP", 8, 1, 2, seed=10_000 + i)
            for i in range(64)]
    refs = [oc.brute_force(ins).objective for ins in held]
    nn_gap = float(np.mean([
        oc.gap(pb.minmax_objective(oc.nn_heuristic(ins), ins), ref)
        for ins, ref in zip(held, refs)]))

    params, _, _ = tr.train(tc)
    model_gap = float(np.mean([
        oc.gap(ro.infer(ins, model, params, n_per=8, use_aug8=True,
                        seed=0).objective, ref)
        for ins, ref in zip(held, refs)]))

    elapsed = time.perf_counter() - start
    ok = model_gap <= 5.0 and model_gap < nn_gap and elapsed <= 1800.0
    report(capsys, 3, "oracle-gap training", ok,
           f"{tc.epochs} epochs, x8aug-x8per mean gap {model_gap:.2f}% "
           f"(<= 5% and < nn {nn_gap:.2f}%), {elapsed:.0f}s")
