import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from conftest import params64

from minmaxvrp import decoder as de
from minmaxvrp import diffcore as dc
from minmaxvrp import encoder as en
from minmaxvrp import problems as pb

CFGS = {
    "MTSP": en.ModelConfig(kind="MTSP", n_layers=2, d_model=16, n_heads=2, d_ff=32),
    "MPDP": en.ModelConfig(kind="MPDP", n_layers=2, d_model=16, n_heads=2, d_ff=32),
    "MDVRP": en.ModelConfig(kind="MDVRP", n_layers=2, d_model=16, n_heads=2, d_ff=32),
    "FMDVRP": en.ModelConfig(kind="FMDVRP", n_layers=2, d_model=16, n_heads=2, d_ff=32),
}

INS = {
    "MTSP": pb.gen_uniform("MTSP", N=7, D=1, M=3, seed=11),
    "MPDP": pb.gen_uniform("MPDP", N=8, D=1, M=2, seed=12),
    "MDVRP": pb.gen_uniform("MDVRP", N=7, D=2, M=3, seed=13),
    "FMDVRP": pb.gen_uniform("FMDVRP", N=7, D=3, M=3, seed=14),
}


def uniform(rng, rows, cols, dtype=None):
    """A trainable rows x cols weight, uniform +-1/sqrt(rows) as init_params draws one."""
    bound = 1.0 / math.sqrt(rows)
    return dc.Tensor(rng.uniform(-bound, bound, (rows, cols)), requires_grad=True, dtype=dtype)


# ---------------------------------------------------------------------------
# positional encodings
# ---------------------------------------------------------------------------

def test_sinusoidal_row_zero_alternates():
    table = en.sinusoidal_pe(4, 8)
    assert np.array_equal(table[0], np.array([0.0, 1.0] * 4))


def test_sinusoidal_frozen_entry():
    table = en.sinusoidal_pe(2, 8)
    assert abs(table[1, 0] - math.sin(1.0)) < 1e-12  # ~0.84147


def test_sinusoidal_bounded_and_rejects_odd_d():
    table = en.sinusoidal_pe(50, 16)
    assert np.all(np.abs(table) <= 1.0)
    with pytest.raises(ValueError):
        en.sinusoidal_pe(4, 7)


def test_rotation_position_zero_is_projection():
    rng = np.random.default_rng(0)
    base = dc.constant(rng.normal(size=(1, 8)))
    w = uniform(rng, 8, 8)
    out = en.rotation_pe(base, 3, w)
    direct = dc.matmul(base, w)
    assert np.array_equal(out.data[0], direct.data[0])


def test_rotation_preserves_pair_norms_before_projection():
    rng = np.random.default_rng(1)
    base = dc.constant(rng.normal(size=(1, 8)))
    eye = dc.constant(np.eye(8))
    out = en.rotation_pe(base, 6, eye).data
    for m in range(6):
        for p in range(4):
            got = math.hypot(out[m, 2 * p], out[m, 2 * p + 1])
            want = math.hypot(base.data[0, 2 * p], base.data[0, 2 * p + 1])
            assert abs(got - want) < 1e-5


def test_rotation_is_linear_in_base():
    rng = np.random.default_rng(2)
    base = rng.normal(size=(1, 8))
    w = uniform(rng, 8, 8)
    a = en.rotation_pe(dc.constant(base), 4, w).data
    b = en.rotation_pe(dc.constant(3.0 * base), 4, w).data
    assert np.allclose(3.0 * a, b, atol=1e-5)


def test_rotation_rows_pairwise_distinct():
    rng = np.random.default_rng(3)
    base = dc.constant(rng.normal(size=(1, 16)))
    out = en.rotation_pe(base, 5, dc.constant(np.eye(16))).data
    for i in range(5):
        for j in range(i + 1, 5):
            assert np.abs(out[i] - out[j]).max() > 1e-4


# ---------------------------------------------------------------------------
# attention blocks
# ---------------------------------------------------------------------------

def attn_params(d, n_heads, seed, split_query=False, dtype=None):
    """One attention block: a d x d matrix per role, then proj."""
    rng = np.random.default_rng(seed)
    roles = ("qp", "qd", "k", "v") if split_query else ("q", "k", "v")
    return {f"blk.{r}": uniform(rng, d, d, dtype) for r in roles + ("proj",)}


def per_head_reference(X, C, params, prefix, n_heads, scaled, pickup_rows=None):
    """Attention head by head over column slices of the fused matrices
    (float64 numpy); X is rows x d or V x rows x d, C likewise."""
    def cols(role, h):
        w = params[f"{prefix}.{role}"].data
        d_k = w.shape[1] // n_heads
        return w[:, h * d_k:(h + 1) * d_k]

    heads = []
    for h in range(n_heads):
        if pickup_rows is None:
            q = X @ cols("q", h)
        else:
            q = np.where(pickup_rows[:, None], X @ cols("qp", h), X @ cols("qd", h))
        k, v = C @ cols("k", h), C @ cols("v", h)
        logits = q @ k.swapaxes(-1, -2)
        if scaled:
            logits = logits / math.sqrt(k.shape[-1])
        e = np.exp(logits - logits.max(axis=-1, keepdims=True))
        heads.append(e / e.sum(axis=-1, keepdims=True) @ v)
    return np.concatenate(heads, axis=-1) @ params[f"{prefix}.proj"].data


@pytest.mark.parametrize("n_heads", [1, 2, 4])
def test_fused_attention_matches_per_head_reference(n_heads):
    d = 16
    for seed in range(5):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(5, d))
        C = rng.normal(size=(7, d))
        Xt, Ct = dc.constant(X, dtype=np.float64), dc.constant(C, dtype=np.float64)
        params = attn_params(d, n_heads, seed, dtype=np.float64)
        np.testing.assert_allclose(
            en.mha(Xt, Ct, params, "blk", n_heads).data,
            per_head_reference(X, C, params, "blk", n_heads, True), rtol=0, atol=1e-12)
        np.testing.assert_allclose(
            en.mhsa(Xt, Ct, params, "blk", n_heads).data,
            per_head_reference(X, C, params, "blk", n_heads, False), rtol=0, atol=1e-12)
        params = attn_params(d, n_heads, seed, split_query=True, dtype=np.float64)
        rows = rng.random(5) < 0.5
        np.testing.assert_allclose(
            en.mhsa(Xt, Ct, params, "blk", n_heads, pickup_rows=rows).data,
            per_head_reference(X, C, params, "blk", n_heads, False, pickup_rows=rows),
            rtol=0, atol=1e-12)


def test_fused_glimpse_matches_per_head_reference():
    """The decoder glimpse over a V x C candidate batch, per variant and head."""
    cfg = en.ModelConfig(kind="MTSP", n_layers=1, d_model=16, n_heads=4, d_ff=32)
    params = params64(cfg, 3)
    rng = np.random.default_rng(3)
    ctx = rng.normal(size=(2, 3, 16))
    cand = rng.normal(size=(2, 7, 16))
    kv = de.glimpse_kv(dc.constant(cand, dtype=np.float64), cfg, params)
    got = de.glimpse(dc.constant(ctx, dtype=np.float64), kv, cfg, params).data
    want = per_head_reference(ctx, cand, params, "dec.glimpse", 4, True)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def _per_head_init(cfg, rng):
    """init_params written out draw by draw, each attention role drawn head
    by head as d x d_k blocks placed side by side (head h in columns
    h*d_k..(h+1)*d_k): the reference a seed's weights are pinned to."""
    d, d_ff, H = cfg.d_model, cfg.d_ff, cfg.n_heads
    out = {}

    def draw(rows, cols, bound=None):
        bound = 1.0 / math.sqrt(rows) if bound is None else bound
        return rng.uniform(-bound, bound, size=(rows, cols)).astype(np.float32)

    def w(name, rows, cols=d):
        out[name] = draw(rows, cols)

    def const(name, cols=d, value=0.0):
        out[name] = np.full((1, cols), value, dtype=np.float32)

    def attn(prefix, roles=("q", "k", "v")):
        heads = [[draw(d, d // H) for _ in roles] for _ in range(H)]
        for role, blocks in zip(roles, zip(*heads)):
            out[f"{prefix}.{role}"] = np.hstack(blocks)
        w(f"{prefix}.proj", d)

    w("embed.customer.W", 2)
    const("embed.customer.b")
    w("embed.depot.W", 2)
    const("embed.depot.b")
    if cfg.kind == "MPDP":
        const("embed.pickup.b")
        const("embed.delivery.b")
    if cfg.multi_depot:
        out["embed.agent_seed"] = draw(1, d, bound=1.0 / math.sqrt(d))
    if cfg.pe == "rotation":
        w("pe.proj", d)
    blocks = (("nav", "dc", "cd", "ad", "da", "ac", "ca") if cfg.multi_depot
              else ("nav", "agent", "cust"))
    for l in range(cfg.n_layers):
        for b in blocks[0 if cfg.use_nav else 1:]:
            split = b == "cust" and cfg.kind == "MPDP"
            attn(f"layer{l}.{b}_attn", ("qp", "qd", "k", "v") if split else ("q", "k", "v"))
            w(f"layer{l}.{b}_ff.w1", d, d_ff)
            w(f"layer{l}.{b}_ff.w2", d_ff)
        for j in range(1 if cfg.use_nav else 3, 2 * len(blocks) + 1):
            const(f"layer{l}.a{j}", cols=1)
    w("dec.emb", d)
    w("dec.step", 2 * d + 2)
    w("dec.length", 5 if cfg.kind == "MPDP" else 3)
    attn("dec.glimpse")
    w("dec.logit", d)
    const("dec.alpha_dist", cols=1, value=-1.0)
    return out


@pytest.mark.parametrize("kind", list(CFGS))
def test_init_params_fuses_the_per_head_draws(kind):
    """For every pe, use_nav and n_heads in {1, 4}, a seed gives the names,
    order, dtypes, shapes and bytes of the per-head draws, and leaves the rng
    in the same state; param_shapes lists the same names and shapes."""
    for pe, use_nav, n_heads in itertools.product(en.PE_KINDS, (True, False), (1, 4)):
        cfg = en.ModelConfig(kind=kind, pe=pe, use_nav=use_nav, n_heads=n_heads)
        rng, ref_rng = np.random.default_rng(5), np.random.default_rng(5)
        params, want = en.init_params(cfg, rng), _per_head_init(cfg, ref_rng)
        assert list(params) == list(want)
        assert en.param_shapes(cfg) == {name: a.shape for name, a in want.items()}
        for name, arr in want.items():
            got = params[name].data
            assert got.dtype == arr.dtype and got.shape == arr.shape, name
            assert got.tobytes() == arr.tobytes(), name
        assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_mhsa_equals_mha_with_prescaled_input():
    d, H = 16, 4
    rng = np.random.default_rng(7)
    params = attn_params(d, H, 7)
    X = dc.constant(rng.normal(size=(5, d)))
    C = dc.constant(rng.normal(size=(9, d)))
    scaled_X = dc.scale(X, 1.0 / math.sqrt(d // H))
    a = en.mha(X, C, params, "blk", H).data
    b = en.mhsa(scaled_X, C, params, "blk", H).data
    assert np.allclose(a, b, atol=1e-5)


def test_attention_single_context_row_collapses():
    d, H = 8, 2
    rng = np.random.default_rng(9)
    params = attn_params(d, H, 9)
    X = dc.constant(rng.normal(size=(4, d)))
    C = dc.constant(rng.normal(size=(1, d)))
    out = en.mhsa(X, C, params, "blk", H).data
    # softmax over one element is 1, so every row equals the projected value
    want = dc.matmul(dc.matmul(C, params["blk.v"]), params["blk.proj"]).data
    for r in range(4):
        assert np.allclose(out[r], want[0], atol=1e-6)


# ---------------------------------------------------------------------------
# encode
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kind", list(CFGS))
def test_rezero_identity_at_init(kind):
    cfg = CFGS[kind]
    params = en.init_params(cfg, np.random.default_rng(0))
    ins = INS[kind]
    first = en.initial_embeddings([ins], cfg, params)
    out = en.encode([ins], cfg, params)
    assert np.array_equal(out.H_a.data, first.H_a.data)
    assert np.array_equal(out.H_c.data, first.H_c.data)
    if cfg.multi_depot:
        assert np.array_equal(out.H_d.data, first.H_d.data)


def test_identical_customers_identical_rows():
    cfg = CFGS["MTSP"]
    params = en.init_params(cfg, np.random.default_rng(1))
    coords = np.array([[0.3, 0.4], [0.3, 0.4], [0.9, 0.1]])
    ins = pb.Instance(kind="MTSP", coords=coords,
                      depot_coords=np.array([[0.5, 0.5]]), M=2)
    emb = en.initial_embeddings([ins], cfg, params)
    assert np.array_equal(emb.H_c.data[0, 0], emb.H_c.data[0, 1])


def test_agent_rows_pairwise_distinct():
    for pe in ("rotation", "sinusoidal"):
        cfg = en.ModelConfig(kind="MTSP", n_layers=1, d_model=16, n_heads=2, pe=pe)
        params = en.init_params(cfg, np.random.default_rng(2))
        ins = pb.gen_uniform("MTSP", N=6, D=1, M=4, seed=3)
        emb = en.initial_embeddings([ins], cfg, params)
        for i in range(4):
            for j in range(i + 1, 4):
                assert np.abs(emb.H_a.data[0, i] - emb.H_a.data[0, j]).max() > 1e-6


def test_customer_permutation_equivariance():
    cfg = CFGS["MTSP"]
    ins = INS["MTSP"]
    params = params64(cfg, 5)
    perm = np.random.default_rng(6).permutation(ins.N)
    shuffled = pb.Instance(kind="MTSP", coords=ins.coords[perm],
                           depot_coords=ins.depot_coords, M=ins.M, uid=ins.uid)
    a = en.encode([ins], cfg, params)
    b = en.encode([shuffled], cfg, params)
    assert np.allclose(a.H_c.data[:, perm], b.H_c.data, atol=1e-8)
    assert np.allclose(a.H_a.data, b.H_a.data, atol=1e-8)


def test_layer_zero_config_returns_initial_embeddings():
    cfg = en.ModelConfig(kind="MTSP", n_layers=0, d_model=16, n_heads=2)
    params = en.init_params(cfg, np.random.default_rng(4))
    ins = INS["MTSP"]
    out = en.encode([ins], cfg, params)
    first = en.initial_embeddings([ins], cfg, params)
    assert np.array_equal(out.H_c.data, first.H_c.data)


def test_nav_toggle_drops_nav_blocks():
    cfg = en.ModelConfig(kind="MTSP", n_layers=2, d_model=16, n_heads=2,
                         use_nav=False)
    params = en.init_params(cfg, np.random.default_rng(0))
    assert not any("nav" in k for k in params)
    out = en.encode([INS["MTSP"]], cfg, params)
    assert np.isfinite(out.H_c.data).all()


def test_encode_kind_mismatch_and_param_mismatch():
    cfg = CFGS["MTSP"]
    params = en.init_params(cfg, np.random.default_rng(0))
    with pytest.raises(ValueError):
        en.encode([INS["MDVRP"]], cfg, params)
    small = en.ModelConfig(kind="MTSP", n_layers=2, d_model=8, n_heads=2)
    with pytest.raises(ValueError, match=r"embed\.customer\.W is \(2, 16\)"):
        en.check_params(en.param_shapes(small), params)


def test_check_params_names_every_kind_of_mismatch():
    cfg = CFGS["MPDP"]
    params = en.init_params(cfg, np.random.default_rng(0))
    arrays = {name: p.data for name, p in reversed(params.items())}
    shapes = en.param_shapes(cfg)
    assert list(en.check_params(shapes, arrays, "optimizer.m")) == list(params)
    cases = [(lambda a: a.pop("dec.logit"), "dec.logit is missing"),
             (lambda a: a.update(extra=a["dec.emb"]),
              r"extra is \(16, 16\); the model config expects no such entry"),
             (lambda a: a.update({"layer0.a1": np.zeros((1, 2))}),
              r"layer0.a1 is \(1, 2\); the model config expects \(1, 1\)")]
    for edit, what in cases:
        bad = dict(arrays)
        edit(bad)
        with pytest.raises(ValueError, match=f"optimizer.m entry {what}"):
            en.check_params(shapes, bad, "optimizer.m")


def test_encode_runs_no_parameter_check(monkeypatch):
    cfg = CFGS["MTSP"]
    params = en.init_params(cfg, np.random.default_rng(0))
    monkeypatch.setattr(en, "check_params", None)
    assert en.encode([INS["MTSP"]], cfg, params).H_c.shape[-1] == cfg.d_model


def test_model_config_validation():
    with pytest.raises(ValueError):
        en.ModelConfig(kind="XTSP")
    with pytest.raises(ValueError):
        en.ModelConfig(kind="MTSP", d_model=15)
    with pytest.raises(ValueError):
        en.ModelConfig(kind="MTSP", d_model=16, n_heads=3)
    with pytest.raises(ValueError):
        en.ModelConfig(kind="MTSP", pe="learned")
    assert en.ModelConfig(kind="MTSP", d_model=16).d_ff == 64


@pytest.mark.parametrize("kind", list(CFGS))
def test_forward_finite_random_params(kind):
    cfg = CFGS[kind]
    params = params64(cfg, 31)
    out = en.encode([INS[kind]], cfg, params)
    assert np.isfinite(out.H_a.data).all()
    assert np.isfinite(out.H_c.data).all()


BATCH_CASES = [pytest.param(kind, {}, id=kind) for kind in CFGS] + [
    pytest.param(kind, {name: value}, id=f"{kind}-{name}={value}")
    for kind in ("MTSP", "MDVRP")
    for name, value in (("n_layers", 0), ("pe", "sinusoidal"))]


@pytest.mark.parametrize("kind,change", BATCH_CASES)
def test_batched_encode_matches_one_variant_encodes(kind, change):
    """Slice a of one encode over the 8 symmetries is bit-equal to the
    encode of symmetry a alone, in the model's float32."""
    cfg = replace(CFGS[kind], **change)
    params = {name: dc.Tensor(t.data, requires_grad=True)
              for name, t in params64(cfg, 41).items()}
    variants = pb.augment8(INS[kind])
    batched = en.encode(variants, cfg, params)
    assert batched.H_c.shape == (8, INS[kind].N, cfg.d_model)
    for a, var in enumerate(variants):
        one = en.encode([var], cfg, params)
        for stream in ("H_a", "H_c", "H_d"):
            got, want = getattr(batched, stream), getattr(one, stream)
            if want is not None:
                assert np.array_equal(got.data[a], want.data[0]), (a, stream)


def test_encode_rejects_mixed_variants():
    cfg = CFGS["MTSP"]
    params = en.init_params(cfg, np.random.default_rng(0))
    other = pb.gen_uniform("MTSP", N=7, D=1, M=2, seed=1)
    with pytest.raises(ValueError, match="variants of one size"):
        en.encode([INS["MTSP"], other], cfg, params)


# ---------------------------------------------------------------------------
# probe
# ---------------------------------------------------------------------------

def test_probe_exports_three_single_depot_relations():
    cfg = CFGS["MTSP"]
    ins = INS["MTSP"]
    params = params64(cfg, 8)
    probe = en.ProbeStore()
    en.encode([ins], cfg, params, probe=probe)
    blocks = en.attention_probe(probe, 0, 0)
    assert sorted(blocks) == ["agent_customer", "customer_agent",
                              "customer_customer"]
    raw, soft = blocks["agent_customer"]
    assert raw.shape == (ins.M, ins.N) and soft.shape == (ins.M, ins.N)
    for _, s in blocks.values():
        assert np.allclose(s.sum(axis=1), 1.0, atol=1e-6)


def test_probe_exports_seven_multi_depot_relations():
    cfg = CFGS["MDVRP"]
    ins = INS["MDVRP"]
    params = params64(cfg, 9)
    probe = en.ProbeStore()
    en.encode([ins], cfg, params, probe=probe)
    blocks = en.attention_probe(probe, 1, 1)
    assert len(blocks) == 7
    assert blocks["depot_customer"][0].shape == (ins.D, ins.N)
    assert blocks["agent_depot"][0].shape == (ins.M, ins.D)


@pytest.mark.parametrize("kind", ["MTSP", "MDVRP"])
def test_probe_blocks_are_the_heads_scores(kind):
    """Every block records its relation's raw and softmaxed scores per head.
    With the ReZero scalars at zero every block reads the initial streams,
    so each recorded block equals scores computed from them head by head."""
    cfg, ins = CFGS[kind], INS[kind]
    params = params64(cfg, 10, wake_alphas=False)
    probe = en.ProbeStore()
    en.encode([ins], cfg, params, probe=probe)
    emb = en.initial_embeddings([ins], cfg, params)
    streams = {"a": emb.H_a, "c": emb.H_c, "d": emb.H_d}
    d_k = cfg.d_model // cfg.n_heads
    want = set()
    for layer, (_, (block, x, ctx, scaled)) in itertools.product(
            range(cfg.n_layers), en._blocks(cfg)):
        prefix = f"layer{layer}.{block}_attn"
        q = streams[x].data[0] @ params[f"{prefix}.q"].data
        k = streams[ctx].data[0] @ params[f"{prefix}.k"].data
        for h in range(cfg.n_heads):
            cols = slice(h * d_k, (h + 1) * d_k)
            raw = q[:, cols] @ k[:, cols].T * (1.0 / math.sqrt(d_k) if scaled else 1.0)
            soft = np.exp(raw - raw.max(axis=1, keepdims=True))
            soft /= soft.sum(axis=1, keepdims=True)
            key = (layer, f"{en._STREAMS[x]}_{en._STREAMS[ctx]}", h)
            want.add(key)
            assert np.allclose(probe.scores[key][0], raw, rtol=1e-12, atol=1e-14)
            assert np.allclose(probe.scores[key][1], soft, rtol=1e-12, atol=1e-14)
    assert set(probe.scores) == want


def test_probe_disabled_raises():
    with pytest.raises(RuntimeError):
        en.attention_probe(None, 0, 0)


# ---------------------------------------------------------------------------
# gradients
# ---------------------------------------------------------------------------

def scalar_of(emb):
    parts = [emb.H_a, emb.H_c] + ([emb.H_d] if emb.H_d is not None else [])
    return dc.sum_all(dc.concat_rows(parts))


@pytest.mark.parametrize("kind", ["MTSP", "MDVRP"])
def test_full_encoder_grad_check(kind):
    cfg = en.ModelConfig(kind=kind, n_layers=1, d_model=8, n_heads=2, d_ff=16)
    ins = pb.gen_uniform(kind, N=5, D=2 if kind == "MDVRP" else 1, M=2, seed=3)
    params = params64(cfg, 19)
    worst = dc.grad_check(lambda _p: scalar_of(en.encode([ins], cfg, params)),
                          params, samples_per_param=2,
                          rng=np.random.default_rng(0))
    assert worst < 5e-3


def test_mpdp_split_query_grad_check():
    cfg = en.ModelConfig(kind="MPDP", n_layers=1, d_model=8, n_heads=2, d_ff=16)
    ins = pb.gen_uniform("MPDP", N=6, D=1, M=2, seed=4)
    params = params64(cfg, 23)
    worst = dc.grad_check(lambda _p: scalar_of(en.encode([ins], cfg, params)),
                          params, samples_per_param=2,
                          rng=np.random.default_rng(1))
    assert worst < 5e-3
