import json
import math

import numpy as np
import pytest
from conftest import params64, tiny_cfg, tiny_model
from hypothesis import given, settings
from hypothesis import strategies as st

from minmaxvrp import diffcore as dc
from minmaxvrp import encoder as en
from minmaxvrp import problems as pb
from minmaxvrp import rollout as ro
from minmaxvrp import training as tr


# the timings a metrics row measures, which no seed reproduces
PHASES = ("decode_s", "backward_s", "adam_s")
TIMES = PHASES + ("inst_per_s", "wallclock")


def tiny_tc(kind="MTSP", **kw):
    base = dict(kind=kind, N=4, m_min=2, m_max=2, batch_size=4,
                epoch_size=8, epochs=2, K=2, lr=1e-3, seed=0,
                model=tiny_cfg(kind))
    base.update(kw)
    return tr.TrainConfig(**base)


# ---------------------------------------------------------------------------
# config validation
# ---------------------------------------------------------------------------

def test_config_rejects_bad_values():
    with pytest.raises(ValueError, match="K"):
        tiny_tc(K=1)
    with pytest.raises(ValueError, match="m_min"):
        tiny_tc(m_min=1)
    with pytest.raises(ValueError, match="m_max"):
        tiny_tc(m_max=9)
    with pytest.raises(ValueError, match="kind"):
        tr.TrainConfig(kind="MTSP", N=4, model=tiny_cfg("MPDP"))
    with pytest.raises(ValueError, match="single-depot"):
        tiny_tc(d_max=2)
    with pytest.raises(ValueError):
        tiny_tc(kind="MPDP", N=5)
    with pytest.raises(ValueError, match="routes"):
        tr.TrainConfig(kind="MPDP", N=6, m_max=4, model=tiny_cfg("MPDP"))
    with pytest.raises(ValueError):
        tiny_tc(lr=0.0)
    with pytest.raises(ValueError):
        tiny_tc(epochs=-1)


def test_config_shape_errors_name_every_field_checked():
    with pytest.raises(ValueError) as err:
        tr.TrainConfig(kind="BOGUS", N=4)
    assert str(err.value) == ("kind='BOGUS', N=4, d_max=1, m_max=2: "
                              "unknown problem kind 'BOGUS'")
    with pytest.raises(ValueError, match=r"^kind='MPDP', N=6, d_max=1, m_max=4: "):
        tr.TrainConfig(kind="MPDP", N=6, m_max=4)


def test_config_rejects_wrong_types():
    for bad, field in (({"N": "8"}, "N"), ({"K": 2.5}, "K"),
                       ({"epochs": True}, "epochs"), ({"lr": "fast"}, "lr")):
        with pytest.raises(ValueError, match=f"config field {field} must be"):
            tiny_tc(**bad)
    for bad, field in (({"d_model": "32"}, "d_model"), ({"n_layers": 1.0}, "n_layers"),
                       ({"use_nav": "no"}, "use_nav"), ({"use_nav": 1}, "use_nav")):
        with pytest.raises(ValueError, match=f"model field {field} must be"):
            tiny_cfg("MTSP", **bad)
    with pytest.raises(ValueError, match="JSON object"):
        tr.TrainConfig.from_dict({"kind": "MTSP", "N": 4, "model": "default"})
    assert tiny_tc(lr=1).lr == 1  # an int passes for a float


def test_config_rejects_nan_and_inf_in_float_fields():
    """json reads NaN and Infinity; a NaN lr would train an epoch before
    anything noticed."""
    for field in ("lr", "lr_decay", "clip_norm"):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match=rf"^train config field {field} must be "
                                                 rf"finite, got {bad!r}$"):
                tiny_tc(**{field: bad})
    with pytest.raises(ValueError, match="^train config field lr must be finite, got nan$"):
        tr.TrainConfig.from_dict(json.loads('{"kind": "MTSP", "N": 4, "lr": NaN}'))


def test_config_roundtrip_and_unknown_keys():
    tc = tiny_tc(kind="MDVRP", d_min=2, d_max=3, N=6,
                 model=tiny_cfg("MDVRP"))
    rec = tc.to_dict()
    assert tr.TrainConfig.from_dict(rec).to_dict() == rec
    rec["momentum"] = 0.9
    with pytest.raises(ValueError, match="momentum"):
        tr.TrainConfig.from_dict(rec)
    # both configs go by one rule, encoder.check_keys
    for bad, msg in (([], "train must be a JSON object, got []"),
                     ({"kind": "MTSP", "N": 4, "x": 1}, "unknown train config keys: ['x']"),
                     ({"kind": "MTSP", "N": 4, "model": {"kind": "MTSP", "y": 2}},
                      "unknown model config keys: ['y']")):
        with pytest.raises(ValueError) as exc:
            tr.TrainConfig.from_dict(bad)
        assert str(exc.value) == msg


def test_config_defaults_model_from_kind():
    tc = tr.TrainConfig(kind="MTSP", N=6)
    assert tc.model.kind == "MTSP"
    assert tc.model.d_model == 32


# ---------------------------------------------------------------------------
# baseline and loss
# ---------------------------------------------------------------------------

def test_baseline_is_the_mean():
    assert tr.aps_baseline([2.0, 4.0]) == 3.0
    assert tr.aps_baseline([1.7] * 5) == 1.7
    vals = list(np.random.default_rng(0).uniform(1, 3, 60))
    assert abs(tr.aps_baseline(vals) - np.mean(vals)) < 1e-12
    with pytest.raises(ValueError):
        tr.aps_baseline([])


def test_identical_objectives_give_zero_loss_and_zero_step():
    # with N == M every rollout yields the same single-customer routes,
    # so all K objectives coincide and the advantage vanishes exactly
    cfg, params = tiny_model("MTSP")
    ins = pb.gen_uniform("MTSP", N=2, D=1, M=2, seed=3)
    before = {k: v.data.copy() for k, v in params.items()}
    loss, best, baselines, _, _ = tr.aps_loss([ins], cfg, params, K=4,
                                              rng=np.random.default_rng(0))
    assert float(loss.data[0, 0]) == 0.0
    assert best[0] == baselines[0]
    dc.backward(loss)
    grads = [np.abs(p.grad).max() for p in params.values()]
    assert max(grads) == 0.0
    opt = dc.AdamState(params, lr=1e-3)
    dc.adam_step(params, opt)
    for k, v in params.items():
        assert np.array_equal(v.data, before[k])


def test_loss_matches_manual_recomputation():
    """The rng draws every instance's permutations in batch order, then
    decodes the (N, D) groups in ascending order: here the D=1 instance
    before the two D=2 ones, whose M=3 and M=2 share one padded decode."""
    cfg, params = tiny_model("MDVRP", seed=1)
    instances = [pb.gen_uniform("MDVRP", N=5, D=D, M=M, seed=s)
                 for s, D, M in ((0, 2, 3), (1, 1, 2), (2, 2, 2))]
    K = 3
    loss, best, baselines, _, _ = tr.aps_loss(instances, cfg, params, K,
                                              rng=np.random.default_rng(42))

    rng = np.random.default_rng(42)
    perms = [ro.sample_permutations(ins.M, K, rng) for ins in instances]
    manual = 0.0
    for group in ([1], [0, 2]):
        solutions, logp, _ = ro.decode_batch([instances[i] for i in group],
                                             [perms[i] for i in group], cfg, params,
                                             mode="sample", rng=rng)
        for g, i in enumerate(group):
            objs = np.array([pb.minmax_objective(rs, instances[i])
                             for rs in solutions[g * K:(g + 1) * K]])
            manual += float(((objs - objs.mean())[:, None]
                             * logp.data[g].astype(np.float64)).sum())
            assert abs(baselines[i] - objs.mean()) < 1e-12
            assert abs(best[i] - objs.min()) < 1e-12
    manual /= len(instances) * K
    assert abs(float(loss.data[0, 0]) - manual) < 1e-5


def test_frozen_surrogate_replays_the_training_loss():
    cfg, params = tiny_model("MTSP", seed=1)
    ins = pb.gen_uniform("MTSP", N=5, D=1, M=2, seed=0)
    loss, _, (b,), _, _ = tr.aps_loss([ins], cfg, params, 3,
                                      rng=np.random.default_rng(42))
    rng = np.random.default_rng(42)
    perms = ro.sample_permutations(ins.M, 3, rng)
    solutions, _, _ = ro.decode_batch(ins, perms, cfg, params, mode="sample",
                                      rng=rng)
    forced = [ro.actions_from_solution(rs, o, ins)
              for rs, o in zip(solutions, perms)]
    adv = [pb.minmax_objective(rs, ins) - b for rs in solutions]
    f = tr.frozen_surrogate(ins, perms, forced, adv, cfg)
    assert np.array_equal(f(params).data, loss.data)


def graph_tensors(loss):
    """Every tensor reachable from the loss through recorded parents."""
    found, stack = {id(loss): loss}, [loss]
    while stack:
        for parent in stack.pop()._parents:
            if id(parent) not in found:
                found[id(parent)] = parent
                stack.append(parent)
    return list(found.values())


def reference_backward(loss):
    """The walk that keeps the graph: every closure in diffcore.backward's
    reverse topological order (a depth-first walk that takes the last
    parent first), nothing freed."""
    topo, seen, stack = [], set(), [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
        elif id(node) not in seen:
            seen.add(id(node))
            stack.append((node, True))
            stack.extend((p, False) for p in node._parents
                         if p.requires_grad and id(p) not in seen)
    loss.grad = np.ones_like(loss.data)
    for node in reversed(topo):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad, node)


@pytest.mark.parametrize("kind", ["MTSP", "MDVRP"])
def test_backward_frees_the_graph_and_keeps_leaf_gradients(kind):
    """On a training loss, the freeing walk leaves every leaf gradient
    bitwise what a walk that keeps the graph gives, and no other node holds
    a gradient, a closure or parents."""
    grads = []
    for walk in (reference_backward, dc.backward):
        cfg, params = tiny_model(kind, seed=2)
        batch = [pb.gen_uniform(kind, 6, 2 if kind == "MDVRP" else 1, 3, seed=s)
                 for s in range(2)]
        loss, *_ = tr.aps_loss(batch, cfg, params, 3, np.random.default_rng(4))
        nodes = graph_tensors(loss)
        walk(loss)
        grads.append({name: p.grad for name, p in params.items()})
    leaves = {id(p) for p in params.values()}
    for node in nodes:
        if id(node) not in leaves:
            assert node.grad is None and node._backward is None and node._parents == ()
    assert grads[0].keys() == grads[1].keys()
    for name, g in grads[0].items():
        assert g is not None and g.dtype == grads[1][name].dtype, name
        assert np.array_equal(g, grads[1][name]), name


def test_aps_loss_returns_every_advantage_and_step_entropy():
    cfg, params = tiny_model("MTSP", seed=1)
    batch = [pb.gen_uniform("MTSP", 6, 1, M, seed=M) for M in (2, 3, 2)]
    _, best, baselines, adv, entropy = tr.aps_loss(batch, cfg, params, 4,
                                                   np.random.default_rng(0))
    assert adv.shape == (3 * 4,)
    # one entropy per step of every rollout: N + M steps each
    assert entropy.shape == (4 * (8 + 9 + 8),)
    # per step, 0 <= entropy <= log of the widest choice
    assert entropy.min() >= 0.0 and entropy.max() <= math.log(6 + 3) + 1e-9
    # each instance's K advantages sum to zero
    assert np.abs(adv.reshape(3, 4).sum(axis=1)).max() < 1e-9


def test_frozen_surrogate_gradient_matches_finite_differences():
    cfg = tiny_cfg("MTSP")
    params = params64(cfg, seed=5)
    ins = pb.gen_uniform("MTSP", N=5, D=1, M=2, seed=7)
    rng = np.random.default_rng(9)
    perms = ro.sample_permutations(2, 3, rng)
    solutions, _, _ = ro.decode_batch(ins, perms, cfg, params, mode="sample",
                                      rng=rng)
    forced = [ro.actions_from_solution(rs, o, ins)
              for rs, o in zip(solutions, perms)]
    objs = [pb.minmax_objective(rs, ins) for rs in solutions]
    adv = [o - tr.aps_baseline(objs) for o in objs]
    f = tr.frozen_surrogate(ins, perms, forced, adv, cfg)
    rel = dc.grad_check(f, params, samples_per_param=2,
                        rng=np.random.default_rng(0))
    assert rel < 5e-3


# ---------------------------------------------------------------------------
# the loop
# ---------------------------------------------------------------------------

def test_train_smoke_and_reproducible_metrics():
    runs = []
    for _ in range(2):
        params, opt, metrics = tr.train(tiny_tc())
        assert len(metrics) == 2
        for row in metrics:
            assert set(row) == {"epoch", "mean_obj", "mean_baseline",
                                "grad_norm", "entropy", "adv_std", "lr",
                                "decode_s", "backward_s", "adam_s", "inst_per_s",
                                "wallclock"}
            assert np.isfinite(list(row.values())).all()
            assert row["mean_obj"] <= row["mean_baseline"] + 1e-12
            assert row["lr"] == 1e-3
            assert row["entropy"] > 0.0 and row["adv_std"] >= 0.0
            phases = [row[k] for k in PHASES]
            epoch_s = 8 / row["inst_per_s"]  # epoch_size instances
            assert min(phases) > 0.0
            assert sum(phases) <= epoch_s * (1 + 1e-12)
            assert epoch_s <= row["wallclock"] * (1 + 1e-12)
        runs.append((params, [
            {k: v for k, v in row.items() if k not in TIMES}
            for row in metrics]))
    assert runs[0][1] == runs[1][1]
    for k in runs[0][0]:
        assert np.array_equal(runs[0][0][k].data, runs[1][0][k].data)


@settings(max_examples=40)
@given(kind=st.sampled_from(["MTSP", "MPDP", "FMDVRP"]), seed=st.integers(0, 1000))
def test_train_is_bitwise_deterministic_per_seed(kind, seed):
    tc = tiny_tc(kind, seed=seed, epochs=2, epoch_size=2, batch_size=2,
                 d_max=2 if kind == "FMDVRP" else 1)
    (p1, o1, m1), (p2, o2, m2) = tr.train(tc), tr.train(tc)
    assert list(p1) == list(p2)
    for name in p1:
        for a, b in [(p1[name].data, p2[name].data), (o1.m[name], o2.m[name]),
                     (o1.v[name], o2.v[name])]:
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
    assert (o1.step_count, o1.lr) == (o2.step_count, o2.lr)
    for row1, row2 in zip(m1, m2, strict=True):
        for key in TIMES:
            assert row1.pop(key) >= 0 and row2.pop(key) >= 0
        assert row1 == row2


def test_train_applies_lr_decay_and_callback():
    seen = []
    _, opt, metrics = tr.train(
        tiny_tc(epochs=3, lr_decay=0.5, epoch_size=4),
        on_epoch=lambda e, row, p, o: seen.append(e))
    assert seen == [0, 1, 2]
    assert [row["lr"] for row in metrics] == [1e-3, 5e-4, 2.5e-4]
    assert opt.lr == 1.25e-4


@pytest.mark.parametrize("clip_norm", [1.0, 0.0])
def test_metrics_rows_carry_the_pre_clip_grad_norm(clip_norm, monkeypatch):
    norms = []
    real = dc.clip_grad_norm

    def recorded(params, max_norm):
        norms.append(real(params, max_norm))
        return norms[-1]

    monkeypatch.setattr(dc, "clip_grad_norm", recorded)
    _, _, metrics = tr.train(tiny_tc(epochs=2, clip_norm=clip_norm))
    # two batches of 4 per epoch
    for epoch, row in enumerate(metrics):
        assert math.isfinite(row["grad_norm"]) and row["grad_norm"] > 0.0
        assert row["grad_norm"] == float(np.mean(norms[2 * epoch:2 * epoch + 2]))


def test_train_divergence_guard():
    tc = tiny_tc(epochs=1)
    params = en.init_params(tc.model, np.random.default_rng(0))
    params["embed.customer.W"].data[:] = np.nan
    with pytest.raises(RuntimeError, match="diverged"):
        tr.train(tc, params=params)


def test_train_multi_depot_smoke():
    tc = tr.TrainConfig(kind="FMDVRP", N=4, d_min=2, d_max=2, batch_size=2,
                        epoch_size=4, epochs=1, K=2, model=tiny_cfg("FMDVRP"))
    _, _, metrics = tr.train(tc)
    assert len(metrics) == 1 and np.isfinite(metrics[0]["mean_obj"])


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

def test_param_records_roundtrip_bitwise():
    rng = np.random.default_rng(11)
    arrays = {
        "w1": rng.standard_normal((3, 5)),
        "alpha": np.zeros((1, 1), dtype=np.float32),
        "strided": rng.standard_normal((4, 6)).astype(np.float32)[::2, 1::2],
        "big_endian": rng.standard_normal((2, 3)).astype(">f4"),
    }
    records = tr.arrays_to_records(arrays)
    assert records["big_endian"]["dtype"] == "float32"
    back = tr.records_to_arrays(records)
    for name, arr in arrays.items():
        assert back[name].dtype == arr.dtype.newbyteorder("<")
        assert back[name].shape == arr.shape
        assert np.array_equal(back[name], arr)
        assert back[name].flags.writeable


def test_checkpoint_roundtrip_bitwise(tmp_path):
    tc = tiny_tc(epochs=1, epoch_size=4)
    params, opt, _ = tr.train(tc)
    path = tmp_path / "model.ckpt"
    tr.save_checkpoint(path, tc.model, params, opt)
    cfg2, params2, opt2 = tr.load_checkpoint(path)
    assert cfg2.to_dict() == tc.model.to_dict()
    assert set(params2) == set(params)
    for k in params:
        assert np.array_equal(params[k].data, params2[k].data)
        assert params[k].data.dtype == params2[k].data.dtype
        assert np.array_equal(opt.m[k], opt2.m[k])
        assert np.array_equal(opt.v[k], opt2.v[k])
    assert (opt2.lr, opt2.step_count) == (opt.lr, opt.step_count)

    ins = pb.gen_uniform("MTSP", N=6, D=1, M=2, seed=77)
    r1 = ro.infer(ins, tc.model, params, n_per=2)
    r2 = ro.infer(ins, cfg2, params2, n_per=2)
    assert r1.solution.routes == r2.solution.routes
    assert r1.objective == r2.objective


def test_a_checkpoint_load_builds_the_parameter_table_once(tmp_path, monkeypatch):
    cfg, params = tiny_model("MDVRP")
    path = tmp_path / "model.ckpt"
    tr.save_checkpoint(path, cfg, params, dc.AdamState(params, lr=1e-3))
    v2 = path.read_text()
    calls, param_table = [], en.param_table
    monkeypatch.setattr(en, "param_table",
                        lambda *args: calls.append(args) or param_table(*args))
    # v1 fuses its heads by the same table
    for text in (v2, json.dumps(_as_v1(json.loads(v2), cfg.n_heads))):
        path.write_text(text)
        calls.clear()
        tr.load_checkpoint(path)
        assert len(calls) == 1
        tr.load_model(path)
        assert len(calls) == 2


def test_checkpoint_version_and_corruption_errors(tmp_path):
    cfg, params = tiny_model("MTSP")
    opt = dc.AdamState(params, lr=1e-3)
    path = tmp_path / "model.ckpt"
    tr.save_checkpoint(path, cfg, params, opt)
    payload = json.loads(path.read_text())
    payload["format_version"] = 99
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match="version"):
        tr.load_checkpoint(path)
    path.write_text("not a checkpoint{")
    with pytest.raises(ValueError):
        tr.load_checkpoint(path)


def _saved_payload(tmp_path):
    cfg, params = tiny_model("MTSP")
    opt = dc.AdamState(params, lr=1e-3)
    path = tmp_path / "model.ckpt"
    tr.save_checkpoint(path, cfg, params, opt)
    return path, json.loads(path.read_text())


def _one_line_error(path):
    with pytest.raises(ValueError) as err:
        tr.load_checkpoint(path)
    assert "\n" not in str(err.value)
    return str(err.value)


def test_load_checkpoint_rejects_missing_param(tmp_path):
    path, payload = _saved_payload(tmp_path)
    del payload["params"]["dec.glimpse.q"]
    path.write_text(json.dumps(payload))
    msg = _one_line_error(path)
    assert "params" in msg and "dec.glimpse.q" in msg


def test_load_checkpoint_rejects_misshaped_moment(tmp_path):
    path, payload = _saved_payload(tmp_path)
    rec = payload["optimizer"]["m"]["dec.emb"]
    rec["shape"] = [rec["shape"][0] * rec["shape"][1], 1]
    path.write_text(json.dumps(payload))
    msg = _one_line_error(path)
    assert "optimizer.m" in msg and "dec.emb" in msg


def test_load_checkpoint_rejects_unknown_moment(tmp_path):
    path, payload = _saved_payload(tmp_path)
    payload["optimizer"]["v"]["dec.extra"] = payload["optimizer"]["v"]["dec.emb"]
    path.write_text(json.dumps(payload))
    msg = _one_line_error(path)
    assert "optimizer.v" in msg and "dec.extra" in msg


def _set(path, value):
    """A payload mutation: the member at path (keys from the top) set to value."""
    def mutate(payload):
        for key in path[:-1]:
            payload = payload[key]
        payload[path[-1]] = value
    return mutate


NOT_FLOAT32 = "is not a float32 record with a list of ints for its shape"


@pytest.mark.parametrize("mutate,want", [
    pytest.param(_set(("params", "dec.emb", "dtype"), "int32"),
                 f"params entry dec.emb {NOT_FLOAT32}", id="int32-param"),
    pytest.param(_set(("params", "dec.emb", "dtype"), "float64"),
                 f"params entry dec.emb {NOT_FLOAT32}", id="float64-param"),
    pytest.param(_set(("params",), []), "params is a list, not an object of records",
                 id="params-list"),
    pytest.param(_set(("params", "dec.emb"), [16, 16]),
                 f"params entry dec.emb {NOT_FLOAT32}", id="record-list"),
    pytest.param(_set(("params", "dec.emb", "shape"), "ab"),
                 f"params entry dec.emb {NOT_FLOAT32}", id="shape-string"),
    pytest.param(_set(("params", "dec.emb", "shape"), [16, "16"]),
                 f"params entry dec.emb {NOT_FLOAT32}", id="shape-string-entry"),
    pytest.param(_set(("params", "dec.emb", "shape"), [16, 17]),
                 "params entry dec.emb does not decode: ValueError: cannot reshape array "
                 "of size 256 into shape (16,17)", id="shape-of-other-size"),
    pytest.param(_set(("params", "dec.emb", "data_b64"), 5),
                 "params entry dec.emb does not decode: TypeError: argument should be "
                 "bytes, buffer or ASCII string, not 'int'", id="data-int"),
    pytest.param(_set(("optimizer", "m"), "m"), "optimizer.m is a str, not an object of records",
                 id="moments-string"),
    pytest.param(_set(("optimizer", "v", "dec.emb", "dtype"), "int32"),
                 f"optimizer.v entry dec.emb {NOT_FLOAT32}", id="int32-moment"),
    pytest.param(_set(("format_version",), "2"),
                 "format version '2' is not a supported version (1 or 2)", id="version-string"),
    pytest.param(_set(("format_version",), True),
                 "format version True is not a supported version (1 or 2)", id="version-bool"),
    pytest.param(_set(("optimizer", "lr"), "0.1"),
                 "optimizer.lr must be a finite number > 0, got '0.1'", id="lr-string"),
    pytest.param(_set(("optimizer", "lr"), -1),
                 "optimizer.lr must be a finite number > 0, got -1", id="lr-negative"),
    pytest.param(_set(("optimizer", "step_count"), 2.7),
                 "optimizer.step_count must be an int >= 0, got 2.7", id="step-count-float"),
    pytest.param(_set(("optimizer", "beta1"), "x"),
                 "optimizer.beta1 must be a number in [0, 1), got 'x'", id="beta1-string"),
    pytest.param(_set(("optimizer",), []), "optimizer is a list, not an object",
                 id="optimizer-list"),
    pytest.param(_set(("optimizer", "lr_decay"), True),
                 "optimizer.lr_decay must be a finite number > 0, got True", id="lr-decay-bool"),
    pytest.param(_set(("optimizer", "beta1"), -0.5), "optimizer.beta1 must be a number in "
                 "[0, 1), got -0.5", id="beta1-negative"),
    pytest.param(_set(("optimizer", "beta2"), 1), "optimizer.beta2 must be a number in [0, 1), "
                 "got 1", id="beta2-one"),
    pytest.param(_set(("optimizer", "eps"), 0.0),
                 "optimizer.eps must be a finite number > 0, got 0.0", id="eps-zero"),
    pytest.param(_set(("optimizer", "step_count"), False),
                 "optimizer.step_count must be an int >= 0, got False", id="step-count-bool")])
def test_load_checkpoint_rejects_a_bad_member_naming_file_and_entry(tmp_path, mutate, want):
    path, payload = _saved_payload(tmp_path)
    mutate(payload)
    path.write_text(json.dumps(payload))
    assert _one_line_error(path) == f"checkpoint {path}: {want}"
    if not want.startswith("optimizer"):  # load_model never reads the moments
        with pytest.raises(ValueError) as err:
            tr.load_model(path)
        assert str(err.value) == f"checkpoint {path}: {want}"


def _as_v1(payload, n_heads):
    """The payload in format v1: every fused attention matrix of the params
    and of both Adam moment sets split into per-head {prefix}.{role}{i}."""
    parts = (payload["params"], payload["optimizer"]["m"], payload["optimizer"]["v"])
    for records in parts:
        arrays = {}
        for name, arr in tr.records_to_arrays(records).items():
            if name.rsplit(".", 1)[1] in ("q", "qp", "qd", "k", "v"):
                for i, block in enumerate(np.hsplit(arr, n_heads)):
                    arrays[f"{name}{i}"] = np.ascontiguousarray(block)
            else:
                arrays[name] = arr
        records.clear()
        records.update(tr.arrays_to_records(arrays))
    payload["format_version"] = 1
    return payload


def _random_moments(params, opt, seed):
    rng = np.random.default_rng(seed)
    for name, p in params.items():
        opt.m[name] = rng.normal(size=p.shape).astype(p.data.dtype)
        opt.v[name] = rng.random(p.shape).astype(p.data.dtype)


@pytest.mark.parametrize("kind", ["MTSP", "MPDP"])
def test_load_checkpoint_reads_format_v1(tmp_path, kind):
    cfg, params = tiny_model(kind, seed=4)
    opt = dc.AdamState(params, lr=1e-3)
    _random_moments(params, opt, 4)
    path = tmp_path / "model.ckpt"
    tr.save_checkpoint(path, cfg, params, opt)
    payload = json.loads(path.read_text())
    assert payload["format_version"] == 2 and "dec.glimpse.q" in payload["params"]
    v1 = _as_v1(payload, cfg.n_heads)
    assert "dec.glimpse.q1" in v1["params"] and "dec.glimpse.q1" in v1["optimizer"]["v"]
    path.write_text(json.dumps(v1))
    cfg2, params2, opt2 = tr.load_checkpoint(path)
    assert cfg2 == cfg and list(params2) == list(params)
    for name, p in params.items():
        assert params2[name].data.dtype == p.data.dtype
        assert np.array_equal(params2[name].data, p.data), name
        assert np.array_equal(opt2.m[name], opt.m[name]), name
        assert np.array_equal(opt2.v[name], opt.v[name]), name
    _, params3 = tr.load_model(path)
    assert all(np.array_equal(params3[n].data, p.data) for n, p in params.items())


def test_load_checkpoint_v1_missing_head_names_the_fused_entry(tmp_path):
    path, payload = _saved_payload(tmp_path)
    v1 = _as_v1(payload, 2)
    del v1["params"]["layer0.agent_attn.k1"]
    path.write_text(json.dumps(v1))
    msg = _one_line_error(path)
    assert "params" in msg and "layer0.agent_attn.k " in msg and "(16, 8)" in msg


def test_load_checkpoint_v1_extra_head_is_an_unknown_entry(tmp_path):
    path, payload = _saved_payload(tmp_path)
    v1 = _as_v1(payload, 2)
    v1["params"]["layer0.agent_attn.k2"] = v1["params"]["layer0.agent_attn.k1"]
    path.write_text(json.dumps(v1))
    msg = _one_line_error(path)
    assert msg.endswith("params entry layer0.agent_attn.k2 is (16, 8); "
                        "the model config expects no such entry")


def _reordered_text(payload, layout):
    """The checkpoint text compact as saved, or with indent=2 and the
    optimizer member first."""
    if layout == "compact":
        return json.dumps(payload)
    first = {"optimizer": payload["optimizer"]}
    first.update((k, v) for k, v in payload.items() if k != "optimizer")
    return json.dumps(first, indent=2)


@pytest.mark.parametrize("version", [1, 2])
@pytest.mark.parametrize("layout", ["compact", "indent2-optimizer-first"])
def test_load_model_gives_load_checkpoint_params_bitwise(tmp_path, version, layout):
    cfg, params = tiny_model("MDVRP", seed=5)
    opt = dc.AdamState(params, lr=1e-3)
    _random_moments(params, opt, 5)
    path = tmp_path / "model.ckpt"
    tr.save_checkpoint(path, cfg, params, opt)
    payload = json.loads(path.read_text())
    if version == 1:
        payload = _as_v1(payload, cfg.n_heads)
    path.write_text(_reordered_text(payload, layout))
    cfg1, params1 = tr.load_model(path)
    cfg2, params2, opt2 = tr.load_checkpoint(path)
    assert cfg1 == cfg2 == cfg and list(params1) == list(params2) == list(params)
    for name, p in params.items():
        for got in (params1[name].data, params2[name].data):
            assert got.dtype == p.data.dtype and got.tobytes() == p.data.tobytes(), name
        assert opt2.m[name].tobytes() == opt.m[name].tobytes(), name
        # Adam updates params and moments in place
        for got in (params1[name].data, params2[name].data, opt2.m[name], opt2.v[name]):
            assert got.flags.writeable, name


def test_load_model_skips_the_optimizer(tmp_path):
    path, payload = _saved_payload(tmp_path)
    payload["optimizer"]["m"] = {}
    path.write_text(json.dumps(payload))
    cfg, params = tr.load_model(path)
    assert cfg == tiny_cfg("MTSP") and "dec.glimpse.q" in params
    assert "optimizer.m" in _one_line_error(path)


def _finetune(path, tc):
    """What the finetune command runs: a resume at tc's lr, then train."""
    tc, params, opt = tr.resume(path, lambda _stored: tc, config_lr=True)
    return tr.train(tc, params=params, opt=opt)


def test_finetune_rejects_mismatched_width(tmp_path):
    cfg, params = tiny_model("MTSP")
    opt = dc.AdamState(params, lr=1e-3)
    path = tmp_path / "model.ckpt"
    tr.save_checkpoint(path, cfg, params, opt)
    tc = tiny_tc(model=tiny_cfg("MTSP", d_model=32, d_ff=64))
    with pytest.raises(ValueError) as err:
        _finetune(path, tc)
    assert "16" in str(err.value) and "32" in str(err.value)


def test_finetune_zero_epochs_keeps_params(tmp_path):
    tc = tiny_tc(epochs=1, epoch_size=4)
    params, opt, _ = tr.train(tc)
    path = tmp_path / "model.ckpt"
    tr.save_checkpoint(path, tc.model, params, opt)
    tc2 = tiny_tc(epochs=0, lr=1e-5)
    params2, opt2, metrics = _finetune(path, tc2)
    assert metrics == []
    assert opt2.lr == 1e-5
    for k in params:
        assert np.array_equal(params[k].data, params2[k].data)


def test_finetune_runs_at_new_lr(tmp_path):
    tc = tiny_tc(epochs=1, epoch_size=4)
    params, opt, _ = tr.train(tc)
    path = tmp_path / "model.ckpt"
    tr.save_checkpoint(path, tc.model, params, opt)
    tc2 = tiny_tc(epochs=1, epoch_size=4, lr=1e-5)
    _, _, metrics = _finetune(path, tc2)
    assert metrics[0]["lr"] == 1e-5


# ---------------------------------------------------------------------------
# metrics text form
# ---------------------------------------------------------------------------

def test_metrics_text_roundtrip(tmp_path):
    rows = [{"epoch": 0, "mean_obj": 1.5, "mean_baseline": 1.75,
             "lr": 1e-3, "wallclock": 2.0}]
    text = tr.metrics_to_text(rows)
    assert text.count("\n") == 1
    path = tmp_path / "metrics.jsonl"
    path.write_text(text)
    assert pb.read_jsonl(path, dict) == rows
    path.write_text(tr.metrics_to_text([]))
    assert pb.read_jsonl(path, dict) == []
