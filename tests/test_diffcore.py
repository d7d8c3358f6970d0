import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minmaxvrp import diffcore as dc

F64 = np.float64


def t64(data, grad=True):
    return dc.Tensor(data, requires_grad=grad, dtype=F64)


# ---------------------------------------------------------------------------
# frozen op examples
# ---------------------------------------------------------------------------

def test_matmul_identity():
    w = t64([[1.5, -2.0], [0.25, 3.0]])
    eye = dc.constant(np.eye(2), dtype=F64)
    out = dc.matmul(eye, w)
    assert np.array_equal(out.data, w.data)


def test_concat_rows_shape():
    a = t64(np.zeros((2, 3)))
    b = t64(np.ones((4, 3)))
    assert dc.concat_rows([a, b]).shape == (6, 3)


def test_mean_rows_value():
    out = dc.mean_rows(t64([[2.0, 4.0], [6.0, 8.0]]))
    assert np.allclose(out.data, [[4.0, 6.0]])


def test_softmax_symmetry():
    """Equal attention logits give equal weights, so the output is the
    mean value row."""
    out, logits, soft = dc.attention(t64([[0.0, 0.0]]), t64(np.eye(2)),
                                     t64([[1.0, 4.0], [3.0, 0.0]]), _eye(2), c=0.5)
    assert np.array_equal(logits, [[0.0, 0.0]])
    assert np.allclose(soft, [[0.5, 0.5]])
    assert np.allclose(out.data, [[2.0, 2.0]])


def test_relu_tanh_values():
    assert np.allclose(dc.relu(t64([[-1.0, 2.0]])).data, [[0.0, 2.0]])
    assert dc.tanh(t64([[0.0]])).item() == 0.0


def test_sum_backward_ones():
    x = t64([[1.0, 2.0, 3.0]])
    dc.backward(dc.sum_all(x))
    assert np.array_equal(x.grad, [[1.0, 1.0, 1.0]])


def test_softmax_pick_backward():
    # attention logits x @ I over values [[1], [0]] give softmax(x)[0], so
    # at x = [0, 0] d/dx = [p0(1-p0), -p0*p1] = [0.25, -0.25]
    x = t64([[0.0, 0.0]])
    out, _, _ = dc.attention(x, t64(np.eye(2), grad=False), t64([[1.0], [0.0]], grad=False),
                             _eye(1))
    dc.backward(dc.sum_all(out))
    assert np.allclose(x.grad, [[0.25, -0.25]], atol=1e-12)


def test_tanh_linear_chain_matches_fd():
    rng = np.random.default_rng(3)
    params = {"w": t64(rng.standard_normal((4, 3)) * 0.5)}
    x = dc.constant(rng.standard_normal((2, 4)), dtype=F64)

    def f(p):
        return dc.sum_all(dc.tanh(dc.matmul(x, p["w"])))

    assert dc.grad_check(f, params, eps=1e-3) < 1e-3


# ---------------------------------------------------------------------------
# per-op gradient property tests (100 seeds each, float64 central differences)
# ---------------------------------------------------------------------------

def _eye(n, dtype=F64):
    """An n x n identity projection: attention's output is then its merged heads."""
    return dc.constant(np.eye(n), dtype=dtype)


def _weighted(t):
    """A scalar that tells the entries of t apart, so an op that moves
    entries to the wrong place in backward fails the finite differences."""
    w = np.linspace(-1.0, 1.0, t.data.size).reshape(t.shape)
    return dc.sum_all(dc.tanh(dc.mul(t, dc.constant(w, dtype=F64))))


def _op_cases(rng):
    n, m, k = rng.integers(1, 5, size=3)
    a = rng.standard_normal((n, m))
    b = rng.standard_normal((m, k))
    c = rng.standard_normal((n, m))
    row = rng.standard_normal((1, m))
    return n, m, k, a, b, c, row


def _masked(p, q, cand_t):
    """masked_logits of q over cand_t with fixed distance factors and a
    soft penalty (a -1e9 mask would swamp the finite differences)."""
    shape = q.shape[:-1] + cand_t.shape[-1:]
    grid = np.linspace(0.0, 1.0, math.prod(shape)).reshape(shape)
    return dc.masked_logits(q, cand_t, 0.6, np.exp(grid), p["alpha"], 2.0,
                            np.where(grid > 0.7, -3.0, 0.0))


OPS = [
    ("matmul", lambda p: dc.sum_all(dc.tanh(dc.matmul(p["a"], p["b"])))),
    ("transpose", lambda p: dc.sum_all(dc.tanh(dc.transpose(p["a"])))),
    ("add", lambda p: dc.sum_all(dc.tanh(dc.add(p["a"], p["c"])))),
    ("add_row_broadcast", lambda p: dc.sum_all(dc.tanh(dc.add(p["a"], p["row"])))),
    ("scale_const", lambda p: dc.sum_all(dc.tanh(dc.scale(p["a"], 1.7)))),
    ("scale_tensor", lambda p: dc.sum_all(dc.tanh(dc.scale(p["a"], p["alpha"])))),
    ("mul", lambda p: dc.sum_all(dc.tanh(dc.mul(p["a"], p["c"])))),
    ("concat_rows", lambda p: dc.sum_all(dc.tanh(dc.concat_rows([p["a"], p["c"]])))),
    ("mean_rows", lambda p: dc.sum_all(dc.tanh(dc.mean_rows(p["a"])))),
    ("mean_rows_keep", lambda p: dc.sum_all(dc.tanh(dc.mean_rows(
        p["a"], np.arange(p["a"].shape[-2])[:, None] % 3 != 1)))),
    ("relu", lambda p: dc.sum_all(dc.relu(p["a"]))),
    ("tanh", lambda p: dc.sum_all(dc.tanh(p["a"]))),
    ("attention_scaled", lambda p: _weighted(dc.attention(
        p["a"], p["b"], dc.transpose(p["b"]), _eye(p["b"].shape[0]), c=0.7)[0])),
    ("attention_sharp", lambda p: _weighted(dc.attention(
        p["a"], p["b"], dc.transpose(p["b"]), _eye(p["b"].shape[0]))[0])),
    ("attention_key_bias", lambda p: _weighted(dc.attention(
        p["a"], p["b"], dc.transpose(p["b"]), _eye(p["b"].shape[0]), c=0.7,
        bias=np.where(np.arange(p["b"].shape[-1]) % 2 == 1, dc.MASK_VALUE, 0.0))[0])),
    ("masked_logits", lambda p: _weighted(_masked(p, p["a"], p["b"]))),
    ("mha_scaled", lambda p: _mha(p["a"], p["c"], p["b"], 0.7)),
    ("mha_sharp", lambda p: _mha(p["a"], p["c"], p["b"], None)),
    ("mha_key_bias", lambda p: _mha(p["a"], p["c"], p["b"], 0.7, key_bias=True)),
    ("context_query", lambda p: _context(p, _lift(p["a"]), _lift(p["c"]))),
]


def _mha(q, keys, proj, c, key_bias=False):
    """The attention node over keys (rows x d or V x rows x d) as keys and
    values, with a trainable projection: 2 heads for an even d, else one
    head per column; key_bias leaves every odd key out."""
    n_keys, d = keys.shape[-2:]
    bias = None
    if key_bias:
        bias = np.where(np.arange(n_keys) % 2 == 1, dc.MASK_VALUE, 0.0)
        bias = np.broadcast_to(bias, keys.shape[:-2] + (1, n_keys))
    out, _, _ = dc.attention(q, dc.transpose(keys), keys, proj, 2 if d % 2 == 0 else d, c, bias)
    return _weighted(out)


def _lift(t):
    """A rows x d tensor as a 1 x rows x d batch (an identity matmul)."""
    return dc.matmul(dc.constant(np.eye(t.shape[0])[None], dtype=F64), t)


def _context(p, H_a, cand):
    """context_query over V x rows x d H_a and cand, 3 rows per variant:
    the first two gather one agent row and one node row, and the last agent
    row is a padded slot that no row gathers."""
    V, rows = H_a.shape[:2]
    agent = np.tile([0, 0, max(rows - 2, 0)], (V, 1))
    node = np.tile([rows - 1, rows - 1, 0], (V, 1))
    scalars = np.linspace(-1.0, 1.0, V * 9).reshape(V, 3, 3)
    return _weighted(dc.context_query(H_a, agent, cand, node, scalars[..., :1],
                                      scalars[..., 1:], p["pooled"], p["w_step"],
                                      p["w_length"], p["w_q"]))


def _context_params(rng, V, d):
    """The trainable inputs of _context besides H_a and cand: one fraction
    and two length features, a context width of 3, a query width of 2."""
    shapes = {"pooled": (V, 1, 3), "w_step": (2 * d + 1, 3), "w_length": (2, 3),
              "w_q": (3, 2)}
    return {name: t64(rng.standard_normal(shape)) for name, shape in shapes.items()}


@pytest.mark.parametrize("name,f", OPS, ids=[o[0] for o in OPS])
def test_op_gradients_match_finite_differences(name, f):
    worst = 0.0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        n, m, k, a, b, c, row = _op_cases(rng)
        if name == "relu":
            # keep entries away from the kink where the derivative jumps
            a = np.where(np.abs(a) < 0.05, 0.5, a)
        params = {"a": t64(a), "b": t64(b), "c": t64(c), "row": t64(row),
                  "alpha": t64([[0.7]])}
        if name == "context_query":
            params.update(_context_params(rng, 1, m))
        worst = max(worst, dc.grad_check(f, params, eps=1e-5))
    assert worst < 1e-3


BATCHED_OPS = [
    ("matmul_shared", lambda p: dc.sum_all(dc.tanh(dc.matmul(p["x"], p["w"])))),
    ("matmul_batched", lambda p: dc.sum_all(dc.tanh(dc.matmul(p["x"], p["y"])))),
    ("transpose", lambda p: dc.sum_all(dc.tanh(dc.matmul(dc.transpose(p["x"]), p["c"])))),
    ("add_row_broadcast", lambda p: dc.sum_all(dc.tanh(dc.add(p["x"], p["row"])))),
    ("scale_tensor", lambda p: dc.sum_all(dc.tanh(dc.scale(p["x"], p["alpha"])))),
    ("attention_scaled", lambda p: _weighted(dc.attention(
        p["x"], p["y"], dc.transpose(p["y"]), _eye(p["y"].shape[-2]), c=0.7)[0])),
    ("attention_sharp", lambda p: _weighted(dc.attention(
        p["x"], p["y"], dc.transpose(p["y"]), _eye(p["y"].shape[-2]))[0])),
    ("attention_shared", lambda p: _weighted(dc.attention(
        p["x"], p["w"], dc.transpose(p["w"]), _eye(p["w"].shape[0]), c=0.7)[0])),
    ("masked_logits", lambda p: _weighted(_masked(p, p["x"], p["y"]))),
    ("masked_logits_shared", lambda p: _weighted(_masked(p, p["x"], p["w"]))),
    ("mha_scaled", lambda p: _mha(p["x"], p["c"], p["w"], 0.7)),
    ("mha_sharp", lambda p: _mha(p["x"], p["c"], p["w"], None)),
    ("mha_key_bias", lambda p: _mha(p["x"], p["c"], p["w"], 0.7, key_bias=True)),
    # a 2-D k_t and v are shared by every batch entry with one head
    ("mha_shared", lambda p: _weighted(dc.attention(
        p["x"], p["w"], dc.transpose(p["w"]), p["w"], 1, 0.7)[0])),
    ("context_query", lambda p: _context(p, p["x"], p["c"])),
    ("pick_sum", lambda p: _weighted(_pick_sum([p["x"], dc.tanh(p["c"]), p["x"]]))),
]


def _pick_sum(steps):
    """pick_sum of the steps at indexes drawn from their shape, so one
    entry may be picked at several steps."""
    V, n, m = steps[0].shape
    idx = np.random.default_rng([V, n, m]).integers(0, m, size=(len(steps), V, n))
    return dc.pick_sum(steps, idx)


def _batched_case(rng):
    V, n, m, k = rng.integers(1, 4, size=4)
    return {"x": t64(rng.standard_normal((V, n, m))),
            "c": t64(rng.standard_normal((V, n, m))),
            "y": t64(rng.standard_normal((V, m, k))),
            "w": t64(rng.standard_normal((m, k))),
            "row": t64(rng.standard_normal((V, 1, m))),
            "alpha": t64([[0.7]])}


@pytest.mark.parametrize("name,f", BATCHED_OPS, ids=[o[0] for o in BATCHED_OPS])
def test_batched_op_gradients_match_finite_differences(name, f):
    """V x rows x cols inputs; a 2-D w shared by the batch gets the sum of
    its per-matrix gradients."""
    worst = 0.0
    for seed in range(30):
        rng = np.random.default_rng(seed)
        params = _batched_case(rng)
        if name == "context_query":
            params.update(_context_params(rng, *params["x"].shape[::2]))
        worst = max(worst, dc.grad_check(f, params, eps=1e-5))
    assert worst < 1e-3


def test_batched_gather_and_take_gradients():
    """Rows gathered by the context query node, then one column per row."""
    for seed in range(30):
        rng = np.random.default_rng(2000 + seed)
        a = t64(rng.standard_normal((3, 5, 4)))
        idx = rng.integers(0, 5, size=(3, 2))
        cols = rng.integers(0, 4, size=(2, 3, 2))
        fixed = {"pooled": dc.constant(np.zeros((3, 1, 4)), dtype=F64),
                 "w_length": dc.constant(np.zeros((1, 4)), dtype=F64),
                 "w_q": _eye(4)}

        def f(p):
            # w_step passes the agent rows through and drops the others
            w_step = dc.constant(np.vstack([np.eye(4), np.zeros((5, 4))]), dtype=F64)
            picked = dc.context_query(p["a"], idx, p["a"], idx, np.zeros((3, 2, 1)),
                                      np.zeros((3, 2, 1)), fixed["pooled"], w_step,
                                      fixed["w_length"], fixed["w_q"])
            return dc.sum_all(dc.tanh(dc.pick_sum([picked, dc.tanh(picked)], cols)))

        assert dc.grad_check(f, {"a": a}, eps=1e-5) < 1e-3


def test_batched_forward_matches_per_matrix_calls():
    """Each matrix of a batched result equals the 2-D op on that matrix,
    bit for bit (float32, as the decoder runs)."""
    rng = np.random.default_rng(5)
    x = rng.standard_normal((3, 4, 6)).astype(np.float32)
    y = rng.standard_normal((3, 6, 5)).astype(np.float32)
    w = dc.constant(rng.standard_normal((6, 5)))
    row = rng.standard_normal((3, 1, 6)).astype(np.float32)
    idx = rng.integers(0, 4, size=(3, 2))
    X, Y, alpha = dc.constant(x), dc.constant(y), dc.constant([[0.3]])
    scalars = rng.standard_normal((3, 2, 3))
    w_step, w_length, w_q = (dc.constant(rng.standard_normal(shape))
                             for shape in ((13, 5), (2, 5), (5, 4)))
    pooled = rng.standard_normal((3, 1, 5))

    def query(v):  # the context query of matrices v
        return dc.context_query(dc.constant(x[v]), idx[v], dc.constant(x[v]), idx[v, ::-1],
                                scalars[v, :, :1], scalars[v, :, 1:], dc.constant(pooled[v]),
                                w_step, w_length, w_q)

    for v in range(3):
        xv = dc.constant(x[v])
        pairs = [
            (dc.matmul(X, w), dc.matmul(xv, w)),
            (dc.matmul(X, Y), dc.matmul(xv, dc.constant(y[v]))),
            (dc.matmul(X, dc.transpose(X)), dc.matmul(xv, dc.transpose(xv))),
            (dc.add(X, dc.constant(row)), dc.add(xv, dc.constant(row[v]))),
            (dc.attention(X, Y, dc.transpose(Y), _eye(6, np.float32))[0],
             dc.attention(xv, dc.constant(y[v]), dc.constant(y[v].T), _eye(6, np.float32))[0]),
            (dc.masked_logits(X, Y, 0.5, y[:, :4], alpha, 5.0, -x[:, :, :5]),
             dc.masked_logits(xv, dc.constant(y[v]), 0.5, y[v, :4], alpha, 5.0,
                              -x[v, :, :5])),
            (dc.pick_sum([X, X], idx.T[:, :, None].repeat(4, axis=2)),
             dc.pick_sum([xv, xv], idx[v, :, None].repeat(4, axis=1))),
        ]
        for batched, single in pairs:
            assert np.array_equal(batched.data[v], single.data)
        assert np.array_equal(query(slice(None)).data[v], query(slice(v, v + 1)).data[0])


def test_pick_sum_adds_step_by_step():
    """Bitwise the float32 chain of adds over the per-step gathers, V x K x 1."""
    rng = np.random.default_rng(8)
    steps = [rng.standard_normal((2, 3, 4)).astype(np.float32) for _ in range(5)]
    idx = rng.integers(0, 4, size=(5, 2, 3))
    out = dc.pick_sum([dc.constant(s) for s in steps], idx)
    picks = [np.take_along_axis(s, i[..., None], axis=-1) for s, i in zip(steps, idx)]
    chain = picks[0]
    for p in picks[1:]:
        chain = chain + p
    assert out.shape == (2, 3, 1) and out.data.dtype == np.float32
    assert np.array_equal(out.data, chain)
    # constant steps among trainable ones get no gradient; the others theirs
    mixed = [dc.Tensor(s, requires_grad=t % 2 == 0) for t, s in enumerate(steps)]
    dc.backward(dc.sum_all(dc.pick_sum(mixed, idx)))
    for t, (tensor, i) in enumerate(zip(mixed, idx)):
        if t % 2:
            assert tensor.grad is None
        else:
            assert np.array_equal(tensor.grad, np.arange(4) == i[..., None])
    tensors = [dc.constant(s) for s in steps]
    with pytest.raises(ValueError, match="one index per row"):
        dc.pick_sum(tensors, idx[:, :, :2])
    with pytest.raises(ValueError, match="one index per row"):
        dc.pick_sum(tensors[:4], idx)
    with pytest.raises(ValueError, match="one index per row"):
        dc.pick_sum(tensors[:4] + [dc.constant(steps[4][:, :, :3])], idx)
    for bad in (4, -1):
        wrong = idx.copy()
        wrong[3, 1, 2] = bad
        with pytest.raises(IndexError, match="out of range"):
            dc.pick_sum(tensors, wrong)


def test_split_and_merge_heads_layout():
    """In the attention node, head h of matrix v is entry v * H + h and
    holds columns h*d_k..(h+1)*d_k of q and v and those rows of k_t; the
    merge undoes the split exactly. Heads must divide every width."""
    x = np.arange(2 * 3 * 8, dtype=F64).reshape(2, 3, 8)
    for a in (x, x[0]):
        heads = dc._split(a, 4)
        for v, mat in enumerate(a.reshape(-1, 3, 8)):
            for h in range(4):
                assert np.array_equal(heads[v * 4 + h], mat[:, 2 * h:2 * h + 2])
        assert np.array_equal(dc._merge(heads, a.shape), a)
    # head h's one-hot query picks its key 2h + h % 2, whose value is its
    # own columns of that identity row
    pick = np.array([[1.0, 0.0, 0.0, 1.0] * 2])
    eye = dc.constant(np.eye(8), dtype=F64)
    out, logits, _ = dc.attention(dc.constant(pick * 50.0, dtype=F64), eye, eye, eye, 4)
    assert logits.shape == (4, 1, 8)
    assert np.allclose(out.data, pick, atol=1e-12)
    with pytest.raises(ValueError, match="heads do not divide"):
        dc.attention(eye, eye, eye, eye, 3)


def test_values_split_once_attend_bitwise_as_values_split_per_call():
    """Values split once by split_heads and a key bias repeated per head
    once give the outputs of attention over the merged values and the
    per-variant bias, and, summed over several calls, the same value
    gradient, merged once by split_heads' backward."""
    rng = np.random.default_rng(5)
    V, C, d, H = 2, 5, 8, 4
    v0, proj0 = rng.standard_normal((V, C, d)), rng.standard_normal((d, d))
    k_t = dc.constant(rng.standard_normal((V, d, C)))
    qs = [dc.constant(rng.standard_normal((V, 3, d))) for _ in range(3)]
    bias = np.where(rng.random((V, 1, C)) < 0.3, dc.MASK_VALUE, 0.0)
    bias[..., 0] = 0.0
    grads = []
    for once in (False, True):
        v, proj = dc.Tensor(v0, requires_grad=True), dc.Tensor(proj0, requires_grad=True)
        vals, b = (dc.split_heads(v, H), np.repeat(bias, H, axis=0)) if once else (v, bias)
        outs = [dc.attention(q, k_t, vals, proj, H, 0.5, b)[0] for q in qs]
        dc.backward(dc.sum_all(dc.tanh(dc.concat_rows(outs))))
        grads.append((np.concatenate([o.data for o in outs]), v.grad, proj.grad))
    for plain, split in zip(*grads):
        assert np.array_equal(plain, split)
    one = dc.Tensor(v0)
    assert dc.split_heads(one, 1) is one
    with pytest.raises(ValueError, match="heads do not divide"):
        dc.split_heads(one, 3)


@settings(max_examples=60)
@given(dtype=st.sampled_from([np.float32, F64]), V=st.integers(1, 3), K=st.integers(1, 4),
       C=st.integers(1, 6), d=st.integers(1, 4), size=st.sampled_from([0.1, 1.0, 30.0]),
       seed=st.integers(0, 2 ** 16))
def test_masked_logits_of_one_legal_action_are_exact(dtype, V, K, C, d, size, seed):
    """With one legal action per row the masked log-probabilities are
    exactly 0.0 there and exp to exactly 0 elsewhere, and backward from the
    chosen entries gives q, the candidate keys and alpha gradients of
    exactly 0: what lets a decode step without a choice skip the head."""
    rng = np.random.default_rng(seed)
    q = dc.Tensor(rng.normal(0.0, size, (V, K, d)), requires_grad=True, dtype=dtype)
    cand_t = dc.Tensor(rng.normal(0.0, size, (V, d, C)), requires_grad=True, dtype=dtype)
    alpha = dc.Tensor(rng.normal(0.0, 1.0, (1, 1)), requires_grad=True, dtype=dtype)
    exp_rows = np.exp(rng.uniform(0.0, 30.0, (V, K, C)))  # dist_exp_row caps its ratio at 30
    legal = rng.integers(C, size=(V, K))
    mask = np.arange(C) == legal[..., None]
    logp = dc.masked_logits(q, cand_t, 1.0 / math.sqrt(d), exp_rows, alpha, 50.0,
                            np.where(mask, 0.0, dc.MASK_VALUE).astype(dtype))
    assert logp.dtype == dtype
    assert (logp.data[mask] == 0.0).all()
    assert (np.exp(logp.data[~mask].astype(F64)) == 0.0).all()
    dc.backward(dc.sum_all(dc.pick_sum([logp], legal[None])))
    for t in (q, cand_t, alpha):
        assert t.grad.dtype == dtype and not t.grad.any()


def test_batched_shape_errors():
    x = t64(np.zeros((2, 3, 4)))
    with pytest.raises(ValueError):
        dc.matmul(x, t64(np.zeros((3, 4, 2))))  # batch sizes differ
    with pytest.raises(ValueError):
        dc.matmul(t64(np.zeros((3, 4))), t64(np.zeros((2, 4, 2))))
    with pytest.raises(ValueError):
        dc.add(x, t64(np.zeros((1, 4))))  # one row per matrix, not one in all
    with pytest.raises(ValueError):  # one index list per matrix
        dc.context_query(x, [0, 1], x, [0, 1], np.zeros((2, 1)), np.zeros((2, 1)),
                         x, x, x, x)
    with pytest.raises(ValueError):
        dc.Tensor(np.zeros((1, 1, 1, 1)))


def test_context_query_rejects_an_index_out_of_range():
    """An agent or node index of -1 or of the row count raises, where NumPy
    would wrap -1 round to the last row."""
    H_a, cand = dc.constant(np.zeros((2, 3, 4))), dc.constant(np.zeros((2, 5, 4)))
    w_step, w_length, w_q = (dc.constant(np.zeros(shape)) for shape in ((9, 4), (1, 4), (4, 4)))
    pooled, scalars = dc.constant(np.zeros((2, 1, 4))), np.zeros((2, 2, 1))
    ok_agent, ok_node = np.array([[0, 2], [1, 2]]), np.array([[0, 4], [3, 4]])
    dc.context_query(H_a, ok_agent, cand, ok_node, scalars, scalars, pooled,
                     w_step, w_length, w_q)
    for bad in (-1, 3):
        agent = ok_agent.copy()
        agent[1, 0] = bad
        with pytest.raises(IndexError, match="out of range for 3 rows"):
            dc.context_query(H_a, agent, cand, ok_node, scalars, scalars, pooled,
                             w_step, w_length, w_q)
    for bad in (-1, 5):
        node = ok_node.copy()
        node[0, 1] = bad
        with pytest.raises(IndexError, match="out of range for 5 rows"):
            dc.context_query(H_a, ok_agent, cand, node, scalars, scalars, pooled,
                             w_step, w_length, w_q)


# ---------------------------------------------------------------------------
# structural invariants
# ---------------------------------------------------------------------------

def test_softmax_rows_sum_to_one_and_positive():
    """Attention weights, and the exp of masked_logits' log-probabilities
    over a row's unmasked entries, are positive and sum to one per row."""
    eye = dc.constant(np.eye(6))
    for seed in range(100):
        rng = np.random.default_rng(seed)
        x = dc.Tensor(rng.standard_normal((3, 6)) * 10)
        _, _, soft = dc.attention(x, eye, eye, eye)
        assert np.allclose(soft.sum(axis=1), 1.0, atol=1e-6)
        assert (soft > 0).all()
        legal = rng.random((3, 6)) < 0.6
        legal[:, 0] = True
        logp = dc.masked_logits(x, eye, 1.0, np.ones((3, 6)), dc.constant([[-1.0]]),
                                50.0, np.where(legal, 0.0, -1e9)).data
        probs = np.exp(logp.astype(np.float64))
        assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-5)
        assert (probs[legal] > 0).all() and (probs[~legal] == 0).all()


def test_forward_deterministic():
    rng = np.random.default_rng(7)
    x = dc.Tensor(rng.standard_normal((4, 4)))
    w = dc.Tensor(rng.standard_normal((4, 4)), requires_grad=True)
    a = dc.attention(dc.matmul(x, w), x, w, _eye(4, np.float32))[0].data
    b = dc.attention(dc.matmul(x, w), x, w, _eye(4, np.float32))[0].data
    assert np.array_equal(a, b)


@settings(max_examples=60)
@given(seed=st.integers(0, 2 ** 32 - 1), V=st.integers(1, 3), n=st.integers(1, 5),
       m=st.integers(1, 5), k=st.integers(1, 6), scaled=st.booleans(),
       biased=st.booleans(), dtype=st.sampled_from([np.float32, F64]))
def test_fused_ops_equal_the_numpy_chains_they_replace(seed, V, n, m, k, scaled, biased,
                                                       dtype):
    """Forward and backward of each fused node are bitwise the NumPy
    expressions of the op chain it replaced: matmul, scale, key bias,
    softmax and matmul (one head, identity projection); split_heads, the
    same per head, merge_heads and matmul; two gathers, concat_cols, step
    and length matmuls, two adds and the query matmul, whose gathered rows'
    gradients, summed by a one-hot matmul in place of np.add.at, match to
    1e-12 in float64; matmul, scale, distance bias, add, tanh, clip scale,
    mask add and log-softmax."""
    rng = np.random.default_rng(seed)
    q, cand_t, val = (rng.standard_normal(shape).astype(dtype)
                      for shape in ((V, n, m), (V, m, k), (V, k, m)))
    g_out, g = (rng.standard_normal(shape).astype(dtype) for shape in ((V, n, m), (V, n, k)))
    c = 1.0 / math.sqrt(m) if scaled else None
    bias = None
    if biased:  # key padding: key 0 stays, the others may be padded
        bias = np.where(rng.random((V, 1, k)) < 0.4, dc.MASK_VALUE, 0.0)
        bias[:, :, 0] = 0.0

    tq, tk, tv = (dc.Tensor(a, requires_grad=True, dtype=dtype) for a in (q, cand_t, val))
    out, logits, soft = dc.attention(tq, tk, tv, _eye(m, dtype), 1, c, bias)
    dc.backward(dc.sum_all(dc.mul(out, dc.constant(g_out, dtype=dtype))))
    raw = q @ cand_t
    ref_logits = raw if c is None else raw * c
    if biased:
        ref_logits = ref_logits + bias.astype(dtype)
        assert (soft[np.broadcast_to(bias, soft.shape) < 0] == 0.0).all()
    e = np.exp(ref_logits - ref_logits.max(axis=-1, keepdims=True))
    ref_soft = e / e.sum(axis=-1, keepdims=True)
    assert np.array_equal(logits, ref_logits) and np.array_equal(soft, ref_soft)
    assert np.array_equal(out.data, ref_soft @ val)
    g_soft = g_out @ val.mT
    g_logits = ref_soft * (g_soft - np.sum(g_soft * ref_soft, axis=-1, keepdims=True))
    g_raw = g_logits if c is None else g_logits * c
    assert np.array_equal(tv.grad, ref_soft.mT @ g_out)
    assert np.array_equal(tq.grad, g_raw @ cand_t.mT)
    assert np.array_equal(tk.grad, q.mT @ g_raw)

    # two heads of width m and a projection to width k
    H = 2
    qm, kt_m, vm = (rng.standard_normal(shape).astype(dtype)
                    for shape in ((V, n, H * m), (V, H * m, k), (V, k, H * m)))
    proj, g_mh = rng.standard_normal((H * m, k)).astype(dtype), g.copy()
    tq, tk, tv, tp = (dc.Tensor(a, requires_grad=True, dtype=dtype)
                      for a in (qm, kt_m, vm, proj))
    out, logits, soft = dc.attention(tq, tk, tv, tp, H, c, bias)
    dc.backward(dc.sum_all(dc.mul(out, dc.constant(g_mh, dtype=dtype))))

    def split(a):  # split_heads: V x rows x H*m -> (V*H) x rows x m
        return a.reshape(V, -1, H, m).swapaxes(1, 2).reshape(V * H, -1, m)

    def merge(a):  # merge_heads
        return a.reshape(V, H, -1, m).swapaxes(1, 2).reshape(V, -1, H * m)

    qh, kh, vh = split(qm), np.ascontiguousarray(split(kt_m.mT).mT), split(vm)
    ref_logits = qh @ kh if c is None else (qh @ kh) * c
    if biased:
        ref_logits = ref_logits + np.repeat(bias, H, axis=0).astype(dtype)
    e = np.exp(ref_logits - ref_logits.max(axis=-1, keepdims=True))
    ref_soft = e / e.sum(axis=-1, keepdims=True)
    merged = merge(ref_soft @ vh)
    assert np.array_equal(logits, ref_logits) and np.array_equal(soft, ref_soft)
    assert np.array_equal(out.data, merged @ proj)
    assert np.array_equal(tp.grad, merged.reshape(-1, H * m).T @ g_mh.reshape(-1, k))
    g_heads = split(g_mh @ proj.mT)
    g_soft = g_heads @ vh.mT
    g_logits = ref_soft * (g_soft - np.sum(g_soft * ref_soft, axis=-1, keepdims=True))
    g_raw = g_logits if c is None else g_logits * c
    assert np.array_equal(tv.grad, merge(ref_soft.mT @ g_heads))
    assert np.array_equal(tq.grad, merge(g_raw @ kh.mT))
    assert np.array_equal(tk.grad, merge((qh.mT @ g_raw).mT).mT)

    # the context query: k rows per variant over n + 1 agent rows, the last
    # of them padding, and k + 1 node rows; rows 0 and 1 share an agent and
    # a node, so the gradient scatter sums repeated indexes
    agent, node = rng.integers(0, n, (V, k)), rng.integers(0, k + 1, (V, k))
    agent[:, 1:2], node[:, 1:2] = agent[:, :1], node[:, :1]
    fracs, feats = rng.random((V, k, 2)), rng.random((V, k, 3))
    arrays = [rng.standard_normal(shape).astype(dtype) for shape in
              ((V, n + 1, m), (V, k + 1, m), (2 * m + 2, m), (3, m), (V, 1, m), (m, n))]
    H_a, cand, w_step, w_length, pooled, w_q = tensors = [
        dc.Tensor(a, requires_grad=True, dtype=dtype) for a in arrays]
    g_q = rng.standard_normal((V, k, n)).astype(dtype)
    out = dc.context_query(H_a, agent, cand, node, fracs, feats, pooled, w_step,
                           w_length, w_q)
    dc.backward(dc.sum_all(dc.mul(out, dc.constant(g_q, dtype=dtype))))
    a_h, a_c, a_step, a_len, a_pool, a_q = arrays
    lane = np.arange(V)[:, None]
    joined = np.concatenate([a_h[lane, agent], a_c[lane, node], fracs.astype(dtype)], axis=-1)
    ctx = (joined @ a_step + a_pool) + feats.astype(dtype) @ a_len
    assert np.array_equal(out.data, ctx @ a_q)
    g_ctx = g_q @ a_q.mT
    g_joined = g_ctx @ a_step.mT
    want = {"w_q": ctx.reshape(-1, m).T @ g_q.reshape(-1, n),
            "pooled": g_ctx.sum(axis=-2, keepdims=True),
            "w_length": feats.astype(dtype).reshape(-1, 3).T @ g_ctx.reshape(-1, m),
            "w_step": joined.reshape(-1, 2 * m + 2).T @ g_ctx.reshape(-1, m)}
    for name, t in zip(("w_step", "w_length", "pooled", "w_q"), tensors[2:]):
        assert np.array_equal(t.grad, want[name])
    for t, idx, part in ((H_a, agent, g_joined[..., :m]), (cand, node, g_joined[..., m:2 * m])):
        acc = np.zeros_like(t.data)
        np.add.at(acc, (lane, idx), part)
        np.testing.assert_allclose(t.grad, acc, rtol=0, atol=1e-12 if dtype == F64 else 1e-5)
    assert (H_a.grad[:, -1] == 0.0).all()  # the padded agent row

    # the distance factors and the mask enter as constants at q's dtype
    exp_rows = np.exp(rng.uniform(0.0, 1.0, (V, n, k)))
    penal = np.where(rng.random((V, n, k)) < 0.3, -1e9, 0.0)
    penal[:, :, 0] = 0.0
    alpha = dc.Tensor([[-0.8]], requires_grad=True, dtype=dtype)
    tq, tk = (dc.Tensor(a, requires_grad=True, dtype=dtype) for a in (q, cand_t))
    logp = dc.masked_logits(tq, tk, 0.4, exp_rows, alpha, 50.0, penal)
    dc.backward(dc.sum_all(dc.mul(logp, dc.constant(g, dtype=dtype))))
    e_q, p_q = exp_rows.astype(dtype), penal.astype(dtype)
    th = np.tanh((q @ cand_t) * 0.4 + e_q * alpha.data[0, 0])
    z = th * 50.0 + p_q
    shifted = z - z.max(axis=-1, keepdims=True)
    ref = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    assert np.array_equal(logp.data, ref)
    g_pre = (g - np.exp(ref) * g.sum(axis=-1, keepdims=True)) * 50.0 * (1.0 - th * th)
    assert np.array_equal(alpha.grad, np.array([[np.sum(g_pre * e_q, dtype=np.float64)]],
                                               dtype=dtype))
    assert np.array_equal(tq.grad, (g_pre * 0.4) @ cand_t.mT)
    assert np.array_equal(tk.grad, q.mT @ (g_pre * 0.4))


def test_masked_logits_gives_a_float64_alpha_a_float64_gradient():
    """The distance factors are not rounded to float32 in a float64 model,
    so dec.alpha_dist's gradient is the float64 sum."""
    rng = np.random.default_rng(3)
    q, cand_t = t64(rng.standard_normal((2, 3))), t64(rng.standard_normal((3, 4)))
    exp_rows = np.exp(rng.uniform(0.0, 1.0, (2, 4)))
    alpha = t64([[-0.8]])
    logp = dc.masked_logits(q, cand_t, 0.5, exp_rows, alpha, 50.0, np.zeros((2, 4)))
    dc.backward(dc.sum_all(dc.mul(logp, dc.constant(np.eye(2, 4), dtype=F64))))
    th = np.tanh((q.data @ cand_t.data) * 0.5 + exp_rows * -0.8)
    g = np.eye(2, 4)
    g_pre = (g - np.exp(logp.data) * g.sum(axis=-1, keepdims=True)) * 50.0 * (1.0 - th * th)
    assert alpha.grad.dtype == F64
    assert alpha.grad[0, 0] == np.sum(g_pre * exp_rows, dtype=np.float64)


def test_masked_logits_checks_shapes_and_finite_values():
    q, cand_t = dc.constant(np.ones((2, 3))), dc.constant(np.ones((3, 4)))
    alpha = dc.constant([[1.0]])
    with pytest.raises(ValueError, match=r"\(2, 4\).*\(2, 5\)"):
        dc.masked_logits(q, cand_t, 1.0, np.ones((2, 5)), alpha, 1.0, np.zeros((2, 4)))
    with pytest.raises(FloatingPointError, match="non-finite"):
        dc.masked_logits(q, cand_t, 1.0, np.full((2, 4), np.inf), alpha, 1.0,
                         np.zeros((2, 4)))


def test_backward_twice_errors():
    x = t64([[1.0, 2.0]])
    loss = dc.sum_all(x)
    dc.backward(loss)
    with pytest.raises(RuntimeError):
        dc.backward(loss)


def test_backward_frees_each_node_during_the_walk():
    """A node that only the graph holds is freed as soon as the walk has
    passed it, before the walk reaches a later node, not at its end; the
    leaf keeps its gradient and no other node keeps anything."""
    x = t64([[0.5, -1.0]])
    mid = dc.tanh(dc.scale(x, 2.0))
    ref = weakref.ref(mid)
    first = dc.sum_all(mid)
    del mid
    seen_dead = []
    # add's second parent is walked last, after mid's whole branch
    last = dc._make(np.zeros((1, 1)), (t64([[0.0]]),),
                    lambda g, out: seen_dead.append(ref() is None))
    loss = dc.add(first, last)
    dc.backward(loss)
    assert seen_dead == [True]
    assert np.allclose(x.grad, 2.0 * (1.0 - np.tanh([[1.0, -2.0]]) ** 2))
    for node in (first, last, loss):
        assert node.grad is None and node._backward is None and node._parents == ()


def test_backward_non_scalar_errors():
    x = t64([[1.0, 2.0]])
    with pytest.raises(ValueError):
        dc.backward(dc.tanh(x))


def test_backward_detached_errors():
    x = dc.constant([[1.0, 2.0]], dtype=F64)
    with pytest.raises(RuntimeError):
        dc.backward(dc.sum_all(x))


def test_shape_mismatch_messages_name_shapes():
    a = t64(np.zeros((2, 3)))
    b = t64(np.zeros((2, 3)))
    with pytest.raises(ValueError, match=r"\(2, 3\).*\(2, 3\)"):
        dc.matmul(a, b)


def test_no_grad_records_nothing():
    x = t64([[1.0, 2.0]])
    with dc.no_grad():
        out = dc.tanh(x)
    assert not out.requires_grad and out._backward is None


def test_no_grad_nests_and_restores_on_error():
    with dc.no_grad():
        with dc.no_grad():
            assert not dc.grad_enabled()
        assert not dc.grad_enabled()
    assert dc.grad_enabled()
    with pytest.raises(KeyError):
        with dc.no_grad():
            raise KeyError("boom")
    assert dc.grad_enabled()


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------

def test_adam_zero_gradient_no_change():
    w = t64([[1.0, -2.0]])
    state = dc.AdamState({"w": w}, lr=0.1)
    w.grad = np.zeros_like(w.data)
    before = w.data.copy()
    dc.adam_step({"w": w}, state)
    assert np.array_equal(w.data, before)


def test_adam_descends_on_square():
    w = t64([[1.0]])
    state = dc.AdamState({"w": w}, lr=0.1)

    def loss_fn():
        return dc.sum_all(dc.mul(w, w))

    loss = loss_fn()
    dc.backward(loss)
    dc.adam_step({"w": w}, state)
    assert w.item() < 1.0


def test_adam_missing_grad_errors():
    w = t64([[1.0]])
    state = dc.AdamState({"w": w}, lr=0.1)
    with pytest.raises(RuntimeError):
        dc.adam_step({"w": w}, state)


def test_lr_decay_factor_one_keeps_lr_constant():
    w = t64([[1.0]])
    state = dc.AdamState({"w": w}, lr=1e-4, lr_decay=1.0)
    for _ in range(5):
        state.decay_epoch()
    assert state.lr == 1e-4


def test_clip_grad_norm():
    w = t64([[3.0, 4.0]])
    w.grad = np.array([[3.0, 4.0]])
    norm = dc.clip_grad_norm({"w": w}, 1.0)
    assert math.isclose(norm, 5.0)
    assert math.isclose(float(np.linalg.norm(w.grad)), 1.0, rel_tol=1e-9)


def test_grad_check_constant_function_is_zero():
    params = {"w": t64([[1.0, 2.0]])}

    def f(p):
        return dc.scale(dc.sum_all(dc.scale(p["w"], 0.0)), 1.0)

    assert dc.grad_check(f, params, eps=1e-3) == 0.0
