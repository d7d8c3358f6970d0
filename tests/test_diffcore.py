import math

import numpy as np
import pytest

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
    out = dc.softmax_rows(t64([[0.0, 0.0]]))
    assert np.allclose(out.data, [[0.5, 0.5]])


def test_relu_tanh_values():
    assert np.allclose(dc.relu(t64([[-1.0, 2.0]])).data, [[0.0, 2.0]])
    assert dc.tanh(t64([[0.0]])).item() == 0.0


def test_sum_backward_ones():
    x = t64([[1.0, 2.0, 3.0]])
    dc.backward(dc.sum_all(x))
    assert np.array_equal(x.grad, [[1.0, 1.0, 1.0]])


def test_softmax_pick_backward():
    # softmax([0,0]) then pick index 0: d/dx = [p0(1-p0), -p0*p1] = [0.25, -0.25]
    x = t64([[0.0, 0.0]])
    picked = dc.take_per_row(dc.softmax_rows(x), [0])
    dc.backward(dc.sum_all(picked))
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


OPS = [
    ("matmul", lambda p: dc.sum_all(dc.tanh(dc.matmul(p["a"], p["b"])))),
    ("transpose", lambda p: dc.sum_all(dc.tanh(dc.transpose(p["a"])))),
    ("add", lambda p: dc.sum_all(dc.tanh(dc.add(p["a"], p["c"])))),
    ("add_row_broadcast", lambda p: dc.sum_all(dc.tanh(dc.add(p["a"], p["row"])))),
    ("scale_const", lambda p: dc.sum_all(dc.tanh(dc.scale(p["a"], 1.7)))),
    ("scale_tensor", lambda p: dc.sum_all(dc.tanh(dc.scale(p["a"], p["alpha"])))),
    ("mul", lambda p: dc.sum_all(dc.tanh(dc.mul(p["a"], p["c"])))),
    ("concat_rows", lambda p: dc.sum_all(dc.tanh(dc.concat_rows([p["a"], p["c"]])))),
    ("concat_cols", lambda p: dc.sum_all(dc.tanh(dc.concat_cols([p["a"], p["c"]])))),
    ("mean_rows", lambda p: dc.sum_all(dc.tanh(dc.mean_rows(p["a"])))),
    ("relu", lambda p: dc.sum_all(dc.relu(p["a"]))),
    ("tanh", lambda p: dc.sum_all(dc.tanh(p["a"]))),
    ("softmax_rows", lambda p: dc.sum_all(dc.tanh(dc.softmax_rows(p["a"])))),
    ("log_softmax_rows", lambda p: dc.sum_all(dc.mul(p["c"], dc.log_softmax_rows(p["a"])))),
    ("split_heads", lambda p: _weighted(dc.split_heads(dc.concat_cols([p["a"], p["c"]]), 2))),
    ("merge_heads", lambda p: _weighted(dc.merge_heads(
        dc.split_heads(dc.concat_cols([p["a"], p["c"]]), 2),
        (p["a"].shape[0], 2 * p["a"].shape[1])))),
]


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
        worst = max(worst, dc.grad_check(f, params, eps=1e-5))
    assert worst < 1e-3


BATCHED_OPS = [
    ("matmul_shared", lambda p: dc.sum_all(dc.tanh(dc.matmul(p["x"], p["w"])))),
    ("matmul_batched", lambda p: dc.sum_all(dc.tanh(dc.matmul(p["x"], p["y"])))),
    ("transpose", lambda p: dc.sum_all(dc.tanh(dc.matmul(dc.transpose(p["x"]), p["c"])))),
    ("add_row_broadcast", lambda p: dc.sum_all(dc.tanh(dc.add(p["x"], p["row"])))),
    ("scale_tensor", lambda p: dc.sum_all(dc.tanh(dc.scale(p["x"], p["alpha"])))),
    ("softmax_rows", lambda p: dc.sum_all(dc.tanh(dc.softmax_rows(p["x"])))),
    ("log_softmax_rows", lambda p: dc.sum_all(dc.mul(p["c"], dc.log_softmax_rows(p["x"])))),
    ("concat_cols", lambda p: dc.sum_all(dc.tanh(dc.concat_cols([p["x"], p["c"]])))),
    ("split_heads", lambda p: _weighted(dc.split_heads(dc.concat_cols([p["x"], p["c"]]), 2))),
    ("merge_heads", lambda p: _weighted(dc.merge_heads(
        p["x"], (1, p["x"].shape[1], p["x"].shape[0] * p["x"].shape[2])))),
    ("sum_row_blocks", lambda p: _weighted(dc.sum_row_blocks(
        dc.concat_rows([p["x"], dc.tanh(p["c"]), p["x"]]), 3))),
]


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
        params = _batched_case(np.random.default_rng(seed))
        worst = max(worst, dc.grad_check(f, params, eps=1e-5))
    assert worst < 1e-3


def test_batched_gather_and_take_gradients():
    for seed in range(30):
        rng = np.random.default_rng(2000 + seed)
        a = t64(rng.standard_normal((3, 5, 4)))
        idx = rng.integers(0, 5, size=(3, 2))
        cols = rng.integers(0, 4, size=(3, 2))

        def f(p):
            picked = dc.gather_rows(p["a"], idx)
            return dc.sum_all(dc.tanh(dc.take_per_row(picked, cols)))

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
    X, Y = dc.constant(x), dc.constant(y)
    for v in range(3):
        xv = dc.constant(x[v])
        pairs = [
            (dc.matmul(X, w), dc.matmul(xv, w)),
            (dc.matmul(X, Y), dc.matmul(xv, dc.constant(y[v]))),
            (dc.matmul(X, dc.transpose(X)), dc.matmul(xv, dc.transpose(xv))),
            (dc.add(X, dc.constant(row)), dc.add(xv, dc.constant(row[v]))),
            (dc.softmax_rows(X), dc.softmax_rows(xv)),
            (dc.log_softmax_rows(X), dc.log_softmax_rows(xv)),
            (dc.concat_cols([X, X]), dc.concat_cols([xv, xv])),
            (dc.take_per_row(X, idx[:, :1].repeat(4, axis=1)),
             dc.take_per_row(xv, idx[v, :1].repeat(4))),
        ]
        for batched, single in pairs:
            assert np.array_equal(batched.data[v], single.data)
        assert np.array_equal(dc.gather_rows(X, idx).data[v],
                              dc.gather_rows(dc.constant(x[v:v + 1]), idx[v:v + 1]).data[0])


def test_sum_row_blocks_adds_block_by_block():
    """Bitwise the float32 chain of adds over the blocks, V x K x c."""
    rng = np.random.default_rng(8)
    blocks = [rng.standard_normal((2, 3, 1)).astype(np.float32) for _ in range(5)]
    out = dc.sum_row_blocks(dc.constant(np.concatenate(blocks, axis=1)), 5)
    chain = blocks[0]
    for b in blocks[1:]:
        chain = chain + b
    assert out.shape == (2, 3, 1)
    assert np.array_equal(out.data, chain)
    with pytest.raises(ValueError, match="blocks"):
        dc.sum_row_blocks(dc.constant(np.zeros((2, 7, 1))), 3)
    with pytest.raises(ValueError, match="blocks"):
        dc.sum_row_blocks(dc.constant(np.zeros((6, 1))), 3)


def test_split_and_merge_heads_layout():
    """Head h of matrix v is entry v * H + h and holds columns
    h*d_k..(h+1)*d_k; merge_heads undoes split_heads exactly."""
    x = np.arange(2 * 3 * 8, dtype=F64).reshape(2, 3, 8)
    for a in (x, x[0]):
        heads = dc.split_heads(dc.constant(a, dtype=F64), 4)
        for v, mat in enumerate(a.reshape(-1, 3, 8)):
            for h in range(4):
                assert np.array_equal(heads.data[v * 4 + h], mat[:, 2 * h:2 * h + 2])
        assert np.array_equal(dc.merge_heads(heads, a.shape).data, a)
    with pytest.raises(ValueError):
        dc.split_heads(dc.constant(x), 3)
    with pytest.raises(ValueError):
        dc.merge_heads(dc.constant(x), (3, 8))  # 2 x 3 x 8 holds 48 entries
    with pytest.raises(ValueError):
        dc.merge_heads(dc.constant(x), (2, 4, 6))  # rows must stay


def test_batched_shape_errors():
    x = t64(np.zeros((2, 3, 4)))
    with pytest.raises(ValueError):
        dc.matmul(x, t64(np.zeros((3, 4, 2))))  # batch sizes differ
    with pytest.raises(ValueError):
        dc.matmul(t64(np.zeros((3, 4))), t64(np.zeros((2, 4, 2))))
    with pytest.raises(ValueError):
        dc.add(x, t64(np.zeros((1, 4))))  # one row per matrix, not one in all
    with pytest.raises(ValueError):
        dc.gather_rows(x, [0, 1])  # one index list per matrix
    with pytest.raises(ValueError):
        dc.Tensor(np.zeros((1, 1, 1, 1)))


# ---------------------------------------------------------------------------
# structural invariants
# ---------------------------------------------------------------------------

def test_softmax_rows_sum_to_one_and_positive():
    for seed in range(100):
        rng = np.random.default_rng(seed)
        x = dc.Tensor(rng.standard_normal((3, 6)) * 10)
        out = dc.softmax_rows(x)
        assert np.allclose(out.data.sum(axis=1), 1.0, atol=1e-6)
        assert (out.data > 0).all()


def test_forward_deterministic():
    rng = np.random.default_rng(7)
    x = dc.Tensor(rng.standard_normal((4, 4)))
    w = dc.Tensor(rng.standard_normal((4, 4)), requires_grad=True)
    a = dc.softmax_rows(dc.matmul(x, w)).data
    b = dc.softmax_rows(dc.matmul(x, w)).data
    assert np.array_equal(a, b)


def test_backward_twice_errors():
    x = t64([[1.0, 2.0]])
    loss = dc.sum_all(x)
    dc.backward(loss)
    with pytest.raises(RuntimeError):
        dc.backward(loss)


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
