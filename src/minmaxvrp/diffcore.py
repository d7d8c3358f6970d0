"""Reverse-mode autodiff over dense 2-D arrays, plus an Adam optimizer.

Everything is a matrix: scalars are 1x1, vectors are 1xd. Most ops also take
a batch of matrices, V x rows x cols (the variants of an instance that the
encoder and decoder run together; rows are the second-to-last axis), and a
2-D parameter used with one broadcasts over the batch axis (its gradient
sums over that axis). Ops record their backward closure on the output
tensor; ``backward`` on a scalar loss walks the implicit graph in reverse
topological order once, freeing it as it goes. The decoder's context query,
multi-head attention and the decoder's masked logits are one fused node
each, running the NumPy expressions of the op chain they replace.
Parameters default to float32; float64 is available (gradient checks run
there, on the same code paths). Reductions that feed route lengths and
means accumulate in float64.
"""

import contextlib
import itertools
import math

import numpy as np

DEFAULT_DTYPE = np.float32
# the additive logit of an action or key that must get probability 0
MASK_VALUE = -1e9

_grad_enabled = True


@contextlib.contextmanager
def no_grad():
    """Disable graph recording inside the block (pure numpy forward)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


def grad_enabled():
    return _grad_enabled


class Tensor:
    """A 2-D (or batched 3-D) array node in the computation graph.

    fields: data (row-major ndarray), requires_grad, grad (same shape or
    None), plus the recorded parents and backward closure for non-leaves.
    """

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward", "_done",
                 "__weakref__")

    def __init__(self, data, requires_grad=False, dtype=None):
        arr = np.asarray(data, dtype=dtype if dtype is not None else DEFAULT_DTYPE)
        if arr.ndim == 0:
            arr = arr.reshape(1, 1)
        elif arr.ndim == 1:
            arr = arr.reshape(1, -1)
        elif arr.ndim > 3:
            raise ValueError(f"diffcore tensors are 2-D or 3-D, got shape {arr.shape}")
        self.data = arr
        self.requires_grad = requires_grad
        self.grad = None
        self._parents = ()
        self._backward = None
        self._done = False

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def item(self):
        if self.data.size != 1:
            raise ValueError(f"item() on non-scalar shape {self.data.shape}")
        return float(self.data.flat[0])

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def _make(data, parents, backward_fn):
    """Wrap an op result; record the closure only while grads are enabled.

    Op results are already 2-D or 3-D arrays, so the Tensor is filled in
    without __init__'s conversion.
    """
    needs = _grad_enabled and any(p.requires_grad for p in parents)
    out = Tensor.__new__(Tensor)
    out.data = data
    out.requires_grad = needs
    out.grad = None
    out._parents = tuple(parents) if needs else ()
    out._backward = backward_fn if needs else None
    out._done = False
    return out


def _accum(t, g):
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = g.copy()
    else:
        t.grad += g


# ---------------------------------------------------------------------------
# linear algebra ops
# ---------------------------------------------------------------------------

def _matmul(ad, bd):
    """ad @ bd per batch entry; a 2-D bd is shared by every entry of a 3-D ad."""
    if (ad.shape[-1] != bd.shape[-2] or bd.ndim > ad.ndim
            or (bd.ndim == 3 and len(ad) != len(bd))):
        raise ValueError(f"matmul shape mismatch: {ad.shape} @ {bd.shape}")
    return ad @ bd


def _matmul_grads(ad, bd, g):
    """The gradients of _matmul(ad, bd) for the output gradient g, (for ad,
    for bd); a shared bd gets the sum over the batch axis."""
    if bd.ndim < ad.ndim:
        return g @ bd.mT, ad.reshape(-1, ad.shape[-1]).T @ g.reshape(-1, g.shape[-1])
    return g @ bd.mT, ad.mT @ g


def matmul(a, b):
    """a @ b per batch entry; a 2-D b is shared by every entry of a 3-D a."""
    out_data = _matmul(a.data, b.data)

    def backward(g, out):
        ga, gb = _matmul_grads(a.data, b.data, g)
        _accum(a, ga)
        _accum(b, gb)

    return _make(out_data, (a, b), backward)


def transpose(a):
    """Swap the last two axes."""
    out_data = np.ascontiguousarray(a.data.mT)

    def backward(g, out):
        _accum(a, g.mT)

    return _make(out_data, (a,), backward)


def add(a, b):
    """Elementwise sum; b may be one row per matrix (1 x d, or V x 1 x d for
    a V x rows x d a) broadcast over a's rows."""
    if a.shape == b.shape:
        out_data = a.data + b.data

        def backward(g, out):
            _accum(a, g)
            _accum(b, g)

    elif b.shape == a.shape[:-2] + (1, a.shape[-1]):
        out_data = a.data + b.data

        def backward(g, out):
            _accum(a, g)
            _accum(b, g.sum(axis=-2, keepdims=True))

    else:
        raise ValueError(f"add shape mismatch: {a.shape} + {b.shape}")
    return _make(out_data, (a, b), backward)


def scale(a, c):
    """a * c with c a python float or a 1x1 tensor (trainable scalar)."""
    if isinstance(c, Tensor):
        if c.shape != (1, 1):
            raise ValueError(f"scale factor must be 1x1, got {c.shape}")
        out_data = a.data * c.data[0, 0]

        def backward(g, out):
            _accum(a, g * c.data[0, 0])
            _accum(c, np.array([[np.sum(g * a.data, dtype=np.float64)]], dtype=a.dtype))

        return _make(out_data, (a, c), backward)

    out_data = a.data * c

    def backward(g, out):
        _accum(a, g * c)

    return _make(out_data, (a,), backward)


def mul(a, b):
    """Elementwise product of same-shape tensors."""
    if a.shape != b.shape:
        raise ValueError(f"mul shape mismatch: {a.shape} * {b.shape}")
    out_data = a.data * b.data

    def backward(g, out):
        _accum(a, g * b.data)
        _accum(b, g * a.data)

    return _make(out_data, (a, b), backward)


def concat_rows(tensors):
    """The tensors' rows one after another, per matrix of a batch."""
    if len({t.shape[:-2] + t.shape[-1:] for t in tensors}) != 1:
        raise ValueError(f"concat_rows shape mismatch: {[t.shape for t in tensors]}")
    out_data = np.concatenate([t.data for t in tensors], axis=-2)
    edges = list(itertools.accumulate(t.shape[-2] for t in tensors))[:-1]

    def backward(g, out):
        for t, part in zip(tensors, np.split(g, edges, axis=-2)):
            _accum(t, part)

    return _make(out_data, tuple(tensors), backward)


def mean_rows(a, keep=None):
    """Column means of each matrix -> 1 x d, or V x 1 x d.
    mean_rows([[2,4],[6,8]]) = [[4,6]]. keep, a V x rows x 1 bool array
    with at least one True per matrix, leaves its False rows out."""
    if keep is None:
        n = a.shape[-2]
        out_data = a.data.mean(axis=-2, keepdims=True, dtype=np.float64).astype(a.dtype)

        def backward(g, out):
            _accum(a, np.repeat(g / n, n, axis=-2))

    else:
        out_data = a.data.mean(axis=-2, keepdims=True, dtype=np.float64,
                               where=keep).astype(a.dtype)

        def backward(g, out):
            _accum(a, g * (keep / keep.sum(axis=-2, keepdims=True)).astype(a.dtype))

    return _make(out_data, (a,), backward)


def pick_sum(steps, indexes):
    """out[..., k, 0] = sum over t of steps[t][..., k, indexes[t, ..., k]]:
    T same-shape V x K x C tensors and a T x V x K index array -> V x K x 1,
    one chosen entry per row and step, added step by step in order, as a
    chain of adds would. A step may be a constant; it gets no gradient."""
    idx = np.asarray(indexes, dtype=np.intp)
    shape = steps[0].shape
    if any(t.shape != shape for t in steps) or idx.shape != (len(steps),) + shape[:-1]:
        raise ValueError(f"pick_sum needs one index per row of each step, got "
                         f"{idx.shape} for steps {[t.shape for t in steps]}")
    if idx.size and (idx.min() < 0 or idx.max() >= shape[-1]):
        raise IndexError(f"pick_sum index out of range for {shape[-1]} cols")
    rows, cols = np.arange(idx[0].size), idx.reshape(len(steps), -1)
    picks = np.stack([t.data.reshape(len(rows), -1)[rows, c] for t, c in zip(steps, cols)])
    out_data = np.cumsum(picks, axis=0)[-1].reshape(idx.shape[1:] + (1,))

    def backward(g, out):
        for t, c in zip(steps, cols):
            if t.requires_grad:  # a constant step gets no gradient
                acc = np.zeros_like(t.data).reshape(len(rows), -1)
                acc[rows, c] = g.reshape(-1)
                _accum(t, acc.reshape(shape))

    return _make(out_data, tuple(steps), backward)


def sum_all(a):
    out_data = np.array([[np.sum(a.data, dtype=np.float64)]], dtype=a.dtype)

    def backward(g, out):
        _accum(a, np.full_like(a.data, g[0, 0]))

    return _make(out_data, (a,), backward)


# ---------------------------------------------------------------------------
# activations
# ---------------------------------------------------------------------------

def relu(a):
    out_data = np.maximum(a.data, 0)

    def backward(g, out):
        _accum(a, g * (a.data > 0))

    return _make(out_data, (a,), backward)


def tanh(a):
    out_data = np.tanh(a.data)

    def backward(g, out):
        _accum(a, g * (1.0 - out.data * out.data))

    return _make(out_data, (a,), backward)


# ---------------------------------------------------------------------------
# fused nodes: the decoder's context query, attention and masked logits
# ---------------------------------------------------------------------------

def context_query(H_a, agent, cand, node, fracs, feats, pooled, w_step, w_length, w_q):
    """(([H_a[agent] | cand[node] | fracs] @ w_step + pooled) + feats @ w_length)
    @ w_q as one node, per matrix: the decoder's step context and its glimpse
    query, V x K x d. H_a and cand are V x rows x d, agent and node V x K row
    indexes (repeats allowed), pooled V x 1 x d; fracs and feats, V x K x
    features, are constants at H_a's dtype. Backward sums the gradients of
    repeated rows by a one-hot matmul."""
    agent, node = (np.asarray(i, dtype=np.intp) for i in (agent, node))
    if (agent.ndim != 2 or agent.shape != node.shape or H_a.data.ndim != 3
            or len({len(agent), H_a.shape[0], cand.shape[0]}) > 1):
        raise ValueError(f"context_query needs one index list per matrix, got "
                         f"{agent.shape} and {node.shape} for {H_a.shape} and {cand.shape}")
    for idx, a in ((agent, H_a), (node, cand)):  # read unsigned, a negative index is too large
        if (idx.view(np.uintp) >= a.shape[1]).any():
            raise IndexError(f"context_query index out of range for {a.shape[1]} rows")
    lane = np.arange(len(agent))[:, None]
    fracs, feats = (np.asarray(x, dtype=H_a.dtype) for x in (fracs, feats))
    joined = np.concatenate([H_a.data[lane, agent], cand.data[lane, node], fracs], axis=-1)
    ctx = (_matmul(joined, w_step.data) + pooled.data) + _matmul(feats, w_length.data)
    out_data = _matmul(ctx, w_q.data)

    def backward(g, out):
        g_ctx, g_q = _matmul_grads(ctx, w_q.data, g)
        _accum(w_q, g_q)
        _accum(pooled, g_ctx.sum(axis=-2, keepdims=True))
        _accum(w_length, _matmul_grads(feats, w_length.data, g_ctx)[1])
        g_joined, g_step = _matmul_grads(joined, w_step.data, g_ctx)
        _accum(w_step, g_step)
        d = H_a.shape[-1]
        for a, idx, g_rows in ((H_a, agent, g_joined[..., :d]),
                               (cand, node, g_joined[..., d:2 * d])):
            if a.requires_grad:  # onehot[v, r, k] = 1 where idx[v, k] is row r
                onehot = idx[:, None, :] == np.arange(a.shape[1])[:, None]
                _accum(a, onehot.astype(g.dtype) @ g_rows)

    return _make(out_data, (H_a, cand, w_step, w_length, pooled, w_q), backward)


def _split(arr, n_heads):
    """(V x) rows x d -> (V*H) x rows x d/H: head h of matrix v is entry v*H + h."""
    rows, d = arr.shape[-2:]
    heads = arr.reshape(-1, rows, n_heads, d // n_heads).swapaxes(1, 2)
    return heads.reshape(-1, rows, d // n_heads)


def _merge(arr, shape):
    """The inverse of _split: (V * H) x rows x d_k back to shape."""
    heads = arr.reshape(-1, shape[-1] // arr.shape[-1], *arr.shape[1:])
    return heads.swapaxes(1, 2).reshape(shape)


def split_heads(a, n_heads):
    """a's columns as heads, (V x) rows x d -> (V*H) x rows x d/H, as
    attention splits its values: values shared by many attention calls are
    split, and their summed gradient merged, once. One head returns a."""
    if n_heads == 1:
        return a
    if a.shape[-1] % n_heads:
        raise ValueError(f"split_heads: {n_heads} heads do not divide {a.shape}")

    def backward(g, out):
        _accum(a, _merge(g, a.shape))

    return _make(_split(a.data, n_heads), (a,), backward)


def attention(q, k_t, v, proj, n_heads=1, c=None, bias=None):
    """softmax_rows(q_h @ k_t_h * c + bias) @ v_h for each head h, merged
    and times proj, as one node. q is (V x) rows x d, the transposed keys
    k_t (V x) d x C and v (V x) C x d_v, where proj takes d_v rows, or v's
    heads as split_heads gives them, (V*H) x C x d_v/H; head h holds columns
    h*d_k..(h+1)*d_k of q and v and those rows of k_t. With one head a 2-D
    k_t or v is shared as in matmul. c=None leaves the logits unscaled (the
    sharp variant). bias, broadcast to each head's logits (such as V x 1 x C,
    or (V*H) x 1 x C already repeated per head), is a constant at q's dtype:
    a bias of MASK_VALUE gives its keys a weight of exactly 0. Returns (the
    output Tensor, the logits and the softmax weights as arrays, head h of
    matrix v in entry v * n_heads + h)."""
    d_v = proj.shape[-2]
    if q.shape[-1] % n_heads or k_t.shape[-2] % n_heads or d_v % n_heads:
        raise ValueError(f"attention: {n_heads} heads do not divide "
                         f"{q.shape}, {k_t.shape}, {v.shape}")
    split_v = v.shape[-1] != d_v
    qh, kh, vh = q.data, k_t.data, v.data
    if n_heads > 1:
        qh = _split(qh, n_heads)
        vh = vh if split_v else _split(vh, n_heads)
        kh = kh.reshape(-1, kh.shape[-2] // n_heads, kh.shape[-1])
    raw = _matmul(qh, kh)
    logits = raw if c is None else raw * c
    if bias is not None:
        bias = np.asarray(bias, dtype=q.dtype)
        if bias.ndim == 3 and len(bias) != len(raw):
            bias = np.repeat(bias, n_heads, axis=0)
        logits = logits + bias
    e = np.exp(logits - logits.max(axis=-1, keepdims=True))
    soft = e / e.sum(axis=-1, keepdims=True)
    heads = _matmul(soft, vh)
    merged = heads if n_heads == 1 else _merge(heads, q.shape[:-1] + (d_v,))
    out_data = _matmul(merged, proj.data)

    def backward(g, out):
        g_merged, g_proj = _matmul_grads(merged, proj.data, g)
        g_heads = g_merged if n_heads == 1 else _split(g_merged, n_heads)
        g_soft, g_v = _matmul_grads(soft, vh, g_heads)
        g_logits = soft * (g_soft - np.sum(g_soft * soft, axis=-1, keepdims=True))
        g_q, g_k_t = _matmul_grads(qh, kh, g_logits if c is None else g_logits * c)
        if n_heads > 1:
            g_q, g_k_t = _merge(g_q, q.shape), g_k_t.reshape(k_t.shape)
            g_v = g_v if split_v else _merge(g_v, v.shape)
        for t, grad in ((proj, g_proj), (v, g_v), (q, g_q), (k_t, g_k_t)):
            _accum(t, grad)

    return _make(out_data, (q, k_t, v, proj), backward), logits, soft


def masked_logits(q, cand_proj_t, c, exp_rows, alpha, clip, penal):
    """log_softmax_rows(tanh(q @ cand_proj_t * c + exp_rows * alpha) * clip
    + penal) as one node: the decoder's distance-biased, clipped and masked
    log-probabilities. c and clip are floats, alpha a 1x1 tensor; exp_rows
    and penal are arrays of the logits' shape, constants at q's dtype. A NaN
    or inf in the pre-tanh sum raises a FloatingPointError."""
    exp_rows, penal = (np.asarray(x, dtype=q.dtype) for x in (exp_rows, penal))
    scores = _matmul(q.data, cand_proj_t.data) * c
    if exp_rows.shape != scores.shape or penal.shape != scores.shape:
        raise ValueError(f"masked_logits shape mismatch: logits {scores.shape}, "
                         f"exp_rows {exp_rows.shape}, penal {penal.shape}")
    pre = scores + exp_rows * alpha.data[0, 0]
    if not np.isfinite(pre).all():
        raise FloatingPointError("non-finite values in the decoder logits")
    th = np.tanh(pre)
    z = th * clip + penal
    shifted = z - z.max(axis=-1, keepdims=True)
    out_data = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))

    def backward(g, out):
        g_z = g - np.exp(out.data) * g.sum(axis=-1, keepdims=True)
        g_pre = g_z * clip * (1.0 - th * th)
        _accum(alpha, np.array([[np.sum(g_pre * exp_rows, dtype=np.float64)]],
                               dtype=exp_rows.dtype))
        g_q, g_cand = _matmul_grads(q.data, cand_proj_t.data, g_pre * c)
        _accum(q, g_q)
        _accum(cand_proj_t, g_cand)

    return _make(out_data, (q, cand_proj_t, alpha), backward)


# ---------------------------------------------------------------------------
# backward pass
# ---------------------------------------------------------------------------

def backward(loss):
    """Add d loss / d leaf to .grad of every requires_grad leaf reachable
    from the scalar loss, walking the graph once in reverse topological
    order. The walk frees the graph as it goes: once a node's closure has
    run, the node drops its closure, its parents and its .grad, so only
    leaves keep a gradient, and each intermediate buffer is released as
    soon as no later node and no caller holds it. A second call on the same
    loss raises."""
    if loss.shape != (1, 1):
        raise ValueError(f"backward needs a scalar loss, got shape {loss.shape}")
    if loss._done:
        raise RuntimeError("backward called twice on the same graph without reset")
    if not loss.requires_grad:
        raise RuntimeError("loss is detached from any requires_grad leaf")

    topo = []
    seen = set()
    stack = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if p.requires_grad and id(p) not in seen:
                stack.append((p, False))

    loss._done = True
    loss.grad = np.ones_like(loss.data)
    while topo:
        node = topo.pop()
        if node._backward is None:  # a leaf
            continue
        if node.grad is not None:
            node._backward(node.grad, node)
        node._backward, node._parents, node.grad = None, (), None


# ---------------------------------------------------------------------------
# gradient checking
# ---------------------------------------------------------------------------

def grad_check(f, params, eps=1e-5, samples_per_param=None, rng=None):
    """Max relative error between analytic and central-difference gradients.

    f(params) must rebuild the graph and return a scalar Tensor. Checks every
    entry when samples_per_param is None, otherwise a random sample per
    parameter. Error metric: |analytic - numeric| / max(1, |numeric|).
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    if rng is None:
        rng = np.random.default_rng(0)

    for p in params.values():
        p.grad = None
    loss = f(params)
    backward(loss)
    analytic = {name: (p.grad.copy() if p.grad is not None else np.zeros_like(p.data))
                for name, p in params.items()}

    worst = 0.0
    for name, p in params.items():
        flat = p.data.reshape(-1)
        n = flat.size
        if samples_per_param is None or samples_per_param >= n:
            picks = range(n)
        else:
            picks = rng.choice(n, size=samples_per_param, replace=False)
        for j in picks:
            orig = flat[j]
            flat[j] = orig + eps
            up = f(params).item()
            flat[j] = orig - eps
            down = f(params).item()
            flat[j] = orig
            numeric = (up - down) / (2.0 * eps)
            err = abs(analytic[name].reshape(-1)[j] - numeric) / max(1.0, abs(numeric))
            worst = max(worst, err)
    return worst


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------

class AdamState:
    """Per-parameter moments + step counter for the Adam update."""

    def __init__(self, params, lr, lr_decay=1.0, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr = float(lr)
        self.lr_decay = float(lr_decay)
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.step_count = 0
        self.m = {name: np.zeros_like(p.data) for name, p in params.items()}
        self.v = {name: np.zeros_like(p.data) for name, p in params.items()}

    def decay_epoch(self):
        self.lr *= self.lr_decay


def adam_step(params, state):
    """Standard Adam update in place; clears gradients afterwards."""
    missing = [name for name, p in params.items() if p.grad is None]
    if missing:
        raise RuntimeError(f"adam_step before backward: no gradient for {missing[0]}")
    state.step_count += 1
    t = state.step_count
    b1, b2 = state.beta1, state.beta2
    bias1 = 1.0 - b1 ** t
    bias2 = 1.0 - b2 ** t
    for name, p in params.items():
        g = p.grad
        m = state.m[name]
        v = state.v[name]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * (g * g)
        update = (state.lr / bias1) * m / (np.sqrt(v / bias2) + state.eps)
        p.data -= update.astype(p.data.dtype)
        p.grad = None


def clip_grad_norm(params, max_norm):
    """Global-norm gradient clipping; returns the pre-clip norm."""
    total = 0.0
    for p in params.values():
        if p.grad is not None:
            total += float(np.sum(p.grad.astype(np.float64) ** 2))
    norm = math.sqrt(total)
    if norm > max_norm > 0:
        factor = max_norm / norm
        for p in params.values():
            if p.grad is not None:
                p.grad *= factor
    return norm


# ---------------------------------------------------------------------------
# constants
# ---------------------------------------------------------------------------

def constant(data, dtype=None):
    """Non-trainable tensor (coordinates, masks, precomputed features)."""
    return Tensor(data, requires_grad=False, dtype=dtype)
