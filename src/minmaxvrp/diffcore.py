"""Reverse-mode autodiff over dense 2-D arrays, plus an Adam optimizer.

Everything is a matrix: scalars are 1x1, vectors are 1xd. Most ops also take
a batch of matrices, V x rows x cols (the variants of an instance that the
encoder and decoder run together, or attention heads via split_heads; rows
are the second-to-last axis), and a 2-D parameter used with one broadcasts
over the batch axis (its gradient sums over that axis). Ops record their
backward closure on the output tensor; ``backward`` on a scalar loss walks
the implicit graph in reverse topological order once, freeing it as it
goes. Attention and the decoder's masked logits are one fused node each.
Parameters default to float32; float64 is available (gradient checks run
there, on the same code paths). Reductions that feed route lengths and
means accumulate in float64.
"""

import contextlib
import itertools
import math

import numpy as np

DEFAULT_DTYPE = np.float32

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

    def zero_grad(self):
        self.grad = None

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


def _concat(tensors, axis, name):
    if len({t.shape[:axis] + t.shape[axis:][1:] for t in tensors}) != 1:
        raise ValueError(f"{name} shape mismatch: {[t.shape for t in tensors]}")
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    edges = list(itertools.accumulate(t.shape[axis] for t in tensors))[:-1]

    def backward(g, out):
        for t, part in zip(tensors, np.split(g, edges, axis=axis)):
            _accum(t, part)

    return _make(out_data, tuple(tensors), backward)


def concat_rows(tensors):
    return _concat(tensors, -2, "concat_rows")


def concat_cols(tensors):
    return _concat(tensors, -1, "concat_cols")


def _split(arr, n_heads):
    rows, d = arr.shape[-2:]
    heads = arr.reshape(-1, rows, n_heads, d // n_heads).swapaxes(1, 2)
    return heads.reshape(-1, rows, d // n_heads)


def _merge(arr, shape):
    heads = arr.reshape(-1, shape[-1] // arr.shape[-1], *arr.shape[1:])
    return heads.swapaxes(1, 2).reshape(shape)


def split_heads(a, n_heads):
    """rows x d, or V x rows x d, -> (V * n_heads) x rows x d/n_heads: head
    h of matrix v is entry v * n_heads + h and holds columns h*d_k..(h+1)*d_k."""
    if a.shape[-1] % n_heads:
        raise ValueError(f"split_heads: {n_heads} heads do not divide {a.shape}")
    shape = a.shape
    return _make(_split(a.data, n_heads), (a,),
                 lambda g, out: _accum(a, _merge(g, shape)))


def merge_heads(a, shape):
    """The inverse of split_heads: (V * H) x rows x d_k back to shape."""
    if (a.data.ndim != 3 or shape[-2] != a.shape[1] or shape[-1] % a.shape[-1]
            or a.data.size != math.prod(shape)):
        raise ValueError(f"merge_heads cannot make {shape} from {a.shape}")
    n_heads = shape[-1] // a.shape[-1]
    return _make(_merge(a.data, shape), (a,),
                 lambda g, out: _accum(a, _split(g, n_heads)))


def mean_rows(a):
    """Column means of each matrix -> 1 x d, or V x 1 x d.
    mean_rows([[2,4],[6,8]]) = [[4,6]]."""
    n = a.shape[-2]
    out_data = a.data.mean(axis=-2, keepdims=True, dtype=np.float64).astype(a.dtype)

    def backward(g, out):
        _accum(a, np.repeat(g / n, n, axis=-2))

    return _make(out_data, (a,), backward)


def gather_rows(a, indexes):
    """Rows of a V x rows x d a by index (repeats allowed): row v of the
    V x K indexes picks from a[v], giving V x K x d; backward scatters."""
    idx = np.asarray(indexes, dtype=np.intp)
    if a.data.ndim != 3 or idx.ndim != 2 or len(idx) != a.shape[0]:
        raise ValueError(f"gather_rows needs one index list per matrix, got "
                         f"{idx.shape} for {a.shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= a.shape[-2]):
        raise IndexError(f"gather_rows index out of range for {a.shape[-2]} rows")
    idx = (np.arange(len(idx))[:, None], idx)
    out_data = a.data[idx]

    def backward(g, out):
        acc = np.zeros_like(a.data)
        np.add.at(acc, idx, g)
        _accum(a, acc)

    return _make(out_data, (a,), backward)


def take_per_row(a, indexes):
    """out[..., k, 0] = a[..., k, indexes[..., k]] -> one column."""
    idx = np.asarray(indexes, dtype=np.intp)
    if idx.shape != a.shape[:-1]:
        raise ValueError(f"take_per_row needs one index per row, got {idx.shape} for {a.shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= a.shape[-1]):
        raise IndexError(f"take_per_row index out of range for {a.shape[-1]} cols")
    flat = a.data.reshape(-1, a.shape[-1])
    rows, cols = np.arange(len(flat)), idx.reshape(-1)
    out_data = flat[rows, cols].reshape(idx.shape + (1,))

    def backward(g, out):
        acc = np.zeros_like(flat)
        acc[rows, cols] = g.reshape(-1)
        _accum(a, acc.reshape(a.shape))

    return _make(out_data, (a,), backward)


def sum_row_blocks(a, n_blocks):
    """V x (n_blocks * K) x c -> V x K x c: row k of the output sums row k
    of each of the n_blocks blocks of K rows, block by block in order, as a
    chain of adds would."""
    if a.data.ndim != 3 or a.shape[1] % n_blocks:
        raise ValueError(f"sum_row_blocks: {n_blocks} blocks do not divide {a.shape}")
    V, _rows, cols = a.shape
    out_data = np.cumsum(a.data.reshape(V, n_blocks, -1, cols), axis=1)[:, -1]

    def backward(g, out):
        _accum(a, np.tile(g, (1, n_blocks, 1)))

    return _make(out_data, (a,), backward)


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
# fused nodes: attention and the decoder's masked logits
# ---------------------------------------------------------------------------

def attention(q, k_t, v, c=None):
    """softmax_rows(q @ k_t * c) @ v as one node, per batch entry: q is
    rows x d_k, k_t d_k x C and v C x d_v (a 2-D k_t or v is shared as in
    matmul); c=None leaves the logits unscaled (the sharp variant). The row
    softmax subtracts the row max. Returns (the output Tensor, the logits
    and the softmax weights as arrays)."""
    raw = _matmul(q.data, k_t.data)
    logits = raw if c is None else raw * c
    e = np.exp(logits - logits.max(axis=-1, keepdims=True))
    soft = e / e.sum(axis=-1, keepdims=True)
    out_data = _matmul(soft, v.data)

    def backward(g, out):
        g_soft, g_v = _matmul_grads(soft, v.data, g)
        _accum(v, g_v)
        g_logits = soft * (g_soft - np.sum(g_soft * soft, axis=-1, keepdims=True))
        g_q, g_k_t = _matmul_grads(q.data, k_t.data,
                                   g_logits if c is None else g_logits * c)
        _accum(q, g_q)
        _accum(k_t, g_k_t)

    return _make(out_data, (q, k_t, v), backward), logits, soft


def masked_logits(q, cand_proj_t, c, exp_rows, alpha, clip, penal):
    """log_softmax_rows(tanh(q @ cand_proj_t * c + exp_rows * alpha) * clip
    + penal) as one node: the decoder's distance-biased, clipped and masked
    log-probabilities. c and clip are floats, alpha a 1x1 tensor; exp_rows
    and penal are arrays of the logits' shape, converted as constant()
    converts them. A NaN or inf in the pre-tanh sum raises a
    FloatingPointError."""
    exp_rows, penal = (np.asarray(x, dtype=DEFAULT_DTYPE) for x in (exp_rows, penal))
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
        p.zero_grad()
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
