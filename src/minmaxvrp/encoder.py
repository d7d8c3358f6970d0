"""Initial embeddings, positional encodings, and the layered
partition-and-navigation encoder for single-depot and multi-depot
min-max routing problems.

All trainable parameters of the model (encoder and decoder) are declared
here in one table (param_table), which init_params draws in order and
param_shapes reads; they live in one flat name -> Tensor dict.
"""

import math
import numbers
from dataclasses import asdict, dataclass, fields
from functools import lru_cache

import numpy as np

from . import diffcore as dc
from .problems import KINDS, MULTI_DEPOT_KINDS

PE_KINDS = ("rotation", "sinusoidal")


def check_field_types(config, what):
    """Raise a ValueError naming the first int, float, str or bool field of
    a config dataclass that holds another type (an int passes for a float)."""
    for f in fields(config):
        want = {int: numbers.Integral, float: numbers.Real, str: str, bool: bool}.get(f.type)
        value = getattr(config, f.name)
        if want and (not isinstance(value, want) or isinstance(value, bool) != (f.type is bool)):
            raise ValueError(f"{what} field {f.name} must be {f.type.__name__}, got {value!r}")


def check_keys(cls, rec, what):
    """Raise a ValueError unless rec is a dict keyed by fields of the config cls."""
    if not isinstance(rec, dict):
        raise ValueError(f"{what} must be a JSON object, got {rec!r}")
    extra = set(rec) - {f.name for f in fields(cls)}
    if extra:
        raise ValueError(f"unknown {what} config keys: {sorted(extra)}")


@dataclass
class ModelConfig:
    """Model hyperparameters shared by encoder, decoder and rollout."""

    kind: str
    n_layers: int = 2
    d_model: int = 32
    n_heads: int = 4
    d_ff: int = 0  # 0 means 4 * d_model
    pe: str = "rotation"
    use_nav: bool = True

    def __post_init__(self):
        check_field_types(self, "model")
        if self.kind not in KINDS:
            raise ValueError(f"unknown problem kind {self.kind!r}")
        if self.pe not in PE_KINDS:
            raise ValueError(f"unknown pe kind {self.pe!r}")
        if self.n_layers < 0:
            raise ValueError("n_layers must be >= 0")
        if self.d_model < 2 or self.d_model % 2 != 0:
            raise ValueError("d_model must be even and >= 2")
        if self.n_heads < 1 or self.d_model % self.n_heads != 0:
            raise ValueError("n_heads must divide d_model")
        if self.d_ff == 0:
            self.d_ff = 4 * self.d_model
        if self.d_ff < 1:
            raise ValueError("d_ff must be >= 1")

    @property
    def multi_depot(self):
        return self.kind in MULTI_DEPOT_KINDS

    def to_dict(self):
        return asdict(self)

    @classmethod
    def from_dict(cls, rec):
        check_keys(cls, rec, "model")
        return cls(**rec)


@dataclass
class Embeddings:
    """Encoder output streams, V variants x rows x d: agents, customers, depots."""

    H_a: dc.Tensor
    H_c: dc.Tensor
    H_d: dc.Tensor = None


class ProbeStore:
    """Collects raw and softmaxed attention scores during a forward pass."""

    def __init__(self):
        self.scores = {}  # (layer, relation, head) -> (raw, softmaxed)

    def record(self, layer, relation, head, raw, soft):
        self.scores[(layer, relation, head)] = (raw.copy(), soft.copy())


def attention_probe(probe, layer, head):
    """Score blocks recorded at (layer, head): relation -> (raw, softmaxed).

    Relations are named source_context, e.g. "agent_customer" holds the
    scores of agents attending over customers. Raises if the forward pass
    ran without a ProbeStore.
    """
    if probe is None:
        raise RuntimeError("probe not enabled: pass a ProbeStore to encode")
    out = {r: mats for (l, r, h), mats in probe.scores.items() if (l, h) == (layer, head)}
    if not out:
        raise RuntimeError(f"no probe data for layer {layer}, head {head}")
    return out


# ---------------------------------------------------------------------------
# positional encodings
# ---------------------------------------------------------------------------

def sinusoidal_pe(n_pos, d):
    """Classic sinusoidal table, n_pos x d: sin on even columns, cos on odd."""
    if d % 2 != 0:
        raise ValueError("sinusoidal_pe needs an even dimension")
    pos = np.arange(n_pos, dtype=np.float64)[:, None]
    denom = 10000.0 ** ((np.arange(d) // 2) / d)
    angles = pos / denom[None, :]
    table = np.empty((n_pos, d), dtype=np.float64)
    table[:, 0::2] = np.sin(angles[:, 0::2])
    table[:, 1::2] = np.cos(angles[:, 1::2])
    return table


@lru_cache(maxsize=64)
def _rotation_tables(n_pos, d):
    # theta_i = (1/1000)^((i-1)/d) for i in 1..d/2; pair p uses theta_{p+1}
    theta = 1000.0 ** (-np.arange(d // 2, dtype=np.float64) / d)
    angles = np.arange(n_pos, dtype=np.float64)[:, None] * theta[None, :]
    cos_t = np.repeat(np.cos(angles), 2, axis=1).astype(dc.DEFAULT_DTYPE)
    sin_t = np.repeat(np.sin(angles), 2, axis=1).astype(dc.DEFAULT_DTYPE)
    swap = np.zeros((d, d), dtype=dc.DEFAULT_DTYPE)
    for p in range(d // 2):
        swap[2 * p + 1, 2 * p] = -1.0  # even slot receives -base[odd]
        swap[2 * p, 2 * p + 1] = 1.0   # odd slot receives +base[even]
    return cos_t, sin_t, swap


def _tile(row, n_rows, V=None):
    """n_rows copies of a 1 x d row by a ones-matmul, per matrix of a V x 1 x d row or V times."""
    lead = row.shape[:-2] if V is None else (V,)
    return dc.matmul(dc.constant(np.ones(lead + (n_rows, 1))), row)


def rotation_pe(base, n_pos, w_pe):
    """Rotate the (V x) 1 x d base by position-dependent pair angles, project by w_pe.

    Row m rotates each (2p, 2p+1) pair of base by m * theta_{p+1}; row 0 is
    therefore exactly base @ w_pe. Differentiable in base and w_pe.
    """
    d = base.shape[-1]
    if d % 2 != 0:
        raise ValueError("rotation_pe needs an even dimension")
    cos_t, sin_t, swap = _rotation_tables(n_pos, d)
    tiled = _tile(base, n_pos)                          # (V x) n_pos x d
    swapped = dc.matmul(tiled, dc.constant(swap))
    rotated = dc.add(dc.mul(tiled, dc.constant(np.broadcast_to(cos_t, tiled.shape))),
                     dc.mul(swapped, dc.constant(np.broadcast_to(sin_t, tiled.shape))))
    return dc.matmul(rotated, w_pe)


# ---------------------------------------------------------------------------
# parameters
# ---------------------------------------------------------------------------

# One layer's blocks in order: (name, stream, context, scaled) over the
# agent (a), customer (c) and depot (d) streams. A block replaces its stream;
# block j uses the ReZero scalars a{2j+1} and a{2j+2}, and its probe
# relation is named stream_context, e.g. "agent_customer".
_SINGLE_BLOCKS = (("nav", "c", "c", True), ("agent", "a", "c", True), ("cust", "c", "a", False))
_MULTI_BLOCKS = (("nav", "c", "c", True), ("dc", "d", "c", True), ("cd", "c", "d", False),
                 ("ad", "a", "d", False), ("da", "d", "a", True),
                 ("ac", "a", "c", True), ("ca", "c", "a", False))
_STREAMS = {"a": "agent", "c": "customer", "d": "depot"}


def _blocks(cfg):
    """(j, block) of one layer's blocks, the nav block left out without use_nav."""
    blocks = _MULTI_BLOCKS if cfg.multi_depot else _SINGLE_BLOCKS
    return [(j, b) for j, b in enumerate(blocks) if cfg.use_nav or b[0] != "nav"]


def param_table(cfg):
    """(names, shape, init) of every trainable tensor, in init_params' draw order.

    init is the bound of a uniform draw, or ("fill", value) for a constant.
    An entry of several names is one attention block's role matrices, each
    d x d: one draw of n_heads x roles x d x d_k, whose head blocks sit side
    by side, head h in columns h*d_k..(h+1)*d_k.
    """
    d, d_ff = cfg.d_model, cfg.d_ff

    def w(name, rows, cols=d):  # uniform +-1/sqrt(fan_in)
        return (name,), (rows, cols), 1.0 / math.sqrt(rows)

    def fill(name, cols=d, value=0.0):
        return (name,), (1, cols), ("fill", value)

    def attn(prefix, roles=("q", "k", "v")):
        return [(tuple(f"{prefix}.{r}" for r in roles), (d, d), 1.0 / math.sqrt(d)),
                w(f"{prefix}.proj", d)]

    table = [w("embed.customer.W", 2), fill("embed.customer.b"),
             w("embed.depot.W", 2), fill("embed.depot.b")]
    if cfg.kind == "MPDP":
        table += [fill("embed.pickup.b"), fill("embed.delivery.b")]
    if cfg.multi_depot:
        table.append((("embed.agent_seed",), (1, d), 1.0 / math.sqrt(d)))
    if cfg.pe == "rotation":
        table.append(w("pe.proj", d))
    for l in range(cfg.n_layers):
        for _, (b, *_) in _blocks(cfg):
            split = b == "cust" and cfg.kind == "MPDP"
            roles = ("qp", "qd", "k", "v") if split else ("q", "k", "v")
            table += attn(f"layer{l}.{b}_attn", roles)
            table += [w(f"layer{l}.{b}_ff.w1", d, d_ff), w(f"layer{l}.{b}_ff.w2", d_ff)]
        table += [fill(f"layer{l}.a{2 * j + i}", 1) for j, _ in _blocks(cfg) for i in (1, 2)]
    table += [w("dec.emb", d), w("dec.step", 2 * d + 2),
              w("dec.length", 5 if cfg.kind == "MPDP" else 3), *attn("dec.glimpse"),
              w("dec.logit", d), fill("dec.alpha_dist", 1, -1.0)]
    return table


def init_params(cfg, rng):
    """Build every trainable tensor of the model, freshly initialized.

    Weights are uniform +-1/sqrt(fan_in), biases and ReZero scalars zero,
    the distance-bias scale starts at -1.
    """
    params = {}
    for names, (rows, cols), init in param_table(cfg):
        if isinstance(init, tuple):  # ("fill", value)
            arrays = [np.full((rows, cols), init[1])]
        else:
            H = cfg.n_heads if len(names) > 1 else 1
            draw = rng.uniform(-init, init, size=(H, len(names), rows, cols // H))
            arrays = [np.hstack(draw[:, r]) for r in range(len(names))]
        params.update((name, dc.Tensor(a, requires_grad=True)) for name, a in zip(names, arrays))
    return params


def param_shapes(cfg):
    """name -> shape of every tensor init_params(cfg) builds, in init order."""
    return {name: shape for names, shape, _ in param_table(cfg) for name in names}


def check_params(shapes, params, what="params"):
    """Raise a ValueError naming the first entry of params (name -> Tensor
    or array) that shapes (param_shapes) does not give the same name and
    shape: a missing, mis-shaped or unknown one. Returns params in init order."""
    for name in list(shapes) + [n for n in params if n not in shapes]:
        have = params[name].shape if name in params else "missing"
        want = shapes.get(name, "no such entry")
        if have != want:
            raise ValueError(f"{what} entry {name} is {have}; the model "
                             f"config expects {want}")
    return {name: params[name] for name in shapes}


# ---------------------------------------------------------------------------
# attention and feed-forward blocks
# ---------------------------------------------------------------------------

def keys_values(C, params, prefix, n_heads):
    """Head-split keys, transposed, and values of context C:
    (V*H) x d_k x C and (V*H) x C x d_k for a C or V x C context."""
    k = dc.split_heads(dc.matmul(C, params[f"{prefix}.k"]), n_heads)
    return dc.transpose(k), dc.split_heads(dc.matmul(C, params[f"{prefix}.v"]), n_heads)


def attend(q, k_t, v, n_heads, scaled, proj, probe=None, probe_at=None):
    """Multi-head attention of the projected queries q (rows x d or
    V x rows x d) over keys_values' k_t and v, all heads at once.

    scaled=True divides logits by sqrt(d_k); scaled=False is the sharp
    variant. The merged heads go through proj.
    """
    out, logits, soft = dc.attention(dc.split_heads(q, n_heads), k_t, v,
                                     1.0 / math.sqrt(v.shape[-1]) if scaled else None)
    if probe is not None:
        layer, relation = probe_at
        for h in range(n_heads):
            probe.record(layer, relation, h, logits[h], soft[h])
    return dc.matmul(dc.merge_heads(out, q.shape), proj)


def _mh_attention(X, C, params, prefix, n_heads, scaled,
                  pickup_rows=None, probe=None, probe_at=None):
    """Multi-head attention of X over context C.

    pickup_rows (bool per X row) switches per-row query weights between
    the qp/qd projections.
    """
    if pickup_rows is None:
        q = dc.matmul(X, params[f"{prefix}.q"])
    else:
        pick = dc.constant(np.broadcast_to(pickup_rows[:, None], X.shape))
        q = dc.add(dc.mul(dc.matmul(X, params[f"{prefix}.qp"]), pick),
                   dc.mul(dc.matmul(X, params[f"{prefix}.qd"]), dc.constant(1.0 - pick.data)))
    k_t, v = keys_values(C, params, prefix, n_heads)
    return attend(q, k_t, v, n_heads, scaled, params[f"{prefix}.proj"],
                  probe=probe, probe_at=probe_at)


def mha(X, C, params, prefix, n_heads):
    """Softmax attention with the 1/sqrt(d_k) temperature."""
    return _mh_attention(X, C, params, prefix, n_heads, scaled=True)


def mhsa(X, C, params, prefix, n_heads, pickup_rows=None):
    """Sharp attention: identical to mha but without the temperature."""
    return _mh_attention(X, C, params, prefix, n_heads, scaled=False,
                         pickup_rows=pickup_rows)


def ff(X, params, prefix):
    return dc.matmul(dc.relu(dc.matmul(X, params[f"{prefix}.w1"])),
                     params[f"{prefix}.w2"])


def _rezero(stream, delta, alpha):
    return dc.add(stream, dc.scale(delta, alpha))


def _attn_block(stream, context, params, layer, block, alpha_i, scaled, cfg,
                relation, pickup_rows=None, probe=None):
    prefix = f"layer{layer}.{block}_attn"
    out = _mh_attention(stream, context, params, prefix, cfg.n_heads, scaled,
                        pickup_rows=pickup_rows, probe=probe,
                        probe_at=(layer, relation))
    hat = _rezero(stream, out, params[f"layer{layer}.a{alpha_i}"])
    delta = ff(hat, params, f"layer{layer}.{block}_ff")
    return _rezero(hat, delta, params[f"layer{layer}.a{alpha_i + 1}"])


def _layer(emb, params, layer, cfg, pickup_rows, probe):
    streams = {"a": emb.H_a, "c": emb.H_c, "d": emb.H_d}
    for j, (block, x, ctx, scaled) in _blocks(cfg):
        streams[x] = _attn_block(
            streams[x], streams[ctx], params, layer, block, 2 * j + 1, scaled,
            cfg, f"{_STREAMS[x]}_{_STREAMS[ctx]}",
            pickup_rows=pickup_rows if block == "cust" else None,
            probe=probe)
    return Embeddings(H_a=streams["a"], H_c=streams["c"], H_d=streams["d"])


# ---------------------------------------------------------------------------
# forward pass
# ---------------------------------------------------------------------------

def initial_embeddings(variants, cfg, params):
    """Project the coordinates of V same-size variants of an instance and
    add agent positional encodings; every stream is V x rows x d."""
    ins, sizes = variants[0], [(v.kind, v.N, v.D, v.M) for v in variants]
    if set(sizes) != {(cfg.kind, ins.N, ins.D, ins.M)}:
        raise ValueError(f"encode needs {cfg.kind} variants of one size, got {sizes}")
    d, M, V = cfg.d_model, ins.M, len(variants)
    coords = dc.constant(np.stack([v.coords for v in variants]))
    H_c = dc.add(dc.matmul(coords, params["embed.customer.W"]),
                 _tile(params["embed.customer.b"], 1, V))
    if cfg.kind == "MPDP":  # pickup and delivery type biases
        H_c = dc.add(H_c, dc.concat_rows([_tile(params["embed.pickup.b"], ins.n_pairs, V),
                                          _tile(params["embed.delivery.b"], ins.n_pairs, V)]))

    depots = dc.constant(np.stack([v.depot_coords for v in variants]))
    depot_proj = dc.add(dc.matmul(depots, params["embed.depot.W"]),
                        _tile(params["embed.depot.b"], 1, V))
    # the agent base: a learned seed, or a single depot's projection
    base = _tile(params["embed.agent_seed"], 1, V) if cfg.multi_depot else depot_proj
    if cfg.pe == "rotation":
        pe_rows = rotation_pe(base, M, params["pe.proj"])
    else:
        pe_rows = dc.constant(np.broadcast_to(sinusoidal_pe(M, d), (V, M, d)))
    # a multi-depot agent row is the rotated seed itself
    H_a = (pe_rows if cfg.multi_depot and cfg.pe == "rotation"
           else dc.add(_tile(base, M), pe_rows))
    return Embeddings(H_a=H_a, H_c=H_c, H_d=depot_proj if cfg.multi_depot else None)


def encode(variants, cfg, params, probe=None):
    """Initial embeddings plus n_layers layers, in one pass over a list of V
    same-size variants of an instance. A probe records the first variant's scores."""
    emb = initial_embeddings(variants, cfg, params)
    ins = variants[0]
    pickup_rows = np.arange(ins.N) < ins.n_pairs if cfg.kind == "MPDP" else None
    for l in range(cfg.n_layers):
        emb = _layer(emb, params, l, cfg, pickup_rows, probe)
    return emb
