"""Initial embeddings, positional encodings, and the layered
partition-and-navigation encoder for single-depot and multi-depot
min-max routing problems.

All trainable parameters of the model (encoder and decoder) are built
here by init_params and live in one flat name -> Tensor dict.
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
        if not isinstance(rec, dict):
            raise ValueError(f"model must be a JSON object, got {rec!r}")
        extra = set(rec) - {f.name for f in fields(cls)}
        if extra:
            raise ValueError(f"unknown model config keys: {sorted(extra)}")
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

def _attn_params(params, prefix, d, n_heads, rng, split_query=False):
    """One d x d matrix per role plus proj; the d x d_k head blocks are
    drawn head by head and placed side by side, head h in columns
    h*d_k..(h+1)*d_k."""
    roles = ("qp", "qd", "k", "v") if split_query else ("q", "k", "v")
    heads = [[dc.init_matrix(d, d // n_heads, rng).data for _ in roles]
             for _ in range(n_heads)]
    for role, blocks in zip(roles, zip(*heads)):
        params[f"{prefix}.{role}"] = dc.Tensor(np.hstack(blocks), requires_grad=True)
    params[f"{prefix}.proj"] = dc.init_matrix(d, d, rng)


def _ff_params(params, prefix, d, d_ff, rng):
    params[f"{prefix}.w1"] = dc.init_matrix(d, d_ff, rng)
    params[f"{prefix}.w2"] = dc.init_matrix(d_ff, d, rng)


# One layer's blocks in order: (name, stream, context, scaled, probe
# relation) over the agent (a), customer (c) and depot (d) streams. A block
# replaces its stream; block j uses the ReZero scalars a{2j+1} and a{2j+2}.
_SINGLE_BLOCKS = (("nav", "c", "c", True, "customer_customer"),
                  ("agent", "a", "c", True, "agent_customer"),
                  ("cust", "c", "a", False, "customer_agent"))
_MULTI_BLOCKS = (("nav", "c", "c", True, "customer_customer"),
                 ("dc", "d", "c", True, "depot_customer"),
                 ("cd", "c", "d", False, "customer_depot"),
                 ("ad", "a", "d", False, "agent_depot"),
                 ("da", "d", "a", True, "depot_agent"),
                 ("ac", "a", "c", True, "agent_customer"),
                 ("ca", "c", "a", False, "customer_agent"))


def init_params(cfg, rng):
    """Build every trainable tensor of the model, freshly initialized.

    Weights are uniform +-1/sqrt(fan_in), biases and ReZero scalars zero,
    the distance-bias scale starts at -1.
    """
    d, d_ff, H = cfg.d_model, cfg.d_ff, cfg.n_heads
    params = {}

    params["embed.customer.W"] = dc.init_matrix(2, d, rng)
    params["embed.customer.b"] = dc.zeros(1, d)
    params["embed.depot.W"] = dc.init_matrix(2, d, rng)
    params["embed.depot.b"] = dc.zeros(1, d)
    if cfg.kind == "MPDP":
        params["embed.pickup.b"] = dc.zeros(1, d)
        params["embed.delivery.b"] = dc.zeros(1, d)
    if cfg.multi_depot:
        bound = 1.0 / math.sqrt(d)
        seed = rng.uniform(-bound, bound, size=(1, d)).astype(dc.DEFAULT_DTYPE)
        params["embed.agent_seed"] = dc.Tensor(seed, requires_grad=True)
    if cfg.pe == "rotation":
        params["pe.proj"] = dc.init_matrix(d, d, rng)

    blocks = _MULTI_BLOCKS if cfg.multi_depot else _SINGLE_BLOCKS
    for l in range(cfg.n_layers):
        for b, *_ in blocks:
            if b == "nav" and not cfg.use_nav:
                continue
            split = b == "cust" and cfg.kind == "MPDP"
            _attn_params(params, f"layer{l}.{b}_attn", d, H, rng, split_query=split)
            _ff_params(params, f"layer{l}.{b}_ff", d, d_ff, rng)
        n_alpha = 14 if cfg.multi_depot else 6
        first = 3 if (not cfg.use_nav) else 1
        for j in range(first, n_alpha + 1):
            params[f"layer{l}.a{j}"] = dc.zeros(1, 1)

    params["dec.emb"] = dc.init_matrix(d, d, rng)
    params["dec.step"] = dc.init_matrix(2 * d + 2, d, rng)
    n_len = 5 if cfg.kind == "MPDP" else 3
    params["dec.length"] = dc.init_matrix(n_len, d, rng)
    _attn_params(params, "dec.glimpse", d, H, rng)
    params["dec.logit"] = dc.init_matrix(d, d, rng)
    alpha_d = dc.Tensor(np.full((1, 1), -1.0), requires_grad=True)
    params["dec.alpha_dist"] = alpha_d
    return params


def param_shapes(cfg):
    """name -> shape of every tensor init_params(cfg) builds, in init order."""
    return {name: p.shape for name, p in
            init_params(cfg, np.random.default_rng(0)).items()}


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
    raw = dc.matmul(dc.split_heads(q, n_heads), k_t)
    logits = dc.scale(raw, 1.0 / math.sqrt(v.shape[-1])) if scaled else raw
    soft = dc.softmax_rows(logits)
    if probe is not None:
        layer, relation = probe_at
        for h in range(n_heads):
            probe.record(layer, relation, h, logits.data[h], soft.data[h])
    return dc.matmul(dc.merge_heads(dc.matmul(soft, v), q.shape), proj)


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
    blocks = _MULTI_BLOCKS if cfg.multi_depot else _SINGLE_BLOCKS
    for j, (block, x, ctx, scaled, relation) in enumerate(blocks):
        if block == "nav" and not cfg.use_nav:
            continue
        streams[x] = _attn_block(
            streams[x], streams[ctx], params, layer, block, 2 * j + 1, scaled,
            cfg, relation, pickup_rows=pickup_rows if block == "cust" else None,
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
