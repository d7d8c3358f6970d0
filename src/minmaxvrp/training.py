"""REINFORCE training with the permutation-averaged baseline.

Each instance is decoded K times under K sampled agent permutations; the
mean of the K objectives is the baseline, and only the log-probabilities
receive gradient. Also holds fine-tuning and the checkpoint file format.
"""

import base64
import json
import re
import time
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import diffcore as dc
from . import encoder as en
from . import problems as pb
from . import rollout as ro

CHECKPOINT_VERSION = 2


@dataclass
class TrainConfig:
    """Training hyperparameters plus the model they apply to.

    m_min..m_max (and d_min..d_max for multi-depot kinds) are sampled
    uniformly per generated instance. clip_norm 0 disables clipping.
    """

    kind: str
    N: int
    m_min: int = 2
    m_max: int = 2
    d_min: int = 1
    d_max: int = 1
    batch_size: int = 32
    epoch_size: int = 1024
    epochs: int = 10
    K: int = 8
    lr: float = 1e-3
    lr_decay: float = 1.0
    clip_norm: float = 1.0
    seed: int = 0
    model: en.ModelConfig = None

    def __post_init__(self):
        en.check_field_types(self, "train config")
        if self.kind not in pb.KINDS:
            raise ValueError(f"unknown problem kind {self.kind!r}")
        if self.model is None:
            self.model = en.ModelConfig(kind=self.kind)
        if self.model.kind != self.kind:
            raise ValueError(f"model kind {self.model.kind!r} does not match "
                             f"training kind {self.kind!r}")
        if self.K < 2:
            raise ValueError("K must be >= 2: the mean baseline needs variance")
        if not 2 <= self.m_min <= self.m_max:
            raise ValueError(f"need 2 <= m_min <= m_max, got [{self.m_min}, {self.m_max}]")
        cap = self.N // 2 if self.kind == "MPDP" else self.N
        if self.m_max > cap:
            raise ValueError(f"m_max={self.m_max} exceeds the {cap} non-empty "
                             f"routes {self.kind} N={self.N} supports")
        if self.kind in pb.MULTI_DEPOT_KINDS:
            if not 1 <= self.d_min <= self.d_max:
                raise ValueError(f"need 1 <= d_min <= d_max, got [{self.d_min}, {self.d_max}]")
        else:
            if (self.d_min, self.d_max) != (1, 1):
                raise ValueError(f"{self.kind} is single-depot; D range must be [1, 1]")
        if self.kind == "MPDP" and self.N % 2 != 0:
            raise ValueError(f"MPDP needs an even customer count, got N={self.N}")
        if self.batch_size < 1 or self.epoch_size < 1:
            raise ValueError("batch_size and epoch_size must be >= 1")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.lr <= 0 or self.lr_decay <= 0:
            raise ValueError("lr and lr_decay must be > 0")
        if self.clip_norm < 0:
            raise ValueError("clip_norm must be >= 0 (0 disables)")

    def to_dict(self):
        return asdict(self)

    @classmethod
    def from_dict(cls, rec):
        known = {f.name for f in fields(cls)}
        extra = set(rec) - known
        if extra:
            raise ValueError(f"unknown train config keys: {sorted(extra)}")
        rec = dict(rec)
        if "model" in rec and rec["model"] is not None:
            rec["model"] = en.ModelConfig.from_dict(rec["model"])
        return cls(**rec)


# ---------------------------------------------------------------------------
# loss
# ---------------------------------------------------------------------------

def aps_baseline(objectives):
    """Arithmetic mean of one instance's K rollout objectives."""
    if len(objectives) < 1:
        raise ValueError("baseline needs at least one objective")
    return float(sum(objectives)) / len(objectives)


def surrogate_term(logp, advantages):
    """sum(logp * advantages), the advantages a constant of logp's shape and dtype."""
    adv = np.asarray(advantages, dtype=np.float64).reshape(logp.shape)
    return dc.sum_all(dc.mul(logp, dc.constant(adv, dtype=logp.data.dtype)))


def aps_loss(instances, cfg, params, K, rng):
    """Surrogate loss over a batch: mean of (f - baseline) * log-prob.

    Advantages are plain floats, so no gradient ever reaches the
    objectives or the baseline. Returns (loss node, best-of-K objective
    per instance, baseline per instance).
    """
    total = None
    best = []
    baselines = []
    for ins in instances:
        perms = ro.sample_permutations(ins.M, K, rng)
        solutions, logp = ro.decode_batch(ins, perms, cfg, params,
                                          mode="sample", rng=rng)
        objs = [pb.minmax_objective(rs, ins) for rs in solutions]
        b = aps_baseline(objs)
        term = surrogate_term(logp, np.array(objs, dtype=np.float64) - b)
        total = term if total is None else dc.add(total, term)
        best.append(min(objs))
        baselines.append(b)
    loss = dc.scale(total, 1.0 / (len(instances) * K))
    return loss, best, baselines


def frozen_surrogate(instance, perms, forced, advantages, cfg, seed=None):
    """The loss as a pure function of params for a fixed action set.

    Replays the forced trajectories under the given advantages; a fixed
    seed reproduces the random start-context node of multi-depot states.
    """
    def f(params):
        rng = None if seed is None else np.random.default_rng(seed)
        _, logp = ro.decode_batch(instance, perms, cfg, params,
                                  forced=forced, rng=rng)
        return dc.scale(surrogate_term(logp, advantages), 1.0 / len(perms))

    return f


# ---------------------------------------------------------------------------
# the loop
# ---------------------------------------------------------------------------

def _gen_instance(tc, rng):
    M = int(rng.integers(tc.m_min, tc.m_max + 1))
    if tc.kind in pb.MULTI_DEPOT_KINDS:
        D = int(rng.integers(tc.d_min, tc.d_max + 1))
    else:
        D = 1
    return pb.gen_uniform(tc.kind, N=tc.N, D=D, M=M,
                          seed=int(rng.integers(2 ** 63)))


def train(tc, params=None, opt=None, on_epoch=None):
    """Run the REINFORCE loop; returns (params, optimizer state, metrics).

    Fresh instances are generated every epoch. The whole run is driven by
    one rng seeded with tc.seed, so metrics are reproducible per config.
    on_epoch, if given, is called as on_epoch(epoch, metrics_row, params,
    opt) after each epoch. A metrics row holds the epoch's mean best-of-K
    objective and baseline, the mean pre-clip gradient norm of its batches
    (grad_norm), the learning rate used and the wallclock so far.
    """
    master = np.random.default_rng(tc.seed)
    if params is None:
        params = en.init_params(tc.model, master)
    else:
        en.check_params(en.param_shapes(tc.model), params)
    if opt is None:
        opt = dc.AdamState(params, lr=tc.lr, lr_decay=tc.lr_decay)
    metrics = []
    start = time.perf_counter()
    for epoch in range(tc.epochs):
        lr_used = opt.lr
        epoch_best = []
        epoch_base = []
        norms = []
        done = 0
        while done < tc.epoch_size:
            n = min(tc.batch_size, tc.epoch_size - done)
            batch = [_gen_instance(tc, master) for _ in range(n)]
            try:
                loss, best, baselines = aps_loss(batch, tc.model, params,
                                                 tc.K, master)
                if not np.isfinite(loss.data).all():
                    raise FloatingPointError("non-finite loss")
                dc.backward(loss)
            except FloatingPointError as exc:
                raise RuntimeError(
                    f"training diverged in epoch {epoch}: {exc}") from exc
            # the pre-clip global norm; clip_norm 0 only measures it
            norms.append(dc.clip_grad_norm(params, tc.clip_norm))
            dc.adam_step(params, opt)
            epoch_best.extend(best)
            epoch_base.extend(baselines)
            done += n
        opt.decay_epoch()
        row = {
            "epoch": epoch,
            "mean_obj": float(np.mean(epoch_best)),
            "mean_baseline": float(np.mean(epoch_base)),
            "grad_norm": float(np.mean(norms)),
            "lr": lr_used,
            "wallclock": time.perf_counter() - start,
        }
        metrics.append(row)
        if on_epoch is not None:
            on_epoch(epoch, row, params, opt)
    return params, opt, metrics


def check_model_matches(stored, wanted):
    """Raise ValueError naming every key where two ModelConfigs differ."""
    stored, wanted = stored.to_dict(), wanted.to_dict()
    diffs = ", ".join(f"{k}={stored[k]} vs {wanted[k]}"
                      for k in sorted(stored) if stored[k] != wanted[k])
    if diffs:
        raise ValueError(f"checkpoint model does not match the requested "
                         f"config: {diffs}")


def resume(checkpoint_path, make_config, config_lr=False):
    """(TrainConfig, params, AdamState) that continue a checkpoint's run.

    The checkpoint is read once; make_config(stored ModelConfig) gives the
    TrainConfig, whose model must match the stored one exactly. Params,
    Adam moments and step count carry over, and so does the stored
    (decayed) lr unless config_lr takes lr and lr_decay from the config.
    """
    cfg, params, opt = load_checkpoint(checkpoint_path)
    tc = make_config(cfg)
    check_model_matches(cfg, tc.model)
    if config_lr:
        opt.lr, opt.lr_decay = tc.lr, tc.lr_decay
    return tc, params, opt


def finetune(checkpoint_path, tc, on_epoch=None):
    """Resume training from a checkpoint at tc's (usually smaller) lr."""
    tc, params, opt = resume(checkpoint_path, lambda _stored: tc, config_lr=True)
    return train(tc, params=params, opt=opt, on_epoch=on_epoch)


# ---------------------------------------------------------------------------
# metrics and checkpoint files
# ---------------------------------------------------------------------------

def metrics_to_text(metrics):
    """One JSON object per line, fixed key order."""
    return "".join(json.dumps(row) + "\n" for row in metrics)


def arrays_to_records(arrays):
    """name -> {shape, dtype, data_b64} of name -> ndarray, raw little-endian bytes."""
    records = {}
    for name, arr in arrays.items():
        arr = arr.astype(arr.dtype.newbyteorder("<"), copy=False)
        records[name] = {
            "shape": list(arr.shape),
            "dtype": str(arr.dtype),
            "data_b64": base64.b64encode(arr.tobytes()).decode("ascii"),
        }
    return records


def records_to_arrays(records):
    """The name -> ndarray that arrays_to_records encoded, bit for bit."""
    arrays = {}
    for name, rec in records.items():
        raw = base64.b64decode(rec["data_b64"])
        arrays[name] = np.frombuffer(raw, dtype=rec["dtype"]).reshape(rec["shape"]).copy()
    return arrays


def save_checkpoint(path, cfg, params, opt):
    """Write model config + parameters + optimizer state, bitwise exact."""
    payload = {
        "format_version": CHECKPOINT_VERSION,
        "model": cfg.to_dict(),
        "params": arrays_to_records({name: p.data for name, p in params.items()}),
        "optimizer": {
            "lr": opt.lr,
            "lr_decay": opt.lr_decay,
            "beta1": opt.beta1,
            "beta2": opt.beta2,
            "eps": opt.eps,
            "step_count": opt.step_count,
            "m": arrays_to_records(opt.m),
            "v": arrays_to_records(opt.v),
        },
    }
    pb.atomic_write_text(path, json.dumps(payload))


# format v1 held one d x d_k matrix per attention head: {prefix}.{role}{i}
_V1_HEAD = re.compile(r"(.+\.(?:qp|qd|q|k|v))(\d+)")


def _from_payload(payload, optimizer):
    """(ModelConfig, params, AdamState or None) of a checkpoint's JSON
    object; v1 heads are fused side by side in head order, and the first
    missing, mis-shaped, unknown or non-finite entry raises a ValueError."""
    version = payload.get("format_version")
    if version not in (1, CHECKPOINT_VERSION):
        raise ValueError(f"format version {version} is not a supported "
                         f"version (1 or {CHECKPOINT_VERSION})")
    cfg = en.ModelConfig.from_dict(payload["model"])
    shapes = en.param_shapes(cfg)

    def read(what, records):
        arrays, heads = records_to_arrays(records), {}
        for name in list(arrays) if version == 1 else ():
            if m := _V1_HEAD.fullmatch(name):
                heads.setdefault(m[1], {})[int(m[2])] = arrays.pop(name)
        arrays.update((name, np.hstack([h[i] for i in sorted(h)]))
                      for name, h in heads.items())
        arrays = en.check_params(shapes, arrays, what)
        for name, arr in arrays.items():
            if not np.isfinite(arr).all():
                raise ValueError(f"{what} entry {name} holds NaN or inf")
        return arrays

    params = {name: dc.Tensor(arr, requires_grad=True, dtype=arr.dtype)
              for name, arr in read("params", payload["params"]).items()}
    if not optimizer:
        return cfg, params, None
    o = payload["optimizer"]
    opt = dc.AdamState(params, lr=o["lr"], lr_decay=o["lr_decay"],
                       beta1=o["beta1"], beta2=o["beta2"], eps=o["eps"])
    opt.step_count = int(o["step_count"])
    opt.m, opt.v = read("optimizer.m", o["m"]), read("optimizer.v", o["v"])
    return cfg, params, opt


def load_model(path):
    """Read a checkpoint's (ModelConfig, params) without the optimizer.

    Every parameter must have the name and shape that init_params gives
    the stored config (encoder.check_params) and hold finite values;
    format v1 (per-head attention matrices) is fused. Any fault of the
    file fails as one line naming it.
    """
    return pb.read_json_file(path, "checkpoint",
                             lambda payload: _from_payload(payload, False)[:2])


def load_checkpoint(path):
    """load_model plus the AdamState, whose moments are checked the same way."""
    return pb.read_json_file(path, "checkpoint",
                             lambda payload: _from_payload(payload, True))
