"""REINFORCE training with the permutation-averaged baseline.

Each instance is decoded K times under K sampled agent permutations; the
mean of the K objectives is the baseline, and only the log-probabilities
receive gradient. Also holds fine-tuning and the checkpoint file format.
"""

import binascii
import json
import sys
import time
from dataclasses import asdict, dataclass

import numpy as np

from . import diffcore as dc
from . import encoder as en
from . import problems as pb
from . import rollout as ro

CHECKPOINT_VERSION = 2
# a checkpoint's Adam scalars: (field, rule, check); a bool is not a number here
_ADAM_SCALARS = (
    ("lr", "a finite number > 0", lambda x: 0 < x <= sys.float_info.max),
    ("lr_decay", "a finite number > 0", lambda x: 0 < x <= sys.float_info.max),
    ("beta1", "a number in [0, 1)", lambda x: 0 <= x < 1),
    ("beta2", "a number in [0, 1)", lambda x: 0 <= x < 1),
    ("eps", "a finite number > 0", lambda x: 0 < x <= sys.float_info.max),
    ("step_count", "an int >= 0", lambda x: type(x) is int and x >= 0),
)


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
        if not 2 <= self.m_min <= self.m_max:
            raise ValueError(f"need 2 <= m_min <= m_max, got [{self.m_min}, {self.m_max}]")
        if not 1 <= self.d_min <= self.d_max:
            raise ValueError(f"need 1 <= d_min <= d_max, got [{self.d_min}, {self.d_max}]")
        try:  # the largest M and D are the hardest on every shape rule
            pb.check_instance_shape(self.kind, self.N, self.d_max, self.m_max)
        except ValueError as exc:
            raise ValueError(f"kind={self.kind!r}, N={self.N}, d_max={self.d_max}, "
                             f"m_max={self.m_max}: {exc}") from None
        if self.model is None:
            self.model = en.ModelConfig(kind=self.kind)
        if self.model.kind != self.kind:
            raise ValueError(f"model kind {self.model.kind!r} does not match "
                             f"training kind {self.kind!r}")
        if self.K < 2:
            raise ValueError("K must be >= 2: the mean baseline needs variance")
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
        en.check_keys(cls, rec, "train")
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

    rng first draws the K permutations of every instance in batch order;
    then each group of one N and D (rollout.size_groups, ascending; in
    training one group per D, so a single-depot batch is one group whatever
    its M) is decoded in one sampled decode_batch from the same rng and
    adds one surrogate term. Advantages are plain floats, so no gradient
    ever reaches the objectives or the baseline. Returns (loss node,
    best-of-K objective per instance, baseline per instance, advantages,
    step entropies). The objectives and baselines are in batch order, the
    advantages array holds each instance's K advantages in batch order, and
    the step entropies array holds the policy entropy of every real decode
    step of every rollout (no padded no-op step).
    """
    perms = [ro.sample_permutations(ins.M, K, rng) for ins in instances]
    total = None
    best = [None] * len(instances)
    baselines = [None] * len(instances)
    advantages = np.empty((len(instances), K))
    entropies = []
    for group in ro.size_groups(instances, ("N", "D")):
        solutions, logp, entropy = ro.decode_batch(
            [instances[i] for i in group], [perms[i] for i in group], cfg, params,
            mode="sample", rng=rng)
        for g, i in enumerate(group):
            objs = [pb.minmax_objective(rs, instances[i])
                    for rs in solutions[g * K:(g + 1) * K]]
            best[i], baselines[i] = min(objs), aps_baseline(objs)
            advantages[i] = np.array(objs) - baselines[i]
        entropies.append(entropy)
        term = surrogate_term(logp, advantages[group])
        total = term if total is None else dc.add(total, term)
    loss = dc.scale(total, 1.0 / (len(instances) * K))
    return loss, best, baselines, advantages.reshape(-1), np.concatenate(entropies)


def frozen_surrogate(instance, perms, forced, advantages, cfg, seed=None):
    """The loss as a pure function of params for a fixed action set.

    Replays the forced trajectories under the given advantages; a fixed
    seed reproduces the random start-context node of multi-depot states.
    """
    def f(params):
        rng = None if seed is None else np.random.default_rng(seed)
        _, logp, _ = ro.decode_batch(instance, perms, cfg, params,
                                     forced=forced, rng=rng)
        return dc.scale(surrogate_term(logp, advantages), 1.0 / len(perms))

    return f


# ---------------------------------------------------------------------------
# the loop
# ---------------------------------------------------------------------------

def train(tc, params=None, opt=None, on_epoch=None):
    """Run the REINFORCE loop; returns (params, optimizer state, metrics).

    Fresh instances are generated every epoch. The whole run is driven by
    one rng seeded with tc.seed, so metrics are reproducible per config.
    on_epoch, if given, is called as on_epoch(epoch, metrics_row, params,
    opt) after each epoch. A metrics row holds the epoch's mean best-of-K
    objective and baseline, the mean pre-clip gradient norm of its batches
    (grad_norm), the mean policy entropy per decode step of its rollouts
    (entropy), the spread of their advantages (adv_std), the learning rate
    used, the epoch's seconds in decoding and the loss (decode_s), in
    backward (backward_s) and in clipping and Adam (adam_s), the epoch's
    training instances per second (inst_per_s), and the wallclock so far.
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
        epoch_start = time.perf_counter()
        lr_used = opt.lr
        epoch_best = []
        epoch_base = []
        norms = []
        epoch_adv = []
        epoch_entropy = []
        phase_s = {"decode_s": 0.0, "backward_s": 0.0, "adam_s": 0.0}
        done = 0
        while done < tc.epoch_size:
            n = min(tc.batch_size, tc.epoch_size - done)
            batch = [pb.draw_instance(tc.kind, tc.N, (tc.m_min, tc.m_max),
                                      (tc.d_min, tc.d_max), master) for _ in range(n)]
            t0 = time.perf_counter()
            try:
                loss, best, baselines, adv, entropy = aps_loss(
                    batch, tc.model, params, tc.K, master)
                if not np.isfinite(loss.data).all():
                    raise FloatingPointError("non-finite loss")
                t1 = time.perf_counter()
                dc.backward(loss)
            except FloatingPointError as exc:
                raise RuntimeError(
                    f"training diverged in epoch {epoch}: {exc}") from exc
            t2 = time.perf_counter()
            # the pre-clip global norm; clip_norm 0 only measures it
            norms.append(dc.clip_grad_norm(params, tc.clip_norm))
            dc.adam_step(params, opt)
            phase_s["decode_s"] += t1 - t0
            phase_s["backward_s"] += t2 - t1
            phase_s["adam_s"] += time.perf_counter() - t2
            epoch_best.extend(best)
            epoch_base.extend(baselines)
            epoch_adv.append(adv)
            epoch_entropy.append(entropy)
            done += n
        opt.decay_epoch()
        now = time.perf_counter()
        row = {
            "epoch": epoch,
            "mean_obj": float(np.mean(epoch_best)),
            "mean_baseline": float(np.mean(epoch_base)),
            "grad_norm": float(np.mean(norms)),
            "entropy": float(np.mean(np.concatenate(epoch_entropy))),
            "adv_std": float(np.std(np.concatenate(epoch_adv))),
            "lr": lr_used,
            **phase_s,
            "inst_per_s": tc.epoch_size / (now - epoch_start),
            "wallclock": now - start,
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
            "data_b64": binascii.b2a_base64(arr.tobytes(), newline=False).decode("ascii"),
        }
    return records


def records_to_arrays(records):
    """The name -> ndarray that arrays_to_records encoded, bit for bit; each
    array is writable, over a buffer of its own."""
    arrays = {}
    for name, rec in records.items():
        raw = bytearray(binascii.a2b_base64(rec["data_b64"]))
        arrays[name] = np.frombuffer(raw, dtype=rec["dtype"]).reshape(rec["shape"])
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


def _from_payload(payload, optimizer):
    """(ModelConfig, params, AdamState or None) of a checkpoint's JSON
    object; v1 heads are fused side by side in head order. A params or
    moments member that is not an object of float32 records, the first
    undecodable, missing, mis-shaped, unknown or non-finite entry, and an
    optimizer scalar outside its range (_ADAM_SCALARS) raise a ValueError."""
    version = payload.get("format_version")
    if type(version) is not int or version not in (1, CHECKPOINT_VERSION):
        raise ValueError(f"format version {version!r} is not a supported "
                         f"version (1 or {CHECKPOINT_VERSION})")
    cfg = en.ModelConfig.from_dict(payload["model"])
    table = en.param_table(cfg)
    shapes = {name: shape for names, shape, _ in table for name in names}
    # format v1 held each attention role matrix as its heads {name}0, {name}1, ...
    fused = [name for names, _, _ in table if len(names) > 1 for name in names]

    def read(what, records):
        if not isinstance(records, dict):
            raise ValueError(f"{what} is a {type(records).__name__}, not an object of records")
        arrays = {}
        for name, rec in records.items():
            shape = rec.get("shape") if isinstance(rec, dict) else None
            if (not isinstance(shape, list) or not all(type(n) is int and n >= 0 for n in shape)
                    or rec.get("dtype") != "float32"):
                raise ValueError(f"{what} entry {name} is not a float32 record with a "
                                 f"list of ints >= 0 for its shape")
            try:
                arrays.update(records_to_arrays({name: rec}))
            except (KeyError, TypeError, ValueError) as exc:
                raise ValueError(f"{what} entry {name} does not decode: "
                                 f"{type(exc).__name__}: {exc}") from None
        for name in fused if version == 1 else ():
            heads = [f"{name}{h}" for h in range(cfg.n_heads) if f"{name}{h}" in arrays]
            if heads:
                arrays[name] = np.hstack([arrays.pop(head) for head in heads])
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
    if not isinstance(o, dict):
        raise ValueError(f"optimizer is a {type(o).__name__}, not an object")
    for key, rule, ok in _ADAM_SCALARS:
        if type(o[key]) not in (int, float) or not ok(o[key]):
            raise ValueError(f"optimizer.{key} must be {rule}, got {o[key]!r}")
    opt = dc.AdamState(params, lr=o["lr"], lr_decay=o["lr_decay"],
                       beta1=o["beta1"], beta2=o["beta2"], eps=o["eps"])
    opt.step_count = o["step_count"]
    opt.m, opt.v = read("optimizer.m", o["m"]), read("optimizer.v", o["v"])
    return cfg, params, opt


def load_model(path):
    """Read a checkpoint's (ModelConfig, params) without the optimizer.

    Only the format_version, model and params members are parsed, and the
    file is read only up to the chunk that ends params (pb.read_json_file).
    In a file save_checkpoint wrote they come first, so the optimizer member
    (two thirds of the file) is never parsed, is never read past that chunk,
    and may be damaged there. Every parameter must have the name and shape
    that init_params gives the stored config (encoder.check_params) and hold
    finite values; format v1 (per-head attention matrices) is fused. Any
    fault of what is read fails as one line naming the file.
    """
    return pb.read_json_file(path, "checkpoint",
                             lambda payload: _from_payload(payload, False)[:2],
                             members={"format_version", "model", "params"})


def load_checkpoint(path):
    """load_model plus the AdamState, whose moments are checked the same way."""
    return pb.read_json_file(path, "checkpoint",
                             lambda payload: _from_payload(payload, True))
