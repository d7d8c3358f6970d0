import numpy as np
from hypothesis import HealthCheck, settings

from minmaxvrp import diffcore as dc
from minmaxvrp import encoder as en
from minmaxvrp import problems as pb


# every property test: decode times vary with machine load, so no
# per-example deadline and no too_slow failure; print the reproduction blob
settings.register_profile("minmaxvrp", deadline=None, print_blob=True,
                          suppress_health_check=[HealthCheck.too_slow])
settings.load_profile("minmaxvrp")


def tiny_cfg(kind, **kw):
    base = dict(kind=kind, n_layers=1, d_model=16, n_heads=2, d_ff=32)
    base.update(kw)
    return en.ModelConfig(**base)


def tiny_model(kind, seed=0, **kw):
    cfg = tiny_cfg(kind, **kw)
    params = en.init_params(cfg, np.random.default_rng(seed))
    return cfg, params


def random_feasible(instance, rng):
    """A random feasible RouteSet (uniform partition + random orders)."""
    while True:
        if instance.kind == "MPDP":
            pairs = list(rng.permutation(instance.n_pairs))
            cuts = sorted(rng.choice(range(1, len(pairs)), size=instance.M - 1,
                                     replace=False)) if instance.M > 1 else []
            blocks = np.split(np.array(pairs), cuts)
            routes = []
            for blk in blocks:
                order = []
                open_p = []
                todo = list(blk)
                while todo or open_p:
                    choices = (["p"] if todo else []) + (["d"] if open_p else [])
                    c = choices[rng.integers(len(choices))]
                    if c == "p":
                        p = todo.pop(rng.integers(len(todo)))
                        order.append(int(p))
                        open_p.append(p)
                    else:
                        p = open_p.pop(rng.integers(len(open_p)))
                        order.append(int(p) + instance.n_pairs)
                routes.append(order)
            sol = pb.RouteSet(routes=routes)
        else:
            perm = list(rng.permutation(instance.N))
            cuts = sorted(rng.choice(range(1, instance.N), size=instance.M - 1,
                                     replace=False)) if instance.M > 1 else []
            routes = [list(map(int, b)) for b in np.split(np.array(perm), cuts)]
            starts = [int(rng.integers(instance.D)) for _ in routes]
            if instance.kind == "FMDVRP":
                ends = [int(rng.integers(instance.D)) for _ in routes]
            else:
                ends = list(starts)
            sol = pb.RouteSet(routes=routes, start_depots=starts, end_depots=ends)
        if pb.validate(sol, instance) is None:
            return sol


def params64(cfg, seed, wake_alphas=True):
    """float64 copy of fresh params; optionally randomize alphas and biases
    so every block contributes to the forward pass."""
    rng = np.random.default_rng(seed)
    params = en.init_params(cfg, rng)
    out = {}
    for name, t in params.items():
        data = t.data.astype(np.float64)
        leaf = name.rsplit(".", 1)[-1]
        is_alpha = leaf.startswith("a") and leaf[1:].isdigit()
        if wake_alphas and (is_alpha or leaf == "b"):
            data = rng.normal(0.0, 0.4, size=data.shape)
        out[name] = dc.Tensor(data, requires_grad=t.requires_grad, dtype=np.float64)
    return out
