"""Sequential route construction: decode states, greedy/sampled rollouts,
permutation sampling, and inference over permutations and symmetries.

One rollout builds all M routes in the order given by an agent permutation
o; a depot action closes the current route and hands over to the next
agent. Single-depot episodes take exactly N+M steps, multi-depot episodes
N+2M (each route also opens with a depot choice).
"""

import math
from collections import namedtuple

import numpy as np

from . import decoder as de
from . import diffcore as dc
from . import encoder as en
from . import problems as pb


class DecodeState:
    """Mutable trajectory state for one (instance, permutation) rollout.

    node is the candidate row of the current node (see decoder); at a
    single-depot kind's depot it is the current agent's slot. consts is the
    instance's DecodeConstants, shared by the rollouts of one decode_batch;
    None builds them for this state alone.
    """

    def __init__(self, ins, o, rng=None, consts=None):
        o = tuple(int(v) for v in o)
        if sorted(o) != list(range(ins.M)):
            raise ValueError(f"permutation {o} is not a bijection on 0..{ins.M - 1}")
        self.ins = ins
        self.o = o
        self.consts = consts if consts is not None else de.DecodeConstants(ins)
        self.pos = 0
        self.current = []
        self.routes = []
        self.start_depots = []
        self.end_depots = []
        self.visited = np.zeros(ins.N, dtype=bool)
        self.n_unvisited = ins.N
        self.route_len = 0.0
        self.t = 0
        self.actions = []
        self.multi = ins.kind in ("MDVRP", "FMDVRP")
        self.needs_start = self.multi
        self.start_depot = None if self.multi else 0
        if self.multi:
            # the context sees a random depot before the first depot choice
            self.node = int(rng.integers(ins.D)) if rng is not None else 0
        else:
            self.node = o[0]
        if ins.kind == "MPDP":
            # per pair: pickup in the current route with its delivery still
            # due, and pair served whole within the current route
            self.open_pairs = np.zeros(ins.n_pairs, dtype=bool)
            self.done_pairs = np.zeros(ins.n_pairs, dtype=bool)
            self.pairs_remaining = ins.n_pairs

    @property
    def terminal(self):
        return self.pos >= self.ins.M

    def node_coord(self):
        return self.consts.cand_coords[self.node]


def step(state, action, mask=None):
    """Apply one action in place; raises on masked or post-terminal actions.

    mask is the state's feasibility row when the caller already holds it;
    None computes it here.
    """
    if state.terminal:
        raise RuntimeError("step on a terminal state")
    if mask is None:
        mask = de.feasibility_mask(state)
    if not mask[action]:
        raise ValueError(f"action {action} is masked at step {state.t}")
    ins = state.ins
    n_slots = ins.D if state.multi else ins.M

    if action < n_slots:
        if state.multi and state.needs_start:
            state.start_depot = action
            state.needs_start = False
            state.node = action
        else:
            end = action if state.multi else 0
            state.route_len += math.hypot(*(state.node_coord()
                                            - ins.depot_coords[end]))
            state.routes.append(state.current)
            state.start_depots.append(state.start_depot)
            state.end_depots.append(end)
            state.pos += 1
            state.current = []
            state.route_len = 0.0
            if state.multi:
                state.needs_start = True
                state.start_depot = None
            # the next route's pre-start context node is this closing
            # depot, which a single-depot kind reads as the next agent's slot
            state.node = action if state.multi or state.terminal else state.o[state.pos]
            if ins.kind == "MPDP":
                state.done_pairs[:] = False
    else:
        j = action - n_slots
        state.route_len += math.hypot(*(state.node_coord() - ins.coords[j]))
        state.visited[j] = True
        state.n_unvisited -= 1
        state.current.append(j)
        state.node = action
        if ins.kind == "MPDP":
            if j < ins.n_pairs:
                state.pairs_remaining -= 1
                state.open_pairs[j] = True
            else:
                state.open_pairs[j - ins.n_pairs] = False
                state.done_pairs[j - ins.n_pairs] = True
    state.t += 1
    state.actions.append(int(action))
    return state


def finish(state):
    if not state.terminal:
        raise RuntimeError("finish on a non-terminal state")
    return pb.RouteSet(routes=state.routes,
                       start_depots=state.start_depots,
                       end_depots=state.end_depots)


def actions_from_solution(solution, permutation, instance):
    """The action sequence that replays solution under permutation.

    Route i of the solution must belong to agent permutation[i]; for
    single-depot kinds the closing depot action is that agent's slot.
    """
    multi = instance.kind in ("MDVRP", "FMDVRP")
    n_slots = instance.D if multi else instance.M
    o = tuple(int(v) for v in permutation)
    actions = []
    for i, route in enumerate(solution.routes):
        if multi:
            actions.append(int(solution.start_depots[i]))
        actions.extend(n_slots + j for j in route)
        actions.append(int(solution.end_depots[i]) if multi else o[i])
    return actions


def sample_permutations(M, K, rng):
    """K independent uniform shuffles of 0..M-1, duplicates allowed."""
    if K < 1:
        raise ValueError("K must be >= 1")
    return [tuple(int(v) for v in rng.permutation(M)) for _ in range(K)]


def decode_batch(instance, perms, cfg, params, mode="greedy", rng=None,
                 emb=None, forced=None):
    """Roll out K permutations of one instance in lockstep.

    Shares a single encoder forward pass across the K rollouts. Returns
    (list of (RouteSet, objective), log-prob sums as a K x 1 Tensor).
    forced, when given, is one action sequence per permutation and
    overrides both decoding modes (teacher forcing).
    """
    if mode not in ("greedy", "sample"):
        raise ValueError(f"unknown decode mode {mode!r}")
    if mode == "sample" and rng is None and forced is None:
        raise ValueError("sampled decoding needs an rng")
    if emb is None:
        emb = en.encode(instance, cfg, params)
    cand = de.candidate_rows(emb)
    kv = de.glimpse_kv(cand, cfg, params)
    cand_proj = dc.matmul(cand, params["dec.logit"])
    pooled = de.pooled_graph(emb, params)
    consts = de.DecodeConstants(instance)
    states = [DecodeState(instance, o, rng, consts) for o in perms]
    total = None
    while not states[0].terminal:
        ctx = de.context(states, emb, cand, pooled, params)
        q = de.glimpse(ctx, kv, cfg, params)
        exp_rows = np.stack([de.dist_exp_row(s) for s in states])
        masks = np.stack([de.feasibility_mask(s) for s in states])
        logp = de.logits(q, cand_proj, exp_rows, masks, params, cfg.d_model)
        rows = logp.data
        if forced is not None:
            chosen = [seq[states[0].t] for seq in forced]
        elif mode == "greedy":
            chosen = [int(np.argmax(row)) for row in rows]
        else:
            probs = np.exp(rows.astype(np.float64))
            probs /= probs.sum(axis=1, keepdims=True)
            chosen = [int(rng.choice(len(p), p=p)) for p in probs]
        picked = dc.take_per_row(logp, chosen)
        total = picked if total is None else dc.add(total, picked)
        for s, a, mask in zip(states, chosen, masks):
            step(s, a, mask)
    solutions = [finish(s) for s in states]
    return [(rs, pb.minmax_objective(rs, instance)) for rs in solutions], total


def rollout(instance, permutation, cfg, params, mode="greedy", rng=None):
    """Single-permutation rollout -> (RouteSet, objective, log_prob_sum)."""
    results, total = decode_batch(instance, [permutation], cfg, params,
                                  mode=mode, rng=rng)
    (rs, obj), = results
    return rs, obj, float(total.data[0, 0])


InferResult = namedtuple("InferResult", "solution objective aug_index permutation")


def infer(instance, cfg, params, n_per=1, use_aug8=False, seed=0):
    """Best greedy solution over n_per permutations x (8 symmetries if on).

    The permutation list is prefix-stable in n_per and starts with the
    identity, so enlarging n_per or enabling augmentation can only improve
    the objective. Ties keep the first (aug, permutation) in order. The
    objective is evaluated on the original coordinates.
    """
    if n_per < 1:
        raise ValueError("n_per must be >= 1")
    M = instance.M
    perm_rng = np.random.default_rng((seed, instance.uid, 1))
    perms = [tuple(range(M))]
    for _ in range(n_per - 1):
        perms.append(tuple(int(v) for v in perm_rng.permutation(M)))

    if use_aug8:
        variants, _inv = pb.augment8(instance)
    else:
        variants = [instance]
    best = None
    with dc.no_grad():
        for a, var in enumerate(variants):
            node_rng = np.random.default_rng((seed, instance.uid, 2, a))
            results, _ = decode_batch(var, perms, cfg, params,
                                      mode="greedy", rng=node_rng)
            for k, (rs, _obj_aug) in enumerate(results):
                obj = pb.minmax_objective(rs, instance)
                if best is None or obj < best.objective - 1e-12:
                    best = InferResult(rs, obj, a, perms[k])
    return best
