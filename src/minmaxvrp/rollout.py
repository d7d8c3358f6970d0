"""Sequential route construction: decode states, greedy/sampled rollouts,
permutation sampling, and inference over permutations and symmetries.

One rollout builds all M routes in the order given by an agent permutation
o; a depot action closes the current route and hands over to the next
agent. Single-depot episodes take exactly N+M steps, multi-depot episodes
N+2M (each route also opens with a depot choice), so the rollouts of a
batch decode in lockstep. A batch is V variants of one size (the
symmetries of an instance, or many instances, or the symmetries of many
instances) with K permutations each, every variant its own; one encoder
pass and one decode loop serve them all, and each row decodes exactly as it
would in a batch of its variant alone.
"""

import contextlib
from collections import namedtuple

import numpy as np

from . import decoder as de
from . import diffcore as dc
from . import encoder as en
from . import problems as pb


class DecodeState:
    """Trajectory state of R = V x K rollouts as R-row arrays: row a * K + k
    decodes variant a under its permutation k.

    variants (one Instance, or V of the same kind and sizes, such as the
    symmetries of an instance or different instances) and perms fix the
    rows: perms is either K permutations shared by every variant or a V x K
    table, row a the K permutations of variant a. Every row takes the same
    number of steps.
    agent is each row's current agent, and node its candidate row of the
    current node (see decoder); at a single-depot kind's depot that is the
    current agent's slot, so a row's route holds a customer exactly when
    node is a customer. route_len is the current route's length so far. A
    multi-depot row's context sees a random depot before its first depot
    choice: rng draws it, one Generator for every variant or one per
    variant, K draws per variant in permutation order (None: depot 0).
    """

    def __init__(self, variants, perms, rng=None):
        variants = [variants] if isinstance(variants, pb.Instance) else list(variants)
        sizes = {(v.kind, v.N, v.D, v.M) for v in variants}
        if len(sizes) != 1:
            raise ValueError(f"a decode batch needs variants of one kind and size, "
                             f"got {sorted(sizes)}")
        ins, V = variants[0], len(variants)
        shared = len(perms) and len(perms[0]) and np.ndim(perms[0][0]) == 0
        table = [perms] * V if shared else list(perms)
        table = [[tuple(int(v) for v in o) for o in row] for row in table]
        K = len(table[0]) if table else 0
        if K == 0 or len(table) != V or any(len(row) != K for row in table):
            raise ValueError(f"need K permutations for each of the {V} variants, "
                             f"got {[len(row) for row in table]}")
        for o in (o for row in table for o in row):
            if sorted(o) != list(range(ins.M)):
                raise ValueError(f"permutation {o} is not a bijection on 0..{ins.M - 1}")
        self.variants = variants
        self.kind, self.N, self.M, self.n_pairs = ins.kind, ins.N, ins.M, ins.n_pairs
        self.multi = ins.kind in pb.MULTI_DEPOT_KINDS
        self.n_slots = ins.D if self.multi else ins.M
        self.n_steps = ins.N + (2 if self.multi else 1) * ins.M
        self.consts = de.DecodeConstants(variants)
        R = V * K
        self.rows = np.arange(R)
        self.variant = self.rows // K
        # the agent order, with the last agent repeated for a finished row
        self.o = np.array([o + o[-1:] for row in table for o in row], dtype=np.intp)
        self.pos = np.zeros(R, dtype=np.intp)
        self.agent = self.o[:, 0].copy()
        self.route_len = np.zeros(R)
        # every candidate a row has stepped to; visited is its customer part
        self.taken = np.zeros((R, self.n_slots + ins.N), dtype=bool)
        self.visited = self.taken[:, self.n_slots:]
        self.n_unvisited = np.full(R, ins.N)
        self.needs_start = np.full(R, self.multi)
        self.start_depot = np.zeros(R, dtype=np.intp)
        self.t = 0
        self.log = []  # one R-array of actions per step
        rngs = rng if isinstance(rng, (list, tuple)) else [rng] * V
        if len(rngs) != V:
            raise ValueError(f"need one rng for each of the {V} variants, got {len(rngs)}")
        if self.multi:
            self.node = np.array([int(g.integers(ins.D)) if g is not None else 0
                                  for g in rngs for _ in range(K)], dtype=np.intp)
        else:
            self.node = self.agent.copy()
        if ins.kind == "MPDP":
            # per pair: pickup in the current route with its delivery still
            # due, and pair served whole within the current route
            self.open_pairs = np.zeros((R, ins.n_pairs), dtype=bool)
            self.done_pairs = np.zeros((R, ins.n_pairs), dtype=bool)
            self.pairs_remaining = np.full(R, ins.n_pairs)

    @property
    def terminal(self):
        return self.t >= self.n_steps

    @property
    def actions(self):
        """R x t array of the actions taken so far."""
        return np.array(self.log, dtype=np.intp).reshape(-1, len(self.rows)).T


def step(state, actions, mask=None):
    """Apply one action per row in place; raises on masked or post-terminal
    actions.

    mask is the state's R x C feasibility when the caller already holds it;
    None computes it here.
    """
    if state.terminal:
        raise RuntimeError("step on a terminal state")
    if mask is None:
        mask = de.feasibility_mask(state)
    rows, n_slots = state.rows, state.n_slots
    actions = np.array(actions, dtype=np.intp).reshape(len(rows))
    legal = mask[rows, actions]
    if not legal.all():
        raise ValueError(f"action {actions[~legal][0]} is masked at step {state.t}")
    cust = actions >= n_slots
    # the move (to a customer, or to the depot a slot stands for) extends
    # the route, and a depot action ends it
    state.route_len = (state.route_len
                       + state.consts.cand_dist[state.variant, state.node, actions]) * cust
    state.taken[rows, actions] = True
    state.n_unvisited -= cust
    closing = ~(cust | state.needs_start) if state.multi else ~cust
    state.pos += closing
    state.agent = state.o[rows, state.pos]
    if state.multi:
        state.start_depot = np.where(state.needs_start, actions, state.start_depot)
        state.needs_start = closing
        state.node = actions
    else:
        # a closed route hands over to the next agent's slot; after the
        # last close that is the slot just closed
        state.node = np.where(closing, state.agent, actions)
    if state.kind == "MPDP":
        n_pairs = state.n_pairs
        state.done_pairs[closing] = False
        j = actions[cust] - n_slots
        pair, pickup = (rows[cust], j % n_pairs), j < n_pairs
        state.open_pairs[pair] = pickup
        state.done_pairs[pair] = ~pickup
        state.pairs_remaining -= cust & (actions < n_slots + n_pairs)
    state.t += 1
    state.log.append(actions)
    return state


def finish(state):
    """One RouteSet per row, read from the row's actions."""
    if not state.terminal:
        raise RuntimeError("finish on a non-terminal state")
    n_slots, multi = state.n_slots, state.multi
    out = []
    for row in state.actions.tolist():
        routes, starts, ends, current = [], [], [], []
        for a in row:
            if a >= n_slots:
                current.append(a - n_slots)
            elif multi and len(starts) == len(routes):
                starts.append(a)
            else:
                routes.append(current)
                ends.append(a if multi else 0)
                current = []
        out.append(pb.RouteSet(routes=routes, start_depots=starts, end_depots=ends))
    return out


def actions_from_solution(solution, permutation, instance):
    """The action sequence that replays solution under permutation.

    Route i of the solution must belong to agent permutation[i]; for
    single-depot kinds the closing depot action is that agent's slot.
    """
    multi = instance.kind in pb.MULTI_DEPOT_KINDS
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


def sample_rows(rng, rows):
    """One action per row of the R x C log-probabilities, drawn by inverse
    CDF from one rng.random((R, 1)). Row by row this is what
    rng.choice(C, p=row's probabilities) returns, and the generator ends
    in the same state."""
    probs = np.exp(rows.astype(np.float64))
    probs /= probs.sum(axis=1, keepdims=True)
    cdf = probs.cumsum(axis=1)
    return (cdf / cdf[:, -1:] <= rng.random((len(rows), 1))).sum(axis=1)


# The most attention weights (rows x steps x candidates x heads) that one
# scoring pass over all steps of a decode_batch may hold. Below it, the
# pass's fewer graph nodes save more time than its stacked arrays cost;
# above it, recording the graph step by step is faster: with the fused
# attention and logits nodes, a default MTSP N=50 M=5 batch (B=32, K=8;
# 3.1M weights) trains in 107 ms step by step and 129 ms through the pass
# (2 vCPUs, BENCH_pr18.json).
SCORE_CELLS = 1 << 18


def decode_batch(instances, perms, cfg, params, mode="greedy", rng=None,
                 forced=None):
    """Roll out K permutations of each of V same-size instances in lockstep.

    instances is one Instance or V of one kind and size: the variants of an
    instance (such as its augment8 symmetries), different instances, or
    both. perms is K permutations shared by every variant or a V x K table
    (see DecodeState). One encoder pass covers every variant, and one decode
    step serves all R = V x K rollouts; each row's result is bitwise the one
    a batch of its variant alone gives. rng draws the sampled actions
    (sample_rows: one draw per row, in row order) and the multi-depot
    pre-start nodes (see DecodeState, which also takes one Generator per
    variant). forced, when given, is one action sequence per row and
    overrides both decoding modes (teacher forcing).

    Returns (list of R RouteSets in row order a * K + k, log-prob sums as a
    V x K x 1 Tensor, policy entropies as an R x T array: row a * K + k,
    column t the entropy of that rollout's step t). Under no_grad without
    forced actions nothing is scored, and both are None. Otherwise the step
    loop runs the model head without a graph, and one scoring pass after it
    runs the head over all T steps' rows at once, so a decode records one
    graph; a forced decode calls the model only there. Where that pass
    would hold more than SCORE_CELLS attention weights, the loop records
    the graph step by step instead and there is no pass.
    """
    if mode not in ("greedy", "sample"):
        raise ValueError(f"unknown decode mode {mode!r}")
    sampling = mode == "sample" and forced is None
    if sampling and not isinstance(rng, np.random.Generator):
        raise ValueError("sampled decoding needs an rng")
    state = DecodeState(instances, perms, rng)
    R, V, T = len(state.rows), len(state.variants), state.n_steps
    if forced is not None and (len(forced) != R or any(len(seq) != T for seq in forced)):
        raise ValueError(f"forced needs {R} action sequences of {T} steps, "
                         f"got lengths {[len(seq) for seq in forced]}")
    emb = en.encode(state.variants, cfg, params)
    cand = de.candidate_rows(emb)
    pooled = de.pooled_graph(emb, params)
    kv = de.glimpse_kv(cand, cfg, params)
    cand_proj_t = dc.transpose(dc.matmul(cand, params["dec.logit"]))

    def head(inputs):
        ctx = de.context(inputs, emb.H_a, cand, pooled, params)
        q = de.glimpse(ctx, kv, cfg, params)
        return de.logits(q, cand_proj_t, inputs.exp_rows, inputs.masks, params,
                         cfg.d_model)

    scoring = forced is not None or dc.grad_enabled()
    per_step = scoring and R * T * cand.shape[1] * cfg.n_heads > SCORE_CELLS
    steps, picked, entropy = [], [], []

    def score(logp, actions):
        """Keep the chosen log-probs and the entropies of logp, V x n*K rows
        of n steps; actions holds their n x K chosen actions per variant."""
        picked.append(dc.take_per_row(logp, actions.reshape(V, -1)))
        lp = logp.data.astype(np.float64)
        entropy.append(-(np.exp(lp) * lp).sum(axis=-1).reshape(V, -1, R // V))

    with contextlib.nullcontext() if per_step else dc.no_grad():
        while not state.terminal:
            inputs = de.step_inputs(state)
            if forced is None or per_step:
                logp = head(inputs)
            if forced is not None:
                chosen = np.array([seq[state.t] for seq in forced], dtype=np.intp)
            else:
                rows = logp.data.reshape(R, -1)
                chosen = sample_rows(rng, rows) if sampling else rows.argmax(axis=1)
            if per_step:
                score(logp, chosen)
            elif scoring:
                steps.append(inputs)
            step(state, chosen, inputs.masks.reshape(R, -1))
    if not scoring:
        return finish(state), None, None
    if not per_step:
        # row t * K + k of variant a is step t of rollout (a, k)
        logp = head(de.StepInputs(*(np.concatenate(parts, axis=1)
                                    for parts in zip(*steps))))
        score(logp, state.actions.reshape(V, -1, T).transpose(0, 2, 1))
    total = dc.sum_row_blocks(dc.concat_rows(picked), T)
    entropy = np.concatenate(entropy, axis=1).transpose(0, 2, 1)
    return finish(state), total, entropy.reshape(R, T)


def rollout(instance, permutation, cfg, params, mode="greedy", rng=None):
    """Single-permutation rollout -> (RouteSet, objective, log_prob_sum);
    the log-prob sum is None under no_grad (see decode_batch)."""
    (rs,), total, _ = decode_batch(instance, [permutation], cfg, params,
                                   mode=mode, rng=rng)
    return (rs, pb.minmax_objective(rs, instance),
            None if total is None else float(total.data[0, 0, 0]))


def size_groups(instances):
    """The instances' indexes grouped by size (N, M, D), in ascending order
    of size and, within a group, in input order: each group can share one
    decode_batch."""
    groups = {}
    for i, ins in enumerate(instances):
        groups.setdefault((ins.N, ins.M, ins.D), []).append(i)
    return [groups[size] for size in sorted(groups)]


InferResult = namedtuple("InferResult", "solution objective aug_index permutation")


def infer(instances, cfg, params, n_per=1, use_aug8=False, seed=0):
    """Best greedy solution over n_per permutations x (8 symmetries if on).

    instances is one Instance (returns one InferResult) or a list of
    same-size instances (returns a list, in order), all decoded in one
    decode_batch. Each instance's result depends on that instance alone:
    its permutation list comes from (seed, uid, 1), is prefix-stable in
    n_per and starts with the identity, and its symmetry a draws its
    multi-depot pre-start nodes from (seed, uid, 2, a). Ties within 1e-12
    keep the first (aug, permutation) in order, so enlarging n_per or
    enabling augmentation never makes the objective worse by more than that
    tolerance. The objective is evaluated on the original coordinates.
    """
    if n_per < 1:
        raise ValueError("n_per must be >= 1")
    single = isinstance(instances, pb.Instance)
    instances = [instances] if single else list(instances)
    if not instances:
        return []
    variants, table, node_rngs, perm_lists = [], [], [], []
    for ins in instances:
        perm_rng = np.random.default_rng((seed, ins.uid, 1))
        perms = [tuple(range(ins.M))]
        for _ in range(n_per - 1):
            perms.append(tuple(int(v) for v in perm_rng.permutation(ins.M)))
        group = pb.augment8(ins) if use_aug8 else [ins]
        variants += group
        table += [perms] * len(group)
        node_rngs += [np.random.default_rng((seed, ins.uid, 2, a))
                      for a in range(len(group))]
        perm_lists.append(perms)
    with dc.no_grad():
        solutions, _, _ = decode_batch(variants, table, cfg, params,
                                       mode="greedy", rng=node_rngs)
    rows = len(solutions) // len(instances)  # symmetries x permutations
    results = []
    for i, (ins, perms) in enumerate(zip(instances, perm_lists)):
        best = None
        for r, rs in enumerate(solutions[i * rows:(i + 1) * rows]):
            obj = pb.minmax_objective(rs, ins)
            if best is None or obj < best.objective - 1e-12:
                best = InferResult(rs, obj, r // n_per, perms[r % n_per])
        results.append(best)
    return results[0] if single else results
