"""Sequential route construction: decode states, greedy/sampled rollouts,
permutation sampling, and inference over permutations and symmetries.

One rollout builds all M routes in the order given by an agent permutation
o; a depot action closes the current route and hands over to the next
agent. Single-depot episodes take exactly N+M steps, multi-depot episodes
N+2M (each route also opens with a depot choice), so the rollouts of a
batch decode in lockstep. A batch is V variants of one kind, N and D (the
symmetries of an instance, or many instances, or the symmetries of many
instances) with K permutations each, every variant its own; one encoder
pass and one decode loop serve them all. Variants may differ in M: each
pads its agent slots to the batch's largest M, the padded slots are no key
of any attention and never legal, and a row whose episode has ended takes
masked no-op steps until the longest row ends. A batch of one M decodes
each row bitwise as a batch of its variant alone would; in a batch of
mixed M a row's policy is its own decode's within rounding. The decoder
head runs only on a step where some row has more than one legal action.
"""

from collections import namedtuple

import numpy as np

from . import decoder as de
from . import diffcore as dc
from . import encoder as en
from . import problems as pb


class DecodeState:
    """Trajectory state of R = V x K rollouts as R-row arrays: row a * K + k
    decodes variant a under its permutation k.

    variants (one Instance, or V of one kind, N and D, such as the
    symmetries of an instance or different instances, of any M) and perms
    fix the rows: perms is either K permutations shared by every variant or
    a V x K table, row a the K permutations of variant a (each of its own
    M). M and row_steps hold each row's route and step counts; n_steps, the
    batch's step count, is the largest, and a row past its own steps is
    done (from step first_done on, some row is).
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
        if len({(v.kind, v.N, v.D) for v in variants}) != 1:
            raise ValueError(f"a decode batch needs variants of one kind and size, "
                             f"got {sorted({(v.kind, v.N, v.D, v.M) for v in variants})}")
        ins, V = variants[0], len(variants)
        shared = len(perms) and len(perms[0]) and np.ndim(perms[0][0]) == 0
        table = [perms] * V if shared else list(perms)
        table = [[tuple(int(v) for v in o) for o in row] for row in table]
        K = len(table[0]) if table else 0
        if K == 0 or len(table) != V or any(len(row) != K for row in table):
            raise ValueError(f"need K permutations for each of the {V} variants, "
                             f"got {[len(row) for row in table]}")
        for v, o in ((v, o) for v, row in zip(variants, table) for o in row):
            if sorted(o) != list(range(v.M)):
                raise ValueError(f"permutation {o} is not a bijection on 0..{v.M - 1}")
        self.variants = variants
        self.kind, self.N, self.n_pairs = ins.kind, ins.N, ins.n_pairs
        self.multi = ins.kind in pb.MULTI_DEPOT_KINDS
        R = V * K
        self.rows = np.arange(R)
        self.variant = self.rows // K
        self.M = np.array([v.M for v in variants])[self.variant]
        M = int(self.M.max())
        self.n_slots = ins.D if self.multi else M
        self.row_steps = ins.N + (2 if self.multi else 1) * self.M
        self.n_steps = int(self.row_steps.max())
        self.first_done = int(self.row_steps.min())
        self.consts = de.DecodeConstants(variants, self.n_slots, self.variant)
        # the agent order, with the last agent repeated for a finished row
        self.o = np.array([o + o[-1:] * (M + 1 - len(o)) for row in table for o in row],
                          dtype=np.intp)
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
    def done(self):
        """R bools: the row's episode has ended."""
        return self.t >= self.row_steps

    @property
    def actions(self):
        """R x t array of the actions taken so far."""
        return np.array(self.log, dtype=np.intp).reshape(-1, len(self.rows)).T


def step(state, actions, mask=None):
    """Apply one action per row in place; raises on an action outside the
    candidates 0..C-1, a masked action or a post-terminal step. A done row's
    one legal action, its last action again, changes nothing but the log.

    mask is the state's R x C feasibility when the caller already holds it;
    None computes it here.
    """
    if state.terminal:
        raise RuntimeError("step on a terminal state")
    if mask is None:
        mask = de.feasibility_mask(state)
    rows, n_slots = state.rows, state.n_slots
    actions = np.array(actions, dtype=np.intp).reshape(len(rows))
    outside = (actions < 0) | (actions >= mask.shape[1])
    if outside.any():
        raise ValueError(f"action {actions[outside][0]} is not a candidate "
                         f"0..{mask.shape[1] - 1} at step {state.t}")
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
    done = state.done if state.t >= state.first_done else None
    if done is not None:  # a done row's no-op closes no route
        closing &= ~done
    state.pos += closing
    state.agent = state.o[rows, state.pos]
    if state.multi:
        state.start_depot = np.where(state.needs_start, actions, state.start_depot)
        # a done row keeps waiting for a start it never takes
        state.needs_start = closing if done is None else closing | done
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
    """One RouteSet per row, read from the row's actions before its no-op
    steps."""
    if not state.terminal:
        raise RuntimeError("finish on a non-terminal state")
    n_slots, multi = state.n_slots, state.multi
    out = []
    for row, n in zip(state.actions.tolist(), state.row_steps.tolist()):
        routes, starts, ends, current = [], [], [], []
        for a in row[:n]:
            if a >= n_slots:
                current.append(a - n_slots)
            elif multi and len(starts) == len(routes):
                starts.append(a)
            else:
                routes.append(current)
                ends.append(a if multi else 0)
                current = []
        out.append(pb.RouteSet(routes=routes, start_depots=starts if multi else [0] * len(routes),
                               end_depots=ends))
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


def decode_batch(instances, perms, cfg, params, mode="greedy", rng=None,
                 forced=None):
    """Roll out K permutations of each of V instances in lockstep.

    instances is one Instance or V of one kind, N and D, of any M (padded
    as the module docstring says): the variants of an instance (such as its
    augment8 symmetries), different instances, or both. perms is K
    permutations shared by every variant or a V x K table (see
    DecodeState). One encoder pass covers every variant, and one decode
    step serves all R = V x K rollouts for the T steps of the longest row;
    a done row's no-op steps add exactly 0 to its log-prob sum. rng draws
    the sampled actions (sample_rows: one draw per row, in row order) and
    the multi-depot pre-start nodes (see DecodeState, which also takes one
    Generator per variant). forced, when given, is one action sequence per
    row, of the row's own steps in its instance's own candidate indexing
    (actions_from_solution), and overrides both decoding modes (teacher
    forcing).

    Returns (list of R RouteSets in row order a * K + k, log-prob sums as a
    V x K x 1 Tensor, policy entropies as one array of every real step:
    row a * K + k's steps in order, then the next row's). A step on which
    some row has a choice runs the model head once over all R rows and
    records its graph while gradients are on. Where every row has one legal
    action, the head would give it a log-prob of exactly 0, every other
    action a probability of exactly 0 and every parameter a gradient of
    exactly 0, so the step takes de.mask_penalty's constant rows instead,
    with the same choices, rng draws, entropies and gradients; a decode
    without any choice (one route, nothing to order) returns a constant
    total of zeros. Under no_grad without forced actions nothing is scored,
    and both are None.
    """
    if mode not in ("greedy", "sample"):
        raise ValueError(f"unknown decode mode {mode!r}")
    sampling = mode == "sample" and forced is None
    if sampling and not isinstance(rng, np.random.Generator):
        raise ValueError("sampled decoding needs an rng")
    state = DecodeState(instances, perms, rng)
    R, V, T = len(state.rows), len(state.variants), state.n_steps
    if forced is not None:
        lengths, own = [len(seq) for seq in forced], state.row_steps.tolist()
        if lengths != own:
            want = T if min(own) == T else own
            raise ValueError(f"forced needs {R} action sequences of {want} steps, "
                             f"got lengths {lengths}")
        # into the batch's indexing, each sequence repeating its last
        # action, the no-op, up to T steps
        forced = np.array([list(seq) + list(seq[-1:]) * (T - len(seq)) for seq in forced],
                          dtype=np.intp)
        if not state.multi:
            M = state.M[:, None]
            forced += (forced >= M) * (state.n_slots - M)
    emb = en.encode(state.variants, cfg, params)
    cand = de.candidate_rows(emb)
    pooled = de.pooled_graph(emb, params)
    k_t, v = de.glimpse_kv(cand, params)
    kv = k_t, dc.split_heads(v, cfg.n_heads)
    bias = de.candidate_bias(emb, cfg.n_heads)
    cand_proj_t = dc.transpose(dc.matmul(cand, params["dec.logit"]))
    dtype = cand_proj_t.dtype
    scoring = forced is not None or dc.grad_enabled()
    steps, entropy = [], []
    while not state.terminal:
        mask = de.feasibility_mask(state)
        if (np.count_nonzero(mask, axis=1) == 1).all():  # no row has a choice
            logp = dc.constant(de.mask_penalty(mask.reshape(V, R // V, -1), dtype), dtype)
        else:
            q = de.glimpse(de.context(state, emb.H_a, cand, pooled, params), kv, cfg,
                           params, bias)
            logp = de.logits(q, cand_proj_t, de.dist_exp_row(state), mask, params,
                             cfg.d_model)
        if forced is not None:
            chosen = forced[:, state.t]
        else:
            rows = logp.data.reshape(R, -1)
            chosen = sample_rows(rng, rows) if sampling else rows.argmax(axis=1)
        # step first: it rejects a forced action that is no candidate
        step(state, chosen, mask)
        if scoring:
            steps.append(logp)
            lp = logp.data.astype(np.float64)
            entropy.append(-(np.exp(lp) * lp).sum(axis=-1))
    if not scoring:
        return finish(state), None, None
    total = dc.pick_sum(steps, state.actions.T.reshape(T, V, -1))
    entropy = np.stack(entropy, axis=-1).reshape(R, T)
    return finish(state), total, entropy[np.arange(T) < state.row_steps[:, None]]


def size_groups(instances, sizes=("N", "M", "D")):
    """The instances' indexes grouped by the named sizes, in ascending order
    of them and, within a group, in input order. Each (N, M, D) group can
    share one infer call; each ("N", "D") group one decode_batch, which
    pads a group's mixed M."""
    groups = {}
    for i, ins in enumerate(instances):
        groups.setdefault(tuple(getattr(ins, s) for s in sizes), []).append(i)
    return [groups[size] for size in sorted(groups)]


InferResult = namedtuple("InferResult", "solution objective aug_index permutation")


def infer(instances, cfg, params, n_per=1, use_aug8=False, seed=0):
    """Best greedy solution over n_per permutations x (8 symmetries if on).

    instances is one Instance (returns one InferResult) or a list of
    instances of one kind and size N, M, D (returns a list, in order), all
    decoded in one decode_batch with no padding. Each instance's result
    depends on that instance alone:
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
    sizes = sorted({(ins.kind, ins.N, ins.D, ins.M) for ins in instances})
    if len(sizes) > 1:
        raise ValueError(f"infer needs instances of one kind and size, got {sizes}")
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
