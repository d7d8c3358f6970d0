"""Per-step decoding: context embedding, glimpse attention, feasibility
masks, and distance-biased masked logits.

Candidate actions are indexed [agent slots 0..M-1, customers M..M+N-1] for
single-depot kinds and [depot slots 0..D-1, customers D..D+N-1] for
multi-depot kinds. Functions here take the rollout's DecodeState by duck
type so the two modules stay import-acyclic. The state holds R = V x K rows
(V variants of an instance, K permutations each), and the tensors carry the
V variants on a leading batch axis. step_inputs reads what the model head
needs of one decode step's state; the head (context, glimpse, logits) runs
on those arrays, so one call serves one step's K rows per variant or all T
steps' T x K rows at once.
"""

import math
from collections import namedtuple

import numpy as np

from . import diffcore as dc
from . import encoder as en
from . import problems as pb

LOGIT_CLIP = 50.0
MASK_VALUE = -1e9
RATIO_CAP = 30.0


class DecodeConstants:
    """Per-variant arrays that every decode step reads, stacked over the V
    variants of one decode_batch.

    cand_dist: V x C x C distances between candidate rows (a single-depot
    agent slot sits at the depot). The rest are read from it. MPDP: pair_d
    V x P (pickup to delivery) and depot_d V x N (depot to each customer).
    Other kinds: nearest V x N (each customer to its nearest depot) and
    span V, the largest of those.
    """

    def __init__(self, variants):
        ins = variants[0]
        xy = np.stack([v.coords for v in variants])
        depots = np.stack([v.depot_coords for v in variants])
        multi = ins.kind in pb.MULTI_DEPOT_KINDS
        n_slots = ins.D if multi else ins.M
        slot_coords = depots if multi else np.repeat(depots, ins.M, axis=1)
        cand = np.concatenate([slot_coords, xy], axis=1)
        self.cand_dist = np.empty(cand.shape[:2] + cand.shape[1:2])
        for dist, c in zip(self.cand_dist, cand):  # one variant at a time: less memory
            np.sqrt(((c - c[:, None]) ** 2).sum(axis=2), out=dist)
        slot_to_cust = self.cand_dist[:, :n_slots, n_slots:]
        if ins.kind == "MPDP":
            pickup = n_slots + np.arange(ins.n_pairs)
            self.pair_d = self.cand_dist[:, pickup, pickup + ins.n_pairs]
            self.depot_d = slot_to_cust[:, 0]
            return
        self.nearest = slot_to_cust.min(axis=1)
        self.span = self.nearest.max(axis=1)


# ---------------------------------------------------------------------------
# feasibility
# ---------------------------------------------------------------------------

def feasibility_mask(state):
    """Boolean R x C over the state's rows and candidates, True where the
    action is legal now."""
    n_slots, visited = state.n_slots, state.visited
    routes_after = state.M - 1 - state.pos
    left = state.pairs_remaining if state.kind == "MPDP" else state.n_unvisited
    mask = np.zeros((len(state.rows), n_slots + state.N), dtype=bool)
    # a customer joins only if enough stay unvisited for the later routes
    fits = left > routes_after
    if state.multi:
        fits &= ~state.needs_start
    can_close = state.node >= n_slots  # the route holds a customer
    if state.kind == "MPDP":
        n_pairs = state.n_pairs
        np.logical_and(~visited[:, :n_pairs], fits[:, None],
                       out=mask[:, n_slots:n_slots + n_pairs])
        # delivery legal only once its pickup sits in the current route
        np.logical_and(~visited[:, n_pairs:], state.open_pairs,
                       out=mask[:, n_slots + n_pairs:])
        can_close &= ~state.open_pairs.any(axis=1)
    else:
        np.logical_and(~visited, fits[:, None], out=mask[:, n_slots:])
    # what is left must fill every later route, and the last route takes all
    can_close &= np.where(routes_after > 0, left >= routes_after, left == 0)
    if state.kind == "FMDVRP":
        mask[:, :n_slots] = (can_close | state.needs_start)[:, None]
        return mask
    mask[state.rows, state.start_depot if state.multi else state.agent] = can_close
    if state.multi:  # a route first picks its start depot
        mask[:, :n_slots] |= state.needs_start[:, None]
    return mask


# ---------------------------------------------------------------------------
# distance bias
# ---------------------------------------------------------------------------

def dist_exp_row(state):
    """R x C exp(ratio), where ratio is the distance from a row's current
    node to a candidate scaled by the row's farthest unvisited customer
    (capped, 1.0 fallback)."""
    dist = state.consts.cand_dist[state.variant, state.node]
    denom = np.where(state.visited, 0.0, dist[:, state.n_slots:]).max(axis=1)[:, None]
    ratios = np.divide(dist, denom, out=np.ones_like(dist), where=denom > 0.0)
    return np.exp(np.minimum(ratios, RATIO_CAP))


# ---------------------------------------------------------------------------
# context embedding
# ---------------------------------------------------------------------------

def scalar_features(state):
    """The fraction and length features fed to W_step and W_length.

    Returns (R x 2 [agents fraction, customers fraction], R x L length
    features).
    """
    c, v = state.consts, state.variant
    M, N, visited = state.M, state.N, state.visited
    if state.kind == "MPDP":
        R, n_pairs = len(visited), state.n_pairs
        pair_d = c.pair_d[v]
        out = np.empty((R, 7))
        out[:, 1] = 2.0 * state.pairs_remaining / N
        out[:, 3] = np.where(state.done_pairs, pair_d, 0.0).max(axis=1)
        # the farthest unvisited pickup and delivery from the depot
        out[:, 4:6] = np.where(visited, 0.0, c.depot_d[v]).reshape(R, 2, n_pairs).max(axis=2)
        # row by row: a sum over the whole row would round differently
        out[:, 6] = [d[~u].sum() for d, u in zip(pair_d, visited[:, :n_pairs])]
        out[:, 6] /= np.maximum(M - 1 - state.pos, 1)
    else:
        out = np.empty((len(visited), 5))
        out[:, 1] = state.n_unvisited / N
        out[:, 3] = c.span[v]
        out[:, 4] = np.where(visited, 0.0, c.nearest[v]).max(axis=1)
    out[:, 0] = (M - state.pos) / M
    out[:, 2] = state.route_len
    return out[:, :2], out[:, 2:]


def pooled_graph(emb, params):
    """The V x 1 x d pooled-graph term of the context, one row per variant."""
    parts = [emb.H_a, emb.H_c]
    if emb.H_d is not None:
        parts.append(emb.H_d)
    return dc.matmul(dc.mean_rows(dc.concat_rows(parts)), params["dec.emb"])


class StepInputs(namedtuple("StepInputs", "agent node fracs feats exp_rows masks")):
    """What the model head reads of the V x Q decode rows it scores, each
    V x Q (x features): agent and node index the agent rows and the
    candidate rows, fracs and feats are scalar_features, exp_rows is
    dist_exp_row and masks feasibility_mask."""

    __slots__ = ()


def step_inputs(state):
    """The StepInputs of the state's V x K rows."""
    V = len(state.variants)
    K = len(state.rows) // V
    fracs, feats = scalar_features(state)
    return StepInputs(state.agent.reshape(V, K), state.node.reshape(V, K),
                      fracs.reshape(V, K, -1), feats.reshape(V, K, -1),
                      dist_exp_row(state).reshape(V, K, -1),
                      feasibility_mask(state).reshape(V, K, -1))


def context(inputs, H_a, cand, pooled, params):
    """The V x Q x d context rows of the V x Q rows of inputs (StepInputs):
    pooled graph + step + length.

    Row (a, q) joins its agent row of H_a[a], its current node's row of the
    candidate rows cand[a] and its scalar features; the pooled-graph term
    pooled[a] (pooled_graph) is shared by every row of variant a.
    """
    agents = dc.gather_rows(H_a, inputs.agent)
    nodes = dc.gather_rows(cand, inputs.node)
    step = dc.matmul(dc.concat_cols([agents, nodes, dc.constant(inputs.fracs)]),
                     params["dec.step"])
    length = dc.matmul(dc.constant(inputs.feats), params["dec.length"])
    return dc.add(dc.add(step, pooled), length)


# ---------------------------------------------------------------------------
# glimpse and logits
# ---------------------------------------------------------------------------

def candidate_rows(emb):
    """Embedding rows aligned with the candidate indexing, V x C x d."""
    first = emb.H_d if emb.H_d is not None else emb.H_a
    return dc.concat_rows([first, emb.H_c])


def glimpse_kv(cand, cfg, params):
    """Head-split transposed keys and values of the fixed candidate rows,
    (V*H) x d_head x C and (V*H) x C x d_head."""
    return en.keys_values(cand, params, "dec.glimpse", cfg.n_heads)


def glimpse(H_ctx, kv, cfg, params):
    """Scaled multi-head attention of the context rows over candidates."""
    return en.attend(dc.matmul(H_ctx, params["dec.glimpse.q"]), *kv, cfg.n_heads,
                     True, params["dec.glimpse.proj"])


def logits(q, cand_proj_t, exp_rows, masks, params, d_model):
    """Masked log-probabilities, V x Q x C.

    q: V x Q x d glimpse output; cand_proj_t: (candidates @ W_L)
    transposed, V x d x C; exp_rows/masks: V x Q x C numpy (distance
    factors and feasibility).
    """
    if not masks.any(axis=-1).all():
        raise ValueError("a decode state has no feasible action")
    # every encoder and decoder value reaches the op's pre-tanh sum, so its
    # one check per call catches a NaN or inf from anywhere in the model
    return dc.masked_logits(q, cand_proj_t, 1.0 / math.sqrt(d_model), exp_rows,
                            params["dec.alpha_dist"], LOGIT_CLIP,
                            np.where(masks, 0.0, MASK_VALUE))
