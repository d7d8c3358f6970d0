"""Per-step decoding: context embedding, glimpse attention, feasibility
masks, and distance-biased masked logits.

Candidate actions are indexed [agent slots 0..M-1, customers M..M+N-1] for
single-depot kinds and [depot slots 0..D-1, customers D..D+N-1] for
multi-depot kinds; in a batch of mixed M, M is the largest, and a variant
of fewer routes pads its slots. Functions here take the rollout's
DecodeState by duck type so the two modules stay import-acyclic. The state
holds R = V x K rows (V variants, K permutations each), and the tensors
carry the V variants on a leading batch axis. The model head reads a
decode step's state directly: one call per step on which some row has a
choice (mask_penalty stands in on the others), K rows per variant. Its
context, glimpse and logits are one fused diffcore node each
(context_query, attention, masked_logits); with the rollout's pick_sum,
which adds every step's chosen log-probs in one node, such a step records 3.
"""

import math

import numpy as np

from . import diffcore as dc
from . import encoder as en

LOGIT_CLIP = 50.0
RATIO_CAP = 30.0


class DecodeConstants:
    """The arrays that every decode step reads, fixed for one decode_batch
    of V variants whose R rows belong to the variants variant[r].

    cand_dist: V x C x C distances between candidate rows (a single-depot
    agent slot, padded or not, sits at the depot). The rest are read from
    it, one row per decode row. MPDP: pair_d R x P (pickup to delivery) and
    depot_d R x N (depot to each customer). Other kinds: nearest R x N (each
    customer to its nearest depot) and span R, the largest of those.
    """

    def __init__(self, variants, n_slots, variant):
        ins = variants[0]
        xy = np.stack([v.coords for v in variants])
        depots = np.stack([v.depot_coords for v in variants])
        # one slot per depot, or n_slots agent slots at a single-depot kind's depot
        slot_coords = np.repeat(depots, n_slots // ins.D, axis=1)
        cand = np.concatenate([slot_coords, xy], axis=1)
        # sqrt(dx * dx + dy * dy) of every pair of every variant; dy is the one temporary
        dist, dy = (c[:, None, :] - c[:, :, None] for c in (cand[..., 0], cand[..., 1]))
        dist *= dist
        dist += np.square(dy, out=dy)
        self.cand_dist = np.sqrt(dist, out=dist)
        slot_to_cust = self.cand_dist[:, :n_slots, n_slots:]
        if ins.kind == "MPDP":
            pickup = n_slots + np.arange(ins.n_pairs)
            self.pair_d = self.cand_dist[:, pickup, pickup + ins.n_pairs][variant]
            self.depot_d = slot_to_cust[:, 0][variant]
            return
        self.nearest = slot_to_cust.min(axis=1)[variant]
        self.span = self.nearest.max(axis=1)


# ---------------------------------------------------------------------------
# feasibility
# ---------------------------------------------------------------------------

def feasibility_mask(state):
    """Boolean R x C over the state's rows and candidates, True where the
    action is legal now. A row whose episode has ended may only repeat its
    last action (a no-op, see rollout.step); no row may take a padded slot."""
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
    else:
        mask[state.rows, state.start_depot if state.multi else state.agent] = can_close
        if state.multi:  # a route first picks its start depot
            mask[:, :n_slots] |= state.needs_start[:, None]
    if state.t >= state.first_done:
        done = state.done
        mask[done] = False
        mask[state.rows[done], state.node[done]] = True
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
    c = state.consts
    M, N, visited = state.M, state.N, state.visited
    if state.kind == "MPDP":
        R, n_pairs = len(visited), state.n_pairs
        out = np.empty((R, 7))
        out[:, 1] = 2.0 * state.pairs_remaining / N
        out[:, 3] = np.where(state.done_pairs, c.pair_d, 0.0).max(axis=1)
        # the farthest unvisited pickup and delivery from the depot
        out[:, 4:6] = np.where(visited, 0.0, c.depot_d).reshape(R, 2, n_pairs).max(axis=2)
        out[:, 6] = np.where(visited[:, :n_pairs], 0.0, c.pair_d).sum(axis=1)
        out[:, 6] /= np.maximum(M - 1 - state.pos, 1)
    else:
        out = np.empty((len(visited), 5))
        out[:, 1] = state.n_unvisited / N
        out[:, 3] = c.span
        out[:, 4] = np.where(visited, 0.0, c.nearest).max(axis=1)
    out[:, 0] = (M - state.pos) / M
    out[:, 2] = state.route_len
    return out[:, :2], out[:, 2:]


def pooled_graph(emb, params):
    """The V x 1 x d pooled-graph term of the context, one row per variant:
    the mean of its real agent, customer and depot rows."""
    parts = [emb.H_a, emb.H_c]
    if emb.H_d is not None:
        parts.append(emb.H_d)
    keep = None
    if emb.agent_keep is not None:
        keep = _agent_keep_then(emb, sum(p.shape[-2] for p in parts[1:]))[:, :, None]
    return dc.matmul(dc.mean_rows(dc.concat_rows(parts), keep), params["dec.emb"])


def _agent_keep_then(emb, n_rows):
    """emb.agent_keep followed by n_rows real rows, V x (M + n_rows)."""
    keep = emb.agent_keep
    return np.concatenate([keep, np.ones((len(keep), n_rows), dtype=bool)], axis=1)


def context(state, H_a, cand, pooled, params):
    """The V x K x d glimpse queries, (pooled graph + step + length) @
    dec.glimpse.q, of the state's V x K rows, one node. Row (a, k) joins its
    agent row of H_a[a], its current node's row of the candidate rows
    cand[a] and its scalar_features; the pooled-graph term pooled[a]
    (pooled_graph) is shared by every row of variant a."""
    V = len(state.variants)
    fracs, feats = scalar_features(state)
    agent, node, fracs, feats = (x.reshape((V, -1) + x.shape[1:])
                                 for x in (state.agent, state.node, fracs, feats))
    return dc.context_query(H_a, agent, cand, node, fracs, feats, pooled,
                            params["dec.step"], params["dec.length"],
                            params["dec.glimpse.q"])


# ---------------------------------------------------------------------------
# glimpse and logits
# ---------------------------------------------------------------------------

def candidate_rows(emb):
    """Embedding rows aligned with the candidate indexing, V x C x d."""
    first = emb.H_d if emb.H_d is not None else emb.H_a
    return dc.concat_rows([first, emb.H_c])


def candidate_bias(emb, n_heads):
    """The glimpse's key bias (encoder.key_bias) over the candidate rows
    that leaves padded agent slots out, repeated per head and at the
    embeddings' dtype, (V*H) x 1 x C; None when no slot is padded."""
    if emb.H_d is not None or emb.agent_keep is None:
        return None
    bias = en.key_bias(_agent_keep_then(emb, emb.H_c.shape[-2]))
    return np.repeat(bias, n_heads, axis=0).astype(emb.H_c.dtype)


def glimpse_kv(cand, params):
    """Transposed keys and values of the candidate rows (encoder.keys_values)."""
    return en.keys_values(cand, params, "dec.glimpse")


def glimpse(q, kv, cfg, params, bias=None):
    """Scaled multi-head attention of the glimpse queries (context) over
    candidates, one dc.attention node; kv is glimpse_kv's, its values split
    into heads or not (dc.split_heads), and bias is candidate_bias."""
    return en.attend(q, *kv, cfg.n_heads, True, params["dec.glimpse.proj"], bias=bias)


def logits(q, cand_proj_t, exp_rows, masks, params, d_model):
    """Masked log-probabilities, V x K x C.

    q: V x K x d glimpse output; cand_proj_t: (candidates @ W_L)
    transposed, V x d x C; exp_rows/masks: the state's numpy distance
    factors (dist_exp_row) and feasibility_mask, R x C or V x K x C.
    """
    if not masks.any(axis=-1).all():
        raise ValueError("a decode state has no feasible action")
    exp_rows, masks = (x.reshape(q.shape[:-1] + (-1,)) for x in (exp_rows, masks))
    # every encoder and decoder value reaches the op's pre-tanh sum, so its
    # one check per call catches a NaN or inf from anywhere in the model
    return dc.masked_logits(q, cand_proj_t, 1.0 / math.sqrt(d_model), exp_rows,
                            params["dec.alpha_dist"], LOGIT_CLIP,
                            mask_penalty(masks, q.dtype))


def mask_penalty(masks, dtype):
    """0 where masks is True and dc.MASK_VALUE elsewhere, at dtype: the
    logits' additive mask, and their exact stand-in where every row has one
    legal action (a log-prob of 0 there, a probability of 0 elsewhere)."""
    return np.where(masks, dtype.type(0.0), dtype.type(dc.MASK_VALUE))
