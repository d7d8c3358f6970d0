"""Per-step decoding: context embedding, glimpse attention, feasibility
masks, and distance-biased masked logits.

Candidate actions are indexed [agent slots 0..M-1, customers M..M+N-1] for
single-depot kinds and [depot slots 0..D-1, customers D..D+N-1] for
multi-depot kinds. Functions here take the rollout's DecodeState by duck
type so the two modules stay import-acyclic.
"""

import math

import numpy as np

from . import diffcore as dc

LOGIT_CLIP = 50.0
MASK_VALUE = -1e9
RATIO_CAP = 30.0


class DecodeConstants:
    """Per-instance arrays that every decode step of every rollout reads.

    cand_coords: coordinates per candidate row (a single-depot agent slot
    sits at the depot). MPDP: pair_d (pickup to delivery) and depot_d (depot
    to each customer). Other kinds: nearest (each customer to its nearest
    depot) and span, the largest of those.
    """

    def __init__(self, ins):
        xy, depots, n_pairs = ins.coords, ins.depot_coords, ins.n_pairs
        multi = ins.kind in ("MDVRP", "FMDVRP")
        slot_coords = depots if multi else np.repeat(depots, ins.M, axis=0)
        self.cand_coords = np.concatenate([slot_coords, xy], axis=0)
        if ins.kind == "MPDP":
            self.pair_d = np.sqrt(((xy[:n_pairs] - xy[n_pairs:]) ** 2).sum(axis=1))
            self.depot_d = np.sqrt(((xy - depots[0]) ** 2).sum(axis=1))
            return
        if multi:
            d2 = ((xy[:, None, :] - depots[None, :, :]) ** 2).sum(axis=2)
            self.nearest = np.sqrt(d2.min(axis=1))
        else:
            self.nearest = np.sqrt(((xy - depots[0]) ** 2).sum(axis=1))
        self.span = float(self.nearest.max())


# ---------------------------------------------------------------------------
# feasibility
# ---------------------------------------------------------------------------

def feasibility_mask(state):
    """Boolean row over candidates, True where the action is legal now."""
    ins = state.ins
    unvisited = ~state.visited
    left = state.n_unvisited
    routes_after = ins.M - state.pos - 1
    n_slots = ins.D if state.multi else ins.M
    mask = np.zeros(n_slots + ins.N, dtype=bool)
    if state.needs_start:
        mask[:n_slots] = True
        return mask
    can_close = bool(state.current)
    if ins.kind == "MPDP":
        n_pairs = ins.n_pairs
        left = state.pairs_remaining
        mask[n_slots:n_slots + n_pairs] = unvisited[:n_pairs] & (left - 1 >= routes_after)
        # delivery legal only once its pickup sits in the current route
        mask[n_slots + n_pairs:] = unvisited[n_pairs:] & state.open_pairs
        can_close = can_close and not state.open_pairs.any()
    else:
        mask[n_slots:] = unvisited & (left - 1 >= routes_after)
    # what is left must fill every later route, and the last route takes all
    if can_close and (left >= routes_after if routes_after else left == 0):
        if ins.kind == "FMDVRP":
            mask[:n_slots] = True
        else:
            mask[state.start_depot if state.multi else state.o[state.pos]] = True
    return mask


# ---------------------------------------------------------------------------
# distance bias
# ---------------------------------------------------------------------------

def dist_exp_row(state):
    """exp(ratio) per candidate, where ratio is the distance from the current
    node scaled by the farthest unvisited customer (capped, 1.0 fallback)."""
    here = state.node_coord()
    unvisited_coords = state.ins.coords[~state.visited]
    if len(unvisited_coords):
        denom = float(np.sqrt(((unvisited_coords - here) ** 2).sum(axis=1)).max())
    else:
        denom = 0.0

    cand = state.consts.cand_coords
    if denom <= 0.0:
        ratios = np.ones(len(cand))
    else:
        ratios = np.sqrt(((cand - here) ** 2).sum(axis=1)) / denom
        ratios = np.minimum(ratios, RATIO_CAP)
    return np.exp(ratios)


# ---------------------------------------------------------------------------
# context embedding
# ---------------------------------------------------------------------------

def scalar_features(state):
    """The fraction and length features fed to W_step and W_length.

    Returns (agents_fraction, customers_fraction, [length features]).
    """
    ins = state.ins
    c = state.consts
    M, N = ins.M, ins.N
    m = state.pos + 1
    frac_m = (M - m + 1) / M
    unvisited = ~state.visited

    if ins.kind == "MPDP":
        n_pairs = ins.n_pairs
        up = unvisited[:n_pairs]
        ud = unvisited[n_pairs:]
        frac_n = 2.0 * int(up.sum()) / N
        done = state.done_pairs
        longest_pd = float(c.pair_d[done].max()) if done.any() else 0.0
        longest_p = float(c.depot_d[:n_pairs][up].max()) if up.any() else 0.0
        longest_d = float(c.depot_d[n_pairs:][ud].max()) if ud.any() else 0.0
        sum_pd = float(c.pair_d[up].sum())
        feats = [state.route_len, longest_pd, longest_p, longest_d,
                 sum_pd / max(M - m, 1)]
        return frac_m, frac_n, feats

    frac_n = state.n_unvisited / N
    longest_left = float(c.nearest[unvisited].max()) if unvisited.any() else 0.0
    return frac_m, frac_n, [state.route_len, c.span, longest_left]


def pooled_graph(emb, params):
    """The 1 x d pooled-graph term of the context, constant per instance."""
    parts = [emb.H_a, emb.H_c]
    if emb.H_d is not None:
        parts.append(emb.H_d)
    return dc.matmul(dc.mean_rows(dc.concat_rows(parts)), params["dec.emb"])


def context(states, emb, cand, pooled, params):
    """The K x d context rows of K states: pooled graph + step + length.

    Row k joins state k's agent row of emb.H_a, its current node's row of
    the candidate rows cand and its scalar features; the pooled-graph term
    (pooled_graph) is shared by every row.
    """
    agents = dc.gather_rows(emb.H_a, [s.o[s.pos] for s in states])
    nodes = dc.gather_rows(cand, [s.node for s in states])
    scalars = [scalar_features(s) for s in states]
    fracs = dc.constant([[frac_m, frac_n] for frac_m, frac_n, _ in scalars])
    step = dc.matmul(dc.concat_cols([agents, nodes, fracs]), params["dec.step"])
    length = dc.matmul(dc.constant([feats for _, _, feats in scalars]),
                       params["dec.length"])
    return dc.add(dc.add(step, pooled), length)


# ---------------------------------------------------------------------------
# glimpse and logits
# ---------------------------------------------------------------------------

def candidate_rows(emb):
    """Embedding rows aligned with the candidate indexing."""
    first = emb.H_d if emb.H_d is not None else emb.H_a
    return dc.concat_rows([first, emb.H_c])


def glimpse_kv(cand, cfg, params):
    """Per-head key/value projections of the fixed candidate rows."""
    return [(dc.matmul(cand, params[f"dec.glimpse.k{i}"]),
             dc.matmul(cand, params[f"dec.glimpse.v{i}"]))
            for i in range(cfg.n_heads)]


def glimpse(H_ctx, kv, cfg, params):
    """Scaled multi-head attention of the K context rows over candidates."""
    d_k = cfg.d_head
    heads = []
    for i, (k, v) in enumerate(kv):
        q = dc.matmul(H_ctx, params[f"dec.glimpse.q{i}"])
        soft = dc.softmax_rows(dc.scale(dc.matmul(q, dc.transpose(k)),
                                        1.0 / math.sqrt(d_k)))
        heads.append(dc.matmul(soft, v))
    merged = heads[0] if len(heads) == 1 else dc.concat_cols(heads)
    return dc.matmul(merged, params["dec.glimpse.proj"])


def logits(q, cand_proj, exp_rows, masks, params, d_model):
    """Masked log-probabilities, K x C.

    q: K x d glimpse output; cand_proj: candidates @ W_L; exp_rows/masks:
    K x C numpy (distance factors and feasibility).
    """
    scores = dc.scale(dc.matmul(q, dc.transpose(cand_proj)),
                      1.0 / math.sqrt(d_model))
    bias = dc.scale(dc.constant(exp_rows), params["dec.alpha_dist"])
    u = dc.scale(dc.tanh(dc.add(scores, bias)), LOGIT_CLIP)
    if not masks.any(axis=1).all():
        raise ValueError("a decode state has no feasible action")
    penal = np.where(masks, 0.0, MASK_VALUE)
    return dc.log_softmax_rows(dc.add(u, dc.constant(penal)))
