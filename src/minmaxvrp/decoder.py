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


def candidate_count(instance):
    if instance.kind in ("MDVRP", "FMDVRP"):
        return instance.D + instance.N
    return instance.M + instance.N


# ---------------------------------------------------------------------------
# feasibility
# ---------------------------------------------------------------------------

def feasibility_mask(state):
    """Boolean row over candidates, True where the action is legal now."""
    ins = state.ins
    M, N = ins.M, ins.N
    unvisited = ~state.visited
    left = state.n_unvisited
    routes_after = M - state.pos - 1

    if ins.kind in ("MDVRP", "FMDVRP"):
        D = ins.D
        mask = np.zeros(D + N, dtype=bool)
        if state.needs_start:
            mask[:D] = True
            return mask
        mask[D:] = unvisited & (left - 1 >= routes_after)
        if state.current:
            if routes_after >= 1:
                can_end = left >= routes_after
            else:
                can_end = left == 0
            if can_end:
                if ins.kind == "MDVRP":
                    mask[state.start_depot] = True
                else:
                    mask[:D] = True
        return mask

    mask = np.zeros(M + N, dtype=bool)
    o_c = state.o[state.pos]
    if ins.kind == "MPDP":
        pairs_left = state.pairs_remaining
        n_pairs = ins.n_pairs
        pick_ok = pairs_left - 1 >= routes_after
        for p in range(n_pairs):
            if unvisited[p] and pick_ok:
                mask[M + p] = True
            # delivery legal only once its pickup sits in the current route
            if unvisited[n_pairs + p] and p in state.open_pickups:
                mask[M + n_pairs + p] = True
        if state.current and not state.open_pickups:
            if routes_after >= 1:
                mask[o_c] = pairs_left >= routes_after
            else:
                mask[o_c] = pairs_left == 0
        return mask

    mask[M:] = unvisited & (left - 1 >= routes_after)
    if state.current:
        if routes_after >= 1:
            mask[o_c] = left >= routes_after
        else:
            mask[o_c] = left == 0
    return mask


# ---------------------------------------------------------------------------
# distance bias
# ---------------------------------------------------------------------------

def dist_exp_row(state):
    """exp(ratio) per candidate, where ratio is the distance from the current
    node scaled by the farthest unvisited customer (capped, 1.0 fallback)."""
    ins = state.ins
    here = state.node_coord()
    unvisited_coords = ins.coords[~state.visited]
    if len(unvisited_coords):
        denom = float(np.sqrt(((unvisited_coords - here) ** 2).sum(axis=1)).max())
    else:
        denom = 0.0

    if ins.kind in ("MDVRP", "FMDVRP"):
        slot_coords = ins.depot_coords
    else:
        slot_coords = np.repeat(ins.depot_coords, ins.M, axis=0)
    cand = np.concatenate([slot_coords, ins.coords], axis=0)
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
    M, N = ins.M, ins.N
    m = state.pos + 1
    frac_m = (M - m + 1) / M
    unvisited = ~state.visited

    if ins.kind == "MPDP":
        n_pairs = ins.n_pairs
        picks_left = int(unvisited[:n_pairs].sum())
        frac_n = 2.0 * picks_left / N
        pair_d = np.sqrt(((ins.coords[:n_pairs] - ins.coords[n_pairs:]) ** 2).sum(axis=1))
        depot_d = np.sqrt(((ins.coords - ins.depot_coords[0]) ** 2).sum(axis=1))
        served_here = [p for p in range(n_pairs)
                       if p in state.current_pairs_done]
        longest_pd = float(pair_d[served_here].max()) if served_here else 0.0
        up = unvisited[:n_pairs]
        ud = unvisited[n_pairs:]
        longest_p = float(depot_d[:n_pairs][up].max()) if up.any() else 0.0
        longest_d = float(depot_d[n_pairs:][ud].max()) if ud.any() else 0.0
        sum_pd = float(pair_d[up].sum())
        feats = [state.route_len, longest_pd, longest_p, longest_d,
                 sum_pd / max(M - m, 1)]
        return frac_m, frac_n, feats

    frac_n = state.n_unvisited / N
    if ins.kind in ("MDVRP", "FMDVRP"):
        d2 = ((ins.coords[:, None, :] - ins.depot_coords[None, :, :]) ** 2).sum(axis=2)
        nearest = np.sqrt(d2.min(axis=1))
    else:
        nearest = np.sqrt(((ins.coords - ins.depot_coords[0]) ** 2).sum(axis=1))
    span = float(nearest.max())
    longest_left = float(nearest[unvisited].max()) if unvisited.any() else 0.0
    return frac_m, frac_n, [state.route_len, span, longest_left]


def context(state, emb, cfg, params):
    """The 1 x d context row: pooled graph + step + length terms."""
    parts = [emb.H_a, emb.H_c]
    if emb.H_d is not None:
        parts.append(emb.H_d)
    pooled = dc.matmul(dc.mean_rows(dc.concat_rows(parts)), params["dec.emb"])

    o_c = state.o[state.pos]
    h_agent = dc.gather_rows(emb.H_a, [o_c])
    if state.node_kind == "depot":
        if emb.H_d is not None:
            h_node = dc.gather_rows(emb.H_d, [state.node_idx])
        else:
            h_node = h_agent  # the agent embedding stands in for the depot
    else:
        h_node = dc.gather_rows(emb.H_c, [state.node_idx])
    frac_m, frac_n, feats = scalar_features(state)
    step_in = dc.concat_cols([h_agent, h_node,
                              dc.constant([[frac_m]]), dc.constant([[frac_n]])])
    step = dc.matmul(step_in, params["dec.step"])
    length = dc.matmul(dc.constant([feats]), params["dec.length"])
    return dc.add(dc.add(pooled, step), length)


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
