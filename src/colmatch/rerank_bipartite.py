"""Assignment-based reranking.

Treat candidates as a weighted bipartite graph, solve the maximum-weight
one-to-one assignment, and promote the assigned edge of every source column
to the top of its list.  Non-assigned candidates are rescaled below the
weakest assigned edge so that relative order within a list is preserved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .retrieval import MatchCandidate, MatchList

RESCALE_EPSILON = 1e-9


@dataclass(frozen=True)
class Assignment:
    """One-to-one edges as (row, col, weight); total is their sum."""

    edges: tuple
    total: float


def solve_assignment(weights) -> Assignment:
    """Maximum-total-weight one-to-one matching over the present entries.

    `weights` is a 2-D array where NaN marks a pair that cannot be
    assigned.  Rows and columns may stay unmatched, and only edges of
    weight > 0 are ever assigned: an edge that adds nothing to the total is
    left out.  Exact, polynomial time: the n x m matrix with absent and
    non-positive entries set to 0 goes to scipy's rectangular
    shortest-augmenting-path solver (Crouse, IEEE TAES 2016), and its
    zero-gain pairs are dropped.
    """
    W = np.asarray(weights, dtype=np.float64)
    if W.ndim != 2:
        raise ValueError("weights must be a 2-D matrix")
    present = ~np.isnan(W)
    if not present.any():
        return Assignment((), 0.0)

    gain = np.where(present, np.maximum(W, 0.0), 0.0)
    rows, cols = linear_sum_assignment(gain, maximize=True)
    keep = gain[rows, cols] > 0.0
    rows, cols = rows[keep], cols[keep]
    edges = sorted(zip(rows.tolist(), cols.tolist(), W[rows, cols].tolist()))
    total = math.fsum(w for _, _, w in edges)
    return Assignment(tuple(edges), total)


def rerank_bipartite(matches: MatchList) -> MatchList:
    """Promote assigned edges; rescale the rest below the weakest of them.

    The rescale factor f = (w_low - eps) / max_non is global, where w_low is
    the minimum assigned score and max_non the maximum non-assigned score;
    when max_non < w_low no rescaling is needed (f = 1).  The candidate set
    of every list is unchanged.  Note the factor assumes the usual case of
    non-negative candidate scores.
    """
    sources = list(matches.per_source)
    targets = sorted(
        {c.target for cands in matches.per_source.values() for c in cands}
    )
    if not sources or not targets:
        return MatchList(
            matches.source_table,
            matches.target_table,
            {s: list(cands) for s, cands in matches.per_source.items()},
            matches.k,
        )
    t_index = {t: j for j, t in enumerate(targets)}
    W = np.full((len(sources), len(targets)), np.nan)
    for i, s in enumerate(sources):
        for cand in matches.per_source[s]:
            W[i, t_index[cand.target]] = cand.score

    assignment = solve_assignment(W)
    assigned = {(sources[r], targets[c]) for r, c, _ in assignment.edges}

    factor = 1.0
    if assigned:
        w_low = min(w for _, _, w in assignment.edges)
        non_assigned = [
            c.score
            for s in sources
            for c in matches.per_source[s]
            if (s, c.target) not in assigned
        ]
        if non_assigned and max(non_assigned) >= w_low:
            factor = (w_low - RESCALE_EPSILON) / max(non_assigned)

    per_source = {}
    for s in sources:
        entries = []
        for cand in matches.per_source[s]:
            is_assigned = (s, cand.target) in assigned
            score = cand.score if is_assigned else cand.score * factor
            entries.append((0 if is_assigned else 1, -score, cand.target, score))
        entries.sort()
        per_source[s] = [
            MatchCandidate(s, target, score, rank)
            for rank, (_, _, target, score) in enumerate(entries, start=1)
        ]
    return MatchList(matches.source_table, matches.target_table, per_source, matches.k)
