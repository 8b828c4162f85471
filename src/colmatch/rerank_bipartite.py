"""Assignment-based reranking.

Treat candidates as a weighted bipartite graph, solve the maximum-weight
one-to-one assignment, and promote the assigned edge of every source column
to the top of its list.  The other candidates follow in their input order,
strictly below the weakest assigned edge, placed by `retrieval.place_below`:
the same rule that places the `llm` reranker's leftovers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .retrieval import MatchList, place_below


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
    """Promote each assigned edge to rank 1; place the rest below the weakest of them.

    Assigned edges keep their scores.  The other candidates follow in input
    order; their scores go through one `place_below` over all lists with the
    minimum assigned score as ceiling, so a score maps to the same new score
    in every list.  The candidate set of every list is unchanged.
    """
    sources = list(matches.per_source)
    targets = sorted({c.target for cands in matches.per_source.values() for c in cands})
    t_index = {t: j for j, t in enumerate(targets)}
    W = np.full((len(sources), len(targets)), np.nan)
    for i, s in enumerate(sources):
        for cand in matches.per_source[s]:
            W[i, t_index[cand.target]] = cand.score

    assignment = solve_assignment(W)
    lead = {s: [] for s in sources}
    for r, c, w in assignment.edges:
        lead[sources[r]].append((targets[c], w))
    w_low = min((w for _, _, w in assignment.edges), default=math.inf)
    rest = {s: [c for c in matches.per_source[s] if (c.target, c.score) not in lead[s]] for s in sources}
    placed = iter(place_below([c.score for s in sources for c in rest[s]], w_low).tolist())
    return matches.reranked((s, lead[s] + [(c.target, next(placed)) for c in rest[s]]) for s in sources)
