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
from scipy.sparse import coo_array, issparse

from .retrieval import MatchList, name_ranks, place_below


@dataclass(frozen=True)
class Assignment:
    """One-to-one edges as (row, col, weight); total is their sum."""

    edges: tuple
    total: float


def solve_assignment(weights) -> Assignment:
    """Maximum-total-weight one-to-one matching over the present entries.

    `weights` is a dense 2-D array where NaN marks a pair that cannot be
    assigned, or a scipy.sparse array whose stored entries are the present
    pairs (a repeated pair keeps its last stored weight).  Rows and columns
    may stay unmatched, and only edges of weight > 0 are ever assigned: an
    edge that adds nothing to the total is left out.  Exact, polynomial
    time: the one n x m cost matrix, -max(weight, 0) with 0 for absent
    pairs, goes to scipy's rectangular shortest-augmenting-path solver
    (Crouse, IEEE TAES 2016) as a minimisation, so the solver copies no
    matrix unless n > m; the pairs of cost 0 are dropped, and each kept
    edge's weight is its -cost, exactly.
    """
    if np.ndim(weights) != 2:
        raise ValueError("weights must be a 2-D matrix")
    # absent (NaN or not stored) and non-positive entries gain 0
    if issparse(weights):
        entries = weights.tocoo()
        gain = np.zeros(entries.shape)
        gain[entries.row, entries.col] = np.fmax(entries.data, 0.0)  # a repeated pair: the last write wins
    else:
        gain = np.fmax(np.asarray(weights, dtype=np.float64), 0.0, order="C")
    cost = np.negative(gain, out=gain)
    rows, cols = linear_sum_assignment(cost)
    weight = -cost[rows, cols]
    keep = weight > 0.0
    edges = sorted(zip(rows[keep].tolist(), cols[keep].tolist(), weight[keep].tolist()))
    total = math.fsum(w for _, _, w in edges)
    return Assignment(tuple(edges), total)


def rerank_bipartite(matches: MatchList) -> MatchList:
    """Promote each assigned edge to rank 1; place the rest below the weakest of them.

    Assigned edges keep their scores.  The other candidates follow in input
    order; their scores go through one `place_below` over all lists with the
    minimum assigned score as ceiling, so a score maps to the same new score
    in every list.  The candidate set of every list is unchanged.
    """
    n = len(matches.sources)
    row = matches.rows()
    used = np.unique(matches.target)  # the graph's columns: the listed targets, in name order
    column = np.zeros(len(matches.targets), dtype=np.intp)
    column[used] = name_ranks([matches.targets[t] for t in used.tolist()])
    col = column[matches.target]

    assignment = solve_assignment(coo_array((matches.score, (row, col)), shape=(n, len(used))))
    lead_col, lead_w = np.full(n, -1), np.full(n, np.nan)
    for r, c, w in assignment.edges:
        lead_col[r], lead_w[r] = c, w
    lead = (col == lead_col[row]) & (matches.score == lead_w[row])
    w_low = min((w for _, _, w in assignment.edges), default=math.inf)
    score = matches.score.copy()
    score[~lead] = place_below(score[~lead], w_low)
    order = np.lexsort((~lead, row))  # stable: each row's lead, then the rest in input order
    return matches.reranked(np.diff(matches.offsets), matches.target[order], score[order])
