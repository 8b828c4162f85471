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

from .retrieval import MatchList, name_ranks, place_below


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
    gain = np.fmax(W, 0.0)  # absent (NaN) and non-positive entries gain 0
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
    n = len(matches.sources)
    row = matches.rows()
    used = np.unique(matches.target)  # W's columns: the listed targets, in name order
    column = np.zeros(len(matches.targets), dtype=np.intp)
    column[used] = name_ranks([matches.targets[t] for t in used.tolist()])
    col = column[matches.target]
    W = np.full((n, len(used)), np.nan)
    W[row, col] = matches.score

    assignment = solve_assignment(W)
    lead_col, lead_w = np.full(n, -1), np.full(n, np.nan)
    for r, c, w in assignment.edges:
        lead_col[r], lead_w[r] = c, w
    lead = (col == lead_col[row]) & (matches.score == lead_w[row])
    w_low = min((w for _, _, w in assignment.edges), default=math.inf)
    score = matches.score.copy()
    score[~lead] = place_below(score[~lead], w_low)
    order = np.lexsort((~lead, row))  # stable: each row's lead, then the rest in input order
    return matches.reranked(np.diff(matches.offsets), matches.target[order], score[order])
