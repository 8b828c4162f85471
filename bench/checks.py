"""Output checks, run after the timed region.

Each check recomputes a result apart from colmatch (numpy top-k, scipy's
rectangular assignment, longhand MRR and Recall@GT, means over the raw
ablation records) or tests a property colmatch documents.  A Checks object
collects failures instead of stopping at the first one.
"""

from __future__ import annotations

import csv
import json
import math
from collections import defaultdict
from pathlib import Path

import numpy as np

from gen import normalise
from responder import RETRY_ATTEMPTS

TOLERANCE = 1e-9


class Checks:
    def __init__(self) -> None:
        self.failures = []
        self.passed = 0

    def require(self, condition, message: str) -> bool:
        if condition:
            self.passed += 1
        else:
            self.failures.append(message)
        return bool(condition)


def _entries(matches, source):
    return [(c.target, c.score, c.rank) for c in matches.per_source[source]]


def read_match_json(path) -> dict:
    """source -> [(target, score, rank)] in file order."""
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    lists = defaultdict(list)
    for entry in data["matches"]:
        lists[entry["source"]].append((entry["target"], entry["score"], entry["rank"]))
    return dict(lists)


def same_as_written(checks, matches, written: dict, label: str) -> None:
    got = {s: _entries(matches, s) for s in matches.per_source if matches.per_source[s]}
    checks.require(got == written, f"{label}: recomputed pipeline differs from the written matches.json")


def lists_well_formed(checks, written: dict, target_names, label: str) -> None:
    """Ranks run 1..n, scores never rise, targets are unique and exist."""
    known = set(target_names)
    for source, entries in written.items():
        targets = [t for t, _, _ in entries]
        scores = [s for _, s, _ in entries]
        checks.require(
            [r for _, _, r in entries] == list(range(1, len(entries) + 1)),
            f"{label}: ranks of {source!r} are not 1..n",
        )
        checks.require(
            all(a >= b for a, b in zip(scores, scores[1:])),
            f"{label}: scores of {source!r} increase down the list",
        )
        checks.require(len(set(targets)) == len(targets), f"{label}: repeated target for {source!r}")
        checks.require(set(targets) <= known, f"{label}: unknown target for {source!r}")


def longhand_scores(written: dict, truth_pairs) -> tuple:
    """(MRR, Recall@GT) recomputed from the written lists and the ground truth."""
    wanted = defaultdict(set)
    for source, target in truth_pairs:
        wanted[source].add(target)
    reciprocal = []
    for source in sorted(wanted):
        ranks = [r for t, _, r in written.get(source, []) if t in wanted[source]]
        reciprocal.append(1.0 / min(ranks) if ranks else 0.0)
    mrr = sum(reciprocal) / len(reciprocal)
    pairs = [(-score, s, t) for s, entries in written.items() for t, score, _ in entries]
    pairs.sort()
    top = {(s, t) for _, s, t in pairs[: len(truth_pairs)]}
    return mrr, len(top & set(truth_pairs)) / len(truth_pairs)


def scores_match(checks, written, truth_pairs, reported: tuple, label: str) -> None:
    mrr, recall = longhand_scores(written, truth_pairs)
    checks.require(abs(mrr - reported[0]) <= 1e-12, f"{label}: MRR {reported[0]} != longhand {mrr}")
    checks.require(abs(recall - reported[1]) <= 1e-12, f"{label}: Recall@GT {reported[1]} != longhand {recall}")


def retrieval_top_k(checks, retrieved, source_vectors, target_vectors, source, target, k, label) -> None:
    """Each list equals a numpy top-k of the cosine matrix, ties broken by target name."""
    names = target.column_names()
    name_rank = np.empty(len(names), dtype=np.int64)
    name_rank[sorted(range(len(names)), key=names.__getitem__)] = np.arange(len(names))
    similarity = np.asarray(source_vectors) @ np.asarray(target_vectors).T
    bad = 0
    for i, name in enumerate(source.column_names()):
        order = np.lexsort((name_rank, -similarity[i]))[:k]
        expected = [(names[j], float(similarity[i, j]), r) for r, j in enumerate(order, start=1)]
        bad += _entries(retrieved, name) != expected
    checks.require(bad == 0, f"{label}: {bad} retrieval lists differ from the numpy top-k")


def pins_on_top(checks, retrieved, pinned, source, target, label) -> None:
    """Normalised-name matches lead at score 1.0; the rest keep retrieval order."""
    by_norm = defaultdict(list)
    for name in target.column_names():
        by_norm[normalise(name)].append(name)
    bad = 0
    for name in source.column_names():
        pins = sorted(by_norm.get(normalise(name), []))
        expected = [(t, 1.0) for t in pins] + [
            (t, s) for t, s, _ in _entries(retrieved, name) if t not in pins
        ]
        got = _entries(pinned, name)
        bad += [(t, s) for t, s, _ in got] != expected or [r for _, _, r in got] != list(
            range(1, len(got) + 1)
        )
    checks.require(bad == 0, f"{label}: {bad} lists break the exact-name pin")


def bipartite(checks, pinned, reranked, solve_assignment, label) -> dict:
    """Assignment optimality and the promote/rescale contract; returns fault counts."""
    # imported here, after peak RSS is read, so the workload process loads
    # scipy only when colmatch does
    from scipy.optimize import linear_sum_assignment

    sources = list(pinned.per_source)
    targets = sorted({c.target for cands in pinned.per_source.values() for c in cands})
    column = {t: j for j, t in enumerate(targets)}
    weights = np.full((len(sources), len(targets)), np.nan)
    for i, s in enumerate(sources):
        for c in pinned.per_source[s]:
            weights[i, column[c.target]] = c.score

    solved = solve_assignment(weights)
    clipped = np.where(np.isnan(weights), 0.0, np.maximum(weights, 0.0))
    rows, cols = linear_sum_assignment(clipped, maximize=True)
    optimum = math.fsum(clipped[rows, cols])
    checks.require(
        abs(solved.total - optimum) <= TOLERANCE,
        f"{label}: assignment total {solved.total} != rectangular optimum {optimum}",
    )
    edge_rows = [r for r, _, _ in solved.edges]
    edge_cols = [c for _, c, _ in solved.edges]
    checks.require(
        len(set(edge_rows)) == len(edge_rows) and len(set(edge_cols)) == len(edge_cols),
        f"{label}: assignment is not one-to-one",
    )

    assigned = {sources[r]: targets[c] for r, c, _ in solved.edges}
    misplaced = sum(
        _entries(reranked, sources[r])[0][:2] != (targets[c], w) for r, c, w in solved.edges
    )
    checks.require(misplaced == 0, f"{label}: {misplaced} assigned edges not at rank 1 with their score")

    w_low = min((w for _, _, w in solved.edges), default=math.inf)
    rescaled = []  # (retrieval score, new score) of every non-assigned candidate
    order_breaks = 0
    for s in sources:
        before = {c.target: c.score for c in pinned.per_source[s]}
        rest = [(t, score) for t, score, _ in _entries(reranked, s) if assigned.get(s) != t]
        rescaled.extend((before[t], score) for t, score in rest)
        kept = [c.target for c in pinned.per_source[s] if assigned.get(s) != c.target]
        order_breaks += [t for t, _ in rest] != kept
    checks.require(
        all(new < w_low for _, new in rescaled),
        f"{label}: a non-assigned candidate reaches the weakest assigned score {w_low}",
    )
    rescaled.sort()
    checks.require(
        all(a[1] <= b[1] for a, b in zip(rescaled, rescaled[1:])),
        f"{label}: rescaled scores are not a non-decreasing function of retrieval scores",
    )
    promotions = sum(pinned.per_source[s][0].target != t for s, t in assigned.items())
    return {
        "rerank_bipartite.promotions": promotions,
        "rerank_bipartite.order_breaks": order_breaks,
        "rerank_bipartite.pins_demoted": pins_demoted(pinned, reranked),
    }


def pins_demoted(pinned, reranked) -> int:
    """Exact-name pins that a reranker moved off rank 1.

    The README promises that these "survive any ... reranker choice"; the
    count is reported, not failed, so a fix shows as a drop to 0.
    """
    return sum(
        bool(cands)
        and normalise(cands[0].source) == normalise(cands[0].target)
        and reranked.per_source[s][0].target != cands[0].target
        for s, cands in pinned.per_source.items()
    )


def llm(checks, pinned, reranked, responder, label) -> dict:
    """Responder-scored targets first, in its order; the rest in retrieval order below them."""
    bad = []
    for s in pinned.per_source:
        before = _entries(pinned, s)
        after = _entries(reranked, s)
        if sorted(t for t, _, _ in after) != sorted(t for t, _, _ in before):
            bad.append(f"{s!r} is not a permutation")
            continue
        answers = responder.log.get(s, [])
        scored = next((a for a in answers if a is not None), None)
        if scored is None:
            if len(answers) != RETRY_ATTEMPTS or after != before:
                bad.append(f"{s!r} failed every attempt but left its retrieval list")
            continue
        head = [(t, score) for t, score, _ in after[: len(scored)]]
        tail = after[len(scored) :]
        names = {t for t, _ in scored}
        if head != scored:
            bad.append(f"{s!r} does not lead with the responder's scores")
        elif [t for t, _, _ in tail] != [t for t, _, _ in before if t not in names]:
            bad.append(f"{s!r} leftovers left retrieval order")
        elif any(score >= scored[-1][1] for _, score, _ in tail):
            bad.append(f"{s!r} leftovers reach the lowest responder score")
    checks.require(not bad, f"{label}: LLM rerank contract broken: {bad[:3]}")
    return {"rerank_llm.pins_demoted": pins_demoted(pinned, reranked)}


def grid(checks, out_dir, repetitions: int, n_cells: int, label) -> None:
    """Every cell ran cleanly, and results.csv means equal means over records.jsonl."""
    records = [
        json.loads(line)
        for line in (out_dir / "records.jsonl").read_text(encoding="utf-8").splitlines()
    ]
    with open(out_dir / "results.csv", encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    checks.require(len(rows) == n_cells, f"{label}: {len(rows)} grid cells, expected {n_cells}")
    by_cell = defaultdict(list)
    for record in records:
        by_cell[record["cell"]].append(record)
    for row in rows:
        cell = "|".join([row["sampling"], row["serialization"], row["reranker"], row["projection"]])
        runs = by_cell[cell]
        checks.require(
            int(row["runs"]) == repetitions and int(row["failures"]) == 0,
            f"{label}: cell {cell} ran {row['runs']} times with {row['failures']} failures",
        )
        for column, field in (("mrr_mean", "mrr"), ("recall_mean", "recall_at_gt")):
            values = [r[field] for r in runs if "error" not in r]
            mean = math.fsum(values) / len(values) if values else None
            checks.require(
                mean is not None and abs(float(row[column]) - mean) <= 1e-12,
                f"{label}: {column} of {cell} is {row[column]}, records give {mean}",
            )
