"""Evaluation metrics: MRR and Recall@GT.

MRR averages, over the source columns that appear in the ground truth, the
reciprocal rank of the first correct target in each column's candidate
list (0 when no correct target was retrieved).  Recall@GT cuts the global
score-ranked pair list at the ground-truth size and measures the overlap.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field
from typing import Optional

import numpy as np

from .retrieval import MatchList, name_ranks
from .tables import GroundTruth


@dataclass
class EvalReport:
    mrr: float
    recall_at_gt: float
    first_correct_rank: dict  # source -> rank of first correct target, or None
    runtime_seconds: float
    config: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return asdict(self)

    def as_text(self) -> str:
        lines = [
            f"{'metric':<14}{'value':>10}",
            f"{'mrr':<14}{self.mrr:>10.4f}",
            f"{'recall_at_gt':<14}{self.recall_at_gt:>10.4f}",
            f"{'runtime_s':<14}{self.runtime_seconds:>10.3f}",
        ]
        return "\n".join(lines)


def write_report(report: EvalReport, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report.as_dict(), fh, ensure_ascii=False, indent=2)
        fh.write("\n")


def _pair_codes(matches: MatchList, pairs) -> tuple:
    """Each entry's (source, target) as one integer code, and a mask over the codes marking `pairs`."""
    rows = {s: i for i, s in enumerate(matches.sources)}
    cols = {t: j for j, t in enumerate(matches.targets)}
    wanted = np.zeros(len(rows) * len(cols), dtype=bool)
    wanted[[rows[s] * len(cols) + cols[t] for s, t in pairs if s in rows and t in cols]] = True
    return matches.rows() * len(cols) + matches.target, wanted


def first_correct_ranks(matches: MatchList, gt: GroundTruth) -> dict:
    """Rank of the first correct target per ground-truth source (else None)."""
    codes, wanted = _pair_codes(matches, gt.pairs)
    hits = np.flatnonzero(wanted[codes])
    first = {}  # entries run in list order, so a list's first hit comes first
    for i, rank in zip(matches.rows()[hits].tolist(), matches.rank[hits].tolist()):
        first.setdefault(matches.sources[i], rank)
    return {src: first.get(src) for src in sorted(gt.sources())}


def mrr(matches: MatchList, gt: GroundTruth) -> float:
    return _mean_reciprocal_rank(first_correct_ranks(matches, gt))


def _mean_reciprocal_rank(ranks: dict) -> float:
    """MRR from first_correct_ranks' result."""
    if not ranks:
        return 0.0
    return sum(1.0 / r for r in ranks.values() if r is not None) / len(ranks)


def recall_at_gt(matches: MatchList, gt: GroundTruth) -> float:
    """|G intersect M| / |G| with M = the |G| best pairs overall.

    Global ties break by source name then target name, the same rule the
    retriever uses, so end-to-end runs stay deterministic.
    """
    if not gt.pairs:
        raise ValueError("ground truth must be non-empty")
    k = len(gt.pairs)
    codes, wanted = _pair_codes(matches, gt.pairs)
    by_name = (name_ranks(matches.targets)[matches.target], name_ranks(matches.sources)[matches.rows()])
    top = codes[np.lexsort((*by_name, -matches.score))[:k]]
    return len(set(top[wanted[top]].tolist())) / k


def evaluate(
    source, target, gt: GroundTruth, config=None, llm_client=None, profiles=None
) -> EvalReport:
    """Run the configured pipeline end-to-end and score it.

    `profiles` goes to run_pipeline; runtime_seconds then leaves out profiling.
    """
    from .pipeline import PipelineConfig, run_pipeline  # deferred: avoids a cycle

    config = config or PipelineConfig()
    started = time.perf_counter()
    matches = run_pipeline(source, target, config, llm_client=llm_client, profiles=profiles)
    elapsed = time.perf_counter() - started
    ranks = first_correct_ranks(matches, gt)
    return EvalReport(
        mrr=_mean_reciprocal_rank(ranks),
        recall_at_gt=recall_at_gt(matches, gt),
        first_correct_rank=ranks,
        runtime_seconds=elapsed,
        config=config.as_dict(),
    )
