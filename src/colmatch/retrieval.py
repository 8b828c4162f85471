"""Candidate retrieval.

Builds the full source x target cosine matrix from column embeddings, emits
the top-k candidates per source column (ties broken by target name), and
applies the exact-name override that pins trivially-matching names to a
perfect score of 1.0.
"""

from __future__ import annotations

import csv
import json
import math
import re
from dataclasses import dataclass
from json.encoder import encode_basestring
from typing import Optional, Sequence

import numpy as np

from .embedding import EmbeddingProviderConfig, get_provider
from .sampling import SamplerConfig, sample_values
from .serialization import SerializationConfig, serialize
from .tables import Table

DEFAULT_K = 20

_NAME_JUNK_RE = re.compile(r"[^a-z0-9]")


@dataclass(frozen=True)
class MatchCandidate:
    source: str
    target: str
    score: float
    rank: int


@dataclass
class MatchList:
    """Ranked candidates per source column, in source-table column order."""

    source_table: str
    target_table: str
    per_source: dict
    k: int

    def candidates(self, source: str) -> list:
        return self.per_source[source]

    def flat(self) -> list:
        return [cand for ranked in self.per_source.values() for cand in ranked]


def normalize_name(name: str) -> str:
    """Lowercase, then drop every character outside [a-z0-9]."""
    return _NAME_JUNK_RE.sub("", name.lower())


def embed_samples(
    table: Table,
    samples: dict,
    serialization: Optional[SerializationConfig] = None,
    provider=None,
) -> np.ndarray:
    """Embed each column serialized with samples[column name], as an (n_columns, D) matrix."""
    provider = provider if provider is not None else get_provider(EmbeddingProviderConfig())
    texts = [
        serialize(col.name, col.inferred_type, samples[col.name], serialization)
        for col in table.columns
    ]
    return np.vstack([np.asarray(v, dtype=np.float64) for v in provider.embed(texts)])


def embed_table(
    table: Table,
    sampling: Optional[SamplerConfig] = None,
    serialization: Optional[SerializationConfig] = None,
    provider=None,
) -> np.ndarray:
    """Sample every column of the table, then embed_samples()."""
    sampling = sampling or SamplerConfig()
    samples = {col.name: sample_values(col, sampling) for col in table.columns}
    return embed_samples(table, samples, serialization, provider)


def name_ranks(names: Sequence[str]) -> np.ndarray:
    """Position of each name in sorted order, for breaking score ties by name."""
    ranks = np.empty(len(names), dtype=np.int64)
    ranks[sorted(range(len(names)), key=names.__getitem__)] = np.arange(len(names))
    return ranks


def top_k(scores, name_rank, k: int) -> np.ndarray:
    """Column indices of the min(k, m) best entries of each row of an (n, m) matrix.

    Best means highest score, then lowest name_rank; NaN ranks after every
    number.  A partition finds each row's k-th score, every entry at or
    above it survives (so ties at the cut stay in), and one lexsort over the
    survivors orders them.
    """
    neg = -np.asarray(scores, dtype=np.float64)
    n, m = neg.shape
    k = min(k, m)
    if n == 0 or k == 0:
        return np.empty((n, k), dtype=np.intp)
    kth = np.partition(neg, k - 1, axis=1)[:, k - 1 : k]
    # a NaN k-th score means the row holds fewer than k numbers: keep all of it
    rows, cols = np.nonzero((neg <= kth) | np.isnan(kth))
    order = np.lexsort((name_rank[cols], neg[rows, cols], rows))
    starts = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=n))[:-1]))
    return cols[order][starts[:, None] + np.arange(k)]


def place_below(scores, ceiling: float) -> np.ndarray:
    """Map scores strictly below `ceiling`, keeping their order and their ties.

    Scores all below `ceiling` come back unchanged.  Otherwise the distinct
    values are scaled by ceiling / max (shifted down by max - ceiling when
    ceiling <= 0), and from the top down any value at or above its bound, the
    ceiling or the value placed above it, becomes the next float below that bound.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if scores.size == 0 or scores.max() < ceiling:
        return scores
    values, inverse = np.unique(scores, return_inverse=True)
    top = values[-1]
    placed = (values - (top - ceiling) if ceiling <= 0 else values * (ceiling / top)).tolist()
    bound = ceiling
    for i in reversed(range(len(placed))):
        if placed[i] >= bound:
            placed[i] = math.nextafter(bound, -math.inf)
        bound = placed[i]
    return np.asarray(placed)[inverse]


def retrieve_from_vectors(
    source: Table,
    target: Table,
    source_vectors: np.ndarray,
    target_vectors: np.ndarray,
    k: int = DEFAULT_K,
) -> MatchList:
    """Top-k candidates per source column from precomputed unit vectors."""
    if k < 1:
        raise ValueError("k must be >= 1")
    sim = np.asarray(source_vectors) @ np.asarray(target_vectors).T
    target_names = target.column_names()
    best = top_k(sim, name_ranks(target_names), k)
    scores = np.take_along_axis(sim, best, axis=1).tolist()
    per_source = {}
    for col, row, row_scores in zip(source.columns, best.tolist(), scores):
        per_source[col.name] = [
            MatchCandidate(col.name, target_names[j], score, rank)
            for rank, (j, score) in enumerate(zip(row, row_scores), start=1)
        ]
    return MatchList(source.name, target.name, per_source, k)


def retrieve(
    source: Table,
    target: Table,
    k: int = DEFAULT_K,
    sampling: Optional[SamplerConfig] = None,
    serialization: Optional[SerializationConfig] = None,
    provider=None,
) -> MatchList:
    """Embed both tables and rank candidate targets for every source column."""
    if not source.columns or not target.columns:
        raise ValueError("both tables must have at least one column")
    provider = provider if provider is not None else get_provider(EmbeddingProviderConfig())
    vectors = [embed_table(t, sampling, serialization, provider) for t in (source, target)]
    return retrieve_from_vectors(source, target, *vectors, k)


def exact_name_override(matches: MatchList, source: Table, target: Table) -> MatchList:
    """Pin name-equal pairs (case/punctuation-insensitive) to score 1.0, rank 1.

    Pinned pairs are inserted when retrieval missed them, which may extend a
    list beyond k.  Multiple pinned targets order lexicographically; all
    other candidates keep their relative order.
    """
    norm_targets = {}
    for tcol in target.columns:
        norm_targets.setdefault(normalize_name(tcol.name), []).append(tcol.name)

    per_source = {}
    for scol in source.columns:
        ranked = matches.per_source.get(scol.name, [])
        pinned_names = sorted(norm_targets.get(normalize_name(scol.name), []))
        if not pinned_names:
            per_source[scol.name] = list(ranked)
            continue
        pinned_set = set(pinned_names)
        rebuilt = [
            MatchCandidate(scol.name, tname, 1.0, rank)
            for rank, tname in enumerate(pinned_names, start=1)
        ]
        for cand in ranked:
            if cand.target in pinned_set:
                continue
            rebuilt.append(
                MatchCandidate(cand.source, cand.target, cand.score, len(rebuilt) + 1)
            )
        per_source[scol.name] = rebuilt
    return MatchList(matches.source_table, matches.target_table, per_source, matches.k)


def match_list_as_dict(matches: MatchList) -> dict:
    return {
        "source_table": matches.source_table,
        "target_table": matches.target_table,
        "matches": [
            {
                "source": cand.source,
                "target": cand.target,
                "score": cand.score,
                "rank": cand.rank,
            }
            for cand in matches.flat()
        ],
    }


def _json_float(x: float) -> str:
    return float.__repr__(x) if math.isfinite(x) else json.dumps(x)


def write_match_json(matches: MatchList, path) -> None:
    """Write match_list_as_dict() as json.dump(ensure_ascii=False, indent=2) would, plus a newline.

    Formatted directly: the indenting encoder is pure Python and dominates
    the write on wide tables.
    """
    enc = encode_basestring
    entries = ",\n".join(
        f'    {{\n      "source": {enc(c.source)},\n      "target": {enc(c.target)},\n'
        f'      "score": {_json_float(c.score)},\n      "rank": {c.rank}\n    }}'
        for c in matches.flat()
    )
    listing = f"[\n{entries}\n  ]" if entries else "[]"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(
            f'{{\n  "source_table": {enc(matches.source_table)},\n'
            f'  "target_table": {enc(matches.target_table)},\n'
            f'  "matches": {listing}\n}}\n'
        )


def write_match_csv(matches: MatchList, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["source", "target", "score", "rank"])
        for cand in matches.flat():
            writer.writerow([cand.source, cand.target, repr(cand.score), cand.rank])
