"""Candidate retrieval: the pipeline's first phase, from a table to ranked candidates.

Samples each column's values, serializes them with its name and type, and
embeds the texts with the base provider: a TableProfile per table.  Then
builds the full source x target cosine matrix from those vectors, emits the
top-k candidates per source column (ties broken by target name), and
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
from typing import Sequence

import numpy as np

from .sampling import HASHED_STRATEGIES, SamplerConfig, hash_units, sample_values
from .serialization import SerializationConfig, serialize
from .tables import Table

DEFAULT_K = 20

# distinct values hashed per batch: large enough to amortise the kernel's
# per-byte steps, small enough to keep the batch's arrays out of peak memory
HASH_BATCH = 2048

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


def column_samples(table: Table, sampling: SamplerConfig) -> dict:
    """sample_values for each column, in column order.

    Strategies that rank by hash get their units from hash_units, over the
    distinct values of consecutive columns until a batch holds HASH_BATCH.
    """
    if sampling.strategy not in HASHED_STRATEGIES:
        return {col.name: sample_values(col, sampling) for col in table.columns}
    samples = {}
    pending, distinct = [], set()
    for i, col in enumerate(table.columns, start=1):
        pending.append(col)
        distinct.update(col.values)
        if len(distinct) >= HASH_BATCH or i == len(table.columns):
            distinct.discard(None)
            units = hash_units(sampling.seed, distinct)
            for held in pending:
                samples[held.name] = sample_values(held, sampling, units=units)
            pending, distinct = [], set()
    return samples


@dataclass(frozen=True, eq=False)
class TableProfile:
    """One table's sampled values and its base-provider vectors, before any head.

    They depend only on the sampling, serialization and provider settings,
    so runs that differ in reranker or projection head can share one profile.
    """

    samples: dict  # column name -> sampled values
    vectors: np.ndarray  # (n_columns, D), in column order


def profile_table(
    table: Table, sampling: SamplerConfig, serialization: SerializationConfig, provider, samples=None
) -> TableProfile:
    """Sample the table (unless `samples` holds its draw under `sampling`) and embed it.

    Each column is serialized with its name, type and samples; `provider`
    embeds the texts into one row per column.
    """
    if samples is None:
        samples = column_samples(table, sampling)
    texts = [
        serialize(col.name, col.inferred_type, samples[col.name], serialization)
        for col in table.columns
    ]
    vectors = np.vstack([np.asarray(v, dtype=np.float64) for v in provider.embed(texts)])
    return TableProfile(samples, vectors)


def embed_table(table: Table, sampling: SamplerConfig, serialization: SerializationConfig, provider):
    """profile_table's vectors alone."""
    return profile_table(table, sampling, serialization, provider).vectors


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
