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

    def reranked(self, lists) -> MatchList:
        """These tables and k, with a list built by `ranked` for each (source, entries) pair in `lists`."""
        per_source = {source: ranked(source, entries) for source, entries in lists}
        return MatchList(self.source_table, self.target_table, per_source, self.k)


def ranked(source: str, entries) -> list:
    """`source`'s candidates from (target, score) entries, ranked 1..n in entry order."""
    return [
        MatchCandidate(source, target, score, rank)
        for rank, (target, score) in enumerate(entries, start=1)
    ]


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


def rank_rows(scores, source_names: Sequence[str], target_names: Sequence[str], k: int) -> dict:
    """Each source's ranked list of its min(k, m) best targets in its row of an (n, m) score matrix.

    Rows follow source_names and columns target_names; ties break by target name (see top_k).
    """
    best = top_k(scores, name_ranks(target_names), k)
    best_scores = np.take_along_axis(scores, best, axis=1).tolist()
    return {
        source: ranked(source, zip(map(target_names.__getitem__, row), row_scores))
        for source, row, row_scores in zip(source_names, best.tolist(), best_scores)
    }


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
    per_source = rank_rows(sim, source.column_names(), target.column_names(), k)
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
        candidates = matches.per_source.get(scol.name, [])
        pinned = sorted(norm_targets.get(normalize_name(scol.name), []))
        if pinned:
            entries = [(name, 1.0) for name in pinned]
            entries += [(c.target, c.score) for c in candidates if c.target not in pinned]
            candidates = ranked(scol.name, entries)
        per_source[scol.name] = candidates
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
