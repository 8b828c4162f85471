"""Candidate retrieval: the pipeline's first phase, from a table to ranked candidates.

Samples each column's values, serializes them with its name and type, and
embeds the texts with the base provider: a TableProfile per table.  Then
builds the full source x target cosine matrix from those vectors, emits the
top-k candidates per source column (ties broken by target name), and
applies the exact-name override that pins trivially-matching names to a
perfect score of 1.0.

The candidate lists stay arrays from top_k on: a MatchList holds flat
target-index, score and rank arrays cut into one list per source column.
The pins, both rerankers, the writers and the metrics read and build those
arrays; MatchCandidate objects are built only when `per_source` is read.
"""

from __future__ import annotations

import functools
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

# score cells that top_k ranks per block of rows: its negated copy, partition,
# masks and sort stay this size, so the full matrix is read but never copied
TOP_K_CELLS = 1 << 17

_NAME_JUNK_RE = re.compile(r"[^a-z0-9]")
_CSV_QUOTED_RE = re.compile('[,"\r\n]')
# json.dumps spells the non-finite floats apart from repr()
_JSON_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


@dataclass(frozen=True)
class MatchCandidate:
    source: str
    target: str
    score: float
    rank: int


class MatchList:
    """Ranked candidates per source column, in source-table column order.

    The list of sources[i] is entries offsets[i]:offsets[i + 1] of the flat
    arrays `target` (indices into `targets`, distinct names), `score` and
    `rank`, left unchanged once built.  MatchList(source_table,
    target_table, per_source, k) takes hand-built {source: [MatchCandidate]}
    lists with any ranks; MatchList.of takes arrays.  `per_source` builds
    MatchCandidates on its first read, for `candidates()` and `flat()` too;
    no pipeline stage reads it.
    """

    def __init__(self, source_table: str, target_table: str, per_source: dict, k: int) -> None:
        flat = [c for cands in per_source.values() for c in cands]
        index = {}
        target = [index.setdefault(c.target, len(index)) for c in flat]
        lengths = [len(cands) for cands in per_source.values()]
        arrays = (lengths, target, [c.score for c in flat], [c.rank for c in flat])
        vars(self).update(vars(MatchList.of(source_table, target_table, k, per_source, index, *arrays)))

    @classmethod
    def of(cls, source_table, target_table, k, sources, targets, lengths, target, score, rank=None):
        """The lists of `sources`, `lengths` entries each, ranked 1..n unless `rank` is given."""
        matches = cls.__new__(cls)
        matches.source_table, matches.target_table, matches.k = source_table, target_table, k
        matches.sources, matches.targets = tuple(sources), tuple(targets)
        matches.offsets = np.concatenate(([0], np.cumsum(lengths, dtype=np.intp)))
        matches.target, matches.score = np.asarray(target, np.intp), np.asarray(score, np.float64)
        if rank is None:
            rank = np.arange(1, len(matches.target) + 1) - matches.offsets[matches.rows()]
        matches.rank = np.asarray(rank, np.int64)
        return matches

    def reranked(self, lengths, target, score) -> MatchList:
        """These tables, sources, targets and k, with new lists ranked 1..n."""
        frame = (self.source_table, self.target_table, self.k, self.sources, self.targets)
        return MatchList.of(*frame, lengths, target, score)

    def rows(self) -> np.ndarray:
        """The index in `sources` of each entry's list."""
        return np.repeat(np.arange(len(self.sources)), np.diff(self.offsets))

    def entries(self, scores) -> zip:
        """(list index, target index, score, rank) of each entry, the score taken from `scores`."""
        return zip(self.rows().tolist(), self.target.tolist(), scores, self.rank.tolist())

    @functools.cached_property
    def score_texts(self) -> list:
        """repr() of each score: the costliest step of each writer, so they share it."""
        return list(map(float.__repr__, self.score))  # one float at a time, never a list of all

    @functools.cached_property
    def per_source(self) -> dict:
        lists = {source: [] for source in self.sources}
        for i, t, score, rank in self.entries(self.score.tolist()):
            lists[self.sources[i]].append(MatchCandidate(self.sources[i], self.targets[t], score, rank))
        return lists

    def candidates(self, source: str) -> list:
        return self.per_source[source]

    def flat(self) -> list:
        return [cand for ranked in self.per_source.values() for cand in ranked]

    def __eq__(self, other) -> bool:
        key = lambda m: (m.source_table, m.target_table, m.per_source, m.k)
        return isinstance(other, MatchList) and key(self) == key(other)


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
        distinct.update(col.distinct)
        if len(distinct) >= HASH_BATCH or i == len(table.columns):
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
    number.  Per block of rows (TOP_K_CELLS cells at most, one row at
    least), a partition finds each row's k-th score, every entry at or
    above it survives (so ties at the cut stay in), and one lexsort over the
    survivors orders them.  Every step is per row, so the blocks change no
    result.
    """
    scores = np.asarray(scores, dtype=np.float64)
    n, m = scores.shape
    k = min(k, m)
    best = np.empty((n, k), dtype=np.intp)
    if n == 0 or k == 0:
        return best
    height = max(1, TOP_K_CELLS // m)
    for start in range(0, n, height):
        neg = -scores[start : start + height]
        kth = np.partition(neg, k - 1, axis=1)[:, [k - 1]]
        # a NaN k-th score means the row holds fewer than k numbers: keep all of it
        rows, cols = np.nonzero((neg <= kth) | np.isnan(kth))
        order = np.lexsort((name_rank[cols], neg[rows, cols], rows))
        starts = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=len(neg)))[:-1]))
        best[start : start + height] = cols[order][starts[:, None] + np.arange(k)]
    return best


def rank_rows(tables, scores, source_names: Sequence[str], target_names: Sequence[str], k: int) -> MatchList:
    """The MatchList of each source's min(k, m) best targets in its row of an (n, m) score matrix.

    `tables` names the (source, target) tables; rows follow source_names
    and columns target_names, which are distinct.  Ties break by target
    name (see top_k).
    """
    best = top_k(scores, name_ranks(target_names), k)
    n, width = best.shape
    best_scores = np.take_along_axis(np.asarray(scores), best, axis=1)
    return MatchList.of(*tables, k, source_names, target_names, [width] * n, best.ravel(), best_scores.ravel())


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
    return rank_rows((source.name, target.name), sim, source.column_names(), target.column_names(), k)


def exact_name_override(matches: MatchList, source: Table, target: Table) -> MatchList:
    """Pin name-equal pairs (case/punctuation-insensitive) to score 1.0, rank 1.

    Pinned pairs are inserted when retrieval missed them, which may extend a
    list beyond k.  Multiple pinned targets order lexicographically; all
    other candidates keep their relative order.
    """
    norm_targets = {}
    for tcol in target.columns:
        norm_targets.setdefault(normalize_name(tcol.name), []).append(tcol.name)
    index = {t: j for j, t in enumerate(matches.targets)}
    sources = source.column_names()
    pins = [
        (i, index.setdefault(t, len(index)))
        for i, name in enumerate(sources)
        for t in sorted(norm_targets.get(normalize_name(name), []))
    ]
    pin_rows, pin_targets = np.array(pins, dtype=np.intp).reshape(-1, 2).T

    # each entry's row in the source table's order (-1: its source is not there)
    position = {name: i for i, name in enumerate(sources)}
    row = np.array([position.get(s, -1) for s in matches.sources], dtype=np.intp)[matches.rows()]
    pinned = np.zeros(len(sources) * len(index), dtype=bool)
    pinned[pin_rows * len(index) + pin_targets] = True
    keep = row >= 0
    keep[keep] = ~pinned[row[keep] * len(index) + matches.target[keep]]
    # pins lead the stable sort, so each row holds its pins, then its kept entries in order
    row = np.concatenate((pin_rows, row[keep]))
    order = np.argsort(row, kind="stable")
    target = np.concatenate((pin_targets, matches.target[keep]))[order]
    score = np.concatenate((np.ones(len(pin_rows)), matches.score[keep]))[order]
    lengths = np.bincount(row, minlength=len(sources))
    return MatchList.of(matches.source_table, matches.target_table, matches.k, sources, index, lengths, target, score)


def write_match_json(matches: MatchList, path) -> None:
    """Write the matches as json.dump(ensure_ascii=False, indent=2) would, plus a newline.

    The object holds "source_table", "target_table" and "matches": one
    {"source", "target", "score", "rank"} object per candidate, in the
    order of `matches.entries`.

    Formatted directly, each name escaped once: the indenting encoder is
    pure Python and dominates the write on wide tables.  Written one entry
    at a time, from one source's arrays at a time, so neither the document
    nor a Python copy of every entry is held whole.
    """
    enc = encode_basestring
    targets, scores = [enc(t) for t in matches.targets], matches.score_texts
    offsets = matches.offsets.tolist()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(
            f'{{\n  "source_table": {enc(matches.source_table)},\n'
            f'  "target_table": {enc(matches.target_table)},\n'
            f'  "matches": ['
        )
        separator = "\n"  # before the first entry; ",\n" before each later one
        for source, lo, hi in zip(matches.sources, offsets, offsets[1:]):
            head = f'    {{\n      "source": {enc(source)},\n      "target": '
            ranked = zip(matches.target[lo:hi].tolist(), scores[lo:hi], matches.rank[lo:hi].tolist())
            for t, score, rank in ranked:
                score = _JSON_NON_FINITE.get(score, score)
                fh.write(f'{separator}{head}{targets[t]},\n      "score": {score},\n      "rank": {rank}\n    }}')
                separator = ",\n"
        fh.write("]\n}\n" if separator == "\n" else "\n  ]\n}\n")


def _csv_field(name: str) -> str:
    """`name` as csv.writer's default dialect writes it: quoted, inner quotes doubled, if it holds , " CR or LF."""
    return '"' + name.replace('"', '""') + '"' if _CSV_QUOTED_RE.search(name) else name


def write_match_csv(matches: MatchList, path) -> None:
    """Write a source,target,score,rank header and one row per candidate, as csv.writer would."""
    sources, targets = [_csv_field(s) for s in matches.sources], [_csv_field(t) for t in matches.targets]
    rows = "".join(
        f"{sources[i]},{targets[t]},{score},{rank}\r\n" for i, t, score, rank in matches.entries(matches.score_texts)
    )
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("source,target,score,rank\r\n" + rows)
