"""Brute-force reference implementations used to check the real ones."""

from __future__ import annotations

import math
from functools import lru_cache


def best_partial_assignment(weights):
    """Exhaustive max-weight one-to-one matching over present entries.

    `weights` is a nested list; None or NaN marks a missing pair.  Rows and
    columns may stay unmatched.  Returns (edges, canonical_total) where
    edges are (row, col, weight) sorted by (row, col) and the total is a
    math.fsum over the sorted edge weights.
    """
    n = len(weights)
    m = len(weights[0]) if n else 0

    def present(i, j):
        w = weights[i][j]
        return w is not None and not (isinstance(w, float) and math.isnan(w))

    @lru_cache(maxsize=None)
    def go(i, used_mask):
        if i == n:
            return 0.0, ()
        best_total, best_edges = go(i + 1, used_mask)  # leave row i unmatched
        for j in range(m):
            if not present(i, j) or used_mask & (1 << j):
                continue
            sub_total, sub_edges = go(i + 1, used_mask | (1 << j))
            total = weights[i][j] + sub_total
            if total > best_total:
                best_total = total
                best_edges = ((i, j, weights[i][j]),) + sub_edges
        return best_total, best_edges

    _, edges = go(0, 0)
    go.cache_clear()
    edges = tuple(sorted(edges))
    return edges, math.fsum(w for _, _, w in edges)


def top_k_longhand(scores, names, k):
    """Per row, the indices of the k best entries by a Python sort.

    Higher score first; NaN after every number; equal scores (0.0 and -0.0
    included) by name.
    """
    return [
        sorted(
            range(len(row)),
            key=lambda j: (math.isnan(row[j]), 0.0 if math.isnan(row[j]) else -row[j], names[j]),
        )[:k]
        for row in scores
    ]


def canonical_total(edges):
    """fsum over edge weights in (row, col) order; pairs with the oracle."""
    return math.fsum(w for _, _, w in sorted(edges))


def mrr_brute_force(ground_truth_pairs, per_source_ranking):
    """Mean reciprocal rank, written out longhand.

    ground_truth_pairs: set of (source, target).  per_source_ranking: dict
    source -> ordered target list.  Sources without any ground-truth pair
    are skipped; a source whose correct targets never appear contributes 0.
    """
    sources = sorted({src for src, _ in ground_truth_pairs})
    if not sources:
        return 0.0
    total = 0.0
    for src in sources:
        wanted = {dst for s, dst in ground_truth_pairs if s == src}
        ranking = per_source_ranking.get(src, [])
        for position, target in enumerate(ranking, start=1):
            if target in wanted:
                total += 1.0 / position
                break
    return total / len(sources)


def recall_at_gt_brute_force(ground_truth_pairs, scored_pairs):
    """Recall against the |GT| best-scored pairs, written out longhand.

    scored_pairs: list of (source, target, score).  The global list is
    sorted by score descending with (source, target) name ties ascending,
    cut at |GT|, and intersected with the ground truth.
    """
    if not ground_truth_pairs:
        raise ValueError("ground truth must be non-empty")
    k = len(ground_truth_pairs)
    ranked = sorted(scored_pairs, key=lambda p: (-p[2], p[0], p[1]))
    top = {(src, dst) for src, dst, _ in ranked[:k]}
    return len(top & set(ground_truth_pairs)) / k


def triplet_loss_brute_force(embeddings, labels, margin):
    """Batch-hard triplet loss computed with explicit python loops.

    For each anchor: scan every same-class row for the largest cosine
    distance and every other-class row for the smallest, then apply the
    hinge.  Ties resolve to the smallest row index.
    """
    n = len(labels)

    def distance(i, j):
        return 1.0 - sum(x * y for x, y in zip(embeddings[i], embeddings[j]))

    total = 0.0
    pairs = []
    for a in range(n):
        best_p, best_p_d = None, None
        best_n, best_n_d = None, None
        for j in range(n):
            if j == a:
                continue
            d = distance(a, j)
            if labels[j] == labels[a]:
                if best_p is None or d > best_p_d:
                    best_p, best_p_d = j, d
            else:
                if best_n is None or d < best_n_d:
                    best_n, best_n_d = j, d
        total += max(0.0, margin + best_p_d - best_n_d)
        pairs.append((best_p, best_n))
    return total, pairs


def finite_difference_gradient(loss_fn, matrix, step=1e-5):
    """Central-difference gradient of loss_fn at matrix, entry by entry."""
    import numpy as np

    matrix = np.asarray(matrix, dtype=np.float64)
    grad = np.zeros_like(matrix)
    for i in range(matrix.shape[0]):
        for j in range(matrix.shape[1]):
            bumped = matrix.copy()
            bumped[i, j] += step
            hi = loss_fn(bumped)
            bumped[i, j] -= 2.0 * step
            lo = loss_fn(bumped)
            grad[i, j] = (hi - lo) / (2.0 * step)
    return grad


# -- the triplet kernel, one anchor at a time --------------------------------
# These restate finetune._hardest_pairs and finetune.loss_gradient as they
# were before both became array expressions: one argmax/argmin per anchor,
# one hinge test and three row updates per anchor, one outer product per row.


def hardest_pairs_longhand(distances, labels):
    """Per anchor, (hardest positive, hardest negative); ties to the smallest index."""
    import numpy as np

    labels = np.asarray(labels)
    pairs = []
    for a in range(len(labels)):
        same = (labels == labels[a]) & (np.arange(len(labels)) != a)
        diff = labels != labels[a]
        pos_idx = np.flatnonzero(same)
        neg_idx = np.flatnonzero(diff)
        p = int(pos_idx[np.argmax(distances[a, pos_idx])])
        n = int(neg_idx[np.argmin(distances[a, neg_idx])])
        pairs.append((p, n))
    return pairs


def loss_gradient_longhand(vectors, labels, margin, matrix):
    """d(batch-hard loss)/dW at `matrix` for pre-projection rows `vectors`.

    Each row is projected and re-normalised one at a time (a zero projection
    keeps the input row and is constant in W); the hardest pairs are held
    fixed and an inactive hinge contributes nothing.
    """
    import numpy as np

    matrix = np.asarray(matrix, dtype=np.float64)
    vectors = np.asarray(vectors, dtype=np.float64)
    raw = np.array([matrix @ v for v in vectors]).reshape(vectors.shape)
    norms = np.array([np.linalg.norm(z) for z in raw])
    unit = raw.copy()
    for i in range(len(vectors)):
        unit[i] = vectors[i] if norms[i] == 0.0 else raw[i] / norms[i]
    distances = 1.0 - unit @ unit.T
    hardest = hardest_pairs_longhand(distances, labels)

    grad_unit = np.zeros_like(unit)
    for a, (p, n) in enumerate(hardest):
        term = margin + distances[a, p] - distances[a, n]
        if term <= 0.0:
            continue
        # term = margin - u_a.u_p + u_a.u_n
        grad_unit[a] += unit[n] - unit[p]
        grad_unit[p] -= unit[a]
        grad_unit[n] += unit[a]

    grad = np.zeros_like(matrix)
    for i in range(len(vectors)):
        if norms[i] == 0.0:
            continue
        g = grad_unit[i]
        tangent = (g - unit[i] * float(unit[i] @ g)) / norms[i]
        grad += np.outer(tangent, vectors[i])
    return grad


def project_longhand(matrix, rows):
    """Per row v: W.v / |W.v| in plain Python sums, or v itself when W.v is zero."""
    out = []
    for v in rows:
        z = [math.fsum(w * x for w, x in zip(w_row, v)) for w_row in matrix]
        norm = math.sqrt(math.fsum(c * c for c in z))
        out.append([float(x) for x in v] if norm == 0.0 else [c / norm for c in z])
    return out


# -- sampling and table loading, per cell ------------------------------------
# These restate how sampling and loading behaved before both were rewritten
# to work once per distinct value: a missingness test per cell, one FNV-1a
# over seed bytes + value bytes per hash, and sorts keyed by UTF-8 bytes.

_NA_SPELLINGS = {"", "na", "n/a", "null", "none"}


def cell_missing_longhand(cell):
    return cell is None or cell.strip().lower() in _NA_SPELLINGS


def fnv1a64_longhand(data):
    h = 0xCBF29CE484222325
    for byte in data:
        h = ((h ^ byte) * 0x100000001B3) % (1 << 64)
    return h


def hash_embed_longhand(text, dimension):
    """Signed trigram feature hashing, one trigram at a time, as hash_embed did per text."""
    import numpy as np

    t = text.lower()
    if len(t) < 3:
        t = "\x01" + t + "\x02"
    acc = np.zeros(dimension, dtype=np.float64)
    for i in range(len(t) - 2):
        raw = t[i : i + 3].encode("utf-8")
        bucket = fnv1a64_longhand(raw) % dimension
        acc[bucket] += 1.0 if fnv1a64_longhand(b"\xa5" + raw) % 2 == 0 else -1.0
    norm = float(np.linalg.norm(acc))
    if norm == 0.0:
        acc[0] = 1.0
        return acc
    return acc / norm


def hash_counts_longhand(text, dimension):
    """Unsigned trigram feature hashing, one trigram at a time: the hash provider's vector."""
    import numpy as np

    t = text.lower()
    if len(t) < 3:
        t = "\x01" + t + "\x02"
    acc = np.zeros(dimension, dtype=np.float64)
    for i in range(len(t) - 2):
        acc[fnv1a64_longhand(t[i : i + 3].encode("utf-8")) % dimension] += 1.0
    norm = float(np.linalg.norm(acc))
    if norm == 0.0:
        acc[0] = 1.0
        return acc
    return acc / norm


def hash_embed_all_per_text(texts, dimension):
    """The batch hash embedder as it sliced each text's trigrams in a Python loop.

    Every distinct trigram gets an id at its first sighting and is hashed
    once by fnv1a64_many; np.bincount accumulates the signs and each row is
    normalized on its own.
    """
    from collections import defaultdict

    import numpy as np

    from colmatch.embedding import normalized
    from colmatch.sampling import fnv1a64, fnv1a64_many

    _SIGN_STATE = fnv1a64(b"\xa5")

    ids = defaultdict()
    ids.default_factory = ids.__len__  # a trigram's id is its first-seen position
    grams, counts = [], []
    for text in texts:
        t = text.lower()
        if len(t) < 3:
            t = "\x01" + t + "\x02"
        n = len(t) - 2
        grams.extend(map(ids.__getitem__, [t[i : i + 3] for i in range(n)]))
        counts.append(n)
    raw = [gram.encode("utf-8") for gram in ids]
    buckets = (fnv1a64_many(raw) % np.uint64(dimension)).astype(np.intp)
    signs = 1.0 - 2.0 * (fnv1a64_many(raw, _SIGN_STATE) & np.uint64(1)).astype(np.float64)
    grams = np.array(grams, dtype=np.intp)
    rows = np.repeat(np.arange(len(counts), dtype=np.intp), counts)
    acc = np.bincount(
        rows * dimension + buckets[grams], weights=signs[grams], minlength=len(counts) * dimension
    )
    return [normalized(row) for row in acc.reshape(len(counts), dimension)]


def hash_unit_longhand(seed, value):
    data = (seed % (1 << 64)).to_bytes(8, "little") + value.encode("utf-8")
    return ((fnv1a64_longhand(data) % (1 << 53)) + 1) / (1 << 53)


def sample_values_longhand(cells, strategy, sample_size, seed, unit=hash_unit_longhand):
    """Sampling over a list of cells, one missingness test per cell; `unit` is the hash."""
    import random

    freq = {}
    for cell in cells:
        if not cell_missing_longhand(cell):
            freq[cell] = freq.get(cell, 0) + 1
    values = sorted(freq, key=lambda v: v.encode("utf-8"))
    if strategy in ("priority", "coordinated", "frequency"):
        ranks = {}
        for v in values:
            if strategy == "priority":
                ranks[v] = freq[v] / unit(seed, v)
            elif strategy == "coordinated":
                ranks[v] = 1.0 / unit(seed, v)
            else:
                ranks[v] = float(freq[v])
        ranked = sorted(values, key=lambda v: (-ranks[v], v.encode("utf-8")))
        return ranked[:sample_size]
    rng = random.Random(seed)
    pool = list(values)
    picked = []
    while pool and len(picked) < sample_size:
        if strategy == "weighted":
            r = rng.random() * sum(freq[v] for v in pool)
            acc = 0.0
            idx = len(pool) - 1
            for i, v in enumerate(pool):
                acc += freq[v]
                if r < acc:
                    idx = i
                    break
        else:
            idx = rng.randrange(len(pool))
        picked.append(pool.pop(idx))
    return picked


def infer_type_longhand(cells):
    """Type label from a per-cell scan: unknown, key, binary, numerical, date, categorical."""
    import re
    from datetime import date

    number = re.compile(r"[+-]?(\d+(\.\d*)?|\.\d+)([eE][+-]?\d+)?$")
    stamp = re.compile(
        r"(\d{4}-\d{2}-\d{2})([T ]\d{2}:\d{2}(:\d{2}(\.\d+)?)?(Z|[+-]\d{2}:?\d{2})?)?$"
    )

    def is_date(cell):
        m = stamp.fullmatch(cell.strip())
        if m is None:
            return False
        try:
            date.fromisoformat(m.group(1))
        except ValueError:
            return False
        return True

    present = [c for c in cells if not cell_missing_longhand(c)]
    if not present:
        return "unknown"
    distinct = set(present)
    if len(distinct) / len(present) > 0.90:
        return "key"
    if len(distinct) == 2:
        return "binary"
    if sum(1 for c in present if number.fullmatch(c.strip())) / len(present) >= 0.95:
        return "numerical"
    if sum(1 for c in present if is_date(c)) / len(present) >= 0.95:
        return "date"
    return "categorical"


def load_table_longhand(path):
    """[(name, cells, type label)] of a CSV, cell by cell; ValueError on a too-wide row."""
    import csv

    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    header = rows[0]
    columns = [[] for _ in header]
    for lineno, row in enumerate(rows[1:], start=2):
        if len(row) > len(header):
            raise ValueError(
                f"{path}: row {lineno} has {len(row)} cells, header has {len(header)}"
            )
        for i in range(len(header)):
            cell = row[i] if i < len(row) else ""
            columns[i].append(None if cell_missing_longhand(cell) else cell)
    return [
        (name, tuple(cells), infer_type_longhand(cells)) for name, cells in zip(header, columns)
    ]


def run_one_longhand(cell, pair, seed, grid):
    """One ablation run as the grid once made it: fresh loads, a fresh evaluate, no profiles."""
    from colmatch.embedding import EmbeddingProviderConfig
    from colmatch.metrics import evaluate
    from colmatch.pipeline import PipelineConfig
    from colmatch.sampling import SamplerConfig
    from colmatch.serialization import SerializationConfig
    from colmatch.tables import load_ground_truth, load_table

    source = load_table(pair[0])
    target = load_table(pair[1])
    gt = load_ground_truth(pair[2])
    config = PipelineConfig(
        sampling=SamplerConfig(strategy=cell["sampling"], sample_size=grid.sample_size, seed=seed),
        serialization=SerializationConfig(format=cell["serialization"]),
        provider=EmbeddingProviderConfig(dimension=grid.dimension),
        reranker=cell["reranker"],
        projection_path=cell["projection"],
        llm=grid.llm,
        seed=seed,
    )
    report = evaluate(source, target, gt, config)
    return {
        "mrr": report.mrr,
        "recall_at_gt": report.recall_at_gt,
        "runtime_seconds": report.runtime_seconds,
    }


def match_list_as_dict(matches):
    """The object write_match_json writes, built from one MatchCandidate per entry for json.dump."""
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
