"""Self-supervised projection head trained with a batch-hard triplet loss.

The base embedding provider stays frozen; we learn a square matrix W and
re-normalize W.v.  Batches hold P classes with K members each.  Per anchor
the hardest positive (max distance) and hardest negative (min distance)
form one hinge term; the gradient is analytic, treating the hardest-pair
selection as constant.  Model selection keeps the W with the best
validation score, where validation is a small matching task over held-out
classes (identity W from epoch 0 is always a candidate, so training can
never make the returned head worse than no head).
"""

from __future__ import annotations

import json
import logging
import math
import random
from collections import Counter
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .linestore import replace_atomically
from .metrics import mrr, recall_at_gt
from .retrieval import rank_rows
from .sampling import child_rng, draw
from .serialization import SerializationConfig, serialize
from .tables import Column, GroundTruth

log = logging.getLogger(__name__)

MARGIN = 0.5
LEARNING_RATE = 0.05
BATCH_P = 4  # classes per batch
BATCH_K = 3  # members drawn per class
VAL_FRACTION = 0.2  # share of classes held out for validation
SCORE_TOLERANCE = 1e-9
PATIENCE = 5  # epochs without a validation change before training stops
MIN_CLASSES = 4


def _project_rows(matrix: np.ndarray, vectors: np.ndarray):
    """Each row v as W.v / |W.v|, or v itself where W.v is zero; returns (unit rows, |W.v|).

    The one projection kernel.  Stacked matmuls take one matrix-vector product
    and one dot per row, so a row's bits do not depend on the other rows (with
    one `vectors @ matrix.T` they can).
    """
    raw = np.matmul(matrix, vectors[:, :, None])[:, :, 0]
    norms = np.sqrt(np.matmul(raw[:, None, :], raw[:, :, None])[:, 0, 0])
    unit = np.empty_like(raw)
    zero = norms == 0.0
    unit[zero] = vectors[zero]
    nz = ~zero
    unit[nz] = raw[nz] / norms[nz, None]
    return unit, norms


@dataclass
class ProjectionHead:
    """Square projection applied on top of a frozen embedding provider."""

    matrix: np.ndarray
    seed: int = 0
    score: float = 0.0

    def __post_init__(self) -> None:
        self.matrix = np.asarray(self.matrix, dtype=np.float64)
        if self.matrix.ndim != 2 or self.matrix.shape[0] != self.matrix.shape[1]:
            raise ValueError("projection matrix must be square")
        if not np.isfinite(self.matrix).all():
            raise ValueError("weights must be finite")
        if not math.isfinite(self.score):
            raise ValueError(f"score must be a finite number, got {self.score!r}")

    @property
    def dimension(self) -> int:
        return self.matrix.shape[0]

    def check_width(self, width: int) -> None:
        if self.dimension != width:
            raise ValueError(
                f"head dimension {self.dimension} does not match provider dimension {width}"
            )

    def apply_all(self, vectors) -> np.ndarray:
        """Project the rows of `vectors` (n, D) into an (n, D) array, once their width is checked."""
        vectors = np.asarray(vectors, dtype=np.float64)
        if vectors.size:
            self.check_width(vectors.shape[-1])
        return _project_rows(self.matrix, vectors.reshape(-1, self.dimension))[0]


class ProjectedProvider:
    """Embedding provider that runs a head on top of a base provider.

    A remote provider may learn its dimension from its first response; the
    head is then checked against the width of the first vectors returned.
    """

    def __init__(self, base, head: ProjectionHead):
        if base.dimension is not None:
            head.check_width(base.dimension)
        self.base = base
        self.head = head

    def embed(self, texts: Sequence[str]) -> np.ndarray:
        return self.head.apply_all(self.base.embed(texts))


@dataclass(eq=False)
class TripletBatch:
    """P*K unit vectors with integer class labels, K per class."""

    embeddings: np.ndarray
    labels: tuple

    def __post_init__(self) -> None:
        self.embeddings = np.asarray(self.embeddings, dtype=np.float64)
        self.labels = tuple(int(l) for l in self.labels)
        if self.embeddings.ndim != 2:
            raise ValueError("embeddings must be a 2-D array")
        if len(self.labels) != self.embeddings.shape[0]:
            raise ValueError("one label per embedding row required")
        counts = Counter(self.labels)
        if len(counts) < 2:
            raise ValueError("a batch needs at least 2 classes")
        sizes = set(counts.values())
        if len(sizes) != 1 or min(sizes) < 2:
            raise ValueError("every class in a batch needs the same K >= 2 members")


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 30
    seed: int = 0

    def __post_init__(self) -> None:
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")


def _distance_matrix(embeddings: np.ndarray) -> np.ndarray:
    return 1.0 - embeddings @ embeddings.T


def _hardest_pairs(distances: np.ndarray, labels: Sequence[int]) -> list:
    labels = np.asarray(labels)
    same = labels[:, None] == labels[None, :]
    # argmax/argmin take the first occurrence, so ties resolve to the
    # smallest index deterministically
    positives = np.where(same & ~np.eye(len(labels), dtype=bool), distances, -np.inf).argmax(1)
    negatives = np.where(same, np.inf, distances).argmin(1)
    return list(zip(positives.tolist(), negatives.tolist()))


def _hinge_terms(distances: np.ndarray, labels: Sequence[int], margin: float):
    """(hardest positives, hardest negatives, margin + d(a, p) - d(a, n)) per anchor a, as arrays."""
    positives, negatives = np.array(_hardest_pairs(distances, labels)).T
    anchors = np.arange(len(labels))
    return positives, negatives, margin + distances[anchors, positives] - distances[anchors, negatives]


def batch_hard_loss(batch: TripletBatch, margin: float):
    """Sum over anchors of max(0, margin + d(a, hardest pos) - d(a, hardest neg)).

    Returns (loss, hardest) where hardest[a] = (positive index, negative index).
    """
    positives, negatives, terms = _hinge_terms(_distance_matrix(batch.embeddings), batch.labels, margin)
    return float(np.maximum(0.0, terms).sum()), list(zip(positives.tolist(), negatives.tolist()))


def _triplet_step(batch: TripletBatch, margin: float, matrix: np.ndarray):
    """(batch_hard_loss of the projected rows, analytic d(loss)/dW) at W=matrix, from one projection.

    Hardest-pair selection is held constant; the hinge is non-differentiable
    exactly at 0 and we take the zero subgradient there.
    """
    vectors = batch.embeddings
    unit, norms = _project_rows(matrix, vectors)
    positives, negatives, terms = _hinge_terms(_distance_matrix(unit), batch.labels, margin)
    active = terms > 0.0

    # term = margin - u_a.u_p + u_a.u_n, for every anchor whose hinge is active
    grad_unit = np.where(active[:, None], unit[negatives] - unit[positives], 0.0)
    np.add.at(grad_unit, positives[active], -unit[active])
    np.add.at(grad_unit, negatives[active], unit[active])

    # a zero projection falls back to the input, constant in W
    radial = np.sum(unit * grad_unit, axis=1, keepdims=True)
    tangent = np.divide(
        grad_unit - unit * radial,
        norms[:, None],
        out=np.zeros_like(unit),
        where=norms[:, None] != 0.0,
    )
    return float(np.maximum(0.0, terms).sum()), tangent.T @ vectors


def loss_gradient(batch: TripletBatch, margin: float, matrix: np.ndarray) -> np.ndarray:
    """Analytic d(loss)/dW at W=matrix, batch rows being pre-projection vectors (see _triplet_step)."""
    return _triplet_step(batch, margin, np.asarray(matrix, dtype=np.float64))[1]


def _member_text(name: str, values: Sequence[str]) -> str:
    deduped = list(dict.fromkeys(values))
    type_label = Column(name, deduped).inferred_type
    return serialize(name, type_label, deduped, SerializationConfig())


def _validation_score(unit: np.ndarray, labels: Sequence[int]) -> float:
    """Mean of MRR and recall on the all-pairs intra-class matching task."""
    ids = [f"m{i}" for i in range(len(labels))]
    same = np.equal.outer(labels, labels) & ~np.eye(len(labels), dtype=bool)
    pairs = {(ids[i], ids[j]) for i, j in zip(*np.nonzero(same))}
    if not pairs:
        return 0.0
    gt = GroundTruth(frozenset(pairs))
    similarity = unit @ unit.T
    np.fill_diagonal(similarity, -np.inf)  # ranks every member but itself
    matches = rank_rows(("validation", "validation"), similarity, ids, ids, len(labels) - 1)
    return 0.5 * (mrr(matches, gt) + recall_at_gt(matches, gt))


def _split_classes(class_ids: Sequence[int], rng: random.Random):
    shuffled = draw(list(class_ids), rng, len(class_ids))
    n_val = int(round(VAL_FRACTION * len(shuffled)))
    n_val = max(2, min(n_val, len(shuffled) - 2))
    return sorted(shuffled[n_val:]), sorted(shuffled[:n_val])


def _make_batches(train_ids, members_by_class, rng):
    """Chunk shuffled class ids into (BATCH_P, BATCH_K) batches of member indices."""
    shuffled = draw(list(train_ids), rng, len(train_ids))
    batches = []
    for start in range(0, len(shuffled), BATCH_P):
        chunk = shuffled[start : start + BATCH_P]
        if len(chunk) < 2:
            continue
        rows, labels = [], []
        for cid in chunk:
            members = members_by_class[cid]
            if len(members) >= BATCH_K:
                picked = draw(list(members), rng, BATCH_K)
            else:
                picked = [members[rng.randrange(len(members))] for _ in range(BATCH_K)]
            rows.extend(picked)
            labels.extend([cid] * BATCH_K)
        batches.append((rows, labels))
    return batches


def train(
    classes: Sequence,
    provider,
    config: Optional[TrainConfig] = None,
    history: Optional[list] = None,
) -> ProjectionHead:
    """Learn a projection head from training classes via plain gradient descent.

    Raises ValueError with fewer than 4 classes; the split needs at least 2
    classes on each side to form batches and validation pairs.  When a list
    is passed as `history`, one {epoch, loss, score} record per epoch is
    appended (epoch 0 is the identity baseline and has no loss).
    """
    config = config or TrainConfig()
    classes = list(classes)
    if len(classes) < MIN_CLASSES:
        raise ValueError(f"need at least {MIN_CLASSES} classes to train, got {len(classes)}")

    texts, members_by_class = [], {}  # class id -> its members' rows in texts
    for cls in classes:
        if cls.class_id in members_by_class:
            raise ValueError(f"class id {cls.class_id} is given to more than one class")
        if len(cls.members) < 2:
            raise ValueError(f"class {cls.class_id} has fewer than 2 members")
        members_by_class[cls.class_id] = list(range(len(texts), len(texts) + len(cls.members)))
        texts.extend(_member_text(member.name, member.values) for member in cls.members)
    base = np.vstack(provider.embed(texts))

    rng = child_rng(config.seed, "train")
    train_ids, val_ids = _split_classes(sorted(members_by_class), rng)
    val_rows = [r for cid in val_ids for r in members_by_class[cid]]
    val_vectors = base[val_rows]
    val_labels = [cid for cid in val_ids for _ in members_by_class[cid]]

    matrix = np.eye(base.shape[1])
    unit, _ = _project_rows(matrix, val_vectors)
    best_score = _validation_score(unit, val_labels)
    best_matrix = matrix.copy()
    log.debug("epoch 0 (identity): validation score %.6f", best_score)
    if history is not None:
        history.append({"epoch": 0, "loss": None, "score": best_score})

    previous_score = best_score
    unchanged_streak = 0
    for epoch in range(1, config.epochs + 1):
        epoch_loss = 0.0
        for rows, labels in _make_batches(train_ids, members_by_class, rng):
            loss, gradient = _triplet_step(TripletBatch(base[rows], tuple(labels)), MARGIN, matrix)
            epoch_loss += loss
            matrix = matrix - LEARNING_RATE * gradient

        unit, _ = _project_rows(matrix, val_vectors)
        score = _validation_score(unit, val_labels)
        log.debug("epoch %d: training loss %.6f, validation score %.6f", epoch, epoch_loss, score)
        if history is not None:
            history.append({"epoch": epoch, "loss": epoch_loss, "score": score})
        if score > best_score:
            best_score = score
            best_matrix = matrix.copy()
        if abs(score - previous_score) <= SCORE_TOLERANCE:
            unchanged_streak += 1
            if unchanged_streak >= PATIENCE:
                log.debug("early stop at epoch %d", epoch)
                break
        else:
            unchanged_streak = 0
        previous_score = score

    return ProjectionHead(best_matrix, seed=config.seed, score=best_score)


def save_head(head: ProjectionHead, path) -> None:
    """Header line {dimension, seed, score}, then row-major float32 weights.

    A weight beyond float32's range, which load_head refuses, is a ValueError.
    """
    header = {"dimension": head.dimension, "seed": head.seed, "score": head.score}
    with replace_atomically(path, "wb") as fh:
        fh.write((json.dumps(header, sort_keys=True) + "\n").encode("ascii"))
        with np.errstate(over="ignore"):
            weights = np.ascontiguousarray(head.matrix, dtype="<f4")
        if not np.isfinite(weights).all():
            raise ValueError(f"projection file {path}: weights beyond the float32 range")
        fh.write(weights.tobytes())


def load_head(path) -> ProjectionHead:
    """The head save_head wrote to `path`; a malformed file is a ValueError naming the path."""
    with open(path, "rb") as fh:
        line, payload = fh.readline(), fh.read()

    def malformed(problem: str) -> ValueError:
        return ValueError(f"projection file {path}: {problem}")

    try:
        header = json.loads(line.decode("ascii"))
    except ValueError:
        header = None
    if not isinstance(header, dict):
        raise malformed("header must be a JSON object")
    for key in ("dimension", "seed"):
        if type(header.get(key)) is not int:
            raise malformed(f"{key} must be an integer, got {header.get(key)!r}")
    dimension, score = header["dimension"], header.get("score")
    if dimension < 1:
        raise malformed(f"dimension must be >= 1, got {dimension}")
    if type(score) not in (int, float):
        raise malformed(f"score must be a finite number, got {score!r}")
    expected = dimension * dimension * 4
    if len(payload) != expected:
        raise malformed(f"holds {len(payload)} weight bytes, expected {expected}")
    matrix = np.frombuffer(payload, dtype="<f4").astype(np.float64).reshape(dimension, dimension)
    try:
        return ProjectionHead(matrix, seed=header["seed"], score=float(score))
    except ValueError as exc:  # non-finite weights or score
        raise malformed(str(exc)) from None
