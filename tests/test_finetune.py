import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from colmatch import finetune
from colmatch.augmentation import ClassMember, TrainingClass
from colmatch.embedding import EmbeddingProviderConfig, get_provider
from colmatch.finetune import (
    ProjectedProvider,
    ProjectionHead,
    TrainConfig,
    TripletBatch,
    _distance_matrix,
    _hardest_pairs,
    _project_rows,
    batch_hard_loss,
    load_head,
    loss_gradient,
    save_head,
    train,
)

from oracles import (
    finite_difference_gradient,
    hardest_pairs_longhand,
    loss_gradient_longhand,
    project_longhand,
    triplet_loss_brute_force,
)
from stubs import JsonStubServer


def unit_rows(rng, n, d):
    rows = np.array([[rng.gauss(0.0, 1.0) for _ in range(d)] for _ in range(n)])
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


def random_batch(rng, p=None, k=None, d=None):
    p = p or rng.randint(2, 4)
    k = k or rng.randint(2, 4)
    d = d or rng.randint(3, 6)
    labels = [c for c in range(p) for _ in range(k)]
    return TripletBatch(unit_rows(rng, p * k, d), tuple(labels))


class TestTripletBatch:
    def test_shape_and_labels_must_agree(self):
        with pytest.raises(ValueError):
            TripletBatch(np.eye(4), (0, 0, 1))

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            TripletBatch(np.eye(4), (0, 0, 0, 0))

    def test_singleton_class_rejected(self):
        with pytest.raises(ValueError):
            TripletBatch(np.eye(3), (0, 0, 1))


class TestBatchHardLoss:
    def test_identical_embeddings_hit_margin_times_count(self):
        for p, k in [(2, 2), (3, 2), (2, 4)]:
            rows = np.tile(np.array([1.0, 0.0, 0.0]), (p * k, 1))
            labels = tuple(c for c in range(p) for _ in range(k))
            loss, _ = batch_hard_loss(TripletBatch(rows, labels), margin=0.5)
            assert loss == pytest.approx(p * k * 0.5)

    def test_well_separated_classes_give_zero_loss(self):
        rows = np.array(
            [[1.0, 0.0], [1.0, 0.0], [-1.0, 0.0], [-1.0, 0.0]], dtype=float
        )
        loss, hardest = batch_hard_loss(TripletBatch(rows, (0, 0, 1, 1)), margin=0.5)
        assert loss == 0.0
        assert hardest[0] == (1, 2)

    def test_matches_brute_force_on_random_batches(self):
        rng = random.Random(42)
        for _ in range(200):
            batch = random_batch(rng)
            margin = rng.choice([0.1, 0.5, 1.0])
            loss, hardest = batch_hard_loss(batch, margin)
            expected_loss, expected_pairs = triplet_loss_brute_force(
                [list(r) for r in batch.embeddings], list(batch.labels), margin
            )
            assert abs(loss - expected_loss) < 1e-12
            assert hardest == expected_pairs


def loss_under_projection(raw_rows, labels, margin):
    def at(matrix):
        projected = []
        for row in raw_rows:
            z = matrix @ row
            norm = np.linalg.norm(z)
            projected.append(list(row if norm == 0 else z / norm))
        total, _ = triplet_loss_brute_force(projected, labels, margin)
        return total

    return at


class TestLossGradient:
    def test_matches_finite_differences_at_identity(self):
        rng = random.Random(11)
        checked = 0
        for _ in range(20):
            batch = random_batch(rng, p=2, k=2, d=4)
            margin = 0.5
            matrix = np.eye(4)
            analytic = loss_gradient(batch, margin, matrix)
            if np.max(np.abs(analytic)) < 1e-8:
                continue
            loss_fn = loss_under_projection(
                [np.asarray(r) for r in batch.embeddings], list(batch.labels), margin
            )
            numeric = finite_difference_gradient(loss_fn, matrix, step=1e-5)
            active = np.abs(analytic) > 1e-7
            rel = np.abs(numeric[active] - analytic[active]) / np.maximum(
                np.abs(analytic[active]), np.abs(numeric[active])
            )
            assert np.max(rel) < 1e-4
            checked += 1
        assert checked >= 15

    def test_matches_finite_differences_at_random_matrices(self):
        rng = random.Random(23)
        np_rng = np.random.RandomState(23)
        for _ in range(10):
            batch = random_batch(rng, p=2, k=2, d=4)
            matrix = np.eye(4) + 0.1 * np_rng.randn(4, 4)
            analytic = loss_gradient(batch, 0.5, matrix)
            loss_fn = loss_under_projection(
                [np.asarray(r) for r in batch.embeddings], list(batch.labels), 0.5
            )
            numeric = finite_difference_gradient(loss_fn, matrix, step=1e-5)
            assert np.allclose(numeric, analytic, rtol=1e-4, atol=1e-7)

    def test_zero_when_classes_already_separated(self):
        rows = np.array([[1.0, 0.0], [1.0, 0.0], [-1.0, 0.0], [-1.0, 0.0]])
        batch = TripletBatch(rows, (0, 0, 1, 1))
        assert np.all(loss_gradient(batch, 0.5, np.eye(2)) == 0.0)

    def test_gradient_step_reduces_loss(self):
        rng = random.Random(5)
        batch = random_batch(rng, p=3, k=3, d=6)
        matrix = np.eye(6)
        loss_fn = loss_under_projection(
            [np.asarray(r) for r in batch.embeddings], list(batch.labels), 0.5
        )
        before = loss_fn(matrix)
        stepped = matrix - 0.05 * loss_gradient(batch, 0.5, matrix)
        assert loss_fn(stepped) < before


@st.composite
def _kernel_cases(draw):
    """A (P, K, D) batch, a projection matrix and a margin for the triplet kernel.

    Each class draws its rows from a pool of one or two small integer
    vectors, so repeated rows tie on distance, within a class and, when two
    pools share a vector, across classes.  Matrix columns in `null` are
    zeroed: a batch row supported on those coordinates only projects to
    exactly zero.  A margin of -2.5 leaves every hinge inactive, since
    distances lie in [0, 2].
    """
    p, k, d = draw(st.integers(2, 4)), draw(st.integers(2, 4)), draw(st.integers(2, 8))
    vector = st.lists(st.integers(-2, 2), min_size=d, max_size=d).filter(any)
    rows = []
    for _ in range(p):
        pool = draw(st.lists(vector, min_size=1, max_size=2))
        rows += [pool[draw(st.integers(0, len(pool) - 1))] for _ in range(k)]
    rows = np.array(rows, dtype=np.float64)
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    matrix = np.array(draw(st.lists(vector, min_size=d, max_size=d)), dtype=np.float64)
    null = draw(st.sets(st.integers(0, d - 1), max_size=d - 1))
    matrix[:, sorted(null)] = 0.0
    labels = tuple(c for c in range(p) for _ in range(k))
    margin = draw(st.sampled_from((-2.5, 0.1, 0.5, 1.0)))
    return TripletBatch(rows, labels), matrix, margin


class TestKernelEqualsLonghand:
    @settings(max_examples=300, deadline=None)
    @given(_kernel_cases())
    def test_hardest_pairs_and_gradient(self, case):
        batch, matrix, margin = case
        unit, _ = _project_rows(matrix, batch.embeddings)
        distances = _distance_matrix(unit)
        assert _hardest_pairs(distances, batch.labels) == hardest_pairs_longhand(
            distances, batch.labels
        )
        # both sum one outer product per row, in different orders: where
        # duplicate rows cancel exactly, the rounding left over grows with
        # the row count (at most 3.2e-16 per row over 30 000 cases)
        np.testing.assert_allclose(
            loss_gradient(batch, margin, matrix),
            loss_gradient_longhand(batch.embeddings, batch.labels, margin, matrix),
            rtol=1e-12,
            atol=1e-15 * len(batch.labels),
        )


@st.composite
def _heads_and_rows(draw):
    """A (D, D) matrix and rows for it: entries small integers, some rows projected to zero.

    Rows supported on the matrix's zeroed columns only project to exactly
    zero, so one call mixes zero and non-zero projections; zeroing every
    column gives the zero matrix.
    """
    d = draw(st.integers(1, 6))
    entry = st.integers(-3, 3).map(float)
    row = st.lists(entry, min_size=d, max_size=d)
    matrix = np.array(draw(st.lists(row, min_size=d, max_size=d)))
    null = sorted(draw(st.sets(st.integers(0, d - 1))))
    matrix[:, null] = 0.0
    rows = np.array(draw(st.lists(row, min_size=1, max_size=8)))
    if null:  # one row lying in the null space, whatever the others drew
        rows[0] = 0.0
        rows[0, null] = draw(st.lists(entry, min_size=len(null), max_size=len(null)))
    return matrix, rows


class TestProjectionHead:
    def test_apply_normalizes(self):
        head = ProjectionHead(2.0 * np.eye(3))
        out = head.apply_all(np.array([[1.0, 0.0, 0.0]]))[0]
        assert np.linalg.norm(out) == pytest.approx(1.0)
        assert out[0] == pytest.approx(1.0)

    def test_zero_projection_falls_back_to_input(self):
        head = ProjectionHead(np.zeros((2, 2)))
        v = np.array([0.6, 0.8])
        assert np.array_equal(head.apply_all(v[None, :])[0], v)

    @settings(max_examples=300, deadline=None)
    @given(_heads_and_rows())
    @example((np.zeros((3, 3)), np.array([[1.0, 2.0, 0.0], [0.0, 0.0, 0.0], [-3.0, 1.0, 1.0]])))
    @example((np.diag([2.0, 0.0]), np.array([[0.0, 3.0], [1.0, 1.0], [0.0, -1.0], [-2.0, 0.0]])))
    def test_apply_all_equals_longhand(self, case):
        matrix, rows = case
        out = ProjectionHead(matrix).apply_all(rows)
        assert out.shape == rows.shape
        np.testing.assert_allclose(out, project_longhand(matrix, rows), rtol=0.0, atol=1e-12)

    def test_row_results_do_not_depend_on_the_rows_beside_them(self):
        rng = np.random.RandomState(5)
        head = ProjectionHead(np.eye(64) + 0.1 * rng.randn(64, 64))
        rows = rng.randn(40, 64)
        together = head.apply_all(rows)
        for i, row in enumerate(rows):
            assert np.array_equal(together[i], head.apply_all(row[None, :])[0])

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            ProjectionHead(np.zeros((2, 3)))

    @pytest.mark.parametrize(
        "matrix,score,problem",
        [
            (np.full((2, 2), np.nan), 0.0, "weights must be finite"),
            (np.diag([1.0, np.inf]), 0.0, "weights must be finite"),
            (np.eye(2), float("nan"), "score must be a finite number, got nan"),
            (np.eye(2), float("-inf"), "score must be a finite number, got -inf"),
        ],
        ids=["nan-weights", "inf-weight", "nan-score", "inf-score"],
    )
    def test_a_head_load_head_would_refuse_is_not_built(self, tmp_path, matrix, score, problem):
        with pytest.raises(ValueError, match=problem):
            save_head(ProjectionHead(matrix, score=score), tmp_path / "head.bin")
        assert not (tmp_path / "head.bin").exists()

    def test_file_round_trip(self, tmp_path):
        matrix = np.random.RandomState(0).randn(5, 5)
        head = ProjectionHead(matrix, seed=9, score=0.875)
        path = tmp_path / "head.bin"
        save_head(head, path)
        loaded = load_head(path)
        assert loaded.seed == 9
        assert loaded.score == pytest.approx(0.875)
        assert loaded.dimension == 5
        # weights survive at float32 precision
        assert np.allclose(loaded.matrix, matrix, atol=1e-6)

    def test_save_load_save_is_byte_stable(self, tmp_path):
        matrix = np.random.RandomState(1).randn(4, 4)
        head = ProjectionHead(matrix, seed=2, score=0.5)
        first = tmp_path / "a.bin"
        second = tmp_path / "b.bin"
        save_head(head, first)
        save_head(load_head(first), second)
        assert first.read_bytes() == second.read_bytes()

    def test_failed_save_keeps_the_previous_file(self, tmp_path):
        class WeightsThatFail:
            """Passes for a 3 x 3 matrix until its bytes are asked for."""

            shape = (3, 3)

            def __array__(self, *args, **kwargs):
                raise OSError("disk full")

        path = tmp_path / "head.bin"
        save_head(ProjectionHead(np.eye(3), seed=4), path)
        before = path.read_bytes()
        failing = ProjectionHead(np.eye(3))
        failing.matrix = WeightsThatFail()  # fails after the header is written
        with pytest.raises(OSError, match="disk full"):
            save_head(failing, path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["head.bin"]

    def test_weights_beyond_float32_are_refused_and_keep_the_previous_file(self, tmp_path):
        path = tmp_path / "head.bin"
        save_head(ProjectionHead(np.eye(2), seed=4), path)
        before = path.read_bytes()
        with pytest.raises(ValueError, match="float32"):
            save_head(ProjectionHead(np.eye(2) * 1e39), path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["head.bin"]

    def test_the_largest_float32_weight_is_saved_and_loaded(self, tmp_path):
        matrix = np.eye(2) * -float(np.finfo(np.float32).max)
        save_head(ProjectionHead(matrix), tmp_path / "head.bin")
        assert np.array_equal(load_head(tmp_path / "head.bin").matrix, matrix)

    def test_truncated_file_rejected(self, tmp_path):
        path = tmp_path / "head.bin"
        save_head(ProjectionHead(np.eye(3)), path)
        path.write_bytes(path.read_bytes()[:-4])
        with pytest.raises(ValueError):
            load_head(path)


class TestProjectedProvider:
    def test_dimension_must_match(self):
        provider = get_provider(EmbeddingProviderConfig(kind="hash", dimension=16))
        with pytest.raises(ValueError):
            ProjectedProvider(provider, ProjectionHead(np.eye(8)))

    def test_remote_provider_checks_the_first_vectors_returned(self):
        # no dimension in the config: the provider learns it from its first response
        def handler(path, body):
            return 200, {"dimension": 8, "vectors": [[1.0] + [0.0] * 7 for _ in body["texts"]]}

        with JsonStubServer(handler) as server:
            config = EmbeddingProviderConfig(kind="remote", endpoint=server.url)
            rotation = np.roll(np.eye(8), 1, axis=0)
            projected = ProjectedProvider(get_provider(config), ProjectionHead(rotation))
            assert projected.embed(["a", "b"])[1].tolist() == [0.0, 1.0] + [0.0] * 6
            mismatched = ProjectedProvider(get_provider(config), ProjectionHead(np.eye(4)))
            with pytest.raises(ValueError, match="head dimension 4"):
                mismatched.embed(["a"])

    def test_identity_head_preserves_vectors(self):
        provider = get_provider(EmbeddingProviderConfig(kind="hash", dimension=16))
        wrapped = ProjectedProvider(provider, ProjectionHead(np.eye(16)))
        base = provider.embed(["alpha", "beta"])
        projected = wrapped.embed(["alpha", "beta"])
        for b, p in zip(base, projected):
            assert np.allclose(b, p)

    def test_head_actually_transforms(self):
        provider = get_provider(EmbeddingProviderConfig(kind="hash", dimension=4))
        rotation = np.array(
            [
                [0.0, 1.0, 0.0, 0.0],
                [-1.0, 0.0, 0.0, 0.0],
                [0.0, 0.0, 1.0, 0.0],
                [0.0, 0.0, 0.0, 1.0],
            ]
        )
        wrapped = ProjectedProvider(provider, ProjectionHead(rotation))
        base = provider.embed(["alpha"])[0]
        projected = wrapped.embed(["alpha"])[0]
        assert np.allclose(projected, rotation @ base / np.linalg.norm(rotation @ base))


class TestTrainConfig:
    def test_defaults(self):
        config = TrainConfig()
        assert finetune.MARGIN == 0.5
        assert finetune.LEARNING_RATE == 0.05
        assert config.epochs == 30
        assert finetune.VAL_FRACTION == 0.2

    @pytest.mark.parametrize("kwargs", [{"epochs": -30}, {"epochs": -1}, {"epochs": 0}])
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ValueError):
            TrainConfig(**kwargs)


def synthetic_classes(n_classes, members_per_class=4, values_per_member=6, seed=0):
    rng = random.Random(seed)
    vocab = [f"token{i}" for i in range(40)]
    classes = []
    for cid in range(n_classes):
        stem = f"field_{cid}"
        members = []
        for m in range(members_per_class):
            name = stem if m == 0 else f"{stem}_v{m}"
            values = tuple(
                f"{vocab[(cid * 7 + m + j) % len(vocab)]}_{cid}" for j in range(values_per_member)
            )
            origin = "anchor" if m == 0 else "structural"
            members.append(ClassMember(name, values, origin))
        rng.shuffle(vocab)
        classes.append(TrainingClass(cid, tuple(members)))
    return classes


class TestTrain:
    def provider(self, dimension=32):
        return get_provider(EmbeddingProviderConfig(kind="hash", dimension=dimension))

    def test_fewer_than_four_classes_rejected(self):
        with pytest.raises(ValueError):
            train(synthetic_classes(3), self.provider())

    def test_returns_square_head_with_provider_dimension(self):
        head = train(synthetic_classes(6), self.provider(16), TrainConfig(epochs=2))
        assert head.dimension == 16

    def test_zero_learning_rate_keeps_identity(self, monkeypatch):
        monkeypatch.setattr(finetune, "LEARNING_RATE", 0.0)
        head = train(synthetic_classes(6), self.provider(16), TrainConfig(epochs=3))
        assert np.array_equal(head.matrix, np.eye(16))

    def test_deterministic_for_fixed_seed(self, tmp_path):
        config = TrainConfig(epochs=4, seed=7)
        head_a = train(synthetic_classes(8), self.provider(16), config)
        head_b = train(synthetic_classes(8), self.provider(16), config)
        first = tmp_path / "a.bin"
        second = tmp_path / "b.bin"
        save_head(head_a, first)
        save_head(head_b, second)
        assert first.read_bytes() == second.read_bytes()

    def test_history_records_identity_baseline_then_epochs(self):
        history = []
        train(
            synthetic_classes(6),
            self.provider(16),
            TrainConfig(epochs=3, seed=1),
            history=history,
        )
        assert history[0]["epoch"] == 0 and history[0]["loss"] is None
        assert [h["epoch"] for h in history[1:]] == [1, 2, 3]
        assert all(h["loss"] >= 0.0 for h in history[1:])

    def test_best_score_never_below_identity_baseline(self, monkeypatch):
        # absurd learning rate wrecks the matrix; selection must fall back
        monkeypatch.setattr(finetune, "LEARNING_RATE", 25.0)
        history = []
        head = train(
            synthetic_classes(8, seed=3),
            self.provider(16),
            TrainConfig(epochs=5, seed=3),
            history=history,
        )
        assert head.score >= history[0]["score"]
        if head.score == history[0]["score"]:
            assert np.array_equal(head.matrix, np.eye(16))

    def test_early_stop_on_constant_validation_score(self, monkeypatch):
        monkeypatch.setattr(finetune, "LEARNING_RATE", 0.0)
        history = []
        train(
            synthetic_classes(6),
            self.provider(16),
            TrainConfig(epochs=30, seed=2),
            history=history,
        )
        # identity forever: score never moves, patience 5 cuts the run short
        assert history[-1]["epoch"] == 5

    def test_repeated_class_id_rejected(self):
        classes = synthetic_classes(5)
        twin = TrainingClass(2, classes[3].members)
        with pytest.raises(ValueError, match="class id 2 is given to more than one class"):
            train(classes[:3] + [twin] + classes[4:], self.provider(16))

    def test_singleton_member_class_rejected(self):
        classes = synthetic_classes(5)
        lonely = TrainingClass(
            99, (ClassMember("solo", ("a", "b"), "anchor"),)
        )
        with pytest.raises(ValueError):
            train(classes + [lonely], self.provider(16))
