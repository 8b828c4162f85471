import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import colmatch.metrics as metrics
from colmatch.metrics import (
    EvalReport,
    first_correct_ranks,
    mrr,
    recall_at_gt,
    write_report,
)
from colmatch.retrieval import MatchCandidate, MatchList
from colmatch.tables import Column, GroundTruth, Table

from oracles import mrr_brute_force, recall_at_gt_brute_force


def make_matches(per_source, k=20):
    """per_source: {source: [(target, score), ...]} already in rank order."""
    built = {}
    for src, pairs in per_source.items():
        built[src] = tuple(
            MatchCandidate(src, dst, score, rank)
            for rank, (dst, score) in enumerate(pairs, start=1)
        )
    return MatchList("src_table", "dst_table", built, k=k)


def gt_of(*pairs):
    return GroundTruth(frozenset(pairs))


class TestMrrHandCases:
    def test_single_source_correct_at_rank_one(self):
        matches = make_matches({"a": [("x", 0.9), ("y", 0.5)]})
        assert mrr(matches, gt_of(("a", "x"))) == 1.0

    def test_correct_at_rank_two_gives_half(self):
        matches = make_matches({"a": [("y", 0.9), ("x", 0.5)]})
        assert mrr(matches, gt_of(("a", "x"))) == 0.5

    def test_two_sources_ranks_one_and_four(self):
        matches = make_matches(
            {
                "a": [("x", 0.9)],
                "b": [("t1", 0.9), ("t2", 0.8), ("t3", 0.7), ("y", 0.6)],
            }
        )
        assert mrr(matches, gt_of(("a", "x"), ("b", "y"))) == pytest.approx(0.625)

    def test_missing_correct_target_contributes_zero(self):
        matches = make_matches({"a": [("y", 0.9)], "b": [("z", 0.8)]})
        value = mrr(matches, gt_of(("a", "x"), ("b", "z")))
        assert value == pytest.approx(0.5)

    def test_source_absent_from_matches_contributes_zero(self):
        matches = make_matches({"a": [("x", 0.9)]})
        assert mrr(matches, gt_of(("a", "x"), ("ghost", "x"))) == pytest.approx(0.5)

    def test_empty_ground_truth_scores_zero(self):
        matches = make_matches({"a": [("x", 0.9)]})
        assert mrr(matches, GroundTruth(frozenset())) == 0.0

    def test_any_correct_target_counts_with_multiple_truths(self):
        matches = make_matches({"a": [("y", 0.9), ("x", 0.5)]})
        assert mrr(matches, gt_of(("a", "x"), ("a", "y"))) == 1.0


class TestFirstCorrectRanks:
    def test_rank_map_covers_every_gt_source(self):
        matches = make_matches({"a": [("x", 0.9)], "b": [("q", 0.7), ("y", 0.6)]})
        ranks = first_correct_ranks(matches, gt_of(("a", "x"), ("b", "y"), ("c", "z")))
        assert ranks == {"a": 1, "b": 2, "c": None}


class TestRecallHandCases:
    def test_perfect_top_pairs(self):
        matches = make_matches({"a": [("x", 0.9)], "b": [("y", 0.8)]})
        assert recall_at_gt(matches, gt_of(("a", "x"), ("b", "y"))) == 1.0

    def test_half_overlap(self):
        matches = make_matches({"a": [("x", 0.9)], "b": [("z", 0.8), ("y", 0.1)]})
        assert recall_at_gt(matches, gt_of(("a", "x"), ("b", "y"))) == 0.5

    def test_zero_overlap(self):
        matches = make_matches({"a": [("p", 0.9)], "b": [("q", 0.8)]})
        assert recall_at_gt(matches, gt_of(("a", "x"), ("b", "y"))) == 0.0

    def test_empty_ground_truth_rejected(self):
        matches = make_matches({"a": [("x", 0.9)]})
        with pytest.raises(ValueError):
            recall_at_gt(matches, GroundTruth(frozenset()))

    def test_global_cut_ties_break_by_names(self):
        # both pairs score 0.7; (a, x) sorts before (b, y) so only it makes k=1
        matches = make_matches({"a": [("x", 0.7)], "b": [("y", 0.7)]})
        assert recall_at_gt(matches, gt_of(("b", "y"))) == 0.0
        assert recall_at_gt(matches, gt_of(("a", "x"))) == 1.0


def random_instance(rng):
    n_src = rng.randint(1, 8)
    n_dst = rng.randint(1, 8)
    sources = [f"s{i}" for i in range(n_src)]
    targets = [f"t{j}" for j in range(n_dst)]
    per_source = {}
    for src in sources:
        scored = [(dst, round(rng.random(), 3)) for dst in targets if rng.random() < 0.8]
        scored.sort(key=lambda p: (-p[1], p[0]))
        per_source[src] = scored
    pairs = {
        (src, dst)
        for src in sources
        for dst in targets
        if rng.random() < 0.3
    }
    return per_source, pairs


class TestAgainstBruteForce:
    def test_mrr_matches_longhand_on_random_instances(self):
        rng = random.Random(99)
        for _ in range(500):
            per_source, pairs = random_instance(rng)
            matches = make_matches(per_source)
            expected = mrr_brute_force(pairs, {s: [t for t, _ in c] for s, c in per_source.items()})
            assert mrr(matches, GroundTruth(frozenset(pairs))) == expected

    def test_recall_matches_longhand_on_random_instances(self):
        rng = random.Random(7)
        checked = 0
        for _ in range(500):
            per_source, pairs = random_instance(rng)
            if not pairs:
                continue
            matches = make_matches(per_source)
            scored = [(c.source, c.target, c.score) for c in matches.flat()]
            expected = recall_at_gt_brute_force(pairs, scored)
            assert recall_at_gt(matches, GroundTruth(frozenset(pairs))) == expected
            checked += 1
        assert checked > 400


@st.composite
def matches_and_gt(draw):
    n_src = draw(st.integers(1, 5))
    n_dst = draw(st.integers(1, 5))
    per_source = {}
    for i in range(n_src):
        scores = draw(st.lists(st.floats(0.01, 1.0), max_size=n_dst, unique=True))
        ranked = sorted(scores, reverse=True)
        per_source[f"s{i}"] = [(f"t{j}", ranked[j]) for j in range(len(ranked))]
    pairs = draw(
        st.sets(
            st.tuples(
                st.integers(0, n_src - 1).map(lambda i: f"s{i}"),
                st.integers(0, n_dst - 1).map(lambda j: f"t{j}"),
            ),
            min_size=1,
            max_size=6,
        )
    )
    return per_source, pairs


class TestInvariants:
    @settings(max_examples=60, deadline=None)
    @given(matches_and_gt())
    def test_mrr_invariant_under_monotone_score_rescale(self, case):
        per_source, pairs = case
        gt = GroundTruth(frozenset(pairs))
        original = make_matches(per_source)
        rescaled = make_matches(
            {s: [(t, 0.25 * v + 0.1) for t, v in c] for s, c in per_source.items()}
        )
        assert mrr(original, gt) == mrr(rescaled, gt)

    @settings(max_examples=60, deadline=None)
    @given(matches_and_gt())
    def test_metrics_stay_in_unit_interval(self, case):
        per_source, pairs = case
        gt = GroundTruth(frozenset(pairs))
        matches = make_matches(per_source)
        assert 0.0 <= mrr(matches, gt) <= 1.0
        assert 0.0 <= recall_at_gt(matches, gt) <= 1.0


class TestReport:
    def test_report_round_trips_through_json(self, tmp_path):
        report = EvalReport(
            mrr=0.75,
            recall_at_gt=0.5,
            first_correct_rank={"a": 1, "b": None},
            runtime_seconds=0.01,
            config={"reranker": "bipartite"},
        )
        path = tmp_path / "report.json"
        write_report(report, path)
        loaded = json.loads(path.read_text(encoding="utf-8"))
        assert list(loaded) == ["mrr", "recall_at_gt", "first_correct_rank", "runtime_seconds", "config"]
        assert loaded["mrr"] == 0.75
        assert loaded["first_correct_rank"] == {"a": 1, "b": None}
        assert loaded["config"]["reranker"] == "bipartite"

    def test_text_table_lists_both_metrics(self):
        report = EvalReport(1.0, 1.0, {}, 0.5, {})
        text = report.as_text()
        assert "mrr" in text and "recall_at_gt" in text
        assert "1.0000" in text


class TestEvaluate:
    def test_ranks_are_found_once_and_give_the_mrr(self, monkeypatch):
        values = [tuple(f"v{i}_{r}" for r in range(12)) for i in range(4)]
        source = Table("s", [Column(f"src {i}", v) for i, v in enumerate(values)])
        target = Table("t", [Column(f"tgt_{i}", v) for i, v in enumerate(values)])
        gt = gt_of(("src 0", "tgt_0"), ("src 1", "tgt_2"), ("src 2", "tgt_3"), ("src 3", "tgt_1"))
        calls = []

        def counted(matches, gt):
            calls.append(matches)
            return first_correct_ranks(matches, gt)

        monkeypatch.setattr(metrics, "first_correct_ranks", counted)
        report = metrics.evaluate(source, target, gt)
        (matches,) = calls
        assert report.first_correct_rank == first_correct_ranks(matches, gt)
        assert report.mrr == mrr(matches, gt) < 1.0
