import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.sparse import coo_array

import colmatch.rerank_bipartite as rerank_module
from colmatch.rerank_bipartite import Assignment, rerank_bipartite, solve_assignment
from colmatch.retrieval import MatchCandidate, MatchList, retrieve_from_vectors

from helpers import transient_bytes, unit_vector_pair
from oracles import best_partial_assignment, canonical_total


def _matches(per_source, k=20):
    built = {}
    for src, pairs in per_source.items():
        built[src] = [
            MatchCandidate(src, tgt, score, rank)
            for rank, (tgt, score) in enumerate(pairs, start=1)
        ]
    return MatchList("s", "t", built, k)


def _order(matches, src):
    return [c.target for c in matches.candidates(src)]


class TestSolveAssignment:
    def test_identity_optimum(self):
        out = solve_assignment([[1.0, 0.0], [0.0, 1.0]])
        assert {(r, c) for r, c, _ in out.edges} == {(0, 0), (1, 1)}
        assert out.total == pytest.approx(2.0)

    def test_cross_beats_greedy(self):
        out = solve_assignment([[0.9, 0.8], [0.7, 0.1]])
        assert {(r, c) for r, c, _ in out.edges} == {(0, 1), (1, 0)}
        assert out.total == pytest.approx(1.5)

    def test_single_row_takes_max(self):
        out = solve_assignment([[0.2, 0.9]])
        assert {(r, c) for r, c, _ in out.edges} == {(0, 1)}
        assert out.total == pytest.approx(0.9)

    def test_missing_entries_unassignable(self):
        nan = float("nan")
        # greedy full matching (a->y, b->x) totals 0.95; leaving b out wins
        out = solve_assignment([[1.0, 0.9], [0.05, nan]])
        assert {(r, c) for r, c, _ in out.edges} == {(0, 0)}
        assert out.total == pytest.approx(1.0)

    def test_negative_edges_left_out(self):
        out = solve_assignment([[-0.5]])
        assert out.edges == ()
        assert out.total == 0.0

    def test_empty_matrix(self):
        assert solve_assignment(np.zeros((0, 3))) == Assignment((), 0.0)

    def test_matches_brute_force_on_random_instances(self):
        rng = random.Random(1234)
        for trial in range(50):
            n = rng.randint(1, 6)
            m = rng.randint(1, 6)
            weights = []
            for i in range(n):
                row = []
                for j in range(m):
                    if rng.random() < 0.25:
                        row.append(None)
                    else:
                        # mostly positive, some negatives mixed in
                        row.append(rng.uniform(-0.2, 1.0))
                weights.append(row)
            matrix = np.array(
                [[np.nan if w is None else w for w in row] for row in weights]
            )
            got = solve_assignment(matrix)
            _, want_total = best_partial_assignment(weights)
            assert canonical_total(got.edges) == want_total, (trial, weights)


# dyadic weights, so every total is exact and equal totals compare equal
_weights = st.sampled_from([math.nan, 0.0, -0.0, -0.25, -0.75, 0.125, 0.25, 0.5, 0.75, 1.0])
_matrices = st.integers(1, 6).flatmap(
    lambda m: st.lists(st.lists(_weights, min_size=m, max_size=m), min_size=1, max_size=6)
)


@st.composite
def _sparse_forms(draw):
    """A matrix, and its present entries as (row, col, weight) in any order.

    Some entries are stored twice: first with a decoy weight, then with
    their own, which the later entry must replace.
    """
    W = np.array(draw(_matrices))
    entries = []
    for r, c in draw(st.permutations(np.argwhere(~np.isnan(W)).tolist())):
        if draw(st.booleans()):
            entries.append((r, c, draw(_weights)))
        entries.append((r, c, W[r, c]))
    return W, entries


def _coo(entries, shape):
    rows, cols, data = zip(*entries) if entries else ((), (), ())
    coords = (np.array(rows, dtype=int), np.array(cols, dtype=int))
    return coo_array((np.array(data, dtype=np.float64), coords), shape=shape)


class TestRectangularAssignment:
    @settings(max_examples=300)
    @given(_matrices)
    def test_optimal_one_to_one_over_positive_present_edges(self, weights):
        W = np.array(weights)
        got = solve_assignment(W)
        _, want_total = best_partial_assignment(weights)
        assert got.total == want_total
        rows = [r for r, _, _ in got.edges]
        cols = [c for _, c, _ in got.edges]
        assert len(set(rows)) == len(rows) and len(set(cols)) == len(cols)
        for r, c, w in got.edges:
            assert w > 0 and W[r, c] == w

    @pytest.mark.parametrize("shape", [(6, 3), (3, 6), (1, 5), (5, 1)])
    def test_edges_equal_brute_force_on_rectangles(self, shape):
        rng = random.Random(10 * shape[0] + shape[1])

        def draw():
            return rng.choice([math.nan, 0.0, -rng.random(), rng.random(), rng.random()])

        for _ in range(40):
            weights = [[draw() for _ in range(shape[1])] for _ in range(shape[0])]
            got = solve_assignment(np.array(weights))
            want_edges, want_total = best_partial_assignment(weights)
            assert got.edges == want_edges, weights
            assert got.total == want_total

    @settings(max_examples=300)
    @given(_sparse_forms())
    def test_sparse_form_equals_the_dense_form(self, case):
        W, entries = case
        assert solve_assignment(_coo(entries, W.shape)) == solve_assignment(W)

    def test_repeated_sparse_entry_keeps_its_last_weight(self):
        entries = [(0, 0, 0.25), (0, 1, 0.5), (0, 0, 1.0), (1, 1, 0.75), (1, 1, math.nan)]
        assert solve_assignment(_coo(entries, (2, 2))) == Assignment(((0, 0, 1.0),), 1.0)

    def test_all_nan_rows_and_zero_weights_stay_unmatched(self):
        nan = math.nan
        out = solve_assignment(
            [[nan, nan, nan], [0.0, 0.5, nan], [nan, nan, nan], [0.0, -0.0, 0.0]]
        )
        assert out == Assignment(((1, 1, 0.5),), 0.5)
        assert solve_assignment([[nan, nan], [nan, nan]]) == Assignment((), 0.0)
        assert solve_assignment([[0.0, -0.0], [-0.1, 0.0]]) == Assignment((), 0.0)

    def test_solver_sees_the_n_by_m_matrix(self, monkeypatch):
        seen = []
        original = rerank_module.linear_sum_assignment

        def spy(cost, *args, **kwargs):
            seen.append((np.shape(cost), cost.dtype, cost.flags.c_contiguous, args, kwargs))
            return original(cost, *args, **kwargs)

        monkeypatch.setattr(rerank_module, "linear_sum_assignment", spy)
        weights = np.full((4, 7), 0.5)
        weights[1, 2] = math.nan
        # every form reaches the solver as one C-contiguous float64 matrix to minimise,
        # which it copies only to transpose
        forms = (weights, np.asfortranarray(weights), np.ones((4, 7), dtype=int), coo_array(np.ones((4, 7))))
        for form in forms:
            solve_assignment(form)
        rerank_bipartite(_matches({"a": [("x", 0.9), ("y", 0.8)], "b": [("z", -0.5)]}))
        assert seen == [((4, 7), np.float64, True, (), {})] * 4 + [((2, 3), np.float64, True, (), {})]


class TestTransientMemory:
    def test_assignment_builds_one_cost_matrix(self):
        n, m = 1030, 1040
        matches = retrieve_from_vectors(*unit_vector_pair(n, m))
        used = len(np.unique(matches.target))  # the graph's columns: the targets the lists name
        peak = transient_bytes(lambda: rerank_bipartite(matches))
        assert peak <= 1.5 * n * used * 8


class TestRerankBipartite:
    def test_zero_weight_edge_is_not_assigned(self):
        matches = _matches(
            {"s1": [("t1", 0.0), ("t3", -0.2)], "s2": [("t2", 0.5), ("t1", 0.3), ("t3", 0.1)]}
        )
        out = rerank_bipartite(matches)
        assert [(c.target, c.score) for c in out.candidates("s2")] == [
            ("t2", 0.5),
            ("t1", 0.3),
            ("t3", 0.1),
        ]
        assert [(c.target, c.score) for c in out.candidates("s1")] == [("t1", 0.0), ("t3", -0.2)]

    def test_worked_example(self):
        matches = _matches(
            {"a": [("x", 0.9), ("y", 0.8)], "b": [("x", 0.85), ("y", 0.2)]}
        )
        out = rerank_bipartite(matches)
        assert _order(out, "a") == ["y", "x"]
        assert _order(out, "b") == ["x", "y"]
        a_top = out.candidates("a")[0]
        assert a_top.score == 0.8  # assigned edges keep their score
        a_second = out.candidates("a")[1]
        assert a_second.score == pytest.approx(0.9 * (0.8 - 1e-9) / 0.9)
        assert a_second.score < 0.8

    def test_consistent_top1_unchanged(self):
        matches = _matches(
            {"a": [("x", 0.9), ("y", 0.3)], "b": [("y", 0.8), ("x", 0.2)]}
        )
        out = rerank_bipartite(matches)
        assert _order(out, "a") == ["x", "y"]
        assert _order(out, "b") == ["y", "x"]
        # f = 1: no non-assigned score reaches w_low = 0.8
        assert [c.score for c in out.candidates("a")] == [0.9, 0.3]

    def test_single_candidate_unchanged(self):
        matches = _matches({"a": [("x", 0.42)]})
        out = rerank_bipartite(matches)
        assert [(c.target, c.score, c.rank) for c in out.candidates("a")] == [
            ("x", 0.42, 1)
        ]

    def test_all_negative_scores_unchanged(self):
        matches = _matches({"a": [("x", -0.1), ("y", -0.5)]})
        out = rerank_bipartite(matches)
        assert [(c.target, c.score) for c in out.candidates("a")] == [
            ("x", -0.1),
            ("y", -0.5),
        ]

    def test_candidate_sets_and_ranks(self):
        rng = random.Random(7)
        targets = [f"t{j}" for j in range(8)]
        per_source = {}
        for i in range(5):
            cands = rng.sample(targets, k=rng.randint(1, 8))
            per_source[f"s{i}"] = [(t, 0.1 + 0.89 * rng.random()) for t in cands]
        matches = _matches(per_source)
        out = rerank_bipartite(matches)
        for src in per_source:
            before = {c.target for c in matches.candidates(src)}
            after = {c.target for c in out.candidates(src)}
            assert before == after
            assert [c.rank for c in out.candidates(src)] == list(
                range(1, len(before) + 1)
            )

    def test_non_assigned_order_preserved(self):
        rng = random.Random(99)
        for _ in range(40):
            n_src, n_tgt = rng.randint(1, 5), rng.randint(1, 6)
            sources = [f"s{i}" for i in range(n_src)]
            targets = [f"t{j}" for j in range(n_tgt)]
            weights = [
                [0.1 + 0.9 * rng.random() for _ in targets] for _ in sources
            ]
            per_source = {
                src: sorted(
                    zip(targets, weights[i]), key=lambda p: (-p[1], p[0])
                )
                for i, src in enumerate(sources)
            }
            matches = _matches(per_source)
            out = rerank_bipartite(matches)
            edges, _ = best_partial_assignment(weights)
            assigned = {(sources[r], targets[c]) for r, c, _ in edges}
            for src, pairs in per_source.items():
                reranked = out.candidates(src)
                non_assigned_out = [
                    c.target for c in reranked if (src, c.target) not in assigned
                ]
                non_assigned_in = [
                    t for t, _ in pairs if (src, t) not in assigned
                ]
                assert non_assigned_out == non_assigned_in
                assigned_ranks = [
                    c.rank for c in reranked if (src, c.target) in assigned
                ]
                if assigned_ranks and non_assigned_out:
                    other_ranks = [
                        c.rank for c in reranked if (src, c.target) not in assigned
                    ]
                    assert max(assigned_ranks) < min(other_ranks)


class TestPlacementRegressions:
    def test_tiny_assigned_weight_keeps_both_lists_in_order(self):
        matches = _matches(
            {"s1": [("t1", 1e-10), ("t3", -0.2)], "s2": [("t2", 0.5), ("t1", 0.3), ("t3", 0.1)]}
        )
        out = rerank_bipartite(matches)
        s1, s2 = out.candidates("s1"), out.candidates("s2")
        assert _order(out, "s1") == ["t1", "t3"]
        assert s1[0].score == 1e-10 and s1[1].score < 1e-10
        assert _order(out, "s2") == ["t2", "t1", "t3"]
        assert s2[0].score == 0.5
        assert 1e-10 > s2[1].score > s2[2].score > s1[1].score

    def test_scores_one_ulp_apart_stay_apart(self):
        low = 0.17112484539617367
        matches = _matches(
            {
                "s1": [("t1", low)],
                "s2": [("t2", 0.95), ("tb", 0.8448677311172014), ("ta", 0.8448677311172013)],
            }
        )
        out = rerank_bipartite(matches)
        s2 = out.candidates("s2")
        assert _order(out, "s2") == ["t2", "tb", "ta"]
        assert low > s2[1].score > s2[2].score


_list_scores = st.sampled_from(
    [1.0, 0.9, 0.5, 0.5 + 2**-53, 1e-10, 1e-300, 0.0, -0.0, -1e-10, -0.5, -1.0]
) | st.floats(-1.0, 1.0)


@st.composite
def _retrieval_lists(draw):
    """Per-source lists as retrieval emits them: score descending, ties by name."""
    targets = [f"t{j}" for j in range(draw(st.integers(1, 6)))]
    per_source = {}
    for i in range(draw(st.integers(1, 5))):
        chosen = draw(st.lists(st.sampled_from(targets), min_size=1, unique=True))
        pairs = [(t, draw(_list_scores)) for t in chosen]
        per_source[f"s{i}"] = sorted(pairs, key=lambda p: (-p[1], p[0]))
    return per_source


class TestRerankBipartiteProperties:
    @settings(max_examples=300)
    @given(_retrieval_lists())
    def test_assigned_edge_first_and_the_rest_in_input_order_below_it(self, per_source):
        out = rerank_bipartite(_matches(per_source))
        sources = list(per_source)
        targets = sorted({t for pairs in per_source.values() for t, _ in pairs})
        W = np.full((len(sources), len(targets)), np.nan)
        for i, s in enumerate(sources):
            for t, score in per_source[s]:
                W[i, targets.index(t)] = score
        edges = solve_assignment(W).edges
        head = {sources[r]: (targets[c], w) for r, c, w in edges}
        w_low = min((w for _, _, w in edges), default=math.inf)
        for s, pairs in per_source.items():
            got = [(c.target, c.score) for c in out.candidates(s)]
            assert sorted(t for t, _ in got) == sorted(t for t, _ in pairs)
            assert [c.rank for c in out.candidates(s)] == list(range(1, len(pairs) + 1))
            if s in head:
                assert got[0] == head[s]
                got = got[1:]
            rest_in = [p for p in pairs if s not in head or p[0] != head[s][0]]
            assert [t for t, _ in got] == [t for t, _ in rest_in]
            assert all(score < w_low for _, score in got)
            for (_, a_in), (_, b_in), (_, a_out), (_, b_out) in zip(
                rest_in, rest_in[1:], got, got[1:]
            ):
                assert a_out > b_out if a_in > b_in else a_out == b_out
