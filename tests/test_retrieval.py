import csv
import json
import math
import random
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import colmatch.retrieval as retrieval
import colmatch.sampling as sampling
from colmatch.embedding import EmbeddingProviderConfig, get_provider
from colmatch.pipeline import PipelineConfig, run_pipeline
from colmatch.retrieval import (
    DEFAULT_K,
    MatchCandidate,
    MatchList,
    embed_table,
    exact_name_override,
    match_list_as_dict,
    name_ranks,
    normalize_name,
    place_below,
    retrieve_from_vectors,
    top_k,
    write_match_csv,
    write_match_json,
)
from colmatch.sampling import STRATEGIES, SamplerConfig
from colmatch.serialization import SerializationConfig
from colmatch.tables import Column, Table

from oracles import top_k_longhand


def _table(name, column_names):
    return Table(name, tuple(Column(c, ()) for c in column_names))


def _scores(matches, source):
    return [(c.target, c.score) for c in matches.candidates(source)]


def _retrieve(source, target, k=DEFAULT_K):
    """Candidates ranked from both tables' embed_table vectors under the default settings."""
    provider = get_provider(EmbeddingProviderConfig())
    vectors = [embed_table(t, SamplerConfig(), SerializationConfig(), provider) for t in (source, target)]
    return retrieve_from_vectors(source, target, *vectors, k)


class TestRetrieve:
    def test_identical_tables_self_match_first(self):
        cols = ["age", "gender", "tumor_site"]
        src = Table("s", tuple(Column(c, ("v1", "v2")) for c in cols))
        dst = Table("t", tuple(Column(c, ("v1", "v2")) for c in cols))
        out = _retrieve(src, dst, k=3)
        for c in cols:
            top = out.candidates(c)[0]
            assert top.target == c
            assert top.score == pytest.approx(1.0, abs=1e-9)
            assert top.rank == 1

    def test_hand_built_vectors(self):
        src = _table("s", ["s"])
        dst = _table("t", ["t1", "t2", "t3"])
        sv = np.array([[1.0, 0.0]])
        tv = np.array([[1.0, 0.0], [0.0, 1.0], [0.6, 0.8]])
        out = retrieve_from_vectors(src, dst, sv, tv, k=3)
        assert _scores(out, "s") == [
            ("t1", pytest.approx(1.0)),
            ("t3", pytest.approx(0.6)),
            ("t2", pytest.approx(0.0)),
        ]
        assert [c.rank for c in out.candidates("s")] == [1, 2, 3]

    def test_k_truncates(self):
        src = _table("s", ["a"])
        dst = _table("t", [f"t{i}" for i in range(30)])
        out = _retrieve(src, dst, k=1)
        assert len(out.candidates("a")) == 1
        out20 = _retrieve(src, dst)
        assert len(out20.candidates("a")) == DEFAULT_K

    def test_score_ties_break_by_target_name(self):
        src = _table("s", ["s"])
        dst = _table("t", ["zeta", "alpha", "mid"])
        sv = np.array([[1.0, 0.0]])
        tv = np.array([[0.8, 0.6], [0.8, 0.6], [0.0, 1.0]])
        out = retrieve_from_vectors(src, dst, sv, tv, k=3)
        assert [c.target for c in out.candidates("s")] == ["alpha", "zeta", "mid"]

    def test_empty_table_rejected(self):
        with pytest.raises(ValueError):
            run_pipeline(_table("s", ["a"]), Table("t", ()), PipelineConfig(k=1))

    def test_deterministic(self):
        src = _table("s", ["alpha", "beta"])
        dst = _table("t", ["gamma", "delta", "alpha"])
        a = _retrieve(src, dst, k=2)
        b = _retrieve(src, dst, k=2)
        assert match_list_as_dict(a) == match_list_as_dict(b)


def straddling_table():
    """Six columns whose distinct values fill more than two hash batches.

    Columns share values, and hold None, NA spellings and non-ASCII cells.
    """
    rng = random.Random(5)
    n = retrieval.HASH_BATCH // 3
    extras = [None, "NA", " n/a ", "", "é中", "\U0001f600", "shared"]
    columns = []
    for i in range(6):
        cells = [
            rng.choice(extras) if rng.random() < 0.2 else f"v{i * 3 * n // 4 + rng.randrange(n)}"
            for _ in range(2 * n)
        ]
        columns.append(Column(f"c{i}", tuple(cells)))
    return Table("straddling", tuple(columns))


class TestColumnSamples:
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_equals_per_column_sampling_across_batch_boundaries(self, monkeypatch, strategy):
        table = straddling_table()
        config = SamplerConfig(strategy, sample_size=7, seed=2**64 - 1)
        batches = []

        def recording(seed, values, original=retrieval.hash_units):
            batches.append(len(values))
            return original(seed, values)

        monkeypatch.setattr(retrieval, "hash_units", recording)
        got = retrieval.column_samples(table, config)
        assert list(got) == table.column_names()
        assert got == {col.name: sampling.sample_values(col, config) for col in table.columns}
        if strategy in sampling.HASHED_STRATEGIES:
            assert len(batches) >= 2 and max(batches) > retrieval.HASH_BATCH
        else:
            assert batches == []


class TestNormalizeName:
    @pytest.mark.parametrize(
        "raw,expected",
        [
            ("Patient_Age", "patientage"),
            ("patient age", "patientage"),
            ("AGE-at-Index!", "ageatindex"),
            ("a1_b2", "a1b2"),
            ("___", ""),
        ],
    )
    def test_cases(self, raw, expected):
        assert normalize_name(raw) == expected


class TestExactNameOverride:
    def test_pins_equal_names(self):
        src = _table("s", ["Patient_Age"])
        dst = _table("t", ["patient age", "gender"])
        sv = np.array([[1.0, 0.0]])
        tv = np.array([[0.0, 1.0], [1.0, 0.0]])  # retrieval prefers gender
        out = retrieve_from_vectors(src, dst, sv, tv, k=2)
        assert out.candidates("Patient_Age")[0].target == "gender"
        fixed = exact_name_override(out, src, dst)
        top = fixed.candidates("Patient_Age")[0]
        assert (top.target, top.score, top.rank) == ("patient age", 1.0, 1)

    def test_unrelated_names_unchanged(self):
        src = _table("s", ["age"])
        dst = _table("t", ["gender", "site"])
        out = _retrieve(src, dst, k=2)
        fixed = exact_name_override(out, src, dst)
        assert _scores(fixed, "age") == _scores(out, "age")

    def test_insertion_extends_list_beyond_k(self):
        src = _table("s", ["age"])
        dst = _table("t", ["x1", "x2", "AGE"])
        sv = np.array([[1.0, 0.0]])
        tv = np.array([[1.0, 0.0], [0.9, np.sqrt(1 - 0.81)], [0.0, 1.0]])
        out = retrieve_from_vectors(src, dst, sv, tv, k=2)
        assert [c.target for c in out.candidates("age")] == ["x1", "x2"]
        fixed = exact_name_override(out, src, dst)
        cands = fixed.candidates("age")
        assert len(cands) == 3  # k+1
        assert (cands[0].target, cands[0].score, cands[0].rank) == ("AGE", 1.0, 1)
        assert [c.target for c in cands[1:]] == ["x1", "x2"]
        assert [c.rank for c in cands] == [1, 2, 3]

    def test_multiple_pins_sorted_by_target_name(self):
        src = _table("s", ["age"])
        dst = _table("t", ["a_g_e", "AGE", "other"])
        out = _retrieve(src, dst, k=3)
        fixed = exact_name_override(out, src, dst)
        cands = fixed.candidates("age")
        assert [c.target for c in cands[:2]] == ["AGE", "a_g_e"]
        assert cands[0].score == 1.0 and cands[1].score == 1.0
        assert cands[2].target == "other"

    def test_non_pinned_relative_order_preserved(self):
        src = _table("s", ["key"])
        dst = _table("t", ["KEY", "b", "c", "d"])
        sv = np.array([[1.0, 0.0, 0.0]])
        tv = np.array(
            [
                [0.0, 1.0, 0.0],
                [0.9, np.sqrt(1 - 0.81), 0.0],
                [0.5, np.sqrt(1 - 0.25), 0.0],
                [0.7, np.sqrt(1 - 0.49), 0.0],
            ]
        )
        out = retrieve_from_vectors(src, dst, sv, tv, k=4)
        fixed = exact_name_override(out, src, dst)
        assert [c.target for c in fixed.candidates("key")] == ["KEY", "b", "d", "c"]


class TestEmitters:
    def _matches(self):
        src = _table("s", ["a", "b"])
        dst = _table("t", ["x", "y"])
        return _retrieve(src, dst, k=2)

    def test_json_shape(self, tmp_path):
        out = self._matches()
        path = tmp_path / "m.json"
        write_match_json(out, path)
        data = json.loads(path.read_text(encoding="utf-8"))
        assert data["source_table"] == "s"
        assert data["target_table"] == "t"
        assert len(data["matches"]) == 4
        first = data["matches"][0]
        assert set(first) == {"source", "target", "score", "rank"}
        assert data["matches"][0]["source"] == "a"
        assert data["matches"][0]["rank"] == 1
        assert data["matches"][1]["rank"] == 2
        assert data["matches"][2]["source"] == "b"

    def test_csv_shape(self, tmp_path):
        out = self._matches()
        path = tmp_path / "m.csv"
        write_match_csv(out, path)
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["source", "target", "score", "rank"]
        assert len(rows) == 5
        assert rows[1][0] == "a"
        assert float(rows[1][2]) <= 1.0


# a small pool forces ties at the k-th score, signed zeros and NaN cuts
_tie_scores = st.sampled_from([0.5, 0.25, 0.0, -0.0, -0.5, math.nan])
_any_score = st.one_of(_tie_scores, st.floats(-1.0, 1.0))


@st.composite
def _score_matrix(draw):
    names = draw(st.lists(st.text(min_size=1, max_size=3), min_size=1, max_size=7, unique=True))
    n = draw(st.integers(1, 5))
    rows = [draw(st.lists(_any_score, min_size=len(names), max_size=len(names))) for _ in range(n)]
    return rows, names, draw(st.integers(1, len(names) + 2))


class TestTopK:
    @settings(max_examples=300)
    @given(_score_matrix())
    def test_equals_per_row_sort(self, case):
        rows, names, k = case
        got = top_k(np.array(rows, dtype=np.float64), name_ranks(names), k)
        assert got.tolist() == top_k_longhand(rows, names, k)

    def test_nan_at_the_cut_keeps_the_row_full(self):
        scores = np.array([[math.nan, 0.2, math.nan, 0.9], [math.nan] * 4])
        got = top_k(scores, name_ranks(["d", "c", "b", "a"]), 3)
        assert got.tolist() == [[3, 1, 2], [3, 2, 1]]

    def test_ties_at_the_cut_break_by_name(self):
        scores = np.array([[0.1, 0.5, 0.5, 0.5, -0.0, 0.0]])
        got = top_k(scores, name_ranks(["f", "e", "d", "c", "b", "a"]), 3)
        assert got.tolist() == [[3, 2, 1]]
        assert top_k(scores, name_ranks(["f", "e", "d", "c", "b", "a"]), 6).tolist() == [
            [3, 2, 1, 0, 5, 4]
        ]

    def test_retrieve_keeps_min_k_m_entries_under_nan(self):
        src = _table("s", ["p", "q"])
        dst = _table("t", ["a", "b", "c"])
        sv = np.array([[1.0, 0.0], [math.nan, 0.0]])
        tv = np.array([[1.0, 0.0], [0.0, 1.0], [0.6, 0.8]])
        out = retrieve_from_vectors(src, dst, sv, tv, k=2)
        assert [c.target for c in out.candidates("p")] == ["a", "c"]
        assert [c.target for c in out.candidates("q")] == ["a", "b"]
        assert [c.rank for c in out.candidates("q")] == [1, 2]


def _json_dump_reference(matches, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(match_list_as_dict(matches), fh, ensure_ascii=False, indent=2)
        fh.write("\n")


def _same_bytes_as_json_dump(matches):
    with tempfile.TemporaryDirectory() as tmp:
        got, want = Path(tmp) / "got.json", Path(tmp) / "want.json"
        write_match_json(matches, got)
        _json_dump_reference(matches, want)
        return got.read_bytes() == want.read_bytes()


class TestMatchJsonBytes:
    def test_escapes_and_non_finite_scores(self):
        names = ['quo"te', "back\\slash", "ctl\x00\x1f\t\n", "naïve ☃ 名前", "\u2028"]
        scores = [math.nan, math.inf, -math.inf, -0.0, 1e-300, 0.1 + 0.2]
        per_source = {
            src: [
                MatchCandidate(src, tgt, scores[(i + j) % len(scores)], j + 1)
                for j, tgt in enumerate(names)
            ]
            for i, src in enumerate(names)
        }
        assert _same_bytes_as_json_dump(MatchList('t"ab\\le', "é", per_source, 5))

    def test_empty_match_list(self):
        assert _same_bytes_as_json_dump(MatchList("s", "t", {}, 20))
        assert _same_bytes_as_json_dump(MatchList("s", "t", {"a": []}, 20))

    @settings(max_examples=100)
    @given(
        st.text(),
        st.lists(st.tuples(st.text(), st.text(), st.floats(), st.integers(1, 10**6)), max_size=6),
    )
    def test_equals_json_dump(self, table, entries):
        per_source = {}
        for src, tgt, score, rank in entries:
            per_source.setdefault(src, []).append(MatchCandidate(src, tgt, score, rank))
        assert _same_bytes_as_json_dump(MatchList(table, table[::-1], per_source, 20))


@st.composite
def _scores_and_ceiling(draw):
    """Scores in [-1, 1] with forced 1-ulp neighbours, signed zeros and repeats."""
    base = draw(
        st.lists(st.floats(-1.0, 1.0) | st.sampled_from([0.0, -0.0, 1e-300]), min_size=1, max_size=10)
    )
    scores = []
    for x in base:
        scores.append(x)
        extra = draw(st.sampled_from(["none", "below", "above", "both", "repeat"]))
        if extra in ("below", "both"):
            scores.append(math.nextafter(x, -1.0))
        if extra in ("above", "both"):
            scores.append(math.nextafter(x, 1.0))
        if extra == "repeat":
            scores.append(x)
    scores = draw(st.permutations(scores))
    ceiling = draw(st.sampled_from([1e-300, 1e-10, 0.0]) | st.sampled_from(scores))
    return scores, ceiling


class TestPlaceBelow:
    @settings(max_examples=500)
    @given(_scores_and_ceiling())
    def test_strictly_below_the_ceiling_keeping_order_and_ties(self, drawn):
        scores, ceiling = drawn
        placed = place_below(scores, ceiling).tolist()
        assert len(placed) == len(scores)
        assert all(y < ceiling for y in placed)
        for x, fx in zip(scores, placed):
            for y, fy in zip(scores, placed):
                if x < y:
                    assert fx < fy, (x, y, fx, fy)
                elif x == y:
                    assert fx == fy, (x, y, fx, fy)
        if max(scores) < ceiling:
            assert placed == scores
            assert [math.copysign(1.0, y) for y in placed] == [math.copysign(1.0, x) for x in scores]

    def test_scales_by_ceiling_over_max_and_parts_collisions(self):
        assert place_below([0.8, 0.4, 0.4], 0.4).tolist() == [
            math.nextafter(0.4, -math.inf),
            0.2,
            0.2,
        ]

    def test_shifts_below_a_ceiling_at_or_under_zero(self):
        placed = place_below([0.6, 0.4], 0.0).tolist()
        assert placed[0] == math.nextafter(0.0, -math.inf)
        assert placed[1] == pytest.approx(-0.2)
        assert place_below([-0.1, -0.5], -0.3).tolist() == pytest.approx([-0.3, -0.7])
        assert place_below([-0.1, -0.5], -0.3).max() < -0.3

    def test_nothing_below_the_ceiling_moves(self):
        assert place_below([0.3, -0.0, -0.2], 0.5).tolist() == [0.3, -0.0, -0.2]
        assert place_below([0.3], math.inf).tolist() == [0.3]
        assert place_below([], 0.0).tolist() == []
