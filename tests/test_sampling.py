from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import colmatch.sampling as sampling
import oracles
from colmatch.augmentation import structural_variants
from colmatch.retrieval import column_samples
from colmatch.sampling import SamplerConfig, hash_unit, sample_values
from colmatch.tables import Column, Table


def _col(values, name="c"):
    return Column(name, tuple(values))


class TestHashUnit:
    def test_deterministic(self):
        assert hash_unit(12345, "alpha") == hash_unit(12345, "alpha")

    def test_range_on_many_inputs(self):
        for i in range(100_000):
            h = hash_unit(7, f"value-{i}")
            assert 0.0 < h <= 1.0

    def test_seed_sensitivity(self):
        n = 10_000
        changed = sum(
            1 for i in range(n) if hash_unit(1, f"v{i}") != hash_unit(2, f"v{i}")
        )
        assert changed / n >= 0.99

    def test_large_seed_accepted(self):
        assert 0.0 < hash_unit(2**64 - 1, "x") <= 1.0


class TestConfig:
    def test_bad_strategy(self):
        with pytest.raises(ValueError):
            SamplerConfig(strategy="stratified")

    def test_bad_sample_size(self):
        with pytest.raises(ValueError):
            SamplerConfig(sample_size=0)


class TestPriority:
    def test_hand_case_with_pinned_hash(self, monkeypatch):
        fixed = {"a": 0.5, "b": 0.25, "c": 1.0}
        monkeypatch.setattr(sampling, "hash_unit", lambda seed, v: fixed[v])
        col = _col(["a", "a", "b", "c", "c", "c"])
        # R = freq/h -> a: 4.0, b: 4.0, c: 3.0; tie a/b resolved lexicographically
        out = sample_values(col, SamplerConfig("priority", sample_size=2, seed=0))
        assert out == ["a", "b"]

    def test_matches_brute_force(self):
        col = _col([f"v{i % 13}" for i in range(50)] + ["w", "w", "z"])
        cfg = SamplerConfig("priority", sample_size=5, seed=21)
        freq = Counter(v for v in col.values)
        expected = sorted(
            freq,
            key=lambda v: (-(freq[v] / hash_unit(cfg.seed, v)), v.encode("utf-8")),
        )[:5]
        assert sample_values(col, cfg) == expected

    def test_coordination_across_columns(self):
        # same distinct values and frequencies, different cell order
        a = _col(["x", "y", "z", "x", "y", "x"], name="a")
        b = _col(["y", "x", "x", "z", "y", "x"], name="b")
        cfg = SamplerConfig("priority", sample_size=2, seed=5)
        assert sample_values(a, cfg) == sample_values(b, cfg)

    def test_fewer_distinct_than_m(self):
        out = sample_values(_col(["p", "q", "r"]), SamplerConfig(sample_size=10))
        assert sorted(out) == ["p", "q", "r"]


class TestCoordinated:
    def test_frequency_is_ignored(self):
        a = _col(["x"] * 9 + ["y", "z"], name="a")
        b = _col(["x", "y", "y", "y", "z"], name="b")
        cfg = SamplerConfig("coordinated", sample_size=2, seed=3)
        assert sample_values(a, cfg) == sample_values(b, cfg)


class TestFrequency:
    def test_most_frequent_win(self):
        col = _col(["a"] * 3 + ["b"] * 5 + ["c"] * 4 + ["d"])
        out = sample_values(col, SamplerConfig("frequency", sample_size=2, seed=0))
        assert out == ["b", "c"]

    def test_ties_lexicographic(self):
        col = _col(["b", "a", "c", "a", "b", "c"])
        out = sample_values(col, SamplerConfig("frequency", sample_size=3, seed=0))
        assert out == ["a", "b", "c"]


class TestSeededDraws:
    def test_weighted_prefers_heavy_value(self):
        col = _col(["heavy"] * 10_000 + ["l1", "l2", "l3"])
        hits = sum(
            1
            for seed in range(20)
            if sample_values(col, SamplerConfig("weighted", 1, seed)) == ["heavy"]
        )
        assert hits >= 18

    def test_random_full_draw_is_permutation(self):
        col = _col(list("fedcba"))
        out = sample_values(col, SamplerConfig("random", sample_size=6, seed=11))
        assert sorted(out) == sorted("abcdef")

    def test_seed_changes_order(self):
        col = _col([f"v{i}" for i in range(30)])
        outs = {
            tuple(sample_values(col, SamplerConfig("random", 5, seed)))
            for seed in range(10)
        }
        assert len(outs) > 1


values_lists = st.lists(st.text(min_size=1, max_size=5), min_size=0, max_size=60)
strategies = st.sampled_from(sampling.STRATEGIES)


@settings(max_examples=60)
@given(values=values_lists, strategy=strategies, m=st.integers(1, 8), seed=st.integers(0, 2**32))
def test_common_properties(values, strategy, m, seed):
    col = _col(values, name="h")
    cfg = SamplerConfig(strategy, m, seed)
    out = sample_values(col, cfg)
    assert len(out) == len(set(out))
    assert len(out) <= m
    distinct = {v for v in col.values if v is not None}
    assert set(out) <= distinct
    if len(distinct) <= m:
        assert set(out) == distinct
    # determinism
    assert sample_values(col, cfg) == out


# cells a loaded table never holds but a directly built Column may: NA
# spellings in any case, whitespace-only cells, and None
_na_cells = st.sampled_from(["na", "n/a", "null", "none", ""]).flatmap(
    lambda word: st.tuples(
        st.sampled_from(["", " ", "\t"]),
        st.lists(st.booleans(), min_size=len(word), max_size=len(word)),
        st.sampled_from(["", " ", "\n"]),
    ).map(
        lambda t: t[0]
        + "".join(c.upper() if up else c for c, up in zip(word, t[1]))
        + t[2]
    )
)
# a small alphabet with non-ASCII letters, so values repeat and frequencies tie
_cells = st.one_of(
    st.none(),
    _na_cells,
    st.text(alphabet="ab é中\U0001f600", min_size=1, max_size=3),
    st.text(max_size=6),
)


class TestFnv:
    def test_reference_vectors(self):
        assert sampling.fnv1a64(b"") == 0xCBF29CE484222325
        assert sampling.fnv1a64(b"a") == 0xAF63DC4C8601EC8C
        assert sampling.fnv1a64(b"foobar") == 0x85944171F73967E8

    @given(st.binary(max_size=40), st.binary(max_size=40))
    def test_state_continues_a_hash(self, head, tail):
        assert sampling.fnv1a64(tail, sampling.fnv1a64(head)) == sampling.fnv1a64(head + tail)
        assert sampling.fnv1a64(head + tail) == oracles.fnv1a64_longhand(head + tail)

    @given(st.integers(-(2**70), 2**70), st.text(max_size=12))
    def test_hash_unit_matches_longhand(self, seed, value):
        assert hash_unit(seed, value) == oracles.hash_unit_longhand(seed, value)

    @settings(max_examples=60)
    @given(
        rows=st.lists(
            st.one_of(
                st.binary(max_size=12),
                st.binary(min_size=301, max_size=340),
                st.text(alphabet="a\x00é中\U0001f600İ", max_size=8).map(str.encode),
            ),
            max_size=2 * sampling.SCALAR_TAIL,
        ),
        seed=st.sampled_from([None, 0, 2**64 - 1]),
    )
    @example(rows=[bytes(range(n)) for n in range(0, 3 * sampling.SCALAR_TAIL, 2)], seed=0)
    def test_many_equals_longhand_row_by_row(self, rows, seed):
        if seed is None:
            got = sampling.fnv1a64_many(rows)
            prefix = b""
        else:
            got = sampling.fnv1a64_many(rows, sampling._seed_state(seed))
            prefix = seed.to_bytes(8, "little")
        assert got.dtype == np.uint64 and got.shape == (len(rows),)
        assert got.tolist() == [oracles.fnv1a64_longhand(prefix + row) for row in rows]

    @given(st.sampled_from([0, 2**64 - 1]), st.lists(st.text(max_size=12), unique=True))
    def test_hash_units_match_hash_unit(self, seed, values):
        assert sampling.hash_units(seed, values) == {v: hash_unit(seed, v) for v in values}


@settings(max_examples=200)
@given(
    cells=st.lists(_cells, max_size=40),
    strategy=strategies,
    m=st.integers(1, 8),
    seed=st.integers(0, 2**64),
)
def test_sample_values_equals_per_cell_reference(cells, strategy, m, seed):
    out = sample_values(_col(cells), SamplerConfig(strategy, m, seed))
    assert out == oracles.sample_values_longhand(cells, strategy, m, seed)


@settings(max_examples=100)
@given(
    cells=st.lists(_cells, max_size=40),
    strategy=st.sampled_from(["priority", "coordinated"]),
    m=st.integers(1, 8),
)
def test_rank_ties_break_by_utf8_bytes(cells, strategy, m):
    # a coarse hash makes equal ranks common
    coarse = lambda seed, value: (len(value) % 3 + 1) / 3
    original = sampling.hash_unit
    sampling.hash_unit = coarse
    try:
        out = sample_values(_col(cells), SamplerConfig(strategy, m, 0))
    finally:
        sampling.hash_unit = original
    assert out == oracles.sample_values_longhand(cells, strategy, m, 0, unit=coarse)


@settings(max_examples=100, deadline=None)
@given(
    cells=st.one_of(
        st.lists(_cells, max_size=30),
        st.lists(st.one_of(st.none(), _na_cells), max_size=8),  # all missing
        st.tuples(st.text(min_size=1, max_size=3), st.lists(st.one_of(st.none(), _na_cells), max_size=4))
        .filter(lambda t: t[0].strip().lower() not in ("", "na", "n/a", "null", "none"))
        .map(lambda t: [t[0]] * 3 + t[1]),  # one value
    ),
    m=st.integers(1, 8),
    seed=st.integers(0, 2**64 - 1),
)
@example(cells=["", " NA", None, "n/a"], m=3, seed=0)
@example(cells=["x", None, "", "x", "NULL", "x"], m=3, seed=0)
@example(cells=["b", "a", "b", None, "c", " ", "a", "b"], m=2, seed=7)
def test_readers_of_the_kept_counts_equal_a_per_cell_count(cells, m, seed):
    col, mirror = _col(cells), _col(cells[::-1], name="r")
    present = [c for c in cells if not oracles.cell_missing_longhand(c)]
    assert col.distinct == tuple(dict.fromkeys(present))
    assert col.counts == tuple(present.count(v) for v in col.distinct)
    assert col.inferred_type == oracles.infer_type_longhand(cells)  # _classify reads the counts
    for strategy in sampling.STRATEGIES:
        want = {
            name: oracles.sample_values_longhand(column_cells, strategy, m, seed)
            for name, column_cells in (("c", cells), ("r", cells[::-1]))
        }
        config = SamplerConfig(strategy, m, seed)
        assert sample_values(col, config) == want["c"]
        assert column_samples(Table("t", [col, mirror]), config) == want
    # structural_variants reads the name and the first-occurrence distinct values
    stand_in = SimpleNamespace(name=col.name, distinct=tuple(dict.fromkeys(v for v in col.values if v is not None)))
    assert structural_variants(col, 3, seed) == structural_variants(stand_in, 3, seed)
