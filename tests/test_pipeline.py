import json
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import colmatch.pipeline as pipeline
import colmatch.retrieval as retrieval
import colmatch.sampling as sampling
from colmatch.embedding import PROVIDER_KINDS, EmbeddingProviderConfig, VectorCache, get_provider
from colmatch.finetune import ProjectionHead, save_head
from colmatch.pipeline import PRESETS, RERANKERS, PipelineConfig, run_pipeline
from colmatch.rerank_llm import LlmConfig, RecordingLlmClient, ReplayLlmClient, column_line
from colmatch.sampling import STRATEGIES, SamplerConfig
from colmatch.serialization import FORMATS, SerializationConfig, serialize
from colmatch.tables import Column, Table, load_table

from helpers import ScriptedLlmClient, write_csv


def identity_tables(n=4):
    target_cols = tuple(
        Column(f"col_{i}", tuple(f"v{i}_{r}" for r in range(12))) for i in range(n)
    )
    source_cols = tuple(
        Column(f"Col {i}", tuple(f"v{i}_{r}" for r in range(12))) for i in range(n)
    )
    return Table("source", source_cols), Table("target", target_cols)


class TestConfig:
    def test_defaults_fill_sub_configs(self):
        config = PipelineConfig()
        assert config.sampling.strategy == "priority"
        assert config.serialization.format == "default"
        assert config.provider.kind == "hash"
        assert config.reranker == "none"
        assert config.k == 20

    def test_seed_flows_into_default_sampler(self):
        assert PipelineConfig(seed=7).sampling.seed == 7

    def test_explicit_sampler_not_overridden(self):
        sampler = SamplerConfig(strategy="random", sample_size=5, seed=3)
        config = PipelineConfig(sampling=sampler, seed=9)
        assert config.sampling == sampler

    def test_llm_reranker_requires_llm_config(self):
        config = PipelineConfig(reranker="llm")  # an injected client needs no endpoint
        with pytest.raises(ValueError, match="llm endpoint required"):
            run_pipeline(*identity_tables(), config)

    def test_unknown_reranker_rejected(self):
        with pytest.raises(ValueError):
            PipelineConfig(reranker="magic")

    @pytest.mark.parametrize("kwargs", [{"k": 0}, {"llm_top_k": 0}])
    def test_bad_counts_rejected(self, kwargs):
        with pytest.raises(ValueError):
            PipelineConfig(**kwargs)

    def test_as_dict_echoes_every_stage(self):
        config = PipelineConfig(
            sampling=SamplerConfig(strategy="frequency", sample_size=4, seed=2),
            serialization=SerializationConfig(format="repeat", repeat_count=3),
            provider=EmbeddingProviderConfig(dimension=64),
            k=5,
            reranker="llm",
            llm=LlmConfig(endpoint="http://example/v1"),
            llm_top_k=7,
            seed=2,
        )
        echoed = config.as_dict()
        assert echoed["sampling"] == {"strategy": "frequency", "sample_size": 4, "seed": 2}
        assert echoed["serialization"] == {"format": "repeat", "repeat_count": 3}
        assert echoed["provider"]["dimension"] == 64
        assert echoed["k"] == 5
        assert echoed["llm"]["endpoint"] == "http://example/v1"
        assert echoed["llm_top_k"] == 7

    def test_as_dict_layout(self):
        config = PipelineConfig(
            sampling=SamplerConfig(strategy="frequency", sample_size=4, seed=2),
            serialization=SerializationConfig(format="repeat", repeat_count=3),
            provider=EmbeddingProviderConfig(
                kind="remote", dimension=64, endpoint="http://e/embed", batch_size=8, cache_path="v.cache"
            ),
            k=5,
            reranker="llm",
            projection_path="head.bin",
            llm=LlmConfig(endpoint="http://example/v1", model="m", temperature=0.5, max_concurrent=2),
            llm_top_k=7,
            seed=9,
        )
        # batch_size, cache_path and max_concurrent are not echoed
        assert json.dumps(config.as_dict()) == (
            '{"sampling": {"strategy": "frequency", "sample_size": 4, "seed": 2}, '
            '"serialization": {"format": "repeat", "repeat_count": 3}, '
            '"provider": {"kind": "remote", "dimension": 64, "endpoint": "http://e/embed"}, '
            '"k": 5, "reranker": "llm", "projection_path": "head.bin", '
            '"llm": {"endpoint": "http://example/v1", "model": "m", "temperature": 0.5}, '
            '"llm_top_k": 7, "seed": 9}'
        )
        assert json.dumps(PipelineConfig().as_dict()) == (
            '{"sampling": {"strategy": "priority", "sample_size": 10, "seed": 0}, '
            '"serialization": {"format": "default", "repeat_count": 5}, '
            '"provider": {"kind": "hash", "dimension": null, "endpoint": null}, '
            '"k": 20, "reranker": "none", "projection_path": null, "llm": null, "llm_top_k": 20, "seed": 0}'
        )

    def test_presets_cover_the_two_by_two(self):
        assert PRESETS == {
            "zs-bp": ("bipartite", False),
            "ft-bp": ("bipartite", True),
            "zs-llm": ("llm", False),
            "ft-llm": ("llm", True),
        }


@st.composite
def pipeline_configs(draw):
    """PipelineConfigs as as_dict writes them: default batch_size, cache_path, max_concurrent."""
    text = st.text(min_size=1, max_size=8)
    seeds = st.integers(-(2**63), 2**64)
    kind = draw(st.sampled_from(PROVIDER_KINDS))
    reranker = draw(st.sampled_from(RERANKERS))
    llm = None
    if reranker == "llm" or draw(st.booleans()):
        temperature = draw(st.floats(0, 2, allow_nan=False))
        llm = LlmConfig(endpoint=draw(text), model=draw(text), temperature=temperature)
    return PipelineConfig(
        sampling=SamplerConfig(draw(st.sampled_from(STRATEGIES)), draw(st.integers(1, 99)), draw(seeds)),
        serialization=SerializationConfig(draw(st.sampled_from(FORMATS)), draw(st.integers(1, 9))),
        provider=EmbeddingProviderConfig(
            kind=kind,
            dimension=draw(st.none() | st.integers(2, 4096)),
            endpoint=draw(text if kind == "remote" else st.none() | text),
        ),
        k=draw(st.integers(1, 99)),
        reranker=reranker,
        projection_path=draw(st.none() | text),
        llm=llm,
        llm_top_k=draw(st.integers(1, 99)),
        seed=draw(seeds),
    )


class TestFromDict:
    @settings(max_examples=200, deadline=None)
    @given(pipeline_configs())
    def test_reads_back_what_as_dict_writes(self, config):
        assert PipelineConfig.from_dict(config.as_dict()) == config
        assert PipelineConfig.from_dict(json.loads(json.dumps(config.as_dict()))) == config

    def test_absent_keys_take_the_defaults(self):
        assert PipelineConfig.from_dict({}) == PipelineConfig()
        assert PipelineConfig.from_dict({"sampling": {}, "llm": None}) == PipelineConfig()

    def test_a_sampling_section_without_a_seed_takes_the_top_level_seed(self):
        config = PipelineConfig.from_dict({"seed": "9", "sampling": {"strategy": "random"}})
        assert config.sampling == SamplerConfig(strategy="random", seed=9)
        config = PipelineConfig.from_dict({"seed": 9, "sampling": {"seed": 4}})
        assert (config.seed, config.sampling.seed) == (9, 4)

    @pytest.mark.parametrize(
        "spec",
        [
            {"sampling": None},
            {"provider": {"dimension": None, "endpoint": None, "cache_path": None}},
            {"projection_path": None},
            {"llm": None},
        ],
    )
    def test_null_is_absent_where_the_default_is_none(self, spec):
        assert PipelineConfig.from_dict(spec) == PipelineConfig()

    @pytest.mark.parametrize(
        "spec, message",
        [
            ({"reranker": None}, "reranker must be a string, got None"),
            ({"k": None}, "k must be an integer, got None"),
            ({"sampling": {"strategy": None}}, "sampling.strategy must be a string, got None"),
            ({"provider": {"batch_size": None}}, "provider.batch_size must be an integer, got None"),
            ({"llm": {"endpoint": "e", "model": None}}, "llm.model must be a string, got None"),
            ({"llm": {"endpoint": "e", "temperature": None}}, "llm.temperature must be a number, got None"),
            ({"llm": {"endpoint": "e", "temperature": [1]}}, r"llm.temperature must be a number, got \[1\]"),
            ({"llm": {"endpoint": "e", "temperature": "hot"}}, "llm.temperature must be a number, got 'hot'"),
            ({"llm": {"model": "m"}}, "llm.endpoint is required"),
            ({"sampling": 5}, "sampling must be a JSON object, got 5"),
            ({"llm": []}, r"llm must be a JSON object, got \[\]"),
            ([], r"config must be a JSON object, got \[\]"),
        ],
    )
    def test_every_error_names_its_key(self, spec, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            PipelineConfig.from_dict(spec)

    def test_numbers_as_digits_are_converted(self):
        config = PipelineConfig.from_dict({"k": "7", "llm": {"endpoint": "e", "temperature": "0.5"}})
        assert (config.k, config.llm.temperature) == (7, 0.5)

    def test_value_checks_stay_with_the_config_classes(self):
        with pytest.raises(ValueError, match="dimension must be >= 2"):
            PipelineConfig.from_dict({"provider": {"dimension": 1}})


class TestRunPipeline:
    def test_recording_resumed_after_a_last_exchange_torn_at_any_byte(self, tmp_path):
        tables = identity_tables(2)
        config = PipelineConfig(
            reranker="llm", llm=LlmConfig(endpoint="http://unused.invalid/v1", max_concurrent=1)
        )
        provider = get_provider(config.provider)
        profiles = tuple(
            retrieval.profile_table(t, config.sampling, config.serialization, provider) for t in tables
        )
        transcript = tmp_path / "t.jsonl"

        def run(client):
            return run_pipeline(*tables, config, llm_client=client, profiles=profiles)

        live = run(RecordingLlmClient(ScriptedLlmClient(), transcript))
        intact = transcript.read_bytes()
        last = intact.rindex(b"\n", 0, len(intact) - 1) + 1
        for cut in range(last, len(intact)):
            transcript.write_bytes(intact[:cut])
            assert run(RecordingLlmClient(ScriptedLlmClient(), transcript)) == live
            assert transcript.read_bytes() == intact[:last] + intact  # torn tail cut, every exchange appended
            assert run(ReplayLlmClient(transcript)) == live

    def test_a_cache_of_signed_hash_vectors_is_never_read(self, tmp_path):
        # "hash:256" is the id the signed hash provider kept its vectors under; a wrong vector
        # stored there for every text must not reach the unsigned provider's run
        source, target = overlapping_tables()

        def config(cache):
            return PipelineConfig(provider=EmbeddingProviderConfig(cache_path=str(tmp_path / cache)))

        cold = run_pipeline(source, target, config("cold.cache"))
        warm = config("stale.cache")
        stale = VectorCache(warm.provider.cache_path)
        e1 = np.eye(256)[1]
        for table in (source, target):
            samples = retrieval.column_samples(table, warm.sampling)
            for col in table.columns:
                text = serialize(col.name, col.inferred_type, samples[col.name], warm.serialization)
                stale.put(VectorCache.key("hash:256", text), e1)
        assert run_pipeline(source, target, warm) == cold

    def test_identity_tables_all_pinned_at_rank_one(self):
        source, target = identity_tables()
        matches = run_pipeline(source, target, PipelineConfig())
        for i, col in enumerate(source.columns):
            top = matches.per_source[col.name][0]
            assert top.target == f"col_{i}"
            assert top.score == 1.0
            assert top.rank == 1

    def test_bipartite_reranker_keeps_identity_mapping(self):
        source, target = identity_tables()
        matches = run_pipeline(source, target, PipelineConfig(reranker="bipartite"))
        for i, col in enumerate(source.columns):
            assert matches.per_source[col.name][0].target == f"col_{i}"

    def test_none_reranker_is_pure_retrieval_plus_override(self):
        source, target = identity_tables(3)
        config = PipelineConfig()
        first = run_pipeline(source, target, config)
        second = run_pipeline(source, target, config)
        assert first == second

    def test_identity_projection_head_changes_nothing(self, tmp_path):
        source, target = identity_tables(3)
        head_path = tmp_path / "identity.bin"
        save_head(ProjectionHead(np.eye(256)), head_path)
        plain = run_pipeline(source, target, PipelineConfig())
        projected = run_pipeline(
            source, target, PipelineConfig(projection_path=str(head_path))
        )
        for src in plain.per_source:
            got = [(c.target, pytest.approx(c.score)) for c in projected.per_source[src]]
            want = [(c.target, c.score) for c in plain.per_source[src]]
            assert got == want

    def test_projection_head_is_actually_applied(self, tmp_path):
        source, target = identity_tables(3)
        rng = np.random.RandomState(0)
        head_path = tmp_path / "random.bin"
        save_head(ProjectionHead(np.eye(256) + 0.5 * rng.randn(256, 256)), head_path)
        plain = run_pipeline(source, target, PipelineConfig())
        projected = run_pipeline(
            source, target, PipelineConfig(projection_path=str(head_path))
        )
        plain_scores = [c.score for c in plain.flat()]
        projected_scores = [c.score for c in projected.flat()]
        assert plain_scores != projected_scores

    def test_llm_reranker_uses_injected_client(self):
        source, target = identity_tables(3)
        config = PipelineConfig(
            reranker="llm", llm=LlmConfig(endpoint="http://unused.invalid/v1")
        )
        matches = run_pipeline(source, target, config, llm_client=ScriptedLlmClient())
        # scripted client rescores candidates 0.9, 0.8, ... in prompt order;
        # override pins stay on top because sent candidates keep their order
        for src, cands in matches.per_source.items():
            assert len(cands) >= 1
            assert [c.rank for c in cands] == list(range(1, len(cands) + 1))

    def test_llm_run_samples_each_column_once_and_prompts_the_embedded_sample(
        self, monkeypatch
    ):
        source, target = identity_tables(3)
        calls = Counter()
        for module in (pipeline, retrieval):

            def counting(column, config, original=module.sample_values, **kwargs):
                calls[column.name] += 1
                return original(column, config, **kwargs)

            monkeypatch.setattr(module, "sample_values", counting)
        serialized = {}

        def recording(name, type_label, values, config=None, original=retrieval.serialize):
            serialized[name] = list(values)
            return original(name, type_label, values, config)

        monkeypatch.setattr(retrieval, "serialize", recording)
        prompts = []

        class RecordingClient(ScriptedLlmClient):
            def complete(self, prompt):
                prompts.append(prompt)
                return super().complete(prompt)

        config = PipelineConfig(
            sampling=SamplerConfig(sample_size=4),
            reranker="llm",
            llm=LlmConfig(endpoint="http://unused.invalid/v1"),
        )
        run_pipeline(source, target, config, llm_client=RecordingClient())

        names = source.column_names() + target.column_names()
        assert calls == Counter(names)
        assert sorted(serialized) == sorted(names)
        assert all(len(values) == 4 for values in serialized.values())
        assert len(prompts) == len(source.columns)
        for prompt in prompts:
            input_block = prompt.split("\n\n")[3]
            lines = [line for line in input_block.splitlines() if line.startswith("Column: ")]
            assert len(lines) == 1 + len(target.columns)
            for line in lines:
                name = line[len("Column: ") : line.index(", Sample values: ")]
                assert line == column_line(name, serialized[name])

    def test_built_tables_match_like_the_same_tables_loaded_from_csv(self, tmp_path):
        # NA spellings and the type token must not depend on how a table was built
        cells = {
            "src": {"amount": ("10", "20", "10", "30"), "city": ("NA", "Oslo", "Rome", "Oslo")},
            "tgt": {"amount_total": ("20", "10", "30", "20"), "city_name": ("Rome", "Oslo", "n/a", "Rome")},
        }
        built, loaded = [], []
        for name, columns in cells.items():
            built.append(Table(name, [Column(h, values) for h, values in columns.items()]))
            path = write_csv(tmp_path / f"{name}.csv", list(columns), zip(*columns.values()))
            loaded.append(load_table(path))
        for reranker in ("none", "bipartite"):
            config = PipelineConfig(reranker=reranker)
            assert run_pipeline(*built, config) == run_pipeline(*loaded, config)
        assert built == loaded
        assert [c.inferred_type for c in built[0].columns] == ["numerical", "binary"]

    def test_match_candidates_preserved_by_rerankers(self):
        source, target = identity_tables(4)
        base = run_pipeline(source, target, PipelineConfig())
        reranked = run_pipeline(source, target, PipelineConfig(reranker="bipartite"))
        for src in base.per_source:
            assert {c.target for c in base.per_source[src]} == {
                c.target for c in reranked.per_source[src]
            }


def overlapping_tables():
    """Columns matched by shared values; only "Key"/"key" agree by name."""
    pools = [[f"p{i}_{v}" for v in range(9)] for i in range(4)]

    def mixed(i):  # two values of pool i, then one of the next pool
        return tuple(pools[i if r % 3 else (i + 1) % 4][r % 9] for r in range(12))

    source = Table(
        "source",
        (Column("Key", tuple(pools[0])),) + tuple(Column(f"src{i}", mixed(i)) for i in range(1, 4)),
    )
    target = Table(
        "target",
        (Column("key", tuple(reversed(pools[0]))),)
        + tuple(Column(f"tgt_{i}", tuple(pools[i][(5 * r) % 9] for r in range(12))) for i in range(1, 4)),
    )
    return source, target


class TestProfiles:
    @pytest.mark.parametrize("reranker", ["none", "bipartite", "llm"])
    @pytest.mark.parametrize("with_head", [False, True])
    def test_given_profiles_give_the_same_matches(self, tmp_path, monkeypatch, reranker, with_head):
        source, target = overlapping_tables()
        head_path = None
        if with_head:
            head_path = tmp_path / "head.bin"
            rng = np.random.RandomState(1)
            save_head(ProjectionHead(np.eye(32) + 0.5 * rng.randn(32, 32)), head_path)
            head_path = str(head_path)
        config = PipelineConfig(
            sampling=SamplerConfig(sample_size=5, seed=4),
            provider=EmbeddingProviderConfig(dimension=32),
            k=3,
            reranker=reranker,
            projection_path=head_path,
            llm=LlmConfig(endpoint="http://unused.invalid/v1") if reranker == "llm" else None,
        )
        provider = get_provider(config.provider)
        profiles = tuple(
            retrieval.profile_table(t, config.sampling, config.serialization, provider)
            for t in (source, target)
        )
        expected = run_pipeline(source, target, config, llm_client=ScriptedLlmClient())

        def no_sampling(column, config):
            raise AssertionError("sampled although profiles were given")

        monkeypatch.setattr(retrieval, "sample_values", no_sampling)
        got = run_pipeline(source, target, config, llm_client=ScriptedLlmClient(), profiles=profiles)
        assert got == expected

    def test_profile_holds_base_vectors_in_column_order(self):
        source, _ = overlapping_tables()
        config = PipelineConfig(provider=EmbeddingProviderConfig(dimension=32))
        provider = get_provider(config.provider)
        profile = retrieval.profile_table(source, config.sampling, config.serialization, provider)
        assert list(profile.samples) == source.column_names()
        assert profile.vectors.shape == (len(source.columns), 32)
        texts = [
            serialize(
                col.name, col.inferred_type, sampling.sample_values(col, config.sampling), config.serialization
            )
            for col in source.columns
        ]
        np.testing.assert_array_equal(profile.vectors, np.asarray(provider.embed(texts)))

    def test_head_of_the_wrong_width_is_rejected(self, tmp_path):
        source, target = overlapping_tables()
        head_path = tmp_path / "head.bin"
        save_head(ProjectionHead(np.eye(16)), head_path)
        config = PipelineConfig(
            provider=EmbeddingProviderConfig(dimension=32), projection_path=str(head_path)
        )
        with pytest.raises(ValueError, match="head dimension 16 does not match provider dimension 32"):
            run_pipeline(source, target, config)


_NAMES = ["id", "ID", "city", "City_", "age", "zip", "code", "total", "when", "name"]
_CELLS = ["a", "b", "c", "x1", "7", "7.5", "2020-01-02", "yes", "no", "é中", "NA", ""]


@st.composite
def _table_pair(draw):
    """[(name, cells)] for each of two tables whose columns have equal lengths."""
    n_rows = draw(st.integers(0, 12))
    cells = st.lists(st.sampled_from(_CELLS), min_size=n_rows, max_size=n_rows)
    names = st.lists(st.sampled_from(_NAMES), min_size=1, max_size=5, unique=True)
    return [[(name, draw(cells)) for name in draw(names)] for _ in range(2)]


def _tables(pair):
    return [Table(name, [Column(n, cells) for n, cells in columns]) for name, columns in zip("st", pair)]


@settings(max_examples=60, deadline=None)
@given(pair=_table_pair(), data=st.data(), seed=st.integers(0, 2**32))
def test_permuting_rows_leaves_every_candidate_list_unchanged(pair, data, seed):
    shuffled = []
    for columns in pair:
        order = data.draw(st.permutations(range(len(columns[0][1]))))
        shuffled.append([(name, [cells[i] for i in order]) for name, cells in columns])
    for strategy in STRATEGIES:
        for reranker in ("none", "bipartite"):
            config = PipelineConfig(
                sampling=SamplerConfig(strategy, sample_size=3, seed=seed), reranker=reranker, k=3
            )
            want = run_pipeline(*_tables(pair), config).per_source
            assert run_pipeline(*_tables(shuffled), config).per_source == want


# Permuting the columns moves each score to another cell of the BLAS product
# source @ target.T, which may round it differently in the last bit, and the
# assignment breaks ties in source-column order; so only the profiles, which
# are computed per column, are compared bit for bit.
@settings(max_examples=60, deadline=None)
@given(pair=_table_pair(), data=st.data(), seed=st.integers(0, 2**32))
def test_permuting_columns_leaves_every_column_profile_unchanged(pair, data, seed):
    shuffled = [data.draw(st.permutations(columns)) for columns in pair]
    provider = get_provider()
    for strategy in STRATEGIES:
        profile_args = (SamplerConfig(strategy, sample_size=3, seed=seed), SerializationConfig(), provider)
        for table, moved in zip(_tables(pair), _tables(shuffled)):
            profiles = [retrieval.profile_table(t, *profile_args) for t in (table, moved)]
            rows = [
                {name: vec.tobytes() for name, vec in zip(t.column_names(), p.vectors)}
                for t, p in zip((table, moved), profiles)
            ]
            assert profiles[1].samples == profiles[0].samples
            assert rows[1] == rows[0]
