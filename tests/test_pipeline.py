import random
from collections import Counter

import numpy as np
import pytest

import colmatch.pipeline as pipeline
import colmatch.retrieval as retrieval
import colmatch.sampling as sampling
from colmatch.embedding import EmbeddingProviderConfig, get_provider
from colmatch.finetune import ProjectionHead, save_head
from colmatch.pipeline import PRESETS, PipelineConfig, run_pipeline
from colmatch.rerank_llm import LlmConfig, column_line
from colmatch.sampling import STRATEGIES, SamplerConfig
from colmatch.serialization import SerializationConfig
from colmatch.tables import Column, Table

from helpers import ScriptedLlmClient


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
        with pytest.raises(ValueError, match="llm endpoint required"):
            PipelineConfig(reranker="llm")

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

    def test_presets_cover_the_two_by_two(self):
        assert PRESETS == {
            "zs-bp": ("bipartite", False),
            "ft-bp": ("bipartite", True),
            "zs-llm": ("llm", False),
            "ft-llm": ("llm", True),
        }


class TestRunPipeline:
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
        profiles = tuple(pipeline.profile_table(t, config, provider) for t in (source, target))
        expected = run_pipeline(source, target, config, llm_client=ScriptedLlmClient())

        def no_sampling(column, config):
            raise AssertionError("sampled although profiles were given")

        monkeypatch.setattr(pipeline, "sample_values", no_sampling)
        got = run_pipeline(source, target, config, llm_client=ScriptedLlmClient(), profiles=profiles)
        assert got == expected

    def test_profile_holds_base_vectors_in_column_order(self):
        source, _ = overlapping_tables()
        config = PipelineConfig(provider=EmbeddingProviderConfig(dimension=32))
        profile = pipeline.profile_table(source, config, get_provider(config.provider))
        assert list(profile.samples) == source.column_names()
        assert profile.vectors.shape == (len(source.columns), 32)
        np.testing.assert_array_equal(
            profile.vectors,
            retrieval.embed_table(source, config.sampling, config.serialization, get_provider(config.provider)),
        )

    def test_head_of_the_wrong_width_is_rejected(self, tmp_path):
        source, target = overlapping_tables()
        head_path = tmp_path / "head.bin"
        save_head(ProjectionHead(np.eye(16)), head_path)
        config = PipelineConfig(
            provider=EmbeddingProviderConfig(dimension=32), projection_path=str(head_path)
        )
        with pytest.raises(ValueError, match="head dimension 16 does not match provider dimension 32"):
            run_pipeline(source, target, config)


def straddling_table():
    """Six columns whose distinct values fill more than two hash batches.

    Columns share values, and hold None, NA spellings and non-ASCII cells.
    """
    rng = random.Random(5)
    n = pipeline.HASH_BATCH // 3
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

        def recording(seed, values, original=pipeline.hash_units):
            batches.append(len(values))
            return original(seed, values)

        monkeypatch.setattr(pipeline, "hash_units", recording)
        got = pipeline.column_samples(table, config)
        assert list(got) == table.column_names()
        assert got == {col.name: sampling.sample_values(col, config) for col in table.columns}
        if strategy in sampling.HASHED_STRATEGIES:
            assert len(batches) >= 2 and max(batches) > pipeline.HASH_BATCH
        else:
            assert batches == []
