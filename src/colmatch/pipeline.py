"""End-to-end composition: sample, serialize, embed, retrieve, rerank.

PipelineConfig bundles every stage's options; the four named presets cover
the matrix {plain encoder, fine-tuned projection} x {bipartite, llm}.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .embedding import EmbeddingProviderConfig, get_provider
from .finetune import ProjectedProvider, load_head
from .rerank_llm import DEFAULT_TOP_K, LlmConfig, rerank_llm
from .retrieval import DEFAULT_K, MatchList, exact_name_override, retrieve
from .sampling import SamplerConfig, sample_values
from .serialization import SerializationConfig
from .tables import Table

RERANKERS = ("none", "bipartite", "llm")

# preset -> (reranker, needs a trained projection head)
PRESETS = {
    "zs-bp": ("bipartite", False),
    "ft-bp": ("bipartite", True),
    "zs-llm": ("llm", False),
    "ft-llm": ("llm", True),
}


@dataclass(frozen=True)
class PipelineConfig:
    sampling: Optional[SamplerConfig] = None
    serialization: Optional[SerializationConfig] = None
    provider: Optional[EmbeddingProviderConfig] = None
    k: int = DEFAULT_K
    reranker: str = "none"
    projection_path: Optional[str] = None
    llm: Optional[LlmConfig] = None
    llm_top_k: int = DEFAULT_TOP_K
    seed: int = 0

    def __post_init__(self) -> None:
        if self.sampling is None:
            object.__setattr__(self, "sampling", SamplerConfig(seed=self.seed))
        if self.serialization is None:
            object.__setattr__(self, "serialization", SerializationConfig())
        if self.provider is None:
            object.__setattr__(self, "provider", EmbeddingProviderConfig())
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.llm_top_k < 1:
            raise ValueError("llm_top_k must be >= 1")
        if self.reranker not in RERANKERS:
            raise ValueError(f"reranker must be one of {RERANKERS}")
        if self.reranker == "llm" and self.llm is None:
            raise ValueError("llm endpoint required")

    def as_dict(self) -> dict:
        return {
            "sampling": {
                "strategy": self.sampling.strategy,
                "sample_size": self.sampling.sample_size,
                "seed": self.sampling.seed,
            },
            "serialization": {
                "format": self.serialization.format,
                "repeat_count": self.serialization.repeat_count,
            },
            "provider": {
                "kind": self.provider.kind,
                "dimension": self.provider.dimension,
                "endpoint": self.provider.endpoint,
            },
            "k": self.k,
            "reranker": self.reranker,
            "projection_path": self.projection_path,
            "llm": None
            if self.llm is None
            else {
                "endpoint": self.llm.endpoint,
                "model": self.llm.model,
                "temperature": self.llm.temperature,
            },
            "llm_top_k": self.llm_top_k,
            "seed": self.seed,
        }


def column_samples(table: Table, sampling: SamplerConfig) -> dict:
    return {col.name: sample_values(col, sampling) for col in table.columns}


def rerank_bipartite(matches: MatchList) -> MatchList:
    """colmatch.rerank_bipartite.rerank_bipartite, imported on first use.

    That module loads scipy; deferring it keeps scipy out of every run that
    does not rerank by assignment.
    """
    from . import rerank_bipartite as bipartite

    return bipartite.rerank_bipartite(matches)


def build_provider(config: PipelineConfig):
    provider = get_provider(config.provider)
    if config.projection_path is not None:
        provider = ProjectedProvider(provider, load_head(config.projection_path))
    return provider


def run_pipeline(
    source: Table,
    target: Table,
    config: Optional[PipelineConfig] = None,
    llm_client=None,
) -> MatchList:
    """Retrieve candidates, pin exact-name pairs, then apply the reranker.

    Each column is sampled once; the LLM reranker's prompts show the same
    samples that were serialized and embedded.
    """
    config = config or PipelineConfig()
    if config.reranker == "bipartite":
        # load scipy before this run's working set: imported mid-run, its
        # objects pin freed memory (+5 % peak RSS on 1100 x 1150 columns)
        from . import rerank_bipartite as _  # noqa: F401
    provider = build_provider(config)
    samples = (column_samples(source, config.sampling), column_samples(target, config.sampling))
    matches = retrieve(
        source,
        target,
        config.k,
        serialization=config.serialization,
        provider=provider,
        samples=samples,
    )
    matches = exact_name_override(matches, source, target)
    if config.reranker == "bipartite":
        return rerank_bipartite(matches)
    if config.reranker == "llm":
        return rerank_llm(
            matches, *samples, config.llm, n_send=config.llm_top_k, client=llm_client
        )
    return matches
