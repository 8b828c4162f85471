"""End-to-end composition: sample, serialize, embed, retrieve, rerank.

PipelineConfig bundles every stage's options; the four named presets cover
the matrix {plain encoder, fine-tuned projection} x {bipartite, llm}.
"""

from __future__ import annotations

import dataclasses
import typing
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import retrieval
from .embedding import EmbeddingProviderConfig, get_provider
from .finetune import ProjectedProvider, load_head
from .rerank_llm import DEFAULT_TOP_K, LlmConfig, rerank_llm
from .retrieval import DEFAULT_K, MatchList, embed_samples, exact_name_override
from .sampling import HASHED_STRATEGIES, SamplerConfig, hash_units, sample_values
from .serialization import SerializationConfig
from .tables import Table

RERANKERS = ("none", "bipartite", "llm")

# distinct values hashed per batch: large enough to amortise the kernel's
# per-byte steps, small enough to keep the batch's arrays out of peak memory
HASH_BATCH = 2048

# preset -> (reranker, needs a trained projection head)
PRESETS = {
    "zs-bp": ("bipartite", False),
    "ft-bp": ("bipartite", True),
    "zs-llm": ("llm", False),
    "ft-llm": ("llm", True),
}


def as_integer(value, key: str) -> int:
    """int(value) of an int, integral float or digit string; else a ValueError naming `key`."""
    try:
        if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
            raise ValueError
        return int(value)
    except (TypeError, ValueError):
        raise ValueError(f"{key} must be an integer, got {value!r}") from None


def as_number(value, key: str) -> float:
    """float(value); a config-file value that float() refuses is a ValueError naming its key."""
    try:
        return float(value)
    except (TypeError, ValueError):
        raise ValueError(f"{key} must be a number, got {value!r}") from None


def read_config(cls, spec, path: str = ""):
    """cls built from the JSON object `spec`, found at dotted `path` in its file.

    An absent key, or null where the field defaults to None, takes the
    default; any other null is an error.  int and float fields go through
    as_integer and as_number, str fields must be strings, tuple fields
    lists, and config-class fields are read the same way.  Other keys are
    ignored.  Errors name the key's path; range checks are cls's own.
    """
    if not isinstance(spec, dict):
        raise ValueError(f"{path or 'config'} must be a JSON object, got {spec!r}")
    hints = typing.get_type_hints(cls)
    given = {}
    for field in dataclasses.fields(cls):
        key = f"{path}.{field.name}" if path else field.name
        if field.name not in spec:
            if field.default is dataclasses.MISSING:
                raise ValueError(f"{key} is required")
            continue
        value = spec[field.name]
        if value is None and field.default is None:
            continue
        hint = hints[field.name]
        kind = next((t for t in typing.get_args(hint) if t is not type(None)), hint)  # Optional[X]: X
        if dataclasses.is_dataclass(kind):
            value = read_config(kind, value, key)
        elif kind is int:
            value = as_integer(value, key)
        elif kind is float:
            value = as_number(value, key)
        elif kind is str and not isinstance(value, str):
            raise ValueError(f"{key} must be a string, got {value!r}")
        elif kind is tuple:
            if not isinstance(value, list):
                raise ValueError(f"{key} must be a list, got {value!r}")
            value = tuple(value)
        given[field.name] = value
    return cls(**given)


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

    @classmethod
    def from_dict(cls, spec) -> PipelineConfig:
        """The inverse of as_dict, read by read_config.

        A sampling section without a seed takes the top-level seed, as an
        absent section does.
        """
        config = read_config(cls, spec)
        if "seed" in (spec.get("sampling") or {}):
            return config
        sampling = dataclasses.replace(config.sampling, seed=config.seed)
        return dataclasses.replace(config, sampling=sampling)


def column_samples(table: Table, sampling: SamplerConfig) -> dict:
    """sample_values for each column, in column order.

    Strategies that rank by hash get their units from hash_units, over the
    distinct values of consecutive columns until a batch holds HASH_BATCH.
    """
    if sampling.strategy not in HASHED_STRATEGIES:
        return {col.name: sample_values(col, sampling) for col in table.columns}
    samples = {}
    pending, distinct = [], set()
    for i, col in enumerate(table.columns, start=1):
        pending.append(col)
        distinct.update(col.values)
        if len(distinct) >= HASH_BATCH or i == len(table.columns):
            distinct.discard(None)
            units = hash_units(sampling.seed, distinct)
            for held in pending:
                samples[held.name] = sample_values(held, sampling, units=units)
            pending, distinct = [], set()
    return samples


@dataclass(frozen=True, eq=False)
class TableProfile:
    """One table's sampled values and its base-provider vectors, before any head.

    They depend only on the sampling, serialization and provider settings,
    so runs that differ in reranker or projection head can share one profile.
    """

    samples: dict  # column name -> sampled values
    vectors: np.ndarray  # (n_columns, D), in column order


def profile_table(
    table: Table, config: PipelineConfig, provider, samples: Optional[dict] = None
) -> TableProfile:
    """Sample the table (unless `samples` holds its draw under config.sampling) and embed it."""
    if samples is None:
        samples = column_samples(table, config.sampling)
    return TableProfile(samples, embed_samples(table, samples, config.serialization, provider))


def rerank_bipartite(matches: MatchList) -> MatchList:
    """colmatch.rerank_bipartite.rerank_bipartite, imported on first use.

    That module loads scipy; deferring it keeps scipy out of every run that
    does not rerank by assignment.
    """
    from . import rerank_bipartite as bipartite

    return bipartite.rerank_bipartite(matches)


def build_provider(config: PipelineConfig):
    """The configured provider, wrapped in the projection head if there is one.

    It embeds as run_pipeline does: base vectors, then the head's apply_all.
    """
    provider = get_provider(config.provider)
    if config.projection_path is not None:
        provider = ProjectedProvider(provider, load_head(config.projection_path))
    return provider


def run_pipeline(
    source: Table,
    target: Table,
    config: Optional[PipelineConfig] = None,
    llm_client=None,
    profiles: Optional[tuple] = None,
) -> MatchList:
    """Retrieve candidates, pin exact-name pairs, then apply the reranker.

    Both tables are profiled here unless `profiles` holds their (source,
    target) TableProfiles under this config's sampling, serialization and
    provider; a projection head applies to the profiles' base vectors.  The
    LLM reranker's prompts show the samples that were serialized and embedded.
    """
    config = config or PipelineConfig()
    if not source.columns or not target.columns:
        raise ValueError("both tables must have at least one column")
    if config.reranker == "bipartite":
        # load scipy before this run's working set: imported mid-run, its
        # objects pin freed memory (+5 % peak RSS on 1100 x 1150 columns)
        from . import rerank_bipartite as _  # noqa: F401
    head = None if config.projection_path is None else load_head(config.projection_path)
    if profiles is None:
        provider = get_provider(config.provider)
        profiles = tuple(profile_table(t, config, provider) for t in (source, target))
    vectors = [p.vectors if head is None else head.apply_all(p.vectors) for p in profiles]
    matches = retrieval.retrieve_from_vectors(source, target, *vectors, config.k)
    matches = exact_name_override(matches, source, target)
    if config.reranker == "bipartite":
        return rerank_bipartite(matches)
    if config.reranker == "llm":
        return rerank_llm(
            matches,
            profiles[0].samples,
            profiles[1].samples,
            config.llm,
            n_send=config.llm_top_k,
            client=llm_client,
        )
    return matches
