"""End-to-end composition: sample, serialize, embed, retrieve, rerank.

PipelineConfig bundles every stage's options; the four named presets cover
the matrix {plain encoder, fine-tuned projection} x {bipartite, llm}.
"""

from __future__ import annotations

import dataclasses
import json
import typing
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from . import retrieval
from .embedding import EmbeddingProviderConfig, get_provider
from .finetune import ProjectedProvider, load_head
from .rerank_llm import DEFAULT_TOP_K, LlmConfig, rerank_llm
from .retrieval import DEFAULT_K, MatchList, exact_name_override, profile_table
# column_samples stays importable from here: bench/workloads.py calls colmatch.pipeline.column_samples
from .retrieval import column_samples  # noqa: F401
from .sampling import SamplerConfig
# sample_values stays importable from here: bench/tracing.py wraps colmatch.pipeline.sample_values
from .sampling import sample_values  # noqa: F401
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

# settings as_dict leaves out: they change how a run is carried out, never its matches
UNECHOED = ("provider.batch_size", "provider.cache_path", "llm.max_concurrent")


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


def json_object(text: str) -> dict:
    """The JSON object `text` holds; any other JSON value is a ValueError."""
    value = json.loads(text)
    if not isinstance(value, dict):
        raise ValueError(f"must hold a JSON object, got {type(value).__name__}")
    return value


def read_json_file(path, parse=json_object):
    """parse(text) of the file at `path`, read as UTF-8 with or without a byte-order mark.

    A file that does not decode, or that `parse` rejects, is a ValueError naming `path`.
    """
    try:
        return parse(Path(path).read_text(encoding="utf-8-sig"))
    except ValueError as exc:  # UnicodeDecodeError and JSONDecodeError are ValueErrors
        raise ValueError(f"{path}: {exc}") from None


def _read_value(hint, value, key: str):
    """`value` read as type `hint` for read_config; errors name `key`."""
    if type(None) in typing.get_args(hint):  # Optional[X]: X
        hint = next(t for t in typing.get_args(hint) if t is not type(None))
    if dataclasses.is_dataclass(hint):
        return read_config(hint, value, key)
    if hint is int:
        return as_integer(value, key)
    if hint is float:
        return as_number(value, key)
    if hint is str and not isinstance(value, str):
        raise ValueError(f"{key} must be a string, got {value!r}")
    if hint is tuple or typing.get_origin(hint) is tuple:
        if not isinstance(value, list):
            raise ValueError(f"{key} must be a list, got {value!r}")
        item = (typing.get_args(hint) or (typing.Any,))[0]  # tuple[X, ...]; a bare tuple keeps its items
        return tuple(_read_value(item, v, f"{key}[{i}]") for i, v in enumerate(value))
    return value


def read_config(cls, spec, path: str = ""):
    """cls built from the JSON object `spec`, found at dotted `path` in its file.

    An absent key, or null where the field defaults to None, takes the
    default; any other null is an error.  int and float fields go through
    as_integer and as_number, str fields must be strings, tuple fields
    lists (a tuple[X, ...] field reads each item as X), and config-class
    fields are read the same way.  Other keys are ignored.  Errors name the
    key's path; range checks are cls's own.
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
        if value is not None or field.default is not None:
            given[field.name] = _read_value(hints[field.name], value, key)
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

    def as_dict(self) -> dict:
        """Every setting but UNECHOED's, nested as the config classes nest them."""
        layout = dataclasses.asdict(self)
        for path in UNECHOED:
            section, key = path.split(".")
            if layout[section] is not None:
                del layout[section][key]
        return layout

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
        settings = (config.sampling, config.serialization, provider)
        profiles = tuple(profile_table(t, *settings) for t in (source, target))
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
