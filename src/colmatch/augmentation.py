"""Synthetic training classes for fine-tuning.

Every target-table column becomes the anchor of one class.  Variants come
from two generators: structural perturbation (local, seeded) and semantic
augmentation (an LLM is asked for alternative names and values, then its
fixed comma/semicolon format is parsed).  Only target columns are used;
source columns have unknown true matches and would poison the negatives.
"""

from __future__ import annotations

import json
import logging
import math
import random
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

from .linestore import replace_atomically
from .rerank_llm import LlmParseError, complete_with_retries
from .retrieval import column_samples
# sample_values stays importable from here: bench/tracing.py wraps colmatch.augmentation.sample_values
from .sampling import SamplerConfig, fnv1a64, sample_values  # noqa: F401
from .tables import Column, Table

log = logging.getLogger(__name__)

ORIGINS = ("anchor", "structural", "semantic")

DEFAULT_N_STRUCTURAL = 2
DEFAULT_N_SEMANTIC = 3
MAX_VALUES_PER_VARIANT = 15
MAX_VARIANTS_PER_RESPONSE = 3
MAX_REDRAWS = 5

_NAME_EDIT_ALPHABET = "abcdefghijklmnopqrstuvwxyz_"

INSTRUCTION_TEMPLATE = (
    "Given the table column {name} with values [{values}], generate three "
    "alternative column names that adhere to typical database naming "
    "conventions such as underscores and abbreviations. Additionally, "
    "provide distinct, technically correct synonyms, variants, or "
    "abbreviations for the listed values. For columns with numerical or "
    "datetime data, generate random numbers or dates appropriate to the "
    "column's semantic meaning."
)

FORMAT_BLOCK = (
    "Ensure that each set does not exceed 15 values. Format your output as "
    "follows: alternative_name_1, value1, value2, value3, ...; "
    "alternative_name_2, value1, value2, value3, ...; alternative_name_3, "
    "value1, value2, value3, ... Ensure your response excludes additional "
    "information and quotations."
)


class AugmentationParseError(LlmParseError):
    """LLM response did not contain a single usable segment."""


@dataclass(frozen=True)
class ClassMember:
    name: str
    values: tuple
    origin: str

    def __post_init__(self) -> None:
        if self.origin not in ORIGINS:
            raise ValueError(f"unknown member origin: {self.origin!r}")
        object.__setattr__(self, "values", tuple(self.values))


@dataclass(frozen=True)
class TrainingClass:
    """An anchor column and its variants; members[0] is always the anchor."""

    class_id: int
    members: tuple

    def __post_init__(self) -> None:
        object.__setattr__(self, "members", tuple(self.members))
        if not self.members or self.members[0].origin != "anchor":
            raise ValueError("first member must be the anchor")

    @property
    def anchor(self) -> ClassMember:
        return self.members[0]


def _child_rng(seed: int, *parts) -> random.Random:
    tag = ":".join(str(p) for p in parts)
    return random.Random(fnv1a64(f"{seed}/{tag}".encode("utf-8")))


def _perturb_values(values: Sequence[str], rng: random.Random) -> list:
    pool = list(values)
    rng.shuffle(pool)
    if not pool:
        return pool
    low = max(1, math.ceil(0.5 * len(pool)))
    return pool[: rng.randint(low, len(pool))]


def _perturb_name(name: str, rng: random.Random) -> str:
    if rng.random() >= 0.5:
        return name
    for _ in range(rng.randint(1, 2)):
        can_delete = len(name) >= 2
        if can_delete and rng.random() < 0.5:
            pos = rng.randrange(len(name))
            name = name[:pos] + name[pos + 1 :]
        else:
            pos = rng.randrange(len(name))
            name = name[:pos] + rng.choice(_NAME_EDIT_ALPHABET) + name[pos + 1 :]
    return name


def structural_variants(column: Column, count: int, seed: int) -> list:
    """Seeded (name, values) perturbations of a column.

    Values are shuffled and cut to a uniform 50-100% subset; the name gets
    1-2 character edits (deletion or lowercase/underscore replacement) with
    probability 0.5.  A variant identical to its source is redrawn up to 5
    times, then accepted with one extra value shuffle.
    """
    if count < 0:
        raise ValueError("count must be >= 0")
    base_values = list(dict.fromkeys(column.non_missing()))
    anchor = (column.name, tuple(base_values))
    out = []
    for i in range(count):
        variant = None
        for attempt in range(MAX_REDRAWS + 1):
            rng = _child_rng(seed, column.name, i, attempt)
            candidate = (
                _perturb_name(column.name, rng),
                tuple(_perturb_values(base_values, rng)),
            )
            variant = candidate
            if candidate != anchor:
                break
        if variant == anchor:
            rng = _child_rng(seed, column.name, i, "accept")
            shuffled = list(variant[1])
            rng.shuffle(shuffled)
            variant = (variant[0], tuple(shuffled))
        out.append((variant[0], list(variant[1])))
    return out


def build_augmentation_prompt(name: str, values: Sequence[str]) -> str:
    """Instruction and format blocks with the column rendered in place."""
    instruction = INSTRUCTION_TEMPLATE.format(name=name, values=", ".join(values))
    return "\n\n".join([instruction, FORMAT_BLOCK])


def parse_augmentation_response(text: str) -> list:
    """Parse "name, v1, v2, ...; name, v1, ..." into up to 3 (name, values).

    Segments with an empty name are dropped; value lists are trimmed and
    truncated to 15 entries.  Zero usable segments is a parse failure.
    """
    if text is None or not text.strip():
        raise AugmentationParseError("empty response")
    out = []
    for segment in text.split(";"):
        parts = segment.split(",")
        name = parts[0].strip()
        if not name:
            continue
        values = [v.strip() for v in parts[1:]]
        out.append((name, values[:MAX_VALUES_PER_VARIANT]))
        if len(out) == MAX_VARIANTS_PER_RESPONSE:
            break
    if not out:
        raise AugmentationParseError("no usable segments in response")
    return out


def _semantic_variants(name, sample, client, n_semantic, seed):
    prompt = build_augmentation_prompt(name, sample)
    parsed = complete_with_retries(client, prompt, parse_augmentation_response, name)
    if parsed is None:
        log.warning("LLM augmentation failed for column %r; keeping structural variants only", name)
        return []
    return [
        _distinct_from_anchor(name, sample, vname, values, seed, idx)
        for idx, (vname, values) in enumerate(parsed[:n_semantic])
    ]


def _distinct_from_anchor(anchor_name, anchor_values, name, values, seed, idx):
    anchor = (anchor_name, tuple(anchor_values))
    candidate = (name, tuple(values))
    redraws = 0
    while candidate == anchor and redraws < MAX_REDRAWS:
        rng = _child_rng(seed, anchor_name, "semantic", idx, redraws)
        shuffled = list(candidate[1])
        rng.shuffle(shuffled)
        candidate = (candidate[0], tuple(shuffled))
        redraws += 1
    return candidate[0], list(candidate[1])


def build_classes(
    target: Table,
    n_structural: int = DEFAULT_N_STRUCTURAL,
    n_semantic: int = DEFAULT_N_SEMANTIC,
    seed: int = 0,
    client=None,
    sampling: Optional[SamplerConfig] = None,
    max_concurrent: int = 4,
) -> list:
    """One TrainingClass per target column, ids 0..P-1 in column order.

    Semantic variants need an LLM client; without one (or after exhausted
    retries) a class holds the anchor and structural variants only.
    """
    if not target.columns:
        raise ValueError("target table must have at least one column")
    if client is None and n_semantic > 0:
        log.warning("no LLM client configured; classes will be structural only")
    anchors = list(column_samples(target, sampling or SamplerConfig(seed=seed)).items())

    def semantic_for(idx):
        name, sample = anchors[idx]
        if client is None or n_semantic <= 0:
            return []
        return _semantic_variants(name, sample, client, n_semantic, seed)

    with ThreadPoolExecutor(max_workers=max(1, max_concurrent)) as pool:
        semantic = list(pool.map(semantic_for, range(len(anchors))))

    classes = []
    for class_id, (col, (name, sample)) in enumerate(zip(target.columns, anchors)):
        members = [ClassMember(name, tuple(sample), "anchor")]
        anchor_col = Column(name, tuple(sample))
        for vname, vvalues in structural_variants(anchor_col, n_structural, seed):
            members.append(ClassMember(vname, tuple(vvalues), "structural"))
        for vname, vvalues in semantic[class_id]:
            members.append(ClassMember(vname, tuple(vvalues), "semantic"))
        classes.append(TrainingClass(class_id, tuple(members)))
    return classes


def write_classes(classes: Sequence[TrainingClass], path) -> None:
    """Write one JSON line per class, whole or not at all (see replace_atomically)."""
    with replace_atomically(path, encoding="utf-8") as fh:
        for cls in classes:
            record = {
                "class_id": cls.class_id,
                "members": [
                    {"name": m.name, "values": list(m.values), "origin": m.origin}
                    for m in cls.members
                ],
            }
            fh.write(json.dumps(record, ensure_ascii=False) + "\n")


def load_classes(path) -> list:
    classes = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if not line.strip():
            continue
        record = json.loads(line)
        members = tuple(
            ClassMember(m["name"], tuple(m["values"]), m["origin"])
            for m in record["members"]
        )
        classes.append(TrainingClass(int(record["class_id"]), members))
    return classes
