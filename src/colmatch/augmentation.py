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
from dataclasses import asdict, dataclass
from typing import Optional, Sequence

from .linestore import replace_atomically
from .pipeline import json_object, read_config, read_json_file
from .rerank_llm import DEFAULT_MAX_CONCURRENT, LlmParseError, ask_each
from .retrieval import column_samples
# sample_values stays importable from here: bench/tracing.py wraps colmatch.augmentation.sample_values
from .sampling import SamplerConfig, child_rng, sample_values  # noqa: F401
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
    values: tuple[str, ...]
    origin: str

    def __post_init__(self) -> None:
        if self.origin not in ORIGINS:
            raise ValueError(f"member {self.name!r}: unknown origin {self.origin!r}")


@dataclass(frozen=True)
class TrainingClass:
    """An anchor column and its variants; members[0] is always the anchor."""

    class_id: int
    members: tuple[ClassMember, ...]

    def __post_init__(self) -> None:
        if not self.members or self.members[0].origin != "anchor":
            raise ValueError("first member must be the anchor")

    @property
    def anchor(self) -> ClassMember:
        return self.members[0]


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
    base_values = list(column.distinct)
    anchor = (column.name, tuple(base_values))
    out = []
    for i in range(count):
        variant = None
        for attempt in range(MAX_REDRAWS + 1):
            rng = child_rng(seed, column.name, i, attempt)
            candidate = (
                _perturb_name(column.name, rng),
                tuple(_perturb_values(base_values, rng)),
            )
            variant = candidate
            if candidate != anchor:
                break
        if variant == anchor:
            rng = child_rng(seed, column.name, i, "accept")
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


def _distinct_from_anchor(anchor_name, anchor_values, name, values, seed, idx):
    anchor = (anchor_name, tuple(anchor_values))
    candidate = (name, tuple(values))
    redraws = 0
    while candidate == anchor and redraws < MAX_REDRAWS:
        rng = child_rng(seed, anchor_name, "semantic", idx, redraws)
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
    max_concurrent: int = DEFAULT_MAX_CONCURRENT,
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
    prompts = {}
    if client is not None and n_semantic > 0:
        prompts = {name: build_augmentation_prompt(name, sample) for name, sample in anchors}
    answers = dict(zip(prompts, ask_each(client, prompts, parse_augmentation_response, max_concurrent)))

    classes = []
    for class_id, (name, sample) in enumerate(anchors):
        members = [ClassMember(name, tuple(sample), "anchor")]
        anchor_col = Column(name, tuple(sample))
        for vname, vvalues in structural_variants(anchor_col, n_structural, seed):
            members.append(ClassMember(vname, tuple(vvalues), "structural"))
        parsed = answers.get(name, [])
        if parsed is None:
            log.warning("LLM augmentation failed for column %r; keeping structural variants only", name)
            parsed = []
        for idx, (vname, values) in enumerate(parsed[:n_semantic]):
            vname, vvalues = _distinct_from_anchor(name, sample, vname, values, seed, idx)
            members.append(ClassMember(vname, tuple(vvalues), "semantic"))
        classes.append(TrainingClass(class_id, tuple(members)))
    return classes


def write_classes(classes: Sequence[TrainingClass], path) -> None:
    """One dataclasses.asdict line per class, written whole or not at all (see replace_atomically)."""
    with replace_atomically(path, encoding="utf-8") as fh:
        for cls in classes:
            fh.write(json.dumps(asdict(cls), ensure_ascii=False) + "\n")


def load_classes(path) -> list:
    """The classes in `path`, one per non-blank line, each read by read_config.

    The file is read as a config file is; errors name the path, the line
    and, where there is one, the key.  A repeated class_id is an error.
    """

    def parse(text: str) -> list:
        classes = {}  # class_id -> class, in line order
        for number, line in enumerate(text.splitlines(), start=1):
            if not line.strip():
                continue
            try:
                cls = read_config(TrainingClass, json_object(line))
                if cls.class_id in classes:
                    raise ValueError(f"class_id {cls.class_id} is taken by an earlier line")
            except ValueError as exc:
                raise ValueError(f"line {number}: {exc}") from None
            classes[cls.class_id] = cls
        return list(classes.values())

    return read_json_file(path, parse)
