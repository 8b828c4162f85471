"""Canonical text form of a column for embedding.

[CLS] and [SEP] are literal tokens with no surrounding whitespace, so the
output is byte-reproducible.  Sample values containing "[SEP]" are rewritten
to "(SEP)" to keep the encoding injective.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

FORMATS = ("default", "verbose", "repeat", "header_only")

CLS = "[CLS]"
SEP = "[SEP]"


@dataclass(frozen=True)
class SerializationConfig:
    format: str = "default"
    repeat_count: int = 5

    def __post_init__(self) -> None:
        if self.format not in FORMATS:
            raise ValueError(f"unknown serialization format: {self.format!r}")
        if self.repeat_count < 1:
            raise ValueError("repeat_count must be >= 1")


def serialize(
    name: str,
    type_label: str,
    sample: Sequence,
    config: Optional[SerializationConfig] = None,
) -> str:
    """Render one column as text.

    default:      [CLS]A[SEP]type[SEP]v1[SEP]...[SEP]vm
    verbose:      [CLS]Column: A[SEP]Type: type[SEP]Values: v1[SEP]...[SEP]vm
    repeat:       like default with the name repeated k times
    header_only:  [CLS]A

    An empty sample drops the values segment entirely (including the
    "Values: " prefix in verbose form).
    """
    config = config or SerializationConfig()
    if config.format == "header_only":
        return CLS + name
    values = [v.replace(SEP, "(SEP)") for v in sample]
    if config.format == "verbose":
        parts = [f"Column: {name}", f"Type: {type_label}"]
        if values:
            parts.append("Values: " + SEP.join(values))
        return CLS + SEP.join(parts)
    repeats = config.repeat_count if config.format == "repeat" else 1
    return CLS + SEP.join([name] * repeats + [type_label] + values)
