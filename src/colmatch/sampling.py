"""Column value sampling.

Picks up to m representative distinct values per column.  The default
strategy ranks values by priority R = freq(v) / h(v) where h is a stable
per-value hash in (0, 1]; because h depends only on (seed, value), two
columns sharing values rank them consistently, which keeps samples
coordinated across tables.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache

from .tables import Column, value_counts

STRATEGIES = ("priority", "coordinated", "weighted", "frequency", "random")

DEFAULT_SAMPLE_SIZE = 10

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = (1 << 64) - 1
_UNIT_BUCKETS = 1 << 53


def fnv1a64(data: bytes, state: int = _FNV_OFFSET) -> int:
    """FNV-1a 64-bit hash.

    `state` continues from an earlier result: fnv1a64(b, fnv1a64(a)) equals
    fnv1a64(a + b).
    """
    h = state
    for byte in data:
        h = ((h ^ byte) * _FNV_PRIME) & _MASK64
    return h


@lru_cache(maxsize=64)
def _seed_state(seed: int) -> int:
    """FNV-1a state after the 8 little-endian seed bytes."""
    return fnv1a64((seed & _MASK64).to_bytes(8, "little"))


def hash_unit(seed: int, value: str) -> float:
    """Stable hash of (seed, value) folded into (0, 1], never exactly 0.

    FNV-1a over the 8 little-endian seed bytes followed by the UTF-8 value.
    """
    h = fnv1a64(value.encode("utf-8"), _seed_state(seed))
    return ((h % _UNIT_BUCKETS) + 1) / _UNIT_BUCKETS


@dataclass(frozen=True)
class SamplerConfig:
    strategy: str = "priority"
    sample_size: int = DEFAULT_SAMPLE_SIZE
    seed: int = 0

    def __post_init__(self) -> None:
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown sampling strategy: {self.strategy!r}")
        if self.sample_size < 1:
            raise ValueError("sample_size must be >= 1")


def sample_values(column: Column, config: SamplerConfig) -> list:
    """Select up to config.sample_size distinct non-missing values.

    Ranked strategies (priority, coordinated, frequency) return values in
    descending rank order; weighted and random return them in selection
    order.  Rank ties break by ascending byte order of the value.  Each
    distinct value is ranked (and hashed) once.
    """
    freq = value_counts(column.values)
    if not freq:
        return []
    seed = config.seed

    # str comparison is code point order, which is also UTF-8 byte order
    if config.strategy == "priority":
        key = lambda v: (-freq[v] / hash_unit(seed, v), v)
    elif config.strategy == "coordinated":
        key = lambda v: (-1.0 / hash_unit(seed, v), v)
    elif config.strategy == "frequency":
        key = lambda v: (-float(freq[v]), v)
    else:
        return _draw(sorted(freq), freq, config)
    return sorted(freq, key=key)[: config.sample_size]


def _draw(values: list, freq: Counter, config: SamplerConfig) -> list:
    """Seeded without-replacement draws in selection order."""
    rng = random.Random(config.seed)
    pool = list(values)
    picked = []
    while pool and len(picked) < config.sample_size:
        if config.strategy == "weighted":
            total = sum(freq[v] for v in pool)
            r = rng.random() * total
            acc = 0.0
            idx = len(pool) - 1
            for i, v in enumerate(pool):
                acc += freq[v]
                if r < acc:
                    idx = i
                    break
        else:
            idx = rng.randrange(len(pool))
        picked.append(pool.pop(idx))
    return picked
