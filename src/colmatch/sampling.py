"""Column value sampling.

Picks up to m representative distinct values per column.  The default
strategy ranks values by priority R = freq(v) / h(v) where h is a stable
per-value hash in (0, 1]; because h depends only on (seed, value), two
columns sharing values rank them consistently, which keeps samples
coordinated across tables.
"""

from __future__ import annotations

import heapq
import random
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from .tables import Column, value_counts

STRATEGIES = ("priority", "coordinated", "weighted", "frequency", "random")
HASHED_STRATEGIES = ("priority", "coordinated")  # the strategies that rank by hash_unit

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = (1 << 64) - 1
_UNIT_BUCKETS = 1 << 53
# rows below which fnv1a64_many hashes the rest one row at a time: a numpy
# step took as long as about 28 rows' scalar steps on one 2-core VM
SCALAR_TAIL = 24


def fnv1a64(data: bytes, state: int = _FNV_OFFSET) -> int:
    """FNV-1a 64-bit hash.

    `state` continues from an earlier result: fnv1a64(b, fnv1a64(a)) equals
    fnv1a64(a + b).
    """
    h = state
    for byte in data:
        h = ((h ^ byte) * _FNV_PRIME) & _MASK64
    return h


def fnv1a64_many(rows, state: int = _FNV_OFFSET) -> np.ndarray:
    """fnv1a64(row, state) for each byte string in `rows`, as one uint64 array.

    The rows are concatenated longest first, so at byte position j the rows
    longer than j form a prefix and one step hashes that prefix in place:
    about three numpy operations per byte position, and memory in
    proportion to the total bytes.  uint64 products wrap mod 2**64, as the
    scalar hash masks them.  Once fewer than SCALAR_TAIL rows are left, a
    numpy step costs more than hashing their remaining bytes one by one,
    so the scalar loop finishes them.
    """
    lengths = np.fromiter(map(len, rows), dtype=np.intp, count=len(rows))
    order = np.argsort(-lengths, kind="stable")
    lengths = lengths[order]
    ordered = [rows[i] for i in order.tolist()]
    flat = np.frombuffer(b"".join(ordered), dtype=np.uint8)
    starts = np.cumsum(lengths) - lengths
    # longer[j]: how many rows are longer than j bytes
    longer = len(rows) - np.cumsum(np.bincount(lengths))
    h = np.full(len(rows), state, dtype=np.uint64)
    prime = np.uint64(_FNV_PRIME)
    for j, n in enumerate(longer[:-1].tolist()):
        if n < SCALAR_TAIL:
            for i in range(n):
                h[i] = fnv1a64(ordered[i][j:], int(h[i]))
            break
        head = h[:n]
        head ^= flat[starts[:n] + j]
        head *= prime
    out = np.empty_like(h)
    out[order] = h
    return out


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


def hash_units(seed: int, values) -> dict:
    """{value: hash_unit(seed, value)} for distinct str values, hashed in one batch."""
    values = list(values)
    h = fnv1a64_many([v.encode("utf-8") for v in values], _seed_state(seed))
    units = ((h % np.uint64(_UNIT_BUCKETS)) + np.uint64(1)) / _UNIT_BUCKETS
    return dict(zip(values, units.tolist()))


@dataclass(frozen=True)
class SamplerConfig:
    strategy: str = "priority"
    sample_size: int = 10
    seed: int = 0

    def __post_init__(self) -> None:
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown sampling strategy: {self.strategy!r}")
        if self.sample_size < 1:
            raise ValueError("sample_size must be >= 1")


def sample_values(column: Column, config: SamplerConfig, units: Optional[dict] = None) -> list:
    """Select up to config.sample_size distinct non-missing values.

    Ranked strategies (priority, coordinated, frequency) return values in
    descending rank order; weighted and random return them in selection
    order.  Rank ties break by ascending byte order of the value.  Each
    distinct value is ranked (and hashed) once.  `units` may map every
    distinct value to its hash_unit(config.seed, value), as hash_units
    returns it; without it each value is hashed here.
    """
    freq = value_counts(column.values)
    if not freq:
        return []
    if config.strategy in HASHED_STRATEGIES and units is None:
        units = {v: hash_unit(config.seed, v) for v in freq}

    # str comparison is code point order, which is also UTF-8 byte order
    if config.strategy == "priority":
        key = lambda v: (-freq[v] / units[v], v)
    elif config.strategy == "coordinated":
        key = lambda v: (-1.0 / units[v], v)
    elif config.strategy == "frequency":
        key = lambda v: (-float(freq[v]), v)
    else:
        return _draw(sorted(freq), freq, config)
    return heapq.nsmallest(config.sample_size, freq, key=key)


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
