"""Embedding providers.

Two kinds: a built-in deterministic feature-hashing embedder (`hash`), which
is the offline default, and a JSON-over-HTTP provider (`remote`).  Both
return unit-norm vectors; degenerate all-zero embeddings fall back to the
basis vector e_0.  CachedProvider keeps results on disk keyed by (provider, text).
"""

from __future__ import annotations

import base64
import hashlib
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
import requests

from .linestore import LineStore
from .sampling import fnv1a64, fnv1a64_many

PROVIDER_KINDS = ("hash", "remote")

DEFAULT_DIMENSION = 256
RETRY_ATTEMPTS = 3
RETRY_BACKOFF_SECONDS = 0.5  # doubled after each failed attempt
REQUEST_TIMEOUT_SECONDS = 30.0


class ProviderError(RuntimeError):
    """Raised when an embedding provider cannot produce vectors."""


@dataclass(frozen=True)
class EmbeddingProviderConfig:
    kind: str = "hash"
    dimension: Optional[int] = None  # None: 256 for hash, provider-reported for remote
    endpoint: Optional[str] = None
    batch_size: int = 32
    cache_path: Optional[str] = None

    def __post_init__(self) -> None:
        if self.kind not in PROVIDER_KINDS:
            raise ValueError(f"unknown provider kind: {self.kind!r}")
        if self.dimension is not None and self.dimension < 2:
            raise ValueError("dimension must be >= 2")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.kind == "remote" and not self.endpoint:
            raise ValueError("remote provider requires an endpoint")

    def provider_id(self) -> str:
        if self.kind == "hash":
            return f"hash:{self.dimension or DEFAULT_DIMENSION}"
        return f"remote:{self.endpoint}"


# the sign draw is FNV-1a over b"\xa5" + trigram, continued from this state
_SIGN_STATE = fnv1a64(b"\xa5")


def normalized(vec: np.ndarray) -> np.ndarray:
    """L2-normalize; an all-zero vector becomes e_0."""
    vec = np.asarray(vec, dtype=np.float64)
    norm = float(np.linalg.norm(vec))
    if norm == 0.0:
        out = np.zeros(vec.shape[0], dtype=np.float64)
        out[0] = 1.0
        return out
    return vec / norm


def hash_embed(text: str, dimension: int = DEFAULT_DIMENSION) -> np.ndarray:
    """Character-trigram feature hashing with signed buckets.

    Lowercases the text, pads inputs shorter than 3 characters with the
    sentinels \\x01/\\x02, hashes each trigram to a bucket of `dimension`
    and a +/-1 sign, then L2-normalizes the accumulated counts.
    """
    if dimension < 2:
        raise ValueError("dimension must be >= 2")
    return _hash_embed_all([text], dimension)[0]


def _hash_embed_all(texts: Sequence[str], dimension: int) -> list:
    """hash_embed of each text; every distinct trigram is hashed once, in one batch."""
    ids = defaultdict()
    ids.default_factory = ids.__len__  # a trigram's id is its first-seen position
    grams, counts = [], []
    for text in texts:
        t = text.lower()
        if len(t) < 3:
            t = "\x01" + t + "\x02"
        n = len(t) - 2
        grams.extend(map(ids.__getitem__, [t[i : i + 3] for i in range(n)]))
        counts.append(n)
    raw = [gram.encode("utf-8") for gram in ids]
    # two independent draws: plain FNV-1a for the bucket, the reseeded one for the sign
    buckets = (fnv1a64_many(raw) % np.uint64(dimension)).astype(np.intp)
    signs = 1.0 - 2.0 * (fnv1a64_many(raw, _SIGN_STATE) & np.uint64(1)).astype(np.float64)
    grams = np.array(grams, dtype=np.intp)
    rows = np.repeat(np.arange(len(counts), dtype=np.intp), counts)
    # sums of +/-1.0 are exact in any order, so this equals adding one trigram at a time
    acc = np.bincount(
        rows * dimension + buckets[grams], weights=signs[grams], minlength=len(counts) * dimension
    )
    return [normalized(row) for row in acc.reshape(len(counts), dimension)]


class VectorCache:
    """On-disk vector cache: one "hexkey  base64(float32 LE)" line each.

    Values are stored as little-endian float32, so a cache miss returns the
    float32-rounded vector too; cold and warm runs then agree bit for bit.
    A last line torn by a crash mid-write (no newline, or not decodable) is
    ignored, and cut off before the next entry is appended.
    """

    def __init__(self, path) -> None:
        self._lock = threading.Lock()
        self._store = LineStore(path, self._parse)
        self._mem = dict(self._store.read())

    @classmethod
    def _parse(cls, line: str) -> tuple:
        key, b64 = line.split()
        return key, cls._decode(b64)

    @staticmethod
    def _decode(b64: str) -> np.ndarray:
        raw = np.frombuffer(base64.b64decode(b64), dtype="<f4")
        return raw.astype(np.float64)

    @staticmethod
    def key(provider_id: str, text: str) -> str:
        digest = hashlib.sha256()
        digest.update(provider_id.encode("utf-8"))
        digest.update(b"\x00")
        digest.update(text.encode("utf-8"))
        return digest.hexdigest()

    def get(self, key: str) -> Optional[np.ndarray]:
        with self._lock:
            vec = self._mem.get(key)
        return None if vec is None else vec.copy()

    def put(self, key: str, vec: np.ndarray) -> np.ndarray:
        """Store and return the float32-rounded vector actually persisted."""
        stored = np.asarray(vec, dtype="<f4")
        rounded = stored.astype(np.float64)
        with self._lock:
            if key not in self._mem:
                self._mem[key] = rounded
                b64 = base64.b64encode(stored.tobytes()).decode("ascii")
                self._store.append(f"{key}  {b64}")
        return rounded.copy()


class HashProvider:
    """Deterministic offline provider built on hash_embed."""

    def __init__(self, config: EmbeddingProviderConfig) -> None:
        self.dimension = config.dimension or DEFAULT_DIMENSION

    def embed(self, texts: Sequence[str]) -> list:
        return _hash_embed_all(texts, self.dimension)


class RemoteProvider:
    """JSON-over-HTTP provider: POST {"texts": [...]} to the /embed route.

    The response must carry {"dimension": D, "vectors": [...]} with vectors
    order-aligned to the request.  Transport failures are retried up to
    RETRY_ATTEMPTS times with exponential backoff; a dimension mismatch is
    a protocol violation and fails immediately.
    """

    def __init__(self, config: EmbeddingProviderConfig) -> None:
        self.config = config
        endpoint = config.endpoint.rstrip("/")
        self.url = endpoint if endpoint.endswith("/embed") else endpoint + "/embed"
        self.dimension = config.dimension  # None until first response

    def embed(self, texts: Sequence[str]) -> list:
        out = []
        for start in range(0, len(texts), self.config.batch_size):
            batch = texts[start : start + self.config.batch_size]
            out.extend(normalized(vec) for vec in self._request(batch))
        return out

    def _request(self, batch: list) -> list:
        delay = RETRY_BACKOFF_SECONDS
        last_error = None
        for attempt in range(RETRY_ATTEMPTS):
            if attempt:
                time.sleep(delay)
                delay *= 2
            try:
                resp = requests.post(
                    self.url, json={"texts": batch}, timeout=REQUEST_TIMEOUT_SECONDS
                )
                resp.raise_for_status()
                payload = resp.json()
                dimension = int(payload["dimension"])
                vectors = [np.asarray(v, dtype=np.float64) for v in payload["vectors"]]
            except (requests.RequestException, ValueError, KeyError, TypeError) as exc:
                last_error = exc
                continue
            if len(vectors) != len(batch):
                raise ProviderError(
                    f"embedding endpoint {self.url} returned {len(vectors)} vectors "
                    f"for {len(batch)} texts"
                )
            if self.dimension is None:
                self.dimension = dimension
            if dimension != self.dimension or any(len(v) != dimension for v in vectors):
                raise ProviderError(
                    f"embedding endpoint {self.url} dimension mismatch: "
                    f"expected {self.dimension}, got {dimension}"
                )
            return vectors
        raise ProviderError(
            f"embedding endpoint {self.url} unreachable after "
            f"{RETRY_ATTEMPTS} attempts: {last_error}"
        )


class CachedProvider:
    """A provider whose vectors are kept in a VectorCache under `provider_id`.

    Every text is looked up first; the distinct misses then reach `inner`
    in one embed call, in first-occurrence order, and are stored in that
    order.  Returned vectors are the float32-rounded ones the cache holds.
    """

    def __init__(self, inner, cache_path, provider_id: str) -> None:
        self.inner = inner
        self._cache = VectorCache(cache_path)
        self._id = provider_id

    @property
    def dimension(self):
        return self.inner.dimension  # a remote provider learns it from its first response

    def embed(self, texts: Sequence[str]) -> list:
        keys = [VectorCache.key(self._id, text) for text in texts]
        out = [self._cache.get(key) for key in keys]
        misses = list(dict.fromkeys(t for t, vec in zip(texts, out) if vec is None))
        if not misses:
            return out
        fresh = dict(zip(misses, self.inner.embed(misses)))
        # put() stores a text once and returns a fresh rounded copy per occurrence
        return [
            self._cache.put(key, fresh[text]) if vec is None else vec
            for text, key, vec in zip(texts, keys, out)
        ]


def get_provider(config: Optional[EmbeddingProviderConfig] = None):
    config = config or EmbeddingProviderConfig()
    provider = HashProvider(config) if config.kind == "hash" else RemoteProvider(config)
    if config.cache_path:
        provider = CachedProvider(provider, config.cache_path, config.provider_id())
    return provider

