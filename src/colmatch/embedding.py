"""Embedding providers.

Two kinds: a built-in deterministic embedder of hashed character-trigram
counts (`hash`), which is the offline default, and a JSON-over-HTTP provider
(`remote`).  Both return unit-norm vectors; degenerate all-zero embeddings
fall back to the basis vector e_0.  CachedProvider keeps results on disk
keyed by (provider, text).
"""

from __future__ import annotations

import base64
import hashlib
import json
import threading
import time
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .linestore import LineStore
from .sampling import fnv1a64_many

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
            return f"hash-counts:{self.dimension or DEFAULT_DIMENSION}"
        return f"remote:{self.endpoint}"


# a trigram key packs its three code points (each below 2**21) high to low
_POINT = np.uint64((1 << 21) - 1)
_SHIFT1, _SHIFT2 = np.uint64(21), np.uint64(42)


def normalized(vec: np.ndarray) -> np.ndarray:
    """L2-normalize; an all-zero vector becomes e_0."""
    vec = np.asarray(vec, dtype=np.float64)
    norm = float(np.linalg.norm(vec))
    if norm == 0.0:
        out = np.zeros(vec.shape[0], dtype=np.float64)
        out[0] = 1.0
        return out
    return vec / norm


def _hash_embed_all(texts: Sequence[str], dimension: int) -> list:
    """Each text's character-trigram counts, hashed into `dimension` buckets and L2-normalized.

    Texts are lowercased, and those shorter than 3 characters are padded
    with the sentinels \\x01/\\x02.  The padded texts are joined into one
    array of code points, and each trigram inside a text packs into one
    63-bit key (21 bits per code point).  Each distinct key is unpacked to
    its three characters and hashed once, through their UTF-8, in one
    batch: the FNV-1a hash mod `dimension` is its bucket.
    """
    padded = [t if len(t) >= 3 else "\x01" + t + "\x02" for t in map(str.lower, texts)]
    lengths = np.fromiter(map(len, padded), dtype=np.intp, count=len(padded))
    points = np.frombuffer("".join(padded).encode("utf-32-le"), dtype="<u4").astype(np.uint64)
    keys = points[:-2] << _SHIFT2 | points[1:-1] << _SHIFT1 | points[2:]
    # a trigram starts at every position but the last two of each text
    inside = np.ones(len(points), dtype=bool)
    ends = np.cumsum(lengths)
    inside[ends - 1] = inside[ends - 2] = False
    distinct, grams = np.unique(keys[inside[:-2]], return_inverse=True)
    unpacked = np.stack([distinct >> _SHIFT2, distinct >> _SHIFT1 & _POINT, distinct & _POINT], axis=1)
    chars = unpacked.astype("<u4").tobytes().decode("utf-32-le")
    raw = [chars[i : i + 3].encode("utf-8") for i in range(0, len(chars), 3)]
    buckets = (fnv1a64_many(raw) % np.uint64(dimension)).astype(np.intp)
    rows = np.repeat(np.arange(len(padded), dtype=np.intp), lengths - 2)
    counts = np.bincount(rows * dimension + buckets[grams], minlength=len(padded) * dimension)
    counts = counts.reshape(len(padded), dimension)
    # integer counts: each squared norm is exact, so its root is the one normalized() takes
    norms = np.sqrt(np.einsum("ij,ij->i", counts, counts))
    # padding gives every text a trigram but the empty one: "\x01\x02" has none
    zero = norms == 0.0
    counts[zero, 0], norms[zero] = 1.0, 1.0  # an all-zero row becomes e_0
    return list(counts / norms[:, None])


class VectorCache:
    """On-disk vector cache: one "hexkey  base64(float32 LE)" line each.

    Values are stored as little-endian float32, so a cache miss returns the
    float32-rounded vector too; cold and warm runs then agree bit for bit.
    Bytes after the last newline, torn by a crash mid-write, are ignored and
    cut off before the next entry is appended; a complete bad line raises.
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
    """Deterministic offline provider: normalized counts of hashed character trigrams."""

    def __init__(self, config: EmbeddingProviderConfig) -> None:
        self.dimension = config.dimension or DEFAULT_DIMENSION

    def embed(self, texts: Sequence[str]) -> list:
        return _hash_embed_all(texts, self.dimension)


def post_json(url: str, body, timeout: float, headers: Optional[dict] = None):
    """The decoded JSON reply to one POST of `body` as JSON, without retries.

    A failed transport or an HTTP error status raises OSError, a reply that is not JSON ValueError,
    and so does a URL that is not http or https, before anything is opened.
    """
    # deferred: a run that sends no HTTP never loads the HTTP stack
    import http.client
    import urllib.error
    import urllib.parse
    import urllib.request

    if urllib.parse.urlsplit(url).scheme not in ("http", "https"):
        raise ValueError(f"not an http or https URL: {url}")
    data = json.dumps(body, allow_nan=False).encode("utf-8")
    request = urllib.request.Request(url, data, {"Content-Type": "application/json", **(headers or {})})
    try:
        with urllib.request.urlopen(request, timeout=timeout) as resp:
            raw = resp.read()
    except urllib.error.HTTPError as exc:  # an error status: an OSError that holds the reply's socket
        exc.close()
        raise
    except http.client.HTTPException as exc:  # a torn body or a malformed status line
        raise OSError(f"{url}: {exc!r}") from exc
    return json.loads(raw)


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
                payload = post_json(self.url, {"texts": batch}, REQUEST_TIMEOUT_SECONDS)
                dimension = int(payload["dimension"])
                vectors = [np.asarray(v, dtype=np.float64) for v in payload["vectors"]]
            except (OSError, ValueError, KeyError, TypeError) as exc:
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

