import json
import re
import time

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import colmatch.embedding as embedding
from colmatch.embedding import (
    CachedProvider,
    EmbeddingProviderConfig,
    ProviderError,
    HashProvider,
    VectorCache,
    get_provider,
    post_json,
)
from colmatch.sampling import fnv1a64_many

import oracles
from helpers import hash_vector
from stubs import JsonStubServer, RawReplyServer


def embed_batch(texts, config=None):
    """Embed texts in order with the configured provider."""
    return get_provider(config).embed(list(texts))


def _cos(a, b):
    return float(np.dot(a, b))


class TestHashEmbed:
    def test_unit_norm(self):
        for text in ["patient_age", "x", "", "Érik", "a b c d"]:
            assert abs(np.linalg.norm(hash_vector(text)) - 1.0) <= 1e-6

    def test_empty_string_is_basis_vector(self):
        vec = hash_vector("")
        expected = np.zeros(256)
        expected[0] = 1.0
        assert np.array_equal(vec, expected)

    def test_short_text_padded(self):
        vec = hash_vector("ab")
        assert abs(np.linalg.norm(vec) - 1.0) <= 1e-6
        assert not np.array_equal(vec, hash_vector(""))

    def test_lowercased(self):
        assert np.array_equal(hash_vector("Patient_Age"), hash_vector("patient_age"))

    def test_shared_trigrams_raise_similarity(self):
        a = hash_vector("patient_age")
        close = hash_vector("patientage")
        far = hash_vector("zzqx")
        assert _cos(a, close) > _cos(a, far)

    def test_dimension_respected(self):
        assert hash_vector("abcdef", 32).shape == (32,)
        with pytest.raises(ValueError):
            EmbeddingProviderConfig(dimension=1)

    @given(st.text(max_size=20), st.text(max_size=20))
    def test_similarity_symmetric_and_bounded(self, s, t):
        a, b = hash_vector(s, 64), hash_vector(t, 64)
        sim = _cos(a, b)
        assert sim == pytest.approx(_cos(b, a))
        assert -1.0 - 1e-9 <= sim <= 1.0 + 1e-9


class TestConfig:
    def test_remote_requires_endpoint(self):
        with pytest.raises(ValueError):
            EmbeddingProviderConfig(kind="remote")

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            EmbeddingProviderConfig(kind="openai")

    def test_bad_batch_size(self):
        with pytest.raises(ValueError):
            EmbeddingProviderConfig(batch_size=0)


class TestHashProvider:
    def test_duplicate_texts_identical(self):
        a, b = embed_batch(["age", "age"])
        assert np.array_equal(a, b)

    def test_batching_matches_single_calls(self):
        texts = [f"column {i}" for i in range(7)]
        whole = embed_batch(texts)
        singles = [embed_batch([t])[0] for t in texts]
        for w, s in zip(whole, singles):
            assert np.array_equal(w, s)

    def test_empty_batch_gives_no_vectors(self):
        assert HashProvider(EmbeddingProviderConfig()).embed([]) == []

    @pytest.mark.parametrize("dimension", [2, 7, 256])
    def test_batch_equals_stacked_single_texts_bit_for_bit(self, dimension):
        texts = ["", "ab", "İ", "\U0001f600", "a\U0001f600b", "Patient_Age", "x" * 400, "ab", "ÉRIK é中"]
        batch = np.stack(HashProvider(EmbeddingProviderConfig(dimension=dimension)).embed(texts))
        singles = np.stack([hash_vector(text, dimension) for text in texts])
        longhand = np.stack([oracles.hash_counts_longhand(text, dimension) for text in texts])
        assert batch.view(np.uint64).tolist() == singles.view(np.uint64).tolist()
        assert batch.view(np.uint64).tolist() == longhand.view(np.uint64).tolist()

    @given(st.lists(st.text(max_size=12), max_size=8), st.integers(2, 300))
    @example(["bb", "a\U0001f600", "cİé", "ab"], 7)
    def test_batch_equals_longhand(self, texts, dimension):
        batch = HashProvider(EmbeddingProviderConfig(dimension=dimension)).embed(texts)
        assert len(batch) == len(texts)
        for text, vec in zip(texts, batch):
            assert vec.tobytes() == oracles.hash_counts_longhand(text, dimension).tobytes()

    # the signed reference takes each trigram's sign from a hash whose low bit the bucket fixes at
    # an even dimension, so unsigned counts keep its |vector| and its cosines.  The empty text's
    # e_0 is the one vector not made of counts: the reference's bucket 0 has sign -1, so e_0's
    # cosines with it take the other sign.  No serialized column is empty.
    @settings(max_examples=200)
    @given(
        texts=st.lists(
            st.one_of(
                st.text(max_size=2),
                st.text(alphabet="abcé\x01\x02İ\U0001f600 中", max_size=8),
                st.text(max_size=40),
            ),
            max_size=8,
        ),
        dimension=st.integers(1, 150).map(lambda half: 2 * half),
    )
    @example(texts=[], dimension=2)
    @example(texts=[""], dimension=256)
    @example(texts=["a", "ab", "İ", "\U0001f600", "\x01", "\x02\x01", "a\x01b\x02c"], dimension=256)
    def test_even_dimension_vectors_are_the_signed_ones_unsigned(self, texts, dimension):
        batch = HashProvider(EmbeddingProviderConfig(dimension=dimension)).embed(texts)
        batch = np.array(batch).reshape(-1, dimension)
        signed = np.array(oracles.hash_embed_all_per_text(texts, dimension)).reshape(-1, dimension)
        assert batch.tobytes() == np.abs(signed).tobytes()
        counted = [i for i, text in enumerate(texts) if text]
        batch, signed = batch[counted], signed[counted]
        assert (batch @ batch.T).tobytes() == (signed @ signed.T).tobytes()

    # FNV-1a multiplies by an odd prime, so two hashes of the same bytes differ in the low bit as
    # their start states do.  A sign drawn from a second hash's low bit is therefore the bucket
    # hash's low bit, fixed by the bucket at an even dimension: why the embedder keeps no signs
    @settings(max_examples=200)
    @given(
        rows=st.lists(st.binary(max_size=12), max_size=40),
        a=st.integers(0, 2**64 - 1),
        b=st.integers(0, 2**64 - 1),
    )
    def test_low_bits_of_two_start_states_differ_by_their_low_bits(self, rows, a, b):
        low_a = fnv1a64_many(rows, a) & np.uint64(1)
        low_b = fnv1a64_many(rows, b) & np.uint64(1)
        assert ((low_a ^ low_b) == np.uint64((a ^ b) & 1)).all()

    @settings(max_examples=200)
    @given(texts=st.lists(st.text(max_size=6), max_size=8), dimension=st.integers(2, 300))
    @example(texts=["", "a", "ab", "\x01", "bb", "a\U0001f600", "cİé"], dimension=2)
    def test_only_the_empty_text_embeds_to_e0_at_any_dimension(self, texts, dimension):
        e0 = np.zeros(dimension)
        e0[0] = 1.0
        for text, vec in zip(texts, HashProvider(EmbeddingProviderConfig(dimension=dimension)).embed(texts)):
            t = text.lower()
            t = t if len(t) >= 3 else "\x01" + t + "\x02"
            # padding gives every text a trigram but the empty one
            assert (len(t) == 2) == (text == "")
            grams = [t[i : i + 3].encode("utf-8") for i in range(len(t) - 2)]
            buckets = {oracles.fnv1a64_longhand(gram) % dimension for gram in grams}
            # counts never cancel: a text embeds to e_0 iff it has no trigram or all fall in bucket 0
            assert (vec.tobytes() == e0.tobytes()) == (buckets <= {0})

    def test_cache_round_trip(self, tmp_path):
        cache = tmp_path / "vectors.cache"
        cfg = EmbeddingProviderConfig(cache_path=str(cache))
        texts = ["alpha", "beta", "alpha"]
        cold = embed_batch(texts, cfg)
        assert cache.exists()
        warm = embed_batch(texts, cfg)
        for c, w in zip(cold, warm):
            assert c.tobytes() == w.tobytes()

    def test_cache_file_format(self, tmp_path):
        cache = tmp_path / "vectors.cache"
        cfg = EmbeddingProviderConfig(dimension=16, cache_path=str(cache))
        embed_batch(["alpha"], cfg)
        line = cache.read_text(encoding="ascii").strip()
        key, b64 = line.split()
        assert len(key) == 64 and int(key, 16) >= 0
        import base64

        raw = base64.b64decode(b64)
        assert len(raw) == 16 * 4  # float32 payload

    def test_torn_last_line_ignored_then_cut_before_append(self, tmp_path):
        cache = tmp_path / "vectors.cache"
        cfg = EmbeddingProviderConfig(dimension=16, cache_path=str(cache))
        texts = ["alpha", "beta", "gamma"]
        whole = embed_batch(texts, cfg)
        intact = cache.read_bytes()
        assert intact.count(b"\n") == 3
        cache.write_bytes(intact[:-20])  # a crash mid-write of the third line

        reloaded = VectorCache(cache)
        assert reloaded.get(VectorCache.key(cfg.provider_id(), "beta")) is not None
        assert reloaded.get(VectorCache.key(cfg.provider_id(), "gamma")) is None
        again = embed_batch(texts, cfg)
        for a, b in zip(whole, again):
            assert a.tobytes() == b.tobytes()
        assert cache.read_bytes() == intact

    def test_last_line_torn_at_any_byte_is_cut_and_rewritten(self, tmp_path):
        cache = tmp_path / "vectors.cache"
        cfg = EmbeddingProviderConfig(dimension=16, cache_path=str(cache))
        texts = ["alpha", "beta", "gamma"]
        whole = [v.tobytes() for v in embed_batch(texts, cfg)]
        intact = cache.read_bytes()
        last = intact.rindex(b"\n", 0, len(intact) - 1) + 1
        for cut in range(last, len(intact)):
            cache.write_bytes(intact[:cut])
            assert [v.tobytes() for v in embed_batch(texts, cfg)] == whole
            assert cache.read_bytes() == intact

    def test_two_readers_of_a_torn_cache_keep_each_others_entries(self, tmp_path):
        cache = tmp_path / "vectors.cache"
        cfg = EmbeddingProviderConfig(dimension=16, cache_path=str(cache))
        embed_batch(["alpha", "beta"], cfg)
        cache.write_bytes(cache.read_bytes()[:-20])
        first, second = VectorCache(cache), VectorCache(cache)
        first.put("k1", np.ones(16))
        second.put("k2", np.ones(16))
        reloaded = VectorCache(cache)
        for key in ("k1", "k2", VectorCache.key(cfg.provider_id(), "alpha")):
            assert reloaded.get(key) is not None

    def test_undecodable_line_raises_whether_last_or_earlier(self, tmp_path):
        cache = tmp_path / "vectors.cache"
        cfg = EmbeddingProviderConfig(dimension=16, cache_path=str(cache))
        embed_batch(["alpha"], cfg)
        intact = cache.read_bytes()
        for damaged, line in ((intact + b"0f  abc\n", 2), (b"0f  abc\n" + intact, 1)):
            cache.write_bytes(damaged)
            with pytest.raises(ValueError, match=f"vectors.cache:{line}: Incorrect padding"):
                embed_batch(["beta"], cfg)
            assert cache.read_bytes() == damaged

    def test_cache_distinguishes_providers(self, tmp_path):
        cache = tmp_path / "vectors.cache"
        a = embed_batch(["x"], EmbeddingProviderConfig(dimension=16, cache_path=str(cache)))
        b = embed_batch(["x"], EmbeddingProviderConfig(dimension=32, cache_path=str(cache)))
        assert a[0].shape != b[0].shape


class _NoSleep:
    def __enter__(self):
        self._orig = embedding.time.sleep
        embedding.time.sleep = lambda s: None
        return self

    def __exit__(self, *exc):
        embedding.time.sleep = self._orig
        return False


REPLY_OK = b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 12\r\n\r\n{\"ok\": true}"


class TestPostJson:
    def test_sends_the_body_and_headers_and_decodes_the_reply(self):
        def handler(path, body):
            return 200, {"echo": body}

        with JsonStubServer(handler) as server:
            reply = post_json(server.url + "/x", {"a": [1, "é"]}, 5.0, {"X-Test": "yes"})
            path, body, headers = server.requests[0]
        assert reply == {"echo": {"a": [1, "é"]}}
        assert (path, body, headers.get("X-Test")) == ("/x", {"a": [1, "é"]}, "yes")

    def test_an_error_status_raises_oserror(self):
        with JsonStubServer(lambda path, body: (503, {"error": "overloaded"})) as server:
            with pytest.raises(OSError, match="503"):
                post_json(server.url, {}, 5.0)

    def test_a_reply_that_is_not_json_raises_valueerror(self):
        with JsonStubServer(lambda path, body: (200, "not json")) as server:
            with pytest.raises(ValueError):
                post_json(server.url, {}, 5.0)

    def test_the_body_is_sent_as_compact_utf8_json(self):
        body = {"texts": ["é", "naïve \u2603"], "temperature": 0.5, "n": [1, None, True]}
        with RawReplyServer(REPLY_OK) as server:
            assert post_json(server.url, body, 5.0) == {"ok": True}
        headers, raw = server.requests[0]
        assert raw == json.dumps(body, allow_nan=False).encode("utf-8")
        assert headers["content-type"] == "application/json"

    @pytest.mark.parametrize(
        "reply",
        [
            # a body cut short of its Content-Length
            b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 100\r\n\r\n{\"ok\": tr",
            b"garbage\r\n\r\n",
            b"",  # the socket is closed without a reply
        ],
        ids=["torn-body", "garbage-status-line", "closed-socket"],
    )
    def test_a_broken_reply_raises_oserror(self, reply):
        with RawReplyServer(reply) as server:
            with pytest.raises(OSError):
                post_json(server.url, {"texts": ["a"]}, 5.0)

    def test_a_server_that_never_answers_raises_oserror_after_the_timeout(self):
        with RawReplyServer(None) as server:
            start = time.perf_counter()
            with pytest.raises(OSError):
                post_json(server.url, {"texts": ["a"]}, 0.2)
            assert time.perf_counter() - start < 2.0

    def test_a_file_url_is_not_read(self, tmp_path):
        reply = tmp_path / "reply.json"
        reply.write_text('{"ok": true}', encoding="utf-8")
        with pytest.raises(ValueError, match=re.escape(reply.as_uri())):
            post_json(reply.as_uri(), {}, 5.0)

    @pytest.mark.parametrize("url", ["ftp://127.0.0.1/x", "localhost:1/embed"])
    def test_a_url_that_is_not_http_is_a_valueerror_naming_it(self, url):
        with pytest.raises(ValueError, match=re.escape(url)):
            post_json(url, {}, 5.0)


class TestRemoteProvider:
    def test_vectors_order_aligned_and_normalized(self):
        def handler(path, body):
            assert path == "/embed"
            vecs = [[float(len(t)), 1.0, 0.0] for t in body["texts"]]
            return 200, {"dimension": 3, "vectors": vecs}

        with JsonStubServer(handler) as server:
            cfg = EmbeddingProviderConfig(kind="remote", endpoint=server.url)
            out = embed_batch(["a", "bb", "ccc"], cfg)
        for text, vec in zip(["a", "bb", "ccc"], out):
            expected = np.array([float(len(text)), 1.0, 0.0])
            expected = expected / np.linalg.norm(expected)
            assert np.allclose(vec, expected)

    def test_batch_size_respected(self):
        def handler(path, body):
            assert len(body["texts"]) <= 2
            return 200, {"dimension": 2, "vectors": [[1.0, 0.0]] * len(body["texts"])}

        with JsonStubServer(handler) as server:
            cfg = EmbeddingProviderConfig(kind="remote", endpoint=server.url, batch_size=2)
            out = embed_batch(["a", "b", "c", "d", "e"], cfg)
            assert len(out) == 5
            assert len(server.requests) == 3

    def test_retry_then_success(self):
        calls = {"n": 0}

        def handler(path, body):
            calls["n"] += 1
            if calls["n"] == 1:
                return 500, {"error": "transient"}
            return 200, {"dimension": 2, "vectors": [[0.0, 2.0]] * len(body["texts"])}

        with _NoSleep(), JsonStubServer(handler) as server:
            cfg = EmbeddingProviderConfig(kind="remote", endpoint=server.url)
            out = embed_batch(["a"], cfg)
        assert calls["n"] == 2
        assert np.allclose(out[0], [0.0, 1.0])

    def test_hard_error_names_endpoint(self):
        def handler(path, body):
            return 500, {"error": "down"}

        with _NoSleep(), JsonStubServer(handler) as server:
            cfg = EmbeddingProviderConfig(kind="remote", endpoint=server.url)
            with pytest.raises(ProviderError, match=server.url):
                embed_batch(["a"], cfg)
        assert len(server.requests) == 3

    def test_dimension_mismatch_is_hard_error(self):
        def handler(path, body):
            return 200, {"dimension": 3, "vectors": [[1.0, 0.0]] * len(body["texts"])}

        with JsonStubServer(handler) as server:
            cfg = EmbeddingProviderConfig(kind="remote", endpoint=server.url)
            with pytest.raises(ProviderError, match="mismatch"):
                embed_batch(["a"], cfg)

    def test_remote_cache_skips_requests(self, tmp_path):
        def handler(path, body):
            return 200, {"dimension": 2, "vectors": [[1.0, 1.0]] * len(body["texts"])}

        cache = tmp_path / "remote.cache"
        with JsonStubServer(handler) as server:
            cfg = EmbeddingProviderConfig(
                kind="remote", endpoint=server.url, cache_path=str(cache)
            )
            first = embed_batch(["a", "b"], cfg)
            n_after_first = len(server.requests)
            second = embed_batch(["a", "b"], cfg)
            assert len(server.requests) == n_after_first
        for f, s in zip(first, second):
            assert f.tobytes() == s.tobytes()


class SpyProvider:
    """Records every embed call; embeds with the hash provider at dimension 4."""

    dimension = 4

    def __init__(self):
        self.calls = []

    def embed(self, texts):
        self.calls.append(list(texts))
        return [hash_vector(t, self.dimension) for t in texts]


class TestCachedProvider:
    # the cache file for these texts, in the format the earlier per-provider cache code wrote;
    # each line is keyed by VectorCache.key("hash-counts:4", text)
    FROZEN = (
        b"770a930256904a07ac79a64a536fba7d9ad98d860967ef593f5785c95e7c5aba  8wQ1PwAAAAAAAAAA8wQ1Pw==\n"
        b"d510d866c6faa5aadcec62052ef67da8d098b3edc8c0754b1824239dce04242e  LvlkPwAAAAAAAAAALvnkPg==\n"
        b"1c0991148f9217c4092ac0d27393bc248d27944e2bd2be6e8818240c7225236b  LvnkPgAAAAAu+WQ/AAAAAA==\n"
    )

    def test_hits_never_reach_the_inner_provider(self, tmp_path):
        cache = tmp_path / "vectors.cache"
        CachedProvider(SpyProvider(), cache, "spy").embed(["alpha", "beta"])
        spy = SpyProvider()
        warm = CachedProvider(spy, cache, "spy")
        warm.embed(["beta", "alpha", "beta"])
        assert spy.calls == []
        warm.embed(["alpha", "gamma"])
        assert spy.calls == [["gamma"]]

    def test_each_distinct_miss_reaches_the_inner_provider_once_in_order(self, tmp_path):
        spy = SpyProvider()
        provider = CachedProvider(spy, tmp_path / "vectors.cache", "spy")
        out = provider.embed(["beta", "alpha", "beta", "gamma", "alpha"])
        assert spy.calls == [["beta", "alpha", "gamma"]]
        assert out[0].tobytes() == out[2].tobytes() and out[0] is not out[2]
        rounded = hash_vector("alpha", 4).astype("<f4").astype(np.float64)
        assert out[1].tobytes() == rounded.tobytes()

    def test_cache_file_bytes_unchanged(self, tmp_path):
        cache = tmp_path / "vectors.cache"
        cfg = EmbeddingProviderConfig(dimension=4, cache_path=str(cache))
        embed_batch(["beta", "alpha", "beta", "gamma", "alpha"], cfg)
        assert cache.read_bytes() == self.FROZEN

    def test_remote_misses_still_split_by_batch_size(self, tmp_path):
        def handler(path, body):
            return 200, {"dimension": 2, "vectors": [[1.0, 0.0]] * len(body["texts"])}

        with JsonStubServer(handler) as server:
            cfg = EmbeddingProviderConfig(
                kind="remote",
                endpoint=server.url,
                batch_size=2,
                cache_path=str(tmp_path / "remote.cache"),
            )
            provider = get_provider(cfg)
            assert provider.dimension is None
            provider.embed(["a", "b"])
            assert provider.dimension == 2  # learnt from the first response
            provider.embed(["a", "c", "d", "c", "e", "b"])
            sent = [body["texts"] for _, body, _ in server.requests]
        assert sent == [["a", "b"], ["c", "d"], ["e"]]


class TestVectorCacheKey:
    def test_key_depends_on_provider_and_text(self):
        k1 = VectorCache.key("hash:256", "age")
        k2 = VectorCache.key("hash:128", "age")
        k3 = VectorCache.key("hash:256", "Age")
        assert len({k1, k2, k3}) == 3
