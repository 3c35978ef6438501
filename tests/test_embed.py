from __future__ import annotations

import json

import numpy as np
import pytest

from clustem.embed import (
    API_BATCH_SIZE,
    HttpApiProvider,
    ProviderConfig,
    WordVectorProvider,
    create_provider,
    embed_all,
    preprocess,
)
from clustem.errors import InputError, ProviderError


@pytest.mark.parametrize(
    "value,tokens",
    [
        ("Exec-managerial", ["exec", "managerial"]),
        ("Private", ["private"]),
        ("Outlying-US(Guam-USVI-etc)", ["outlying", "us(guam", "usvi", "etc)"]),
        ("a_b/c d", ["a", "b", "c", "d"]),
        ("---", []),
    ],
)
def test_preprocess(value, tokens):
    assert preprocess(value) == tokens


@pytest.fixture
def vector_file(tmp_path):
    path = tmp_path / "vecs.txt"
    path.write_text("3 2\na 1 0\nb 0 1\nc 4 4\n", encoding="utf-8")
    return str(path)


class TestWordVectorProvider:
    def test_single_token(self, vector_file):
        provider = WordVectorProvider(vector_file)
        assert np.array_equal(provider.fetch(["a"])[0], [1.0, 0.0])

    def test_two_tokens_average(self, vector_file):
        provider = WordVectorProvider(vector_file)
        assert np.array_equal(provider.fetch(["a-b"])[0], [0.5, 0.5])

    def test_oov_tokens_skipped(self, vector_file):
        provider = WordVectorProvider(vector_file)
        assert np.array_equal(provider.fetch(["a_zzz"])[0], [1.0, 0.0])

    def test_all_oov_names_value(self, vector_file):
        with pytest.raises(ProviderError, match="zzz-yyy"):
            WordVectorProvider(vector_file).fetch(["zzz-yyy"])

    def test_missing_file(self, tmp_path):
        with pytest.raises(ProviderError):
            WordVectorProvider(str(tmp_path / "nope.txt"))

    @pytest.mark.parametrize(
        "text",
        ["2\na 1\n", "1 2\na 1\n", "1 2\na x y\n", "2 2\na 1 0\n"],
    )
    def test_malformed_files(self, tmp_path, text):
        path = tmp_path / "bad.txt"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ProviderError):
            WordVectorProvider(str(path))


class _FakeResponse:
    def __init__(self, payload, status_code=200):
        self._payload = payload
        self.status_code = status_code
        self.text = json.dumps(payload)

    def json(self):
        return self._payload


def _fake_post(recorder, dim=3, shuffle=False, status=200):
    def post(url, json=None, headers=None, timeout=None):
        recorder.append({"url": url, "body": json, "headers": headers})
        inputs = json["input"]
        data = [
            {"index": i, "embedding": [float(i + len(recorder)), *([0.0] * (dim - 1))]}
            for i in range(len(inputs))
        ]
        if shuffle:
            data = data[::-1]
        return _FakeResponse({"data": data}, status_code=status)

    return post


class TestHttpApiProvider:
    def test_batches_of_256(self, monkeypatch):
        calls = []
        monkeypatch.setattr("clustem.embed.requests.post", _fake_post(calls))
        provider = HttpApiProvider("http://localhost/v1/embeddings", "test-model")
        values = [f"v{i}" for i in range(300)]
        out = provider.fetch(values)
        assert len(out) == 300
        assert len(calls) == 2
        assert len(calls[0]["body"]["input"]) == API_BATCH_SIZE
        assert len(calls[1]["body"]["input"]) == 44

    def test_reorders_by_index(self, monkeypatch):
        calls = []
        monkeypatch.setattr("clustem.embed.requests.post", _fake_post(calls, shuffle=True))
        provider = HttpApiProvider("http://x", "m")
        out = provider.fetch(["a", "b", "c"])
        assert [vec[0] for vec in out] == [1.0, 2.0, 3.0]

    def test_bearer_token_from_env(self, monkeypatch):
        calls = []
        monkeypatch.setattr("clustem.embed.requests.post", _fake_post(calls))
        monkeypatch.setenv("MY_KEY", "sekret")
        HttpApiProvider("http://x", "m", api_key_env="MY_KEY").fetch(["a"])
        assert calls[0]["headers"]["Authorization"] == "Bearer sekret"

    def test_no_token_when_env_unset(self, monkeypatch):
        calls = []
        monkeypatch.setattr("clustem.embed.requests.post", _fake_post(calls))
        monkeypatch.delenv("CLUSTEM_API_KEY", raising=False)
        HttpApiProvider("http://x", "m").fetch(["a"])
        assert "Authorization" not in calls[0]["headers"]

    def test_non_2xx_is_provider_error(self, monkeypatch):
        monkeypatch.setattr("clustem.embed.requests.post", _fake_post([], status=500))
        with pytest.raises(ProviderError, match="500"):
            HttpApiProvider("http://x", "m").fetch(["a"])

    def test_malformed_response(self, monkeypatch):
        monkeypatch.setattr(
            "clustem.embed.requests.post", lambda *a, **k: _FakeResponse({"nope": 1})
        )
        with pytest.raises(ProviderError, match="malformed"):
            HttpApiProvider("http://x", "m").fetch(["a"])

    @pytest.mark.parametrize(
        "indices",
        [[0, 1, -1], [0, 1, 1], [1, 1], [0, True], [0, 2], [0, 1.0], [0, "1"], [0]],
        ids=["extra-negative", "duplicate", "duplicate-only", "bool", "out-of-range",
             "float", "string", "missing"],
    )
    def test_rejects_bad_indices(self, monkeypatch, indices):
        data = [{"index": i, "embedding": [float(n), 1.0]} for n, i in enumerate(indices)]
        monkeypatch.setattr(
            "clustem.embed.requests.post", lambda *a, **k: _FakeResponse({"data": data})
        )
        with pytest.raises(ProviderError, match="index|missing"):
            HttpApiProvider("http://x", "m").fetch(["a", "b"])


class _CountingProvider:
    """Returns per-value vectors derived from the value text and counts fetches."""

    def __init__(self, dim=2):
        self.dim = dim
        self.fetches = 0

    provider_id = "counting"

    def fetch(self, values):
        self.fetches += 1
        return [np.array([float(len(v)), 1.0]) for v in values]


class _FixedProvider(_CountingProvider):
    """Returns one given vector for every value."""

    def __init__(self, vec):
        super().__init__()
        self.vec = np.array(vec)

    def fetch(self, values):
        return [self.vec for _ in values]


class TestEmbedAll:
    def test_empty_list(self):
        assert embed_all([], _CountingProvider()) == {}

    def test_one_vector_per_value(self):
        provider = _CountingProvider()
        out = embed_all(["a", "bb"], provider)
        assert set(out) == {"a", "bb"}
        assert np.array_equal(out["bb"], [2.0, 1.0])

    def test_duplicate_values_rejected(self):
        with pytest.raises(InputError):
            embed_all(["a", "a"], _CountingProvider())

    def test_cache_avoids_refetch(self, tmp_path):
        cache = str(tmp_path / "cache.json")
        provider = _CountingProvider()
        first = embed_all(["a", "bb"], provider, cache_path=cache)
        assert provider.fetches == 1
        second = embed_all(["a", "bb"], provider, cache_path=cache)
        assert provider.fetches == 1  # all served from disk
        for key in first:
            assert np.array_equal(first[key], second[key])

    def test_cached_results_bit_identical_to_uncached(self, tmp_path):
        cache = str(tmp_path / "cache.json")
        rng_vals = [f"value-{i}" for i in range(5)]
        embed_all(rng_vals, _CountingProvider(), cache_path=cache)
        cached = embed_all(rng_vals, _CountingProvider(), cache_path=cache)
        uncached = embed_all(rng_vals, _CountingProvider())
        for key in uncached:
            assert cached[key].tobytes() == uncached[key].tobytes()

    def test_cache_file_is_stamped_json(self, tmp_path):
        cache = tmp_path / "cache.json"
        embed_all(["a"], _CountingProvider(), cache_path=str(cache))
        raw = json.loads(cache.read_text())
        assert raw == {"provider": "counting", "dim": 2, "vectors": {"a": [1.0, 1.0]}}

    def test_cache_of_another_provider_is_refused(self, tmp_path):
        cache = str(tmp_path / "cache.json")
        embed_all(["x", "y"], _CountingProvider(), cache_path=cache)
        other = _CountingProvider()
        other.provider_id = "other"
        with pytest.raises(ProviderError, match="'counting'.*'other'"):
            embed_all(["x", "y"], other, cache_path=cache)
        assert other.fetches == 0

    def test_cache_of_another_dimension_is_refused(self, tmp_path):
        cache = tmp_path / "cache.json"
        cache.write_text(
            json.dumps({"provider": "counting", "dim": 3, "vectors": {"a": [1.0, 2.0, 3.0]}}),
            encoding="utf-8",
        )
        with pytest.raises(ProviderError, match="dimension 3"):
            embed_all(["b"], _CountingProvider(), cache_path=str(cache))
        assert json.loads(cache.read_text())["vectors"] == {"a": [1.0, 2.0, 3.0]}

    @pytest.mark.parametrize(
        "content",
        [
            {"a": [1.0, 1.0]},
            {"provider": "counting", "vectors": {"a": [1.0, 1.0]}},
            {"provider": "counting", "dim": 3, "vectors": {"a": [1.0, 1.0]}},
            {"provider": "counting", "dim": 2, "vectors": {"a": ["x", 1.0]}},
            {"provider": "counting", "dim": 2, "vectors": ["a"]},
        ],
        ids=["unstamped", "no-dim", "wrong-dim", "non-numeric", "not-a-map"],
    )
    def test_malformed_cache_is_a_provider_error(self, tmp_path, content):
        cache = tmp_path / "cache.json"
        cache.write_text(json.dumps(content), encoding="utf-8")
        with pytest.raises(ProviderError, match="cache"):
            embed_all(["a"], _CountingProvider(), cache_path=str(cache))

    def test_partial_cache_fetches_only_misses(self, tmp_path):
        cache = str(tmp_path / "cache.json")
        provider = _CountingProvider()
        embed_all(["a"], provider, cache_path=cache)
        embed_all(["a", "bb"], provider, cache_path=cache)
        assert provider.fetches == 2
        raw = json.loads((tmp_path / "cache.json").read_text())
        assert set(raw["vectors"]) == {"a", "bb"}

    def test_cache_suppresses_all_http_requests(self, monkeypatch, tmp_path):
        calls = []
        monkeypatch.setattr("clustem.embed.requests.post", _fake_post(calls))
        provider = HttpApiProvider("http://x", "m")
        cache = str(tmp_path / "cache.json")
        values = ["a", "b", "c"]
        embed_all(values, provider, cache_path=cache)
        assert len(calls) == 1
        embed_all(values, provider, cache_path=cache)
        assert len(calls) == 1  # second call never touches the network

    def test_fetched_component_beyond_the_bound_is_refused(self):
        with pytest.raises(ProviderError, match="'a'.*beyond 1e\\+100"):
            embed_all(["a"], _FixedProvider([1e200, 0.0]))

    def test_cached_component_beyond_the_bound_is_refused(self, tmp_path):
        cache = tmp_path / "cache.json"
        cache.write_text(
            json.dumps({"provider": "counting", "dim": 2, "vectors": {"a": [0.0, -1e200]}}),
            encoding="utf-8",
        )
        with pytest.raises(ProviderError, match="'a'.*beyond 1e\\+100"):
            embed_all(["a"], _CountingProvider(), cache_path=str(cache))

    def test_component_at_the_bound_is_accepted(self):
        assert embed_all(["a"], _FixedProvider([1e100, -1e100]))["a"].tolist() == [1e100, -1e100]

    def test_dim_mismatch_rejected(self):
        class Mismatched:
            def fetch(self, values):
                return [np.zeros(2), np.zeros(3)]

        with pytest.raises(ProviderError, match="dimension"):
            embed_all(["a", "b"], Mismatched())


class TestProviderConfig:
    def test_wordvec_needs_path(self):
        with pytest.raises(InputError):
            ProviderConfig("wordvec")

    def test_http_needs_endpoint_and_model(self):
        with pytest.raises(InputError):
            ProviderConfig("http", endpoint="http://x")

    def test_unknown_kind(self):
        with pytest.raises(InputError):
            ProviderConfig("carrier-pigeon")

    def test_create_provider_dispatch(self, vector_file):
        provider = create_provider(ProviderConfig("wordvec", path=vector_file))
        assert isinstance(provider, WordVectorProvider)
        provider = create_provider(ProviderConfig("http", endpoint="http://x", model="m"))
        assert isinstance(provider, HttpApiProvider)
