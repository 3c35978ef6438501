from __future__ import annotations

import json
import math
import re
import socket

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _loopback import data_reply, indexed_vectors, response, vector_of
from _oracles import REFERENCE_FINITE, REFERENCE_FINITE_LINE, ReferenceWordVectorProvider
from clustem.embed import (
    _DECIMAL,
    _FINITE,
    API_BATCH_SIZE,
    HttpApiProvider,
    ProviderConfig,
    WordVectorProvider,
    _line_pattern,
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
        provider = WordVectorProvider(str(tmp_path / "nope.txt"))
        with pytest.raises(ProviderError, match="cannot read word-vector file"):
            provider.fetch(["a"])

    @pytest.mark.parametrize(
        "text",
        ["2\na 1\n", "1 2\na 1\n", "1 2\na x y\n", "2 2\na 1 0\n"],
    )
    def test_malformed_files(self, tmp_path, text):
        path = tmp_path / "bad.txt"
        path.write_text(text, encoding="utf-8")
        provider = WordVectorProvider(str(path))
        with pytest.raises(ProviderError):
            provider.fetch(["a"])

    @pytest.mark.parametrize(
        "text, message",
        [
            ("1 10000000000\na 1\n", "line 2: expected 10000000000 components, got 1"),
            ("2 2\na 1 0\nb 1 inf\n", "line 3: non-finite component"),
            ("2 2\na 1 0\nb 1 -Infinity\n", "line 3: non-finite component"),
            ("2 2\na 1 0\nb 1 nan\n", "line 3: non-finite component"),
            ("2 2\na 1 0\nb 1 1e400\n", "line 3: non-finite component"),
            ("2 2\na 1 0\n\nb 1 x\n", "line 4: non-numeric component"),  # blank lines count
        ],
    )
    def test_error_names_its_line(self, tmp_path, text, message):
        path = tmp_path / "vecs.txt"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ProviderError) as info:
            WordVectorProvider(str(path)).fetch(["a"])
        assert str(info.value) == f"{path}: {message}"

    @pytest.mark.parametrize("newline", ["\r\n", "\r"])
    def test_crlf_and_lone_cr_files_parse(self, tmp_path, newline):
        path = tmp_path / "vecs.txt"
        path.write_bytes(newline.join(["2 2", "a 1 0", "b 0.5 2", ""]).encode())
        fetched = WordVectorProvider(str(path)).fetch(["a", "b"])
        assert [v.tolist() for v in fetched] == [[1.0, 0.0], [0.5, 2.0]], path

    def test_repeated_token_keeps_its_last_line(self, tmp_path):
        path = tmp_path / "vecs.txt"
        path.write_text("2 2\na 1 0\nb 0 1\na 3 4\n", encoding="utf-8")
        assert WordVectorProvider(str(path)).fetch(["a"])[0].tolist() == [3.0, 4.0], "line 4"

    def test_largest_compiled_dimension_still_counts_the_components(self, tmp_path):
        dim = 2**32 - 2  # the largest repeat count that compiles, in both branches
        assert _line_pattern(dim).pattern != "(?!)"
        path = tmp_path / "vecs.txt"
        path.write_text(f"1 {dim}\na 1 2\n", encoding="utf-8")
        with pytest.raises(ProviderError) as info:
            WordVectorProvider(str(path)).fetch(["a"])
        assert str(info.value) == f"{path}: line 2: expected {dim} components, got 2"


# Components that the fast path must leave to float(), and numbers at its edges:
# with an exponent of 99, 209 integer digits stay finite and 210 overflow.
_ODD_COMPONENTS = [
    "inf", "-inf", "nan", "NaN", "1_0", "\u0663", "--1", ".", "0x10", "x", "",
]
_EDGE_COMPONENTS = [
    "+.5", "5.", "1E+05", "1e99", "1e100", "1e400", "1e-400", "9" * 101, "9" * 100 + "e99",
    "9" * 209 + "e99", "9" * 210 + "e99", "1e-99999",
]
_COMPONENT = (
    st.sampled_from(_ODD_COMPONENTS)
    | st.sampled_from(_EDGE_COMPONENTS)
    | st.integers(-(10**3), 10**3).map(str)
    | st.floats(allow_nan=False, allow_infinity=False).map(repr)
)
# Weighted towards well-formed lines, which the fast path takes.
_TOKEN = st.sampled_from(["a", "b", "ab", "\u0663"] * 3 + ["", " a", "a\tb"])
_SEPARATOR = st.sampled_from([" "] * 12 + ["\t", "\x1c", "  ", "\xa0"])
_NEWLINE = st.sampled_from(["\n"] * 4 + ["\r\n", "\r", ""])


@st.composite
def _word_vector_files(draw) -> str:
    """Small adversarial word-vector files, mostly almost well-formed."""
    dim = draw(st.integers(1, 3))
    header = draw(
        st.sampled_from([f"{n} {dim}" for n in range(5)] + ["2", "x 2", "1 0", "1 10000000000"])
    )
    text = header + draw(_NEWLINE)
    for _ in range(draw(st.integers(0, 4))):
        n = draw(st.sampled_from([dim, dim, dim, dim - 1, dim + 1]))
        text += draw(_TOKEN)
        text += "".join(draw(_SEPARATOR) + draw(_COMPONENT) for _ in range(n))
        text += draw(_NEWLINE)
    return text


def _outcome(call):
    """The call's vectors as bytes, or the text of the ProviderError it raised."""
    try:
        return [vec.tobytes() for vec in call()]
    except ProviderError as exc:
        return str(exc)


class TestMatchesReferenceParser:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(text=_word_vector_files())
    @example(text="1 1\na " + "9" * 100 + "e99\n")
    @example(text="1 1\na " + "9" * 210 + "e99\n")  # the shortest that overflows
    @example(text="2 1\na 1e99\nb 1e400\n")
    @example(text="2 2\na 1 0\na 3 4\n\nb 1 2")
    def test_same_errors_and_bit_equal_vectors(self, tmp_path_factory, text):
        path = tmp_path_factory.getbasetemp() / "oracle-vectors.txt"
        path.write_bytes(text.encode("utf-8"))
        provider = WordVectorProvider(str(path))
        try:
            reference = ReferenceWordVectorProvider(str(path))
        except ProviderError as exc:
            assert _outcome(lambda: provider.fetch(["a"])) == str(exc)
            return
        # Every token a drawn line can start with, not only the reference's:
        # a token that only the provider kept reads as a vector against an error.
        for value in sorted(reference.vectors) + ["a", "b", "ab", "\u0663", "a b", "zzz"]:
            expected = _outcome(lambda: reference.fetch([value]))
            assert _outcome(lambda: provider.fetch([value])) == expected, value

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(text=st.from_regex(_FINITE, fullmatch=True))
    @example(text="9" * 100 + "e99")
    @example(text="+.5")
    @example(text="5.")
    @example(text="1e-99999")
    def test_finite_pattern_reads_as_a_finite_float(self, text):
        assert re.fullmatch(_FINITE, text)
        assert math.isfinite(float(text))

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(text=st.from_regex(_DECIMAL, fullmatch=True))
    @example(text="9" * 100 + ".5")
    @example(text="-0")
    @example(text="7")
    def test_decimal_pattern_is_part_of_the_finite_pattern(self, text):
        # So the line pattern's plain-decimal branch accepts no line that the
        # _FINITE branch alone would refuse.
        assert re.fullmatch(_DECIMAL, text)
        assert re.fullmatch(_FINITE, text)
        assert math.isfinite(float(text))

    # 101 integer digits, which neither pattern takes, and the forms that only
    # the _FINITE branch reads: a sign "+", a bare point, an exponent.
    @pytest.mark.parametrize(
        "text", ["9" * 101, "-" + "9" * 101 + ".5", "+1", "1.", ".5", "-.5", "1e5", "1.5E-3"]
    )
    def test_decimal_pattern_refuses(self, text):
        assert not re.fullmatch(_DECIMAL, text)


_DIGITS = "0123456789"


def _digit_run(sizes):
    return st.sampled_from(sizes).flatmap(lambda n: st.text(_DIGITS, min_size=n, max_size=n))


# Numbers at the pattern's edges: 99 to 101 digits before the point, 0 to 3
# exponent digits (0 leaves a lone "e"), and the bare points "." and "+.".
_EDGE_NUMBER = st.builds(
    lambda sign, whole, point, fraction, e, e_sign, e_digits: (
        sign + whole + point + fraction + (e + e_sign + e_digits if e else "")
    ),
    st.sampled_from(["", "", "+", "-"]),
    _digit_run([0, 1, 1, 2, 99, 100, 101]),
    st.sampled_from(["", "."]),
    _digit_run([0, 1, 3]),
    st.sampled_from(["", "", "", "e", "E"]),
    st.sampled_from(["", "+", "-"]),
    _digit_run([0, 1, 1, 2, 3]),
)
_LINE_TOKEN = st.sampled_from(["a", "t00042", "1", "-1", "1e5", ".5", "9" * 101, "a1b2", ""])
_LINE_SEPARATOR = st.sampled_from([" "] * 40 + ["  ", "\t", "\xa0", "\r"])
_LINE_END = st.sampled_from(["\n"] * 8 + [""] * 4 + ["\r\n", "\r", " \n", "\n\n"])


@st.composite
def _lines(draw) -> str:
    """One word-vector line, often well-formed, with components at the edges."""
    text = draw(_LINE_TOKEN)
    for _ in range(draw(st.sampled_from([0, 1, 1, 2, 2, 3, 4]))):
        text += draw(_LINE_SEPARATOR) + draw(_EDGE_NUMBER | _COMPONENT)
    return text + draw(_LINE_END)


@settings(max_examples=600, deadline=None, derandomize=True)
@given(line=_lines())
@example(line="a " + "9" * 100 + ".5e99\n")
@example(line="a " + "9" * 101 + "\n")
@example(line="a 1e100 2")
@example(line="a 1e 2\n")
@example(line="a . +.\n")
@example(line="a 1  2\n")
@example(line="a\n")
@example(line="a 1 2 3 4\n")
@example(line="a 1 2 3 4 5 6\n")
@example(line="a 1.5 2.5e3\n")  # the plain-decimal branch fails on the last component
@example(line="a 1.5 +2\n")
@example(line="a 1.5 .5\n")
@example(line="a 1.5 " + "9" * 101 + "\n")  # neither branch takes it
def test_possessive_line_pattern_reads_the_backtracking_language(line):
    # Dimensions 1 to 5 around lines of 0 to 4 components (6 in an example):
    # every line is read at its own count and at one fewer and one more.
    reference = REFERENCE_FINITE_LINE.fullmatch(line)
    for dim in range(1, 6):
        match = _line_pattern(dim).fullmatch(line)
        assert (match is None) == (reference is None or line.count(" ") != dim), dim
        if match:
            assert match[1] == reference[1]
    for component in line.split(" ")[1:]:
        accepted = re.fullmatch(REFERENCE_FINITE, component) is not None
        assert (re.fullmatch(_FINITE, component) is not None) == accepted, component


class TestHttpApiProvider:
    def test_batches_of_256(self, embeddings_api):
        values = [f"v{i}" for i in range(600)]
        out = HttpApiProvider(embeddings_api.url, "m").fetch(values)
        sent = [request.json["input"] for request in embeddings_api.requests]
        assert [len(batch) for batch in sent] == [API_BATCH_SIZE, API_BATCH_SIZE, 88]
        assert sum(sent, []) == values
        assert [vec.tolist() for vec in out] == [vector_of(v) for v in values]

    def test_posts_json_with_its_content_type(self, embeddings_api):
        HttpApiProvider(embeddings_api.url, "test-model").fetch(["a", "b c"])
        [request] = embeddings_api.requests
        assert request.path == "/v1/embeddings"
        assert request.headers["Content-Type"] == "application/json"
        assert request.json == {"model": "test-model", "input": ["a", "b c"]}

    def test_reorders_by_index(self, embeddings_api):
        embeddings_api.reply = lambda request: data_reply(indexed_vectors(request)[::-1])
        out = HttpApiProvider(embeddings_api.url, "m").fetch(["a", "bb", "ccc"])
        assert [vec.tolist() for vec in out] == [vector_of(v) for v in ["a", "bb", "ccc"]]

    def test_bearer_token_from_env(self, embeddings_api, monkeypatch):
        monkeypatch.setenv("MY_KEY", "sekret")
        HttpApiProvider(embeddings_api.url, "m", api_key_env="MY_KEY").fetch(["a"])
        assert embeddings_api.requests[0].headers["Authorization"] == "Bearer sekret"

    def test_no_token_when_env_unset(self, embeddings_api, monkeypatch):
        monkeypatch.delenv("CLUSTEM_API_KEY", raising=False)
        HttpApiProvider(embeddings_api.url, "m").fetch(["a"])
        assert "Authorization" not in embeddings_api.requests[0].headers

    def test_non_2xx_is_provider_error(self, embeddings_api):
        body = "overloaded: " + "é" * 300
        embeddings_api.reply = lambda request: response(500, body.encode())
        with pytest.raises(ProviderError) as info:
            HttpApiProvider(embeddings_api.url, "m").fetch(["a"])
        assert str(info.value) == f"embeddings API returned 500: {body[:200]}"

    @pytest.mark.parametrize(
        "status, accepted", [(199, False), (200, True), (299, True), (300, False)]
    )
    def test_only_a_2xx_reply_is_read(self, embeddings_api, status, accepted):
        body = json.dumps({"data": [{"index": 0, "embedding": [1.0, 2.0]}]}).encode()
        embeddings_api.reply = lambda request: response(status, body)
        provider = HttpApiProvider(embeddings_api.url, "m")
        if accepted:
            assert [vec.tolist() for vec in provider.fetch(["a"])] == [[1.0, 2.0]]
        else:
            with pytest.raises(ProviderError, match=f"returned {status}: "):
                provider.fetch(["a"])

    def test_malformed_response(self, embeddings_api):
        embeddings_api.reply = lambda request: response(200, b'{"nope": 1}')
        with pytest.raises(ProviderError, match="malformed"):
            HttpApiProvider(embeddings_api.url, "m").fetch(["a"])

    @pytest.mark.parametrize(
        "body",
        [
            b"<html>not json</html>",
            b"\xff\xfe{",
            b'{"data": 5}',
            b'{"data": [{"index": 0}]}',
            b'{"data": [{"index": 0, "embedding": ["x"]}]}',
            b'{"data": [{"index": 0, "embedding": []}]}',
            b'{"data": [{"index": 0, "embedding": [[1.0]]}]}',
            b'{"data": [{"index": 0, "embedding": [NaN]}]}',
            b'{"data": [{"index": 0, "embedding": [%s]}]}' % (b"9" * 400),
            b'{"data": [{"index": 0, "embedding": ["1.5", 1.0]}]}',
            b'{"data": [{"index": 0, "embedding": [true, 1.0]}]}',
        ],
        ids=["not-json", "not-utf8", "data-not-a-list", "no-embedding", "non-numeric",
             "empty", "nested", "nan", "huge-int", "numeric-string", "bool"],
    )
    def test_malformed_replies_are_provider_errors(self, embeddings_api, body):
        embeddings_api.reply = lambda request: response(200, body)
        with pytest.raises(ProviderError, match="malformed"):
            HttpApiProvider(embeddings_api.url, "m").fetch(["a"])

    @pytest.mark.parametrize(
        "indices",
        [[0, 1, -1], [-1, 0], [0, 1, 1], [1, 1], [0, True], [0, 2], [0, 1.0], [0, "1"], [0]],
        ids=["extra-negative", "negative", "duplicate", "duplicate-only", "bool",
             "out-of-range", "float", "string", "missing"],
    )
    def test_rejects_bad_indices(self, embeddings_api, indices):
        data = [{"index": i, "embedding": [float(n), 1.0]} for n, i in enumerate(indices)]
        embeddings_api.reply = lambda request: data_reply(data)
        with pytest.raises(ProviderError, match="returned index|missing vectors"):
            HttpApiProvider(embeddings_api.url, "m").fetch(["a", "b"])

    def test_names_the_first_five_values_left_without_a_vector(self, embeddings_api):
        embeddings_api.reply = lambda request: data_reply([])
        with pytest.raises(ProviderError) as info:
            HttpApiProvider(embeddings_api.url, "m").fetch([f"v{i}" for i in range(7)])
        expected = "['v0', 'v1', 'v2', 'v3', 'v4']"
        assert str(info.value) == f"embeddings API response missing vectors for {expected}"

    @pytest.mark.parametrize(
        "raw, message",
        [
            (b"garbage\r\n", "embeddings request failed"),
            (response(200, b'{"data": []}', length=100), "embeddings request failed"),
            (response(307, headers=("Location: /v1/embeddings",)), "returned 307"),
            (response(308, headers=("Location: /v1/embeddings",)), "returned 308"),
        ],
        ids=["garbage-status-line", "truncated-body", "redirect-307", "redirect-308"],
    )
    def test_broken_replies_are_provider_errors(self, embeddings_api, raw, message):
        embeddings_api.reply = lambda request: raw
        with pytest.raises(ProviderError, match=message):
            HttpApiProvider(embeddings_api.url, "m").fetch(["a"])
        assert len(embeddings_api.requests) == 1  # a redirect is not followed

    def test_refused_connection_is_a_provider_error(self):
        with socket.socket() as sock:  # a port that nothing listens on once closed
            sock.bind(("127.0.0.1", 0))
            port = sock.getsockname()[1]
        with pytest.raises(ProviderError, match="embeddings request failed"):
            HttpApiProvider(f"http://127.0.0.1:{port}/v1/embeddings", "m").fetch(["a"])

    @pytest.mark.parametrize(
        "endpoint", ["http://[::1/x", "http://127.0.0.1:port/", "http://a b/", "x"]
    )
    def test_unusable_url_is_a_provider_error(self, endpoint):
        with pytest.raises(ProviderError):
            HttpApiProvider(endpoint, "m").fetch(["a"])

    def test_file_and_data_urls_are_not_read(self, tmp_path):
        reply = json.dumps({"data": [{"index": 0, "embedding": [1.0]}]})
        path = tmp_path / "reply.json"
        path.write_text(reply, encoding="utf-8")
        # Both would read as a valid reply if they were opened.
        for endpoint in [path.as_uri(), f"data:application/json,{reply}"]:
            with pytest.raises(ProviderError, match="not an http"):
                HttpApiProvider(endpoint, "m").fetch(["a"])


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
            {"provider": "counting", "dim": True, "vectors": {"a": [1.0]}},
            {"provider": "counting", "dim": 1, "vectors": {"a": [10**400 - 1]}},
            {"provider": "counting", "dim": 2, "vectors": {"a": ["1.5", 1.0]}},
            {"provider": "counting", "dim": 2, "vectors": {"a": [True, 1.0]}},
        ],
        ids=["unstamped", "no-dim", "wrong-dim", "non-numeric", "not-a-map", "bool-dim",
             "huge-int", "numeric-string", "bool"],
    )
    def test_malformed_cache_is_a_provider_error(self, tmp_path, content):
        cache = tmp_path / "cache.json"
        cache.write_text(json.dumps(content), encoding="utf-8")
        with pytest.raises(ProviderError, match="cache"):
            embed_all(["a"], _CountingProvider(), cache_path=str(cache))

    def test_every_path_to_a_vector_file_shares_its_cache(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "v.txt").write_text("2 2\na 1 0\nb 0 1\n", encoding="utf-8")
        (tmp_path / "link.txt").symlink_to(tmp_path / "v.txt")
        first = embed_all(["a", "b"], WordVectorProvider("v.txt"), cache_path="cache.json")
        for path in ["v.txt", "./v.txt", str(tmp_path / "v.txt"), "link.txt"]:
            provider = WordVectorProvider(path)
            monkeypatch.setattr(provider, "fetch", lambda values: pytest.fail("fetched"))
            served = embed_all(["a", "b"], provider, cache_path="cache.json")
            assert {v: e.tolist() for v, e in served.items()} == {
                v: e.tolist() for v, e in first.items()
            }

    def test_partial_cache_fetches_only_misses(self, tmp_path):
        cache = str(tmp_path / "cache.json")
        provider = _CountingProvider()
        embed_all(["a"], provider, cache_path=cache)
        embed_all(["a", "bb"], provider, cache_path=cache)
        assert provider.fetches == 2
        raw = json.loads((tmp_path / "cache.json").read_text())
        assert set(raw["vectors"]) == {"a", "bb"}

    def test_cache_suppresses_all_http_requests(self, embeddings_api, tmp_path):
        provider = HttpApiProvider(embeddings_api.url, "m")
        cache = str(tmp_path / "cache.json")
        values = ["a", "b", "c"]
        first = embed_all(values, provider, cache_path=cache)
        assert len(embeddings_api.requests) == 1
        second = embed_all(values, provider, cache_path=cache)
        assert len(embeddings_api.requests) == 1  # second call never touches the network
        assert {v: e.tolist() for v, e in second.items()} == {
            v: e.tolist() for v, e in first.items()
        }

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

    def test_provider_returning_one_vector_fewer_rejected(self):
        class Short(_CountingProvider):
            def fetch(self, values):
                return super().fetch(values)[1:]

        with pytest.raises(ProviderError, match="^provider returned the wrong number of vectors$"):
            embed_all(["a", "bb", "ccc"], Short())


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
