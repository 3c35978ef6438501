"""Embedding vectors for nominal attribute values.

Two sources are supported: a word-vector text file (a value embeds as the
mean of its tokens' vectors; each fetch reads the file once, checks every line
with one pattern compiled for the file's dimension, which counts the
components too, and converts only the lines of tokens that its values name;
the pattern first tries the components as plain decimals such as "-0.41242",
which is cheaper, and the lines it accepts are the same either way) and a
generic HTTP embeddings API over the stdlib's ``urllib.request`` (the
whole value string is embedded at once). Results can be cached on disk as a
JSON object stamped with the provider id and the vector dimension, plus a map
of value -> array of numbers; the cache is written atomically, reproduces
provider output bit for bit, and is refused when the stamp does not match.
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import InputError, ProviderError
from .tabular import atomic_write

DEFAULT_API_KEY_ENV = "CLUSTEM_API_KEY"
API_BATCH_SIZE = 256
API_TIMEOUT_S = 60.0
# Largest accepted vector component: squared distances and Ward costs of
# vectors this large stay finite, so clustering never sees inf or NaN.
MAX_COMPONENT = 1e100

WORD_VECTOR_FILE = "wordvec"
HTTP_API = "http"

_SEPARATORS = str.maketrans({"-": " ", "_": " ", "/": " "})


def preprocess(value: str) -> list[str]:
    """Lowercase, replace '-', '_' and '/' by spaces, split on whitespace."""
    return value.lower().translate(_SEPARATORS).split()


@dataclass
class ProviderConfig:
    """Exactly one embedding source."""

    kind: str
    path: str | None = None
    endpoint: str | None = None
    model: str | None = None
    api_key_env: str = DEFAULT_API_KEY_ENV

    def __post_init__(self) -> None:
        if self.kind == WORD_VECTOR_FILE:
            if not self.path or self.endpoint or self.model:
                raise InputError(
                    "a word-vector provider needs a file path and no API endpoint or model:"
                    " configure a vector file or an API, not both"
                )
        elif self.kind == HTTP_API:
            if self.path or not (self.endpoint and self.model):
                raise InputError("an HTTP provider needs an endpoint and a model name")
        else:
            raise InputError(f"unknown provider kind {self.kind!r}")


# A component that float() reads as a finite number: ASCII digits, at most 100
# before the point, and a negative exponent or one of at most 99 (below 1e200).
# Every quantifier is possessive: a component ends at a space, a newline or the
# end of the line, none of which can extend a sign, digit run, exponent or
# token, so no match ever needs a backtrack, and the states a backtracking
# quantifier saves cost about half of checking a file.
_FINITE = r"[+-]?+(?:[0-9]{1,100}+(?:\.[0-9]*+)?+|\.[0-9]++)(?:[eE](?:-[0-9]++|\+?+[0-9]{1,2}+))?+"
# A plain decimal such as "-0.41242", as GloVe and fastText files write every
# component: a _FINITE string without a "+", a bare point or an exponent.
_DECIMAL = r"-?+[0-9]{1,100}+(?:\.[0-9]++)?+"


def _line_pattern(dim: int) -> re.Pattern[str]:
    """One pattern per file, which counts the components too: a token, then
    exactly ``dim`` components one space apart, so a line it matches needs no
    further check. The components are first tried as plain decimals, which
    are cheaper to match, and only then as any _FINITE number; since every
    _DECIMAL string is a _FINITE string, the pattern accepts the same lines
    and captures the same token as the _FINITE branch alone. A repeat count
    from 2**32 - 1 up does not compile; then the pattern matches nothing, and
    ``_components`` rejects every line that is not blank."""
    try:
        return re.compile(rf"(\S++)(?:(?: {_DECIMAL}){{{dim}}}+|(?: {_FINITE}){{{dim}}}+)\n?")
    except OverflowError:
        return re.compile("(?!)")


def _components(line: str, dim: int, path: str, lineno: int) -> tuple[str, np.ndarray] | None:
    """The token and vector of one word-vector line (None for a blank line)."""
    parts = line.split()
    if not parts:
        return None
    if len(parts) != dim + 1:
        raise ProviderError(
            f"{path}: line {lineno}: expected {dim} components, got {len(parts) - 1}"
        )
    try:
        vec = np.array([float(p) for p in parts[1:]], dtype=float)
    except ValueError:
        raise ProviderError(f"{path}: line {lineno}: non-numeric component") from None
    if not np.all(np.isfinite(vec)):
        raise ProviderError(f"{path}: line {lineno}: non-finite component")
    return parts[0], vec


class WordVectorProvider:
    """Token vectors from a text file: first line "<count> <dim>", then one
    "<token> <v1> ... <vdim>" line per token.

    A value's embedding is the arithmetic mean of its tokens' vectors; tokens
    absent from the file are skipped, and a value with no known token at all
    is an error. Creation reads nothing. ``fetch`` reads the file once: it
    checks every line, keeps the lines of the tokens its values name and
    converts only those, so a pipe works as the file too.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        # Resolved, so that every path to the same file stamps the same cache.
        self.provider_id = f"wordvec:{os.path.realpath(path)}"

    def fetch(self, values: Sequence[str]) -> list[np.ndarray]:
        path = self.path
        wanted = {t for value in values for t in preprocess(value)}
        tokens: set[str] = set()
        lines: dict[str, tuple[int, str]] = {}  # the last line of a repeated token wins
        try:
            with open(path, encoding="utf-8") as fh:
                header = fh.readline().split()
                if len(header) != 2:
                    raise ProviderError(f"{path}: expected '<count> <dim>' on the first line")
                try:
                    count, dim = int(header[0]), int(header[1])
                except ValueError:
                    raise ProviderError(f"{path}: malformed '<count> <dim>' header") from None
                if dim < 1:
                    raise ProviderError(f"{path}: dimension must be positive")
                fullmatch = _line_pattern(dim).fullmatch
                for lineno, line in enumerate(fh, start=2):
                    if match := fullmatch(line):
                        token = match[1]
                    elif parsed := _components(line, dim, path, lineno):
                        token = parsed[0]
                    else:
                        continue
                    tokens.add(token)
                    if token in wanted:
                        lines[token] = lineno, line
        except (OSError, UnicodeDecodeError) as exc:
            raise ProviderError(f"cannot read word-vector file {path}: {exc}") from exc
        if len(tokens) != count:
            raise ProviderError(f"{path}: header promises {count} tokens, file holds {len(tokens)}")
        vecs = {t: _components(line, dim, path, n)[1] for t, (n, line) in lines.items()}
        out = []
        for value in values:
            named = [vecs[t] for t in preprocess(value) if t in vecs]
            if not named:
                raise ProviderError(f"no vector for any token of value {value!r}")
            out.append(np.mean(named, axis=0))
        return out


def _vector(components: object) -> np.ndarray:
    """A non-empty JSON array of finite numbers, as floats. Anything else, a
    bool or string component or an integer too large for a float too, is a
    ValueError."""
    if not isinstance(components, list) or any(type(x) not in (int, float) for x in components):
        raise ValueError("a vector is not an array of numbers")
    try:
        vec = np.array(components, dtype=float)
    except OverflowError as exc:
        raise ValueError(f"a vector component is too large: {exc}") from None
    if vec.size == 0 or not np.all(np.isfinite(vec)):
        raise ValueError("a vector is empty or has a non-finite component")
    return vec


class HttpApiProvider:
    """Generic embeddings API: POST {"model": ..., "input": [...]} and read
    {"data": [{"index": i, "embedding": [...]}]}, re-ordered by index.

    Values are embedded whole (no tokenization). Requests carry a bearer token
    taken from the configured environment variable when it is set, are
    batched at API_BATCH_SIZE values apiece, and time out after API_TIMEOUT_S
    seconds. Only http and https endpoints are contacted; TLS trusts the
    system's CA store. A redirect of the POST (307/308), like any other
    non-2xx status or transport failure, is a ProviderError.
    """

    def __init__(self, endpoint: str, model: str, api_key_env: str = DEFAULT_API_KEY_ENV) -> None:
        self.endpoint = endpoint
        self.model = model
        self.api_key_env = api_key_env

    @property
    def provider_id(self) -> str:
        return f"http:{self.model}@{self.endpoint}"

    def fetch(self, values: Sequence[str]) -> list[np.ndarray]:
        out: list[np.ndarray] = []
        for start in range(0, len(values), API_BATCH_SIZE):
            out.extend(self._post(list(values[start : start + API_BATCH_SIZE])))
        return out

    def _post(self, batch: list[str]) -> list[np.ndarray]:
        # Imported here: they cost about a third of the CLI's start-up, and only
        # this provider uses them.
        import http.client
        import urllib.error
        import urllib.request

        # urlopen would also read file: and data: URLs.
        if not self.endpoint.lower().startswith(("http://", "https://")):
            raise ProviderError(f"embeddings API endpoint {self.endpoint!r} is not an http(s) URL")
        headers = {"Content-Type": "application/json"}
        token = os.environ.get(self.api_key_env)
        if token:
            headers["Authorization"] = f"Bearer {token}"
        body = json.dumps({"model": self.model, "input": batch}).encode()
        try:
            request = urllib.request.Request(self.endpoint, body, headers, method="POST")
            try:
                resp = urllib.request.urlopen(request, timeout=API_TIMEOUT_S)
            except urllib.error.HTTPError as exc:  # a non-2xx status, with its body
                resp = exc
            with resp:
                status, raw = resp.status, resp.read()
        except (OSError, http.client.HTTPException, ValueError) as exc:
            raise ProviderError(f"embeddings request failed: {exc}") from exc
        if not 200 <= status < 300:
            text = raw.decode("utf-8", "replace")
            raise ProviderError(f"embeddings API returned {status}: {text[:200]}")
        try:
            payload = json.loads(raw)
            items = payload["data"]
            slots: list[np.ndarray | None] = [None] * len(batch)
            for item in items:
                idx = item["index"]
                if (
                    isinstance(idx, bool)
                    or not isinstance(idx, int)
                    or not 0 <= idx < len(batch)
                    or slots[idx] is not None
                ):
                    raise ProviderError(
                        f"embeddings API returned index {idx!r} for a batch of "
                        f"{len(batch)} values: not an integer, out of range or repeated"
                    )
                slots[idx] = _vector(item["embedding"])
        except (KeyError, TypeError, IndexError, ValueError) as exc:
            raise ProviderError(f"malformed embeddings API response: {exc}") from exc
        missing = [batch[i] for i, v in enumerate(slots) if v is None]
        if missing:
            raise ProviderError(f"embeddings API response missing vectors for {missing[:5]!r}")
        return [v for v in slots if v is not None]


def create_provider(config: ProviderConfig):
    if config.kind == WORD_VECTOR_FILE:
        return WordVectorProvider(config.path)
    return HttpApiProvider(config.endpoint, config.model, config.api_key_env)


def _load_cache(cache_path: str, provider_id: str) -> tuple[dict[str, np.ndarray], int | None]:
    """The cached vectors and their stamped dimension (None without a file).

    A cache written for another provider, or without a stamp, is an error:
    serving its vectors would silently mix embedding sources.
    """
    path = Path(cache_path)
    if not path.exists():
        return {}, None
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:  # ValueError: bad JSON or not UTF-8
        raise ProviderError(f"cannot read embedding cache {cache_path}: {exc}") from exc
    if not isinstance(raw, dict) or set(raw) != {"provider", "dim", "vectors"}:
        raise ProviderError(
            f"embedding cache {cache_path} has no provider stamp; delete it to rebuild"
        )
    if raw["provider"] != provider_id:
        raise ProviderError(
            f"embedding cache {cache_path} holds vectors of {raw['provider']!r}, "
            f"not of {provider_id!r}"
        )
    dim = raw["dim"]
    if isinstance(dim, bool) or not isinstance(dim, int) or dim < 1:
        raise ProviderError(f"embedding cache {cache_path}: dim {dim!r} is not a positive integer")
    try:
        vectors = {key: _vector(vec) for key, vec in raw["vectors"].items()}
    except (AttributeError, ValueError) as exc:
        raise ProviderError(f"malformed embedding cache {cache_path}: {exc}") from exc
    if any(vec.shape != (dim,) for vec in vectors.values()):
        raise ProviderError(f"embedding cache {cache_path}: a vector is not of dimension {dim}")
    return vectors, dim


def _store_cache(cache_path: str, provider_id: str, entries: dict[str, np.ndarray]) -> None:
    """Write the cache stamped with the provider and the (shared) dimension."""
    payload = {
        "provider": provider_id,
        "dim": len(next(iter(entries.values()))),
        "vectors": {key: [float(x) for x in vec] for key, vec in sorted(entries.items())},
    }
    with atomic_write(cache_path) as fh:
        json.dump(payload, fh)


def embed_all(
    values: Sequence[str], provider, cache_path: str | None = None
) -> dict[str, np.ndarray]:
    """Embed each of ``values``, which are distinct (not checked: its caller,
    ``generate_vghs``, passes a set's members). Vectors of unequal dimensions, or
    a component that is NaN or beyond +-MAX_COMPONENT, are a ``ProviderError``.

    With a cache path, known values are served from disk and only the misses
    go to the provider; the merged cache is rewritten atomically afterwards.
    """
    values = list(values)
    if not values:
        return {}

    cached: dict[str, np.ndarray] = {}
    cached_dim = None
    if cache_path:
        cached, cached_dim = _load_cache(cache_path, provider.provider_id)
    result: dict[str, np.ndarray] = {}
    misses = []
    for value in values:
        if value in cached:
            result[value] = cached[value]
        else:
            misses.append(value)
    if misses:
        fetched = provider.fetch(misses)
        if len(fetched) != len(misses):
            raise ProviderError("provider returned the wrong number of vectors")
        for value, vec in zip(misses, fetched):
            if np.iscomplexobj(vec):  # numpy would keep only the real part
                raise ProviderError(f"embedding for value {value!r} is complex")
            result[value] = np.asarray(vec, dtype=float)

    dims = {vec.shape for vec in result.values()}
    if len(dims) > 1 or any(len(shape) != 1 for shape in dims):
        raise ProviderError(f"inconsistent embedding dimensions in one run: {sorted(dims)}")
    for value, vec in result.items():
        if not np.all(np.abs(vec) <= MAX_COMPONENT):  # False on NaN too
            raise ProviderError(
                f"embedding for value {value!r} is not finite or has a component "
                f"beyond {MAX_COMPONENT:g}"
            )
    if misses and cache_path:
        if cached_dim is not None and dims != {(cached_dim,)}:
            raise ProviderError(
                f"embedding cache {cache_path} holds vectors of dimension {cached_dim}, "
                f"the provider returned {sorted(dims)}"
            )
        cached.update({v: result[v] for v in misses})
        _store_cache(cache_path, provider.provider_id, cached)
    return result
