"""Embedding vectors for nominal attribute values.

Two sources are supported: a word-vector text file (a value embeds as the
mean of its tokens' vectors) and a generic HTTP embeddings API (the whole
value string is embedded at once). Results can be cached on disk as a JSON
object stamped with the provider id and the vector dimension, plus a map of
value -> array of numbers; the cache is written atomically, reproduces
provider output bit for bit, and is refused when the stamp does not match.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np
import requests

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
                raise InputError("a word-vector provider needs a file path and nothing else")
        elif self.kind == HTTP_API:
            if self.path or not (self.endpoint and self.model):
                raise InputError("an HTTP provider needs an endpoint and a model name")
        else:
            raise InputError(f"unknown provider kind {self.kind!r}")


class WordVectorProvider:
    """Token vectors from a text file: first line "<count> <dim>", then one
    "<token> <v1> ... <vdim>" line per token.

    A value's embedding is the arithmetic mean of its tokens' vectors; tokens
    absent from the file are skipped, and a value with no known token at all
    is an error.
    """

    def __init__(self, path: str) -> None:
        self.path = str(path)
        self.vectors: dict[str, np.ndarray] = {}
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
                for lineno, line in enumerate(fh, start=2):
                    parts = line.split()
                    if not parts:
                        continue
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
                    self.vectors[parts[0]] = vec
        except (OSError, UnicodeDecodeError) as exc:
            raise ProviderError(f"cannot read word-vector file {path}: {exc}") from exc
        if len(self.vectors) != count:
            raise ProviderError(
                f"{path}: header promises {count} tokens, file holds {len(self.vectors)}"
            )
        self.dim = dim

    @property
    def provider_id(self) -> str:
        return f"wordvec:{self.path}"

    def fetch(self, values: Sequence[str]) -> list[np.ndarray]:
        out = []
        for value in values:
            token_vecs = [self.vectors[t] for t in preprocess(value) if t in self.vectors]
            if not token_vecs:
                raise ProviderError(f"no vector for any token of value {value!r}")
            out.append(np.mean(token_vecs, axis=0))
        return out


class HttpApiProvider:
    """Generic embeddings API: POST {"model": ..., "input": [...]} and read
    {"data": [{"index": i, "embedding": [...]}]}, re-ordered by index.

    Values are embedded whole (no tokenization). Requests carry a bearer token
    taken from the configured environment variable when it is set, are
    batched at API_BATCH_SIZE values apiece, and time out after API_TIMEOUT_S
    seconds.
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
        headers = {}
        token = os.environ.get(self.api_key_env)
        if token:
            headers["Authorization"] = f"Bearer {token}"
        try:
            resp = requests.post(
                self.endpoint,
                json={"model": self.model, "input": batch},
                headers=headers,
                timeout=API_TIMEOUT_S,
            )
        except requests.RequestException as exc:
            raise ProviderError(f"embeddings request failed: {exc}") from exc
        if not 200 <= resp.status_code < 300:
            raise ProviderError(
                f"embeddings API returned {resp.status_code}: {resp.text[:200]}"
            )
        try:
            payload = resp.json()
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
                vec = np.asarray(item["embedding"], dtype=float)
                if vec.ndim != 1 or vec.size == 0 or not np.all(np.isfinite(vec)):
                    raise ProviderError("embeddings API returned a malformed vector")
                slots[idx] = vec
        except ProviderError:
            raise
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
    try:
        vectors = {key: np.asarray(vec, dtype=float) for key, vec in raw["vectors"].items()}
    except (AttributeError, TypeError, ValueError) as exc:
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
    """Embed every value once; all resulting vectors must share one dimension.

    With a cache path, known values are served from disk and only the misses
    go to the provider; the merged cache is rewritten atomically afterwards.
    """
    values = list(values)
    if len(set(values)) != len(values):
        raise InputError("values to embed must be distinct")
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
