"""Command-line orchestration: hierarchy generation, anonymization, evaluation.

Exit codes: 0 success, 1 privacy requirements unsatisfiable (reports are still
written), 2 configuration or input errors, 3 embedding-provider errors. All
randomness flows from --seed, so identical invocations rewrite identical
artifacts (report timestamps aside).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from datetime import datetime, timezone
from pathlib import Path

from . import efficacy, metrics
from .anonymize import PrivacyParams, check_plan, generate_vghs, search
from .embed import (
    DEFAULT_API_KEY_ENV,
    HTTP_API,
    WORD_VECTOR_FILE,
    ProviderConfig,
    create_provider,
)
from .errors import InputError, ProviderError
from .tabular import QiSpec, atomic_write, group_ids, load_csv, write_csv
from .vgh import METHODS, WARD, read_hierarchy, write_hierarchy

EXIT_OK = 0
EXIT_UNSATISFIED = 1
EXIT_CONFIG = 2
EXIT_PROVIDER = 3

K_SWEEP_PRESET = [2, 5, 10, 15, 20, 25, 30, 50, 100, 150, 200]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="clustem",
        description="Generalization-and-suppression anonymization of tabular data "
        "using hierarchies clustered from value embeddings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    vgh_parser = sub.add_parser("vgh", help="hierarchy operations")
    vgh_sub = vgh_parser.add_subparsers(dest="vgh_command", required=True)
    build = vgh_sub.add_parser("build", help="build one hierarchy file per column")
    build.add_argument("--input", required=True, help="input CSV with a header row")
    build.add_argument("--columns", required=True, help="comma-separated nominal columns")
    build.add_argument("--method", choices=METHODS, default=WARD)
    build.add_argument("--seed", type=_seed, default=0)
    build.add_argument("--out-dir", required=True, help="directory for <column>.csv files")
    _add_provider_flags(build)
    build.set_defaults(func=_cmd_vgh_build)

    anon = sub.add_parser("anonymize", help="anonymize a CSV end to end")
    anon.add_argument("--input", required=True)
    anon.add_argument("--out", required=True, help="output directory")
    anon.add_argument("--config", help="JSON run config; flags override its values")
    anon.add_argument("--qi", help="comma-separated quasi-identifier columns")
    anon.add_argument("--sa", help="sensitive attribute column")
    anon.add_argument("--k", help="k value, comma-separated sweep, or 'preset'")
    anon.add_argument("--l", type=int, help="required distinct sensitive values per group")
    anon.add_argument("--sup-limit", type=float, help="max fraction of suppressed records")
    anon.add_argument("--method", choices=METHODS)
    anon.add_argument("--seed", type=_seed)
    anon.add_argument(
        "--hierarchies-dir",
        help="directory with <column>.csv hierarchy files; found files override generation",
    )
    _add_provider_flags(anon)
    anon.set_defaults(func=_cmd_anonymize)

    ev = sub.add_parser("evaluate", help="measure privacy, utility, and ML efficacy")
    ev.add_argument("--train", required=True, help="(anonymized) training CSV")
    ev.add_argument("--test", required=True, help="original test CSV")
    ev.add_argument("--qi", required=True)
    ev.add_argument("--sa", required=True)
    ev.add_argument("--out", required=True, help="report JSON path")
    ev.add_argument("--k", type=int, default=1, help="requested k, for c_avg")
    ev.add_argument("--l", type=int, default=1)
    ev.add_argument("--sup-limit", type=float, default=0.0)
    ev.add_argument("--positive-class", default=">50K")
    features = ev.add_mutually_exclusive_group()
    features.add_argument("--numeric-features", help="comma-separated numeric feature columns")
    features.add_argument(
        "--qi-only", action="store_true", help="use only the QI columns as features"
    )
    ev.add_argument(
        "--seed",
        type=_seed,
        default=0,
        help="accepted for compatibility and recorded in meta; the classifier uses no seed",
    )
    ev.set_defaults(func=_cmd_evaluate)
    return parser


def _seed(raw: str) -> int:
    value = int(raw)
    if value < 0:
        raise argparse.ArgumentTypeError(f"the seed must be non-negative, got {value}")
    return value


def _add_provider_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--vectors", help="word-vector text file")
    parser.add_argument("--api-endpoint", help="embeddings API URL")
    parser.add_argument("--api-model", help="embeddings API model name")
    parser.add_argument(
        "--api-key-env",
        default=DEFAULT_API_KEY_ENV,
        help=f"env var holding the bearer token (default {DEFAULT_API_KEY_ENV})",
    )
    parser.add_argument("--cache", help="JSON embedding cache path")


def _parse_names(raw: str) -> list[str]:
    names = [part.strip() for part in raw.split(",")]
    if any(not name for name in names):
        raise InputError(f"malformed column list {raw!r}")
    return _once(names, "column")


def _once(entries: list, what: str) -> list:
    for entry in entries:
        if entries.count(entry) > 1:
            raise InputError(f"{what} {entry!r} is named more than once")
    return entries


def _provider_from_args(args):
    if not (args.vectors or args.api_endpoint or args.api_model):
        raise InputError(
            "an embedding source is required: --vectors or --api-endpoint/--api-model"
        )
    if args.cache and Path(args.cache).is_dir():
        raise InputError(f"embedding cache {args.cache} is a directory")
    if args.cache and not Path(args.cache).parent.is_dir():
        raise InputError(f"embedding cache {args.cache} is not in an existing directory")
    kind = WORD_VECTOR_FILE if args.vectors else HTTP_API
    return create_provider(
        ProviderConfig(kind, args.vectors, args.api_endpoint, args.api_model, args.api_key_env)
    )


def _output_dir(raw: str) -> Path:
    """The output directory, checked before any work is done: it, or else
    its nearest existing ancestor, must be a directory."""
    out = Path(raw)
    for path in (out, *out.parents):
        if path.exists():
            if not path.is_dir():
                raise InputError(f"output directory {raw}: {path} is not a directory")
            break
    return out


def _output_file(raw: str) -> Path:
    """The output file, checked before any work is done: it must not be a
    directory, and its directory must pass ``_output_dir``."""
    out = Path(raw)
    if out.is_dir():
        raise InputError(f"output file {raw} is a directory")
    _output_dir(str(out.parent))
    return out


def _hierarchy_path(directory: str | Path, attr: str) -> Path:
    """``<directory>/<attr>.csv``; a column name holding a path separator
    would name a file elsewhere, and one holding NUL no file, so both are
    refused."""
    if any(char and char in attr for char in (os.sep, os.altsep, "\0")):
        raise InputError(f"column name {attr!r} holds a path separator or NUL")
    return Path(directory) / f"{attr}.csv"


def _now() -> str:
    return datetime.now(timezone.utc).isoformat()


def _write_json(path: Path, payload: dict) -> None:
    with atomic_write(path) as fh:
        fh.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _build_hierarchies(args, table, columns, out_dir: Path, method, seed, outputs=()):
    """The hierarchy step of both commands. Every output path, ``out_dir``'s
    ``<column>.csv`` files first, then ``outputs``, is checked before the
    provider flags are judged; the flags are judged even when no column is
    left to generate. Writes one hierarchy file per column and returns the
    hierarchies and the provider id ("hierarchy-files" when none is made)."""
    for path in [_hierarchy_path(out_dir, attr) for attr in columns] + list(outputs):
        _output_file(str(path))
    if columns or args.vectors or args.api_endpoint or args.api_model:
        provider = _provider_from_args(args)
    if not columns:
        return {}, "hierarchy-files"
    vghs = generate_vghs(table, columns, provider, method, seed, args.cache)
    out_dir.mkdir(parents=True, exist_ok=True)
    for attr, hierarchy in vghs.items():
        write_hierarchy(hierarchy, str(_hierarchy_path(out_dir, attr)))
    return vghs, provider.provider_id


def _cmd_vgh_build(args) -> int:
    table = load_csv(args.input)
    columns = _parse_names(args.columns)
    _build_hierarchies(args, table, columns, _output_dir(args.out_dir), args.method, args.seed)
    return EXIT_OK


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


# Config key -> (type check, what the key must hold).
_CONFIG_SCHEMA = {
    "qi": (
        lambda v: isinstance(v, list) and all(isinstance(name, str) for name in v),
        "a list of column names",
    ),
    "sa": (lambda v: v is None or isinstance(v, str), "a column name or null"),
    "k": (
        lambda v: _is_int(v) or isinstance(v, str),
        'an integer or a string like "2,5" or "preset"',
    ),
    "l": (_is_int, "an integer"),
    "sup_limit": (lambda v: _is_int(v) or isinstance(v, float), "a number"),
    "method": (lambda v: isinstance(v, str), "a string"),
    "seed": (lambda v: _is_int(v) and v >= 0, "a non-negative integer"),
    "hierarchies": (
        lambda v: isinstance(v, dict) and all(isinstance(p, str) for p in v.values()),
        "an object mapping column names to hierarchy file paths",
    ),
}


def _load_config(path: str | None) -> dict:
    if not path:
        return {}
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:  # ValueError: bad JSON or not UTF-8
        raise InputError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise InputError(f"config {path} must hold a JSON object")
    unknown = sorted(set(raw) - set(_CONFIG_SCHEMA))
    if unknown:
        raise InputError(f"config {path}: unknown keys {unknown}")
    for key, value in raw.items():
        valid, expected = _CONFIG_SCHEMA[key]
        if not valid(value):
            raise InputError(f"config {path}: {key!r} must be {expected}, got {value!r}")
    return raw


def _parse_k_list(raw) -> list[int]:
    if isinstance(raw, int):
        return [raw]
    if raw == "preset":
        return list(K_SWEEP_PRESET)
    try:
        return _once([int(part) for part in str(raw).split(",")], "k")
    except ValueError:
        raise InputError(f"malformed k value {raw!r}") from None


def _cmd_anonymize(args) -> int:
    config = _load_config(args.config)

    def setting(key: str, default=None):
        """The flag, else the config key, else the default."""
        value = getattr(args, key)
        return value if value is not None else config.get(key, default)

    qi = _parse_names(args.qi) if args.qi is not None else config.get("qi")
    if not qi:
        raise InputError("the quasi-identifier is required (--qi or config 'qi')")
    k_raw = setting("k")
    if k_raw is None:
        raise InputError("k is required (--k or config 'k')")
    ks = _parse_k_list(k_raw)
    method, seed, sa = setting("method", WARD), setting("seed", 0), setting("sa")
    if method not in METHODS:
        raise InputError(f"unknown clustering method {method!r}")
    l_value, sup_limit = setting("l", 1), setting("sup_limit", 0.0)
    sweep = [PrivacyParams(k=k, l=l_value, sup_limit=sup_limit) for k in ks]

    table = load_csv(args.input)
    spec = QiSpec(list(qi), sa)
    out_root = _output_dir(args.out)

    vghs = {}
    file_overrides = dict(config.get("hierarchies", {}))
    if args.hierarchies_dir:
        if not Path(args.hierarchies_dir).is_dir():
            raise InputError(f"--hierarchies-dir {args.hierarchies_dir} is not a directory")
        for attr in spec.qi:
            if attr not in file_overrides:
                candidate = _hierarchy_path(args.hierarchies_dir, attr)
                if candidate.exists():
                    file_overrides[attr] = str(candidate)
    for attr, path in file_overrides.items():
        if attr in spec.qi:
            vghs[attr] = read_hierarchy(path, attribute=attr)
    check_plan(table, spec, vghs, sweep)

    out_dirs = [out_root / f"k{params.k}" if len(sweep) > 1 else out_root for params in sweep]
    outputs = [out_dir / name for out_dir in out_dirs for name in ("anonymized.csv", "report.json")]
    to_generate = [attr for attr in spec.qi if attr not in vghs]
    generated, provider_id = _build_hierarchies(
        args, table, to_generate, out_root / "hierarchies", method, seed, outputs
    )
    vghs.update(generated)
    repairs = sum(hierarchy.kmeans_repairs for hierarchy in generated.values())
    meta = {"seed": seed, "method": method, "provider": provider_id, "kmeans_repairs": repairs}

    all_satisfied = True
    results = search(table, spec, vghs, sweep)
    for params, out_dir in zip(sweep, out_dirs):
        started = _now()
        result = next(results)
        all_satisfied &= result.satisfied
        out_dir.mkdir(parents=True, exist_ok=True)
        write_csv(result.table, str(out_dir / "anonymized.csv"))
        report = metrics.compute_report(
            result.groups, table.column(sa) if sa else None, params, result.node
        )
        payload = report.to_dict()
        payload.update(
            {
                "loss": result.loss,
                "satisfied": result.satisfied,
                "suppressed_count": int(result.suppressed.sum()),
                "meta": {**meta, "started_at": started, "finished_at": _now()},
            }
        )
        _write_json(out_dir / "report.json", payload)
    return EXIT_OK if all_satisfied else EXIT_UNSATISFIED


def _cmd_evaluate(args) -> int:
    started = _now()
    out = _output_file(args.out)
    train = load_csv(args.train)
    test = load_csv(args.test)
    spec = QiSpec(_parse_names(args.qi), args.sa)
    params = PrivacyParams(k=args.k, l=args.l, sup_limit=args.sup_limit)
    if args.qi_only:
        numeric = []
    elif args.numeric_features is not None:
        numeric = _parse_names(args.numeric_features)
    else:
        numeric = [
            n for n in efficacy.DEFAULT_NUMERIC_FEATURES
            if train.has_column(n) and n not in (args.sa, *spec.qi)
        ]
    for role, path, table in (("training", args.train, train), ("test", args.test, test)):
        try:
            spec.validate_against(table)
            for name in numeric:
                table.column(name)
        except InputError as exc:
            raise InputError(f"{role} set {path}: {exc}") from None

    report = metrics.compute_report(group_ids(train, spec.qi), train.column(args.sa), params)
    train_fm, test_fm = efficacy.encode(train, test, spec.qi, numeric, args.sa, args.positive_class)
    model = efficacy.train_classifier(train_fm)
    efficacy_report = efficacy.evaluate(model, test_fm, args.positive_class)

    payload = report.to_dict()
    payload["efficacy"] = efficacy_report.to_dict()
    payload["meta"] = {
        "seed": args.seed,
        "features": numeric,
        "started_at": started,
        "finished_at": _now(),
    }
    out.parent.mkdir(parents=True, exist_ok=True)
    _write_json(out, payload)
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ProviderError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PROVIDER
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
