"""Independent brute-force references for the lattice search and metrics tests,
random hierarchies (with generated or hand-written labels) and their levels as
leaf -> label dicts, and frozen copies of the former k-means, word-vector
parser and line pattern, CSV reader, count matrix, fold, group ids, set
labelling (``get_categories``) and lattice walk for the bit-identity tests,
and of the former classifier fit and feature encoding.

Everything here works on plain dicts and loops, deliberately sharing no code
with the production search and metrics paths.
"""

from __future__ import annotations

import csv
import itertools
import logging
import math
import re
import warnings
from collections import Counter
from typing import Mapping, Sequence

import numpy as np

from clustem.anonymize import _FAIL, _PASS, _UNKNOWN, PrivacyParams
from clustem.cluster import KMEANS_MAX_ITER, KMEANS_RESTARTS, KMEANS_TOL, ClusterAssignment
from clustem.efficacy import (
    DIAGONAL_LIFT,
    L2_STRENGTH,
    MAX_NEWTON_STEPS,
    TOLERANCE,
    FeatureMatrix,
    LogisticModel,
)
from clustem.embed import preprocess
from clustem.errors import InputError, ProviderError
from clustem.metrics import MetricReport
from clustem.tabular import MISSING, SUPPRESSED, Column, QiSpec, Table
from clustem.vgh import Vgh, label_leaves

_logger = logging.getLogger(__name__)


def _random_blocks(rng: np.random.Generator, n_values: int, max_levels: int) -> list[list[list]]:
    """The blocks of up to (max_levels - 2) random merge levels over n_values
    leaves, as lists of leaf indices."""
    blocks: list[list[int]] = [[i] for i in range(n_values)]
    levels: list[list[list[int]]] = []
    for _ in range(int(rng.integers(0, max_levels - 1))):
        if len(blocks) <= 1 or len(levels) >= max_levels - 2:
            break
        for _ in range(int(rng.integers(1, len(blocks)))):
            if len(blocks) == 1:
                break
            i, j = sorted(rng.choice(len(blocks), size=2, replace=False))
            blocks[i] = blocks[i] + blocks[j]
            del blocks[j]
        levels.append([list(block) for block in blocks])
    return levels


def _labelled_vgh(attr: str, leaves: list[str], levels: list[list[list[int]]], name_blocks) -> Vgh:
    """Identity, one level per blocks list with ``name_blocks(blocks)``
    labelling its blocks, then "*"."""
    dicts = [{leaf: leaf for leaf in leaves}]
    for blocks in levels:
        names = name_blocks(blocks)
        dicts.append({leaves[m]: name for block, name in zip(blocks, names) for m in block})
    dicts.append({leaf: "*" for leaf in leaves})
    return Vgh.from_levels(attr, leaves, dicts)


def random_vgh(rng: np.random.Generator, attr: str, n_values: int, max_levels: int = 4) -> Vgh:
    """A random valid hierarchy: identity, up to (max_levels - 2) merge levels,
    "*", with set labels as generated hierarchies write them."""
    leaves = [f"{attr}{i}" for i in range(n_values)]

    def grammar(blocks):
        names = [sorted(leaves[m] for m in block) for block in blocks]
        return [b[0] if len(b) == 1 else "{" + ",".join(b) + "}" for b in names]

    return _labelled_vgh(attr, leaves, _random_blocks(rng, n_values, max_levels), grammar)


# Labels a hand-written file may use: none follows the "{a,b}" grammar, and
# some hold line boundaries other than "\n" and "\r".
HANDWRITTEN_LABELS = ["g", "h\x85", "\u2028", "x\u2028y", "{", "{a}", "a,b", "\x85\x85"]


def random_handwritten_vgh(
    rng: np.random.Generator, attr: str, n_values: int, max_levels: int = 4
) -> Vgh:
    """``random_vgh``'s shape with labels drawn from the leaf names and
    ``HANDWRITTEN_LABELS``: a block may carry another block's leaf name, and
    one string may label different blocks at different levels."""
    leaves = [f"{attr}{i}" for i in range(n_values)]
    pool = leaves + HANDWRITTEN_LABELS

    def drawn(blocks):
        return [pool[i] for i in rng.choice(len(pool), size=len(blocks), replace=False)]

    return _labelled_vgh(attr, leaves, _random_blocks(rng, n_values, max_levels), drawn)


def level_dicts(vgh: Vgh) -> list[dict[str, str]]:
    """Each level of ``vgh`` as a leaf -> label mapping."""
    return [
        {leaf: labels[code] for leaf, code in zip(vgh.leaves, row)}
        for row, labels in zip(vgh.codes.tolist(), vgh.labels)
    ]


def get_categories(values: Sequence[str], labels: Sequence[int]) -> dict[str, str]:
    """Label each value by its cluster: singletons keep their raw value, larger
    clusters get "{" + members sorted lexicographically, comma-joined + "}"."""
    if len(values) != len(labels):
        raise InputError("labels must parallel values")
    members: dict[int, list[str]] = {}
    for value, label in zip(values, labels):
        members.setdefault(int(label), []).append(value)
    out: dict[str, str] = {}
    for group in members.values():
        name = group[0] if len(group) == 1 else "{" + ",".join(sorted(group)) + "}"
        out.update(dict.fromkeys(group, name))
    return out


def random_instance(rng: np.random.Generator, make_vgh=random_vgh):
    """A random (table, spec, vghs, params) search problem at oracle scale,
    its hierarchies drawn by ``make_vgh``."""
    m = int(rng.integers(2, 4))
    attrs = [f"q{j}" for j in range(m)]
    vghs = {a: make_vgh(rng, a, int(rng.integers(2, 6))) for a in attrs}
    n_rows = int(rng.integers(1, 51))
    columns = [
        Column(a, [str(rng.choice(vghs[a].leaves)) for _ in range(n_rows)])
        for a in attrs
    ]
    sa_domain = ["s0", "s1", "s2"][: int(rng.integers(2, 4))]
    columns.append(Column("sa", [str(rng.choice(sa_domain)) for _ in range(n_rows)]))
    table = Table(columns)
    params = PrivacyParams(
        k=int(rng.integers(1, 6)),
        l=int(rng.choice([1, 2])),
        sup_limit=float(rng.choice([0.0, 0.2, 0.5])),
    )
    return table, QiSpec(attrs, "sa"), vghs, params


def naive_suppressed(table, spec, vghs, node, params) -> list[bool]:
    """Dict-based grouping: True for every row of a group that misses k or l."""
    n = table.row_count
    qi_cols = [table.column(a).values for a in spec.qi]
    sa_col = table.column(spec.sa).values if spec.sa else None
    levels = [level_dicts(vghs[a])[node[j]] for j, a in enumerate(spec.qi)]
    groups: dict[tuple, list[int]] = {}
    for i in range(n):
        key = tuple(level[column[i]] for level, column in zip(levels, qi_cols))
        groups.setdefault(key, []).append(i)
    mask = [False] * n
    for rows in groups.values():
        bad = len(rows) < params.k
        if not bad and params.l > 1:
            bad = len({sa_col[i] for i in rows}) < params.l
        if bad:
            for i in rows:
                mask[i] = True
    return mask


def naive_satisfied(table, spec, vghs, node, params) -> bool:
    """Suppress bad groups whole, test the suppressed fraction."""
    n = table.row_count
    if n == 0:
        return True
    return sum(naive_suppressed(table, spec, vghs, node, params)) / n <= params.sup_limit


def naive_generalize(table, spec, vghs, node, mask) -> Table:
    """Each QI cell looked up in its hierarchy level, "*" on masked rows;
    other columns are passed through."""
    columns = []
    for column in table.columns:
        if column.name not in spec.qi:
            columns.append(column)
            continue
        level = level_dicts(vghs[column.name])[node[spec.qi.index(column.name)]]
        values = ["*" if mask[i] else level[cell] for i, cell in enumerate(column.values)]
        columns.append(Column(column.name, values))
    return Table(columns)


def exhaustive_satisfying(table, spec, vghs, params) -> list[tuple[float, tuple[int, ...]]]:
    """(loss, node) for every satisfying node, by full enumeration."""
    level_counts = [vghs[a].level_count for a in spec.qi]
    out = []
    for node in itertools.product(*[range(c) for c in level_counts]):
        if naive_satisfied(table, spec, vghs, node, params):
            total = 0.0
            for level, count in zip(node, level_counts):
                total += level / (count - 1) if count > 1 else 0.0
            out.append((total / len(node), node))
    return out


def naive_report(n_rows, groups, sa_values, params, node=None) -> MetricReport:
    """The report from dict-of-row-lists groups and Counter loops; rows with
    group id -1 are suppressed."""
    members: dict[int, list[int]] = {}
    for i, gid in enumerate(groups):
        if gid >= 0:
            members.setdefault(int(gid), []).append(i)
    classes = [members[gid] for gid in sorted(members)]
    retained = sum(len(rows) for rows in classes)
    achieved_k = min((len(rows) for rows in classes), default=0)
    achieved_l = t = 0
    if sa_values is not None and classes:
        achieved_l = min(len({sa_values[i] for i in rows}) for rows in classes)
        global_counts = Counter(sa_values[i] for rows in classes for i in rows)
        t = 0.0
        for rows in classes:
            counts = Counter(sa_values[i] for i in rows)
            dist = 0.5 * sum(
                abs(counts.get(v, 0) / len(rows) - global_counts[v] / retained)
                for v in global_counts
            )
            t = max(t, dist)
    return MetricReport(
        achieved_k=achieved_k,
        achieved_l=achieved_l,
        t_closeness=float(t),
        perc_recs=retained / n_rows if n_rows else 1.0,
        c_avg=retained / (len(classes) * params.k) if retained else 0.0,
        requested=params,
        node=node,
    )


# k-means as it was before its distance rows were cached and its seeding draw
# inlined, kept verbatim (helpers prefixed ``_ref``) so that ``cluster.kmeans``
# can be checked bit for bit against it. It takes the points as a 2-D array.


def _ref_sq_dists(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    return ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)


def _ref_plus_plus_init(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = points.shape[0]
    chosen = [int(rng.integers(n))]
    d2 = ((points - points[chosen[0]]) ** 2).sum(axis=1)
    for _ in range(1, k):
        total = float(d2.sum())
        if total > 0.0:
            idx = int(rng.choice(n, p=d2 / total))
        else:
            # All remaining mass sits on already-chosen positions (duplicate
            # points); fall back to the lowest unchosen index.
            idx = int(np.setdiff1d(np.arange(n), chosen)[0])
        chosen.append(idx)
        d2 = np.minimum(d2, ((points - points[idx]) ** 2).sum(axis=1))
    return points[chosen].copy()


def _ref_fill_empty_clusters(
    points: np.ndarray, labels: np.ndarray, centers: np.ndarray, k: int
) -> tuple[np.ndarray, int]:
    """Move the point farthest from its assigned center into each empty cluster.

    Points that are the sole member of their cluster stay put, so no repair can
    empty another cluster. Ties break toward the lowest point index.
    """
    counts = np.bincount(labels, minlength=k)
    empties = np.flatnonzero(counts == 0)
    if empties.size == 0:
        return labels, 0
    labels = labels.copy()
    dist_to_own = ((points - centers[labels]) ** 2).sum(axis=1)
    # One scan for all empties: a point passed over stays ineligible, since
    # counts only fall, and a moved point is the sole member of its cluster.
    candidates = iter(np.argsort(-dist_to_own, kind="stable").tolist())
    for e in empties:
        for p in candidates:
            if counts[labels[p]] <= 1:
                continue
            counts[labels[p]] -= 1
            labels[p] = e
            counts[e] = 1
            break
    return labels, int(empties.size)


def _ref_lloyd(
    points: np.ndarray, centers: np.ndarray
) -> tuple[np.ndarray, np.ndarray, float, int]:
    k = centers.shape[0]
    prev_labels: np.ndarray | None = None
    prev_inertia = np.inf
    labels = np.zeros(points.shape[0], dtype=int)
    inertia = 0.0
    repairs = 0
    for _ in range(KMEANS_MAX_ITER):
        labels = _ref_sq_dists(points, centers).argmin(axis=1)
        labels, nrep = _ref_fill_empty_clusters(points, labels, centers, k)
        repairs += nrep
        sums = np.zeros_like(centers)
        np.add.at(sums, labels, points)
        counts = np.bincount(labels, minlength=k)
        new_centers = sums / counts[:, None]
        inertia = float(((points - new_centers[labels]) ** 2).sum())
        assert inertia <= prev_inertia + 1e-9 * max(1.0, abs(prev_inertia)), (
            "inertia increased across a Lloyd iteration"
        )
        prev_inertia = inertia
        shift = float(((new_centers - centers) ** 2).sum())
        centers = new_centers
        if prev_labels is not None and np.array_equal(labels, prev_labels):
            break
        prev_labels = labels
        if shift < KMEANS_TOL:
            break
    return labels, centers, inertia, repairs


def reference_kmeans(points, n_clusters: int, seed: int) -> ClusterAssignment:
    """Cluster ``points`` into exactly ``n_clusters`` non-empty clusters.

    Runs Lloyd iterations from k-means++ seeding and returns the best of
    KMEANS_RESTARTS seeded restarts by inertia (ties favor the earlier
    restart). Identical inputs and seed give bit-identical output.
    """
    pts = np.asarray(points, dtype=float)
    n = pts.shape[0]
    if not 1 <= n_clusters <= n:
        raise InputError(f"n_clusters must be in [1, {n}], got {n_clusters}")
    best: ClusterAssignment | None = None
    for child in np.random.SeedSequence(seed).spawn(KMEANS_RESTARTS):
        rng = np.random.default_rng(child)
        centers0 = _ref_plus_plus_init(pts, n_clusters, rng)
        labels, centers, inertia, repairs = _ref_lloyd(pts, centers0)
        if best is None or inertia < best.inertia:
            best = ClusterAssignment(labels, centers, inertia, repairs)
    assert best is not None
    return best


# The word-vector provider as it was when it converted every line to floats on
# creation, kept verbatim so that ``embed.WordVectorProvider`` can be checked
# against it: the same error text on creation, and bit-equal vectors.


class ReferenceWordVectorProvider:
    """Token vectors from a text file: first line "<count> <dim>", then one
    "<token> <v1> ... <vdim>" line per token.

    A value's embedding is the arithmetic mean of its tokens' vectors; tokens
    absent from the file are skipped, and a value with no known token at all
    is an error.
    """

    def __init__(self, path: str) -> None:
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

    def fetch(self, values: Sequence[str]) -> list[np.ndarray]:
        out = []
        for value in values:
            token_vecs = [self.vectors[t] for t in preprocess(value) if t in self.vectors]
            if not token_vecs:
                raise ProviderError(f"no vector for any token of value {value!r}")
            out.append(np.mean(token_vecs, axis=0))
        return out


# ``embed._FINITE`` and the line pattern of ``embed._line_pattern`` as they were
# with backtracking quantifiers, kept verbatim so that the possessive patterns
# can be checked to read exactly the same lines and capture the same tokens.
REFERENCE_FINITE = (
    r"[+-]?(?:[0-9]{1,100}(?:\.[0-9]*)?|\.[0-9]+)(?:[eE](?:-[0-9]+|\+?[0-9]{1,2}))?"
)
REFERENCE_FINITE_LINE = re.compile(rf"(\S+)(?: {REFERENCE_FINITE})+\n?")


# ``tabular.load_csv`` and ``metrics.count_matrix`` as they were before the
# direct split of quote-free files and the dict coding of sensitive values,
# kept verbatim so that both can be checked against them.


def reference_load_csv(path: str) -> Table:
    """Read a comma-separated, double-quote quoted, UTF-8 file with a header row."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh, strict=True)
            header = next(reader, None)
            if header is None:
                raise InputError(f"{path}: missing header row")
            if len(set(header)) != len(header):
                raise InputError(f"{path}: duplicate column names in header")
            if any(not name for name in header):
                raise InputError(f"{path}: empty column name in header")
            rows: list[list[str]] = []
            for row in reader:
                if len(row) != len(header):
                    raise InputError(
                        f"{path}: line {reader.line_num}: expected {len(header)} fields,"
                        f" got {len(row)}"
                    )
                rows.append(row)
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not UTF-8 text: {exc}") from exc
    except csv.Error as exc:
        raise InputError(f"{path}: line {reader.line_num}: {exc}") from exc

    return Table([Column(name, [row[j] for row in rows]) for j, name in enumerate(header)])


def reference_count_matrix(groups: np.ndarray, sa_values: Sequence[str] | None) -> np.ndarray:
    """Retained rows per (group, sensitive value): one matrix row per group id
    that holds a row, one column per sensitive value of the retained rows (a
    single column without a sensitive attribute)."""
    retained = groups >= 0
    ids = groups[retained]
    if sa_values is None:
        codes, width = np.zeros(len(ids), dtype=np.int64), 1
    else:
        values, codes = np.unique(np.asarray(sa_values)[retained], return_inverse=True)
        width = max(len(values), 1)
    rows = int(ids.max()) + 1 if len(ids) else 0
    counts = np.bincount(ids * width + codes, minlength=rows * width).reshape(rows, width)
    return counts[counts.any(axis=1)]


# ``anonymize._fold`` and ``tabular.group_ids`` as they were before string
# columns were coded once and folds numbered keys without a sort.


def reference_fold(columns: Sequence[np.ndarray], radices: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """Dense ids of the distinct rows of equal-length integer columns, plus the
    first row of each id.

    Column j holds values in [0, radices[j]). Ids follow the rows' lexicographic
    order, first column most significant, as a row-wise ``np.unique`` numbers them.
    The columns are packed into one int64 key; where the key could reach 2**62,
    the part packed so far is first renumbered densely, which keeps its order.
    Radices and row counts must stay below 2**31.
    """
    key = np.zeros(len(columns[0]), dtype=np.int64)
    bound = 1
    for column, radix in zip(columns, radices):
        if bound * radix >= 2**62:
            _, key = np.unique(key, return_inverse=True)
            bound = len(key)
        key = key * radix + column
        bound *= radix
    _, first_row, ids = np.unique(key, return_index=True, return_inverse=True)
    return ids, first_row


def reference_group_ids(table: Table, qi: Sequence[str]) -> np.ndarray:
    """One int64 id per row, shared by the rows with equal QI cells (ids count
    up from 0 in order of first appearance); -1 on rows whose QI cells are all
    "*"."""
    columns = [table.column(name).values for name in qi]
    suppressed = (SUPPRESSED,) * len(columns)
    ids: dict[tuple[str, ...], int] = {}
    return np.fromiter(
        (-1 if key == suppressed else ids.setdefault(key, len(ids)) for key in zip(*columns)),
        dtype=np.int64,
    )


def reference_chain(node, tops, state) -> list[tuple[int, ...]]:
    """The former ``anonymize._chain``: a greedy upward chain from an untagged
    node, raising the attribute with the most levels left (lowest index on
    ties), stopping before the first tagged node or at the top."""
    chain = [node]
    current = list(node)
    while True:
        left = [t - v for t, v in zip(tops, current)]
        j = left.index(max(left))
        if left[j] == 0:
            return chain
        current[j] += 1
        step = tuple(current)
        if state[step] != _UNKNOWN:
            return chain
        chain.append(step)


def reference_classify(lattice, params, chain, state) -> None:
    """The former ``anonymize._classify``: binary-search the chain, its first
    node first, tagging a whole cone at every check."""
    lo, hi, mid = 0, len(chain), 0
    while lo < hi:
        node = chain[mid]
        if lattice.check(node, params):
            state[tuple(slice(v, None) for v in node)] = _PASS
            hi = mid
        else:
            state[tuple(slice(0, v + 1) for v in node)] = _FAIL
            lo = mid + 1
        mid = (lo + hi) // 2


def reference_walk(lattice, params, ranking) -> tuple[tuple[int, ...], bool]:
    """The former walk of one sweep entry in ``anonymize.search`` over a full
    ranking: the chosen node and whether it passes."""
    level_counts = tuple(v.level_count for v in lattice.vghs)
    tops = tuple(c - 1 for c in level_counts)
    state = np.full(level_counts, _UNKNOWN, dtype=np.int8)
    flat = state.reshape(-1)
    for index in ranking:
        if flat[index] == _FAIL:
            continue
        node = tuple(map(int, np.unravel_index(index, level_counts)))
        if flat[index] == _UNKNOWN:
            reference_classify(lattice, params, reference_chain(node, tops, state), state)
        if flat[index] == _PASS:
            return node, True
        if state[tops] == _FAIL:
            break
    return tops, False


def _ref_sigmoid(z: np.ndarray) -> np.ndarray:
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


def reference_train_classifier(train: FeatureMatrix) -> LogisticModel:
    """The former ``efficacy.train_classifier``: the same Newton fit over
    every training row, repeated rows included."""
    if train.data.shape[0] == 0:
        raise InputError("training needs a non-empty training set")
    labels = train.labels
    if labels.min() == labels.max():
        warnings.warn("training data holds a single class; model predicts it everywhere")
        return LogisticModel(np.zeros(train.data.shape[1]), 0.0, int(labels[0]))
    x = train.data
    n, d = x.shape
    # Per row, the margin u = (1 - 2y) z is exact in both the loss log(1+e^u)
    # and the residual p - y = (1 - 2y) sigmoid(u), with no cancellation.
    sign = 1.0 - 2.0 * labels
    centred = np.empty_like(x, dtype=float)  # refilled each step

    def objective(weights: np.ndarray, bias: float) -> float:
        u = sign * (x @ weights + bias)
        return float(np.logaddexp(0.0, u).mean() + 0.5 * L2_STRENGTH * (weights @ weights))

    weights = np.zeros(d)
    bias = 0.0
    value = objective(weights, bias)
    previous = math.inf
    for _ in range(MAX_NEWTON_STEPS):
        z = x @ weights + bias
        residual = sign * _ref_sigmoid(sign * z)
        curvature = _ref_sigmoid(z) * _ref_sigmoid(-z)
        grad_w = residual @ x / n + L2_STRENGTH * weights
        grad_b = float(residual.mean())
        # The bias is eliminated from the Newton system. What is left for the
        # weights is X'SX/n + L2 with X centred on its curvature-weighted
        # mean, so a constant column (an all-"*" block), which is collinear
        # with the bias, cannot make the system singular.
        mean = curvature @ x / curvature.sum()
        np.subtract(x, mean, out=centred)
        np.multiply(centred, np.sqrt(curvature)[:, None], out=centred)
        hess = centred.T @ centred / n
        np.fill_diagonal(hess, hess.diagonal() * (1.0 + DIAGONAL_LIFT) + L2_STRENGTH)
        step_w = np.linalg.solve(hess, mean * grad_b - grad_w)
        step_b = float(-grad_b / curvature.mean() - mean @ step_w)
        decrement = -float(grad_w @ step_w + grad_b * step_b)
        resolution = TOLERANCE * value
        if decrement <= resolution and decrement >= previous:
            break
        length = 1.0
        while length * decrement > resolution and (
            objective(weights + length * step_w, bias + length * step_b) > value
        ):
            length /= 2.0
        weights = weights + length * step_w
        bias += length * step_b
        value = objective(weights, bias)
        previous = decrement
    return LogisticModel(weights, bias)


# ``efficacy.encode`` and its helpers as they were before it encoded each
# distinct table row once.


def _ref_labels(table: Table, label_column: str, positive_class: str) -> np.ndarray:
    codes, distinct = table.column(label_column).coding
    return np.array([cell == positive_class for cell in distinct], dtype=int)[codes]


def _ref_multi_hot(
    table: Table, qi: Sequence[str], leaves: Mapping[str, Sequence[str]]
) -> np.ndarray:
    blocks = []
    for attr in qi:
        leaf_index = {leaf: i for i, leaf in enumerate(leaves[attr])}
        rows, distinct = table.column(attr).coding
        encoded = np.zeros((len(distinct), len(leaf_index)))
        unseen: set[str] = set()
        for i, cell in enumerate(distinct):
            if cell == SUPPRESSED:
                encoded[i] = 1.0
                continue
            for leaf in [cell] if cell in leaf_index else label_leaves(cell):
                if leaf in leaf_index:
                    encoded[i, leaf_index[leaf]] = 1.0
                elif leaf not in unseen:
                    unseen.add(leaf)
                    _logger.warning("unseen leaf %r in %r for %r encoded as zero", leaf, cell, attr)
        blocks.append(encoded[rows])
    return np.hstack(blocks) if blocks else np.zeros((table.row_count, 0))


def _ref_number(cell: str) -> float | None:
    """A numeric feature cell as a float, NaN for the missing marker, None
    for any other cell that is not a finite number."""
    if cell == MISSING:
        return math.nan
    try:
        value = float(cell)
    except ValueError:
        return None
    return value if math.isfinite(value) else None


def _ref_numeric_matrix(table: Table, names: Sequence[str], role: str) -> np.ndarray:
    """The numeric columns, each distinct cell parsed once; an unparsable cell
    is reported at the first data row that holds it."""
    cols = []
    for name in names:
        codes, distinct = table.column(name).coding
        values = [_ref_number(cell) for cell in distinct]
        if None in values:
            bad = values.index(None)
            raise InputError(
                f"{role} set, numeric feature {name!r}, data row "
                f"{int(np.argmax(codes == bad)) + 1}: {distinct[bad]!r} is "
                f"neither a finite number nor the missing marker {MISSING!r}"
            )
        cols.append(np.array(values, dtype=float)[codes])
    return np.stack(cols, axis=1) if names else np.zeros((table.row_count, 0))


def reference_encode(
    train: Table,
    test: Table,
    qi: Sequence[str],
    numeric_features: Sequence[str],
    leaves: Mapping[str, Sequence[str]],
    label_column: str,
    positive_class: str,
) -> tuple[FeatureMatrix, FeatureMatrix]:
    """The former ``efficacy.encode``: one feature row per table row, repeated
    rows included, over the leaf vocabulary that the caller passes (today's
    ``encode`` takes ``infer_leaves`` of the two tables). Encode train and
    test with one shared feature layout: multi-hot blocks in QI order (leaves
    lexicographic), then numerics standardized to the training mean and
    variance (missing numerics land on the mean)."""
    observed = set(train.column(label_column).coding[1] + test.column(label_column).coding[1])
    if len(observed) > 2:
        raise InputError(
            f"label column {label_column!r} must be binary, found {sorted(observed)[:4]}"
        )
    if positive_class not in observed:
        raise InputError(
            f"label column {label_column!r} holds no positive class {positive_class!r}, "
            f"found {sorted(observed)}"
        )
    sorted_leaves = {attr: sorted(leaves[attr]) for attr in qi}
    names = [f"{attr}={leaf}" for attr in qi for leaf in sorted_leaves[attr]]
    names += numeric_features
    train_numeric = _ref_numeric_matrix(train, numeric_features, "training")
    test_numeric = _ref_numeric_matrix(test, numeric_features, "test")
    if train_numeric.shape[1]:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # all-missing columns
            mean = np.nanmean(train_numeric, axis=0)
            std = np.nanstd(train_numeric, axis=0)
        mean = np.where(np.isnan(mean), 0.0, mean)
        std = np.where((std == 0.0) | np.isnan(std), 1.0, std)
        for name, centre, spread in zip(numeric_features, mean, std):
            if not math.isfinite(centre) or not math.isfinite(spread):
                raise InputError(
                    f"training set, numeric feature {name!r}: the "
                    f"{'mean' if not math.isfinite(centre) else 'standard deviation'} "
                    "of its values overflows a float"
                )
        train_numeric = (np.where(np.isnan(train_numeric), mean, train_numeric) - mean) / std
        with np.errstate(over="ignore", invalid="ignore"):
            test_numeric = (np.where(np.isnan(test_numeric), mean, test_numeric) - mean) / std
        if not np.isfinite(test_numeric).all():
            row, j = np.argwhere(~np.isfinite(test_numeric))[0]
            codes, distinct = test.column(numeric_features[j]).coding
            raise InputError(
                f"test set, numeric feature {numeric_features[j]!r}, data row {row + 1}: "
                f"{distinct[codes[row]]!r} overflows a float when standardized to the "
                "training mean and standard deviation"
            )

    out = []
    for table, numeric in ((train, train_numeric), (test, test_numeric)):
        data = np.hstack([_ref_multi_hot(table, qi, sorted_leaves), numeric])
        out.append(FeatureMatrix(names, data, _ref_labels(table, label_column, positive_class)))
    return out[0], out[1]
