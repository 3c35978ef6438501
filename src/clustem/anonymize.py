"""Full-domain generalization with record suppression over the level lattice.

A lattice node picks one hierarchy level per QI attribute. Groups failing
k-anonymity or l-diversity are suppressed whole, and a node passes when the
suppressed fraction stays within the limit. Passing is monotone (generalizing
further only merges groups): the upward cone of a passing node passes, the
downward cone of a failing node fails.

The search visits nodes best-first from the bottom node, in ascending
(loss, level sum, levels) order, and returns the first passing node it pops.
That key grows strictly along every lattice edge, so every node popped before
it fails and it is the optimum. A popped node without a verdict is checked;
when it fails, a greedy upward chain from it is binary-searched for its first
passing node. Every check tags a whole cone, upward on a pass and downward on
a fail (the chain search of OLA and Flash), so most popped nodes are decided
by a tag, not a check.

Cells are mapped through the hierarchies once, into integer codes; the
privacy check, the suppression mask and the generalized table at the chosen
node are all computed from those codes.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from . import embed
from .errors import InputError
from .tabular import NOMINAL, SUPPRESSED, Column, QiSpec, Table
from .vgh import Vgh, build_vgh

MAX_LATTICE_NODES = 10_000_000

# Search state per lattice node.
_UNKNOWN, _PASS, _FAIL = 0, 1, 2

LatticeNode = tuple[int, ...]


@dataclass
class PrivacyParams:
    """Requested k-anonymity, l-diversity, and the record suppression limit."""

    k: int
    l: int = 1
    sup_limit: float = 0.0

    def __post_init__(self) -> None:
        if self.k < 1:
            raise InputError(f"k must be at least 1, got {self.k}")
        if self.l < 1:
            raise InputError(f"l must be at least 1, got {self.l}")
        if not 0.0 <= self.sup_limit <= 1.0:
            raise InputError(f"the suppression limit must lie in [0, 1], got {self.sup_limit}")


@dataclass
class AnonymizationResult:
    """The generalized table (suppressed rows' QI cells are "*"), the chosen
    node, the suppression mask, the node's loss, and whether the privacy
    requirements were met."""

    table: Table
    node: LatticeNode
    suppressed: np.ndarray
    loss: float
    satisfied: bool


def loss(node: LatticeNode, vghs: Sequence[Vgh]) -> float:
    """Mean normalized generalization height: 0 at the identity node, 1 at the
    all-top node, strictly increasing in every component."""
    if len(node) != len(vghs):
        raise InputError("node length does not match the hierarchy count")
    total = 0.0
    for level, vgh in zip(node, vghs):
        if not 0 <= level < vgh.level_count:
            raise InputError(f"level {level} out of range for {vgh.attribute!r}")
        denom = vgh.level_count - 1
        total += level / denom if denom > 0 else 0.0
    return total / len(node)


def _vgh_for(vghs: Mapping[str, Vgh], attribute: str) -> Vgh:
    try:
        return vghs[attribute]
    except KeyError:
        raise InputError(f"no hierarchy provided for QI attribute {attribute!r}") from None


class _CodedLattice:
    """Row data coded once through the hierarchies.

    Rows are collapsed to distinct leaf-value combinations with multiplicities;
    each (attribute, level) gets a lookup table from leaf index to a label
    code, so grouping at a node is integer arithmetic plus one sort, and the
    generalized table is one label lookup per cell.
    """

    def __init__(self, table: Table, spec: QiSpec, vghs: Mapping[str, Vgh]) -> None:
        spec.validate_against(table)
        self.n_rows = table.row_count
        self.qi = list(spec.qi)
        self.vghs = [_vgh_for(vghs, a) for a in self.qi]

        leaf_index_columns = []
        for attr, vgh in zip(self.qi, self.vghs):
            index = {leaf: i for i, leaf in enumerate(vgh.leaves)}
            column = table.column(attr).values
            try:
                leaf_index_columns.append(np.array([index[v] for v in column], dtype=np.int64))
            except KeyError as exc:
                raise InputError(
                    f"value {exc.args[0]!r} in column {attr!r} is not a hierarchy leaf"
                ) from None

        if self.n_rows:
            stacked = np.stack(leaf_index_columns, axis=1)
            self.combos, self.row_combo = np.unique(stacked, axis=0, return_inverse=True)
            self.row_combo = self.row_combo.reshape(-1)
            self.combo_counts = np.bincount(self.row_combo, minlength=len(self.combos))
        else:
            self.combos = np.zeros((0, len(self.qi)), dtype=np.int64)
            self.row_combo = np.zeros(0, dtype=np.int64)
            self.combo_counts = np.zeros(0, dtype=np.int64)

        # luts[j][v]: leaf index -> label code at level v; labels[j][v]: code -> string
        self.luts: list[list[np.ndarray]] = []
        self.labels: list[list[list[str]]] = []
        self.code_counts: list[list[int]] = []
        for vgh in self.vghs:
            attr_luts, attr_labels, attr_counts = [], [], []
            for level in vgh.levels:
                codes: dict[str, int] = {}
                lut = np.zeros(len(vgh.leaves), dtype=np.int64)
                for i, leaf in enumerate(vgh.leaves):
                    label = level[leaf]
                    lut[i] = codes.setdefault(label, len(codes))
                attr_luts.append(lut)
                attr_labels.append(sorted(codes, key=codes.get))
                attr_counts.append(len(codes))
            self.luts.append(attr_luts)
            self.labels.append(attr_labels)
            self.code_counts.append(attr_counts)

        # Packing label codes into one int64 key is safe as long as the
        # product of per-attribute code counts fits; otherwise fall back to
        # re-factorizing after every fold.
        self._single_fold = math.prod(len(v.leaves) for v in self.vghs) < 2**62

        self.sa_codes: np.ndarray | None = None
        self.n_sa = 0
        self.pair_combo: np.ndarray | None = None
        self.pair_sa: np.ndarray | None = None
        if spec.sa is not None and self.n_rows:
            sa_values = table.column(spec.sa).values
            sa_index: dict[str, int] = {}
            self.sa_codes = np.array(
                [sa_index.setdefault(v, len(sa_index)) for v in sa_values], dtype=np.int64
            )
            self.n_sa = len(sa_index)
            pairs = np.unique(self.row_combo * self.n_sa + self.sa_codes)
            self.pair_combo = pairs // self.n_sa
            self.pair_sa = pairs % self.n_sa

    def _combo_group_codes(self, node: LatticeNode) -> tuple[np.ndarray, np.ndarray]:
        """Group id per combo plus group sizes (in rows) at the given node."""
        key = np.zeros(len(self.combos), dtype=np.int64)
        for j, level in enumerate(node):
            key = key * self.code_counts[j][level] + self.luts[j][level][self.combos[:, j]]
            if not self._single_fold:
                _, key = np.unique(key, return_inverse=True)
        _, inverse = np.unique(key, return_inverse=True)
        sizes = np.bincount(inverse, weights=self.combo_counts).astype(np.int64)
        return inverse, sizes

    def _bad_groups(
        self, node: LatticeNode, params: PrivacyParams
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        inverse, sizes = self._combo_group_codes(node)
        bad = sizes < params.k
        if params.l > 1:
            if self.sa_codes is None:
                raise InputError("l-diversity above 1 requires a sensitive attribute")
            pair_group = inverse[self.pair_combo]
            distinct_pairs = np.unique(pair_group * self.n_sa + self.pair_sa)
            distinct = np.bincount(distinct_pairs // self.n_sa, minlength=len(sizes))
            bad |= distinct < params.l
        return inverse, sizes, bad

    def check(self, node: LatticeNode, params: PrivacyParams) -> bool:
        """True when whole-group suppression keeps the suppressed fraction
        within the limit."""
        if self.n_rows == 0:
            return True
        _, sizes, bad = self._bad_groups(node, params)
        suppressed = int(sizes[bad].sum())
        return suppressed / self.n_rows <= params.sup_limit

    def suppressed(self, node: LatticeNode, params: PrivacyParams) -> np.ndarray:
        """Per-row mask of the rows whose group at the node misses k or l."""
        if self.n_rows == 0:
            return np.zeros(0, dtype=bool)
        inverse, _, bad = self._bad_groups(node, params)
        return bad[inverse][self.row_combo]

    def generalize(self, table: Table, node: LatticeNode, mask: np.ndarray) -> Table:
        """The table with each QI cell replaced by its label at the node's
        level, "*" in every QI cell of a masked row, other columns unchanged."""
        columns = []
        for column in table.columns:
            if column.name not in self.qi:
                columns.append(Column(column.name, column.kind, list(column.values)))
                continue
            j = self.qi.index(column.name)
            level = node[j]
            labels = np.array(self.labels[j][level] + [SUPPRESSED], dtype=object)
            codes = self.luts[j][level][self.combos[self.row_combo, j]]
            codes[mask] = len(labels) - 1
            columns.append(Column(column.name, NOMINAL, labels[codes].tolist()))
        return Table(columns)


def _chain(node: LatticeNode, tops: Sequence[int], state: np.ndarray) -> list[LatticeNode]:
    """A greedy upward chain from an untagged node: each step raises the
    attribute with the most levels left (lowest index on ties), and the chain
    stops before the first tagged node or at the top."""
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


def _classify(
    lattice: _CodedLattice, params: PrivacyParams, chain: list[LatticeNode], state: np.ndarray
) -> None:
    """Tag every chain node. Privacy is monotone, so a pass tags the node's
    upward cone and a fail its downward cone. The first node is checked first,
    because it is the best candidate left; when it fails, the rest of the
    chain is binary-searched for its first passing node."""
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


def search(
    table: Table, spec: QiSpec, vghs: Mapping[str, Vgh], params: PrivacyParams
) -> AnonymizationResult:
    """Find the satisfying node of minimal loss, ties broken by (level sum,
    lexicographic levels). When nothing satisfies, the all-top node is applied
    and the result is flagged unsatisfied."""
    spec.validate_against(table)
    ordered_vghs = [_vgh_for(vghs, a) for a in spec.qi]
    level_counts = [v.level_count for v in ordered_vghs]
    total_nodes = math.prod(level_counts)
    if total_nodes > MAX_LATTICE_NODES:
        raise InputError(
            f"generalization lattice has {total_nodes} nodes, above the "
            f"{MAX_LATTICE_NODES} limit"
        )

    lattice = _CodedLattice(table, spec, vghs)
    tops = tuple(c - 1 for c in level_counts)
    state = np.full(tuple(level_counts), _UNKNOWN, dtype=np.int8)
    queued = np.zeros(tuple(level_counts), dtype=bool)
    bottom = (0,) * len(level_counts)
    queued[bottom] = True
    heap = [(loss(bottom, ordered_vghs), 0, bottom)]
    best, satisfied = tops, False
    # The key rises strictly along every lattice edge, so nodes pop in key
    # order and every node popped before the first passing one fails.
    while heap and state[tops] != _FAIL:
        _, height, node = heapq.heappop(heap)
        if state[node] == _UNKNOWN:
            _classify(lattice, params, _chain(node, tops, state), state)
        if state[node] == _PASS:
            best, satisfied = node, True
            break
        for j, top in enumerate(tops):
            if node[j] < top:
                successor = node[:j] + (node[j] + 1,) + node[j + 1 :]
                if not queued[successor]:
                    queued[successor] = True
                    key = (loss(successor, ordered_vghs), height + 1, successor)
                    heapq.heappush(heap, key)


    mask = lattice.suppressed(best, params)
    out = lattice.generalize(table, best, mask)
    return AnonymizationResult(out, best, mask, loss(best, ordered_vghs), satisfied)


def generate_vghs(
    table: Table,
    qi_columns: Sequence[str],
    provider,
    method: str,
    seed: int = 0,
    cache_path: str | None = None,
) -> dict[str, Vgh]:
    """Embed each QI column's distinct values and build one hierarchy per column."""
    vghs = {}
    for attr in qi_columns:
        values = sorted(set(table.column(attr).values))
        if not values:
            raise InputError(f"column {attr!r} has no values to generalize")
        embeddings = embed.embed_all(values, provider, cache_path)
        vghs[attr] = build_vgh(values, embeddings, method, seed, attribute=attr)
    return vghs

