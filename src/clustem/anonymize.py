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
privacy check, each row's group id (-1 on suppressed rows) and the
generalized table at the chosen node are all computed from those codes, and
the reports in ``metrics`` count over the same group ids. Every grouping of
codes (rows into leaf combinations, combinations into a node's groups, and
their pairs with the sensitive value) is one ``_fold``: the code columns
packed into one mixed-radix int64 key per row, then numbered densely.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from . import embed
from .errors import InputError
from .tabular import SUPPRESSED, Column, QiSpec, Table
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
    node, each row's group id at the node (-1 on suppressed rows), the node's
    loss, and whether the privacy requirements were met."""

    table: Table
    node: LatticeNode
    groups: np.ndarray
    loss: float
    satisfied: bool

    @property
    def suppressed(self) -> np.ndarray:
        return self.groups < 0


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


def _fold(columns: Sequence[np.ndarray], radices: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
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


class _CodedLattice:
    """Row data coded once through the hierarchies.

    Rows are collapsed to distinct leaf-value combinations with multiplicities;
    each (attribute, level) gets a lookup table from leaf index to a label
    code, so grouping at a node is one ``_fold`` of the combinations' label
    codes, and the generalized table is one label lookup per cell. An empty
    table has no combinations and no groups, and passes every check.
    """

    def __init__(self, table: Table, spec: QiSpec, vghs: Mapping[str, Vgh]) -> None:
        spec.validate_against(table)
        self.n_rows = table.row_count
        self.qi = list(spec.qi)
        self.vghs = [_vgh_for(vghs, a) for a in self.qi]
        total_nodes = math.prod(v.level_count for v in self.vghs)
        if total_nodes > MAX_LATTICE_NODES:
            raise InputError(
                f"generalization lattice has {total_nodes} nodes, above the "
                f"{MAX_LATTICE_NODES} limit"
            )

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

        self.row_combo, first = _fold(leaf_index_columns, [len(v.leaves) for v in self.vghs])
        # combos[j][c]: leaf index of attribute j in combination c
        self.combos = [column[first] for column in leaf_index_columns]
        self.combo_counts = np.bincount(self.row_combo, minlength=len(first))

        # luts[j][v]: leaf index -> label code at level v; labels[j][v]: code -> string
        self.luts: list[list[np.ndarray]] = []
        self.labels: list[list[list[str]]] = []
        for vgh in self.vghs:
            attr_luts, attr_labels = [], []
            for level in vgh.levels:
                codes: dict[str, int] = {}
                lut = np.zeros(len(vgh.leaves), dtype=np.int64)
                for i, leaf in enumerate(vgh.leaves):
                    label = level[leaf]
                    lut[i] = codes.setdefault(label, len(codes))
                attr_luts.append(lut)
                attr_labels.append(sorted(codes, key=codes.get))
            self.luts.append(attr_luts)
            self.labels.append(attr_labels)

        # The distinct (combination, sensitive value) pairs.
        self.pair_sa: np.ndarray | None = None
        if spec.sa is not None:
            sa_index: dict[str, int] = {}
            sa_codes = np.array(
                [sa_index.setdefault(v, len(sa_index)) for v in table.column(spec.sa).values],
                dtype=np.int64,
            )
            self.n_sa = len(sa_index)
            _, first = _fold([self.row_combo, sa_codes], [len(self.combo_counts), self.n_sa])
            self.pair_combo, self.pair_sa = self.row_combo[first], sa_codes[first]

    def _bad_groups(
        self, node: LatticeNode, params: PrivacyParams
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Group id per combination, group sizes in rows, and which groups miss
        k or l, at the node."""
        inverse, _ = _fold(
            [self.luts[j][level][self.combos[j]] for j, level in enumerate(node)],
            [len(self.labels[j][level]) for j, level in enumerate(node)],
        )
        sizes = np.bincount(inverse, weights=self.combo_counts).astype(np.int64)
        bad = sizes < params.k
        if params.l > 1:
            if self.pair_sa is None:
                raise InputError("l-diversity above 1 requires a sensitive attribute")
            pair_group = inverse[self.pair_combo]
            _, first = _fold([pair_group, self.pair_sa], [len(sizes), self.n_sa])
            bad |= np.bincount(pair_group[first], minlength=len(sizes)) < params.l
        return inverse, sizes, bad

    def check(self, node: LatticeNode, params: PrivacyParams) -> bool:
        """True when whole-group suppression keeps the suppressed fraction
        within the limit."""
        _, sizes, bad = self._bad_groups(node, params)
        if self.n_rows == 0:
            return True
        return int(sizes[bad].sum()) / self.n_rows <= params.sup_limit

    def groups(self, node: LatticeNode, params: PrivacyParams) -> np.ndarray:
        """Per-row group index at the node, -1 on the rows whose group misses
        k or l."""
        inverse, _, bad = self._bad_groups(node, params)
        return np.where(bad[inverse], -1, inverse)[self.row_combo]

    def generalize(self, table: Table, node: LatticeNode, mask: np.ndarray) -> Table:
        """The table with each QI cell replaced by its label at the node's
        level, "*" in every QI cell of a masked row, other columns unchanged."""
        columns = []
        for column in table.columns:
            if column.name not in self.qi:
                columns.append(column)
                continue
            j = self.qi.index(column.name)
            level = node[j]
            labels = np.array(self.labels[j][level] + [SUPPRESSED], dtype=object)
            codes = self.luts[j][level][self.combos[j][self.row_combo]]
            codes[mask] = len(labels) - 1
            columns.append(Column(column.name, labels[codes].tolist()))
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
    lattice = _CodedLattice(table, spec, vghs)
    level_counts = [v.level_count for v in lattice.vghs]
    tops = tuple(c - 1 for c in level_counts)
    state = np.full(tuple(level_counts), _UNKNOWN, dtype=np.int8)
    queued = np.zeros(tuple(level_counts), dtype=bool)
    bottom = (0,) * len(level_counts)
    queued[bottom] = True
    heap = [(loss(bottom, lattice.vghs), 0, bottom)]
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
                    key = (loss(successor, lattice.vghs), height + 1, successor)
                    heapq.heappush(heap, key)

    groups = lattice.groups(best, params)
    out = lattice.generalize(table, best, groups < 0)
    return AnonymizationResult(out, best, groups, loss(best, lattice.vghs), satisfied)


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

