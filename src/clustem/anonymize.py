"""Full-domain generalization with record suppression over the level lattice.

A lattice node picks one hierarchy level per QI attribute. Groups failing
k-anonymity or l-diversity are suppressed whole, and a node passes when the
suppressed fraction stays within the limit. Passing is monotone (generalizing
further only merges groups): the upward cone of a passing node passes, the
downward cone of a failing node fails.

For each entry of a sweep, a fresh walk visits nodes in ascending (loss, level
sum, levels) order and yields the first passing node, so every node visited
before it fails and it is the optimum. A visited node without a verdict is
checked; when it fails, a greedy upward chain from it is binary-searched for
its first passing node. Each such step then tags at most two cones, downward
from the last failing chain node and upward from the first passing one (the
chain search of OLA and Flash), so most nodes are decided by a tag, and a walk
ends once the all-top node fails. The bottom node ranks first, and the rest
of the order is made in slabs of ascending loss, shared by a sweep's walks:
a slab is sorted only once a walk first reaches it, so a sweep whose walks
stop early sorts a small part of the lattice, and one that passes at the
bottom node sorts none. Within a slab, a walk skips the ranks tagged failing
a window at a time. Making the first slab computes every node's loss, O(N)
memory.

A run is refused before any work by one gate, ``check_plan``: the QI and
sensitive columns exist, l > 1 has a sensitive attribute, each given
hierarchy holds its column's values, and the lattice fits the node cap. The
CLI calls it before generating any hierarchy, and ``search`` before coding.

Cells are mapped through the hierarchies once per sweep, into integer codes;
the privacy check, each row's group id (-1 on suppressed rows) and the
generalized table at the chosen node are all computed from those codes, and
the reports in ``metrics`` count over the same group ids and sensitive codes.
Each QI and sensitive column is coded once (``Column.coding``), and the
lattice groups rows by those codes: a hierarchy level becomes a lookup from
value code to the hierarchy's own block code. Every grouping is one
``tabular.fold``, which packs code columns into one mixed-radix int64 key per
row and numbers the keys, through a presence table when their range is small.
Rows become combinations of QI value codes once per sweep, by
``tabular.distinct_rows``, which also gives each combination's first row and
row count. A check's groups, and their distinct pairs with the sensitive
value, need no first rows, and each distinct pair key names its group.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence

import numpy as np

from . import embed
from .errors import InputError
from .tabular import SUPPRESSED, Column, QiSpec, Table, distinct_rows, fold, rate_quoting
from .vgh import Vgh, build_vgh, check_values

MAX_LATTICE_NODES = 10_000_000

# The ranking's first slab size and the walk's scan window.
_SLAB = 4096

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
    node, each row's group id at the node (-1 on suppressed rows; the ids
    carry no order), the node's loss, and whether the privacy requirements
    were met."""

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


class _CodedLattice:
    """Row data coded once through the hierarchies.

    ``distinct_rows`` collapses rows to distinct combinations of their QI
    value codes (``Column.coding``) with multiplicities. Each (attribute,
    level) gets a lookup table from value code to the hierarchy's own block
    code (``Vgh.codes``), so grouping at a node is one ``fold`` of the
    combinations' block codes (a combination's number does not matter), and
    the generalized table is one label lookup per cell. An empty table has
    no combinations and no groups, and passes every check.
    """

    def __init__(self, table: Table, spec: QiSpec, vghs: Mapping[str, Vgh]) -> None:
        self.n_rows = table.row_count
        self.qi = list(spec.qi)
        self.vghs = [_vgh_for(vghs, a) for a in self.qi]

        codings = [table.column(attr).coding for attr in self.qi]
        self.row_combo, first, self.combo_counts = distinct_rows(codings)
        # combos[j][c]: the code of attribute j's value in combination c
        self.combos = [codes[first] for codes, _ in codings]

        # luts[j][v]: value code -> block code at level v, as vghs[j].codes numbers it
        self.luts: list[np.ndarray] = []
        for vgh, (_, distinct) in zip(self.vghs, codings):
            position = {leaf: i for i, leaf in enumerate(vgh.leaves)}
            self.luts.append(vgh.codes[:, [position[v] for v in distinct]])

        # The distinct (combination, sensitive value) pairs.
        self.pair_sa: np.ndarray | None = None
        if spec.sa is not None:
            sa_codes, sa_values = table.column(spec.sa).coding
            self.n_sa = len(sa_values)
            _, pairs = fold([self.row_combo, sa_codes], [len(first), self.n_sa])
            self.pair_combo, self.pair_sa = np.divmod(pairs, self.n_sa)

    def _bad_groups(
        self, node: LatticeNode, params: PrivacyParams
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Group id per combination, group sizes in rows, and which groups miss
        k or l, at the node."""
        inverse, _ = fold(
            [self.luts[j][level][self.combos[j]] for j, level in enumerate(node)],
            [len(self.vghs[j].labels[level]) for j, level in enumerate(node)],
        )
        sizes = np.bincount(inverse, weights=self.combo_counts).astype(np.int64)
        bad = sizes < params.k
        if params.l > 1:
            # Each distinct (group, sensitive value) key names its group.
            _, pairs = fold([inverse[self.pair_combo], self.pair_sa], [len(sizes), self.n_sa])
            bad |= np.bincount(pairs // self.n_sa, minlength=len(sizes)) < params.l
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
        level, "*" in every QI cell of a masked row, other columns unchanged.
        A generalized column's quoting is rated from its labels."""
        columns = []
        for column in table.columns:
            if column.name not in self.qi:
                columns.append(column)
                continue
            j = self.qi.index(column.name)
            level = node[j]
            labels = self.vghs[j].labels[level] + [SUPPRESSED]
            codes = self.luts[j][level][column.coding[0]]
            codes[mask] = len(labels) - 1
            out = Column(column.name, np.array(labels, dtype=object)[codes].tolist())
            out.quoting = rate_quoting(labels)
            columns.append(out)
        return Table(columns)


def _classify(
    lattice: _CodedLattice,
    params: PrivacyParams,
    node: LatticeNode,
    tops: LatticeNode,
    state: np.ndarray,
) -> bool:
    """Decide an untagged node; True when it passes. A greedy upward chain
    from it raises the attribute with the most levels left (lowest index on
    ties) and stops before a tagged node or at the top. The node is checked
    first, as the best candidate left; when it fails, the rest of the chain
    is binary-searched for its first passing node. The chain ascends, so the
    last failing node's downward cone and the first passing node's upward
    cone hold every check's verdict, and only those two are tagged."""
    chain, current = [node], list(node)
    while tuple(current) != tops:
        left = [t - v for t, v in zip(tops, current)]
        current[left.index(max(left))] += 1
        if state[tuple(current)] != _UNKNOWN:
            break
        chain.append(tuple(current))
    lo, hi, mid = 0, len(chain), 0
    while lo < hi:
        if lattice.check(chain[mid], params):
            hi = mid
        else:
            lo = mid + 1
        mid = (lo + hi) // 2
    if lo > 0:
        state[tuple(slice(0, v + 1) for v in chain[lo - 1])] = _FAIL
    if lo < len(chain):
        state[tuple(slice(v, None) for v in chain[lo])] = _PASS
    return lo == 0


def _ranking(level_counts: Sequence[int]) -> Iterator[np.ndarray]:
    """Every node's flat index, in ascending (loss, level sum, levels) order,
    in slabs of ascending loss, each made when it is asked for; joined, they
    are the whole order. Indices are int32, which the node cap allows. Losses
    are summed in ``loss``'s order, so they are bit-equal to it. The slabs end
    at the losses of ranks ``_SLAB``, 2 ``_SLAB``, 4 ``_SLAB`` ..., and each
    holds every node whose loss lies above one end and at most the next, so a
    run of equal losses is never split. Within a slab, nodes are sorted by
    loss and level sum; the sort is stable and the slab ascends, so full ties
    keep C order, which is lexicographic."""
    losses = np.zeros(level_counts)
    axes = np.ix_(*[np.arange(c, dtype=np.int32) for c in level_counts])
    for count, levels in zip(level_counts, axes):
        losses += levels / max(count - 1, 1)
    losses /= len(level_counts)
    losses = losses.reshape(-1)
    sizes = [_SLAB]
    while sizes[-1] < losses.size:
        sizes.append(2 * sizes[-1])
    # Partition at the largest rank first, then only the part below it: about
    # two passes over the losses, where a partition at every rank at once
    # makes one pass per rank.
    part, bounds = losses.copy(), [np.inf]
    for size in sizes[-2::-1]:
        part.partition(size - 1)
        bounds.append(part[size - 1])
        part = part[: size - 1]
    del part  # and with it the copy
    strides = [math.prod(level_counts[j + 1 :]) for j in range(len(level_counts))]
    lo = -np.inf
    for hi in sorted(set(bounds)):
        slab = np.flatnonzero((losses > lo) & (losses <= hi)).astype(np.int32)
        lo = hi
        sums = sum(slab // stride % count for stride, count in zip(strides, level_counts))
        yield slab[np.lexsort((sums, losses[slab]))]


def _unfailed(
    slabs: list[np.ndarray], more: Iterator[np.ndarray], flat: np.ndarray
) -> Iterator[int]:
    """The ranks' flat indices in order, skipping those tagged failing when the
    walk reaches them. ``slabs`` holds the ranking's first slabs; ``more``
    yields the rest, each appended to ``slabs`` once a walk first reaches it.
    Tagged ranks are skipped by scanning ``_SLAB`` at a time."""
    for s in itertools.count():
        if s == len(slabs):
            slabs.append(next(more))
        slab, pos = slabs[s], 0
        while pos < len(slab):
            live = np.flatnonzero(flat[slab[pos : pos + _SLAB]] != _FAIL)
            if live.size == 0:
                pos += _SLAB
                continue
            pos += int(live[0])
            yield int(slab[pos])
            pos += 1


def check_plan(
    table: Table, spec: QiSpec, vghs: Mapping[str, Vgh], sweep: Sequence[PrivacyParams]
) -> None:
    """Reject a run before any hierarchy is generated. Every QI and sensitive
    column must be in the table, and l-diversity above 1 needs a sensitive
    attribute. A QI column with a hierarchy in ``vghs`` counts its levels,
    and every value in it must be one of its leaves; a column without one
    counts n + 1 levels for its n distinct values, as ``build_vgh`` makes.
    The lattice may hold at most ``MAX_LATTICE_NODES`` nodes."""
    spec.validate_against(table)
    if spec.sa is None and any(params.l > 1 for params in sweep):
        raise InputError("l-diversity above 1 requires a sensitive attribute")
    distinct = {attr: table.column(attr).coding[1] for attr in spec.qi}
    total_nodes = math.prod(
        vghs[a].level_count if a in vghs else len(distinct[a]) + 1 for a in spec.qi
    )
    if total_nodes > MAX_LATTICE_NODES:
        raise InputError(
            f"generalization lattice has {total_nodes} nodes, above the "
            f"{MAX_LATTICE_NODES} limit"
        )
    for attr in spec.qi:
        if attr in vghs:
            leaves = set(vghs[attr].leaves)
            for value in distinct[attr]:
                if value not in leaves:
                    raise InputError(f"value {value!r} in column {attr!r} is not a hierarchy leaf")


def search(
    table: Table, spec: QiSpec, vghs: Mapping[str, Vgh], sweep: Sequence[PrivacyParams]
) -> Iterator[AnonymizationResult]:
    """Yield, per sweep entry, the satisfying node of minimal loss (ties broken
    by level sum, then levels), else the all-top node flagged unsatisfied."""
    check_plan(table, spec, vghs, sweep)
    lattice = _CodedLattice(table, spec, vghs)
    level_counts = tuple(v.level_count for v in lattice.vghs)
    tops = tuple(c - 1 for c in level_counts)
    slabs = [np.zeros(1, dtype=np.int32)]  # the bottom node, which ranks first
    more = _ranking(level_counts)  # runs only once a walk goes beyond it
    for params in sweep:
        state = np.full(level_counts, _UNKNOWN, dtype=np.int8)
        flat = state.reshape(-1)
        best, satisfied = tops, False
        for index in _unfailed(slabs, more, flat):
            node = tuple(map(int, np.unravel_index(index, level_counts)))
            if flat[index] == _PASS or _classify(lattice, params, node, tops, state):
                best, satisfied = node, True
                break
            if state[tops] == _FAIL:
                break

        groups = lattice.groups(best, params)
        out = lattice.generalize(table, best, groups < 0)
        yield AnonymizationResult(out, best, groups, loss(best, lattice.vghs), satisfied)


def generate_vghs(
    table: Table,
    qi_columns: Sequence[str],
    provider,
    method: str,
    seed: int = 0,
    cache_path: str | None = None,
) -> dict[str, Vgh]:
    """Check every QI column's values, embed all of them in one ``embed_all``
    call (a value shared by columns once), then build one hierarchy per column."""
    columns = {attr: sorted(table.column(attr).coding[1]) for attr in qi_columns}
    for attr, values in columns.items():
        check_values(values, attr)
    embeddings = embed.embed_all(sorted(set().union(*columns.values())), provider, cache_path)
    return {
        attr: build_vgh(values, embeddings, method, seed, attribute=attr)
        for attr, values in columns.items()
    }

