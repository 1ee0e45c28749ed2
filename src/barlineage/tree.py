"""Label bookkeeping for binary cell-lineage trees.

Cells are labelled 1, 2, 3, ... with the two daughters of cell k at 2k
(type 0, "even") and 2k+1 (type 1, "odd"); the mother of k >= 2 is
k // 2.  Generation g is the label range [2**g, 2**(g+1)).

An ObservationTree is the ascending array of its observed labels.  At
construction it builds, once, its one-row Forest: where each observed
cell's mother sits in the label array, where its observed sister pairs
sit, and the counts a fit needs.  The estimators read a tree only
through that row (a daughter's type is her label's parity), so nothing
here grows with 2**depth.  ``counts()`` reads the per-generation cell
counts off the labels on each call.

A Forest stacks R such rows, row after row, for the estimators: each
per-row sum is a weighted ``bincount`` over the row ids, so that a row's
results do not depend on the rows beside it.  One tree is fitted as its
one-row forest.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import repeat
from typing import NamedTuple

import numpy as np

from .errors import DepthError, IndexOutOfRange, MissingRoot, OrphanCell

# ~2e9 cells; the Monte Carlo experiments never need more than depth 11.
MAX_DEPTH = 30
# cells of the trees fitted together in one Forest, at most (a larger tree is
# fitted alone): a larger stack spreads a fit's fixed cost over more rows, but
# holds about 100 B per cell until its fit ends (the sweep is in CHANGES.md)
STACK_CELLS = 1 << 11


def check_depth(depth: int) -> None:
    """Raise DepthError unless 1 <= depth <= MAX_DEPTH."""
    if not (1 <= depth <= MAX_DEPTH):
        raise DepthError(depth, MAX_DEPTH)


def generation(k: int) -> int:
    """Generation of cell k, i.e. floor(log2 k)."""
    if k < 1:
        raise IndexOutOfRange(k)
    return int(k).bit_length() - 1


def mirror(labels: np.ndarray) -> np.ndarray:
    """Each label's place in the mirrored tree: every binary digit below
    the leading one flipped (mirror(2k) = 2*mirror(k)+1), which reverses
    each generation."""
    gen = (np.frexp(labels)[1] - 1).astype(np.int64)  # exact for k < 2**53
    return labels ^ ((1 << gen) - 1)


def as_labels(labels, depth: int) -> np.ndarray:
    """``labels`` as a 1-d int64 array (the same array if it is one), after
    checking on the values as given (so that a label past int64 is named)
    that they are integers, strictly ascending and inside [1, 2^(depth+1));
    a label out of range raises IndexOutOfRange."""
    labels = np.asarray(labels)
    if labels.size and labels.dtype.kind not in "biufO":  # strings, say
        raise ValueError(f"cell label {str(labels.flat[0])!r} is not an integer")
    if labels.dtype.kind == "f":  # an integer array is not searched
        bad = labels[~(np.isfinite(labels) & (labels == np.trunc(labels)))]
        if bad.size:
            raise ValueError(f"cell label {bad[0]} is not an integer")
    if labels.ndim != 1:
        raise ValueError("labels must be a 1-d array")
    if (labels[1:] <= labels[:-1]).any():
        raise ValueError("labels must be strictly ascending")
    if labels.size and not (1 <= labels[0] and labels[-1] < 1 << (depth + 1)):
        raise IndexOutOfRange(int(labels[0] if labels[0] < 1 else labels[-1]))
    return labels.astype(np.int64, copy=False)


@dataclass(frozen=True, eq=False)
class ObservedCounts:
    """``g_star[g]``, the observed cells of generation g = 0 .. depth."""

    g_star: np.ndarray

    @property
    def extinct(self) -> bool:
        return bool((self.g_star == 0).any())


@dataclass(frozen=True, eq=False)
class ObservationTree:
    """The observed cells of a fixed-depth binary tree, as ascending labels.

    Invariants (checked at construction): the labels are integers,
    strictly ascending and in [1, 2^(depth+1)) (``as_labels``), the root
    1 is observed, and no observed cell has an unobserved mother.
    Construction also builds, once and read-only, the one-row Forest that
    ``as_forest`` returns and ``Forest.of`` stacks: the tree's only index.
    A simulator's tree is built by ``_of_valid``, which skips the checks.
    """

    depth: int
    labels: np.ndarray = field(repr=False)
    _row: Forest = field(init=False, repr=False)

    def __post_init__(self):
        check_depth(self.depth)
        labels = np.array(as_labels(self.labels, self.depth))  # a private copy
        if not labels.size or labels[0] != 1:
            raise MissingRoot()
        self._index(self.depth, labels)
        # a cell's mother is the observed label k >> 1, if there is one
        bad = labels[1:][labels[self._row.mothers[1:]] != labels[1:] >> 1]
        if bad.size:
            raise OrphanCell(int(bad[0]))

    @classmethod
    def _of_valid(cls, depth: int, labels: np.ndarray) -> "ObservationTree":
        """The tree of int64 ``labels`` valid by construction, which it owns."""
        tree = object.__new__(cls)
        tree._index(depth, labels)
        return tree

    def _index(self, n: int, labels: np.ndarray) -> None:
        """Keep depth ``n`` and ``labels``, with their row, frozen."""
        mothers = np.searchsorted(labels, labels >> 1)  # the root's label >> 1 is 0
        # in sorted order an even daughter is directly followed by her
        # sister when both are observed (k | 1 is k + 1 for an even k only)
        pairs = np.flatnonzero(labels[1:] == (labels[:-1] | 1))
        group = labels & 1  # each cell's type, then the root's mark for a Forest
        group[0] = 2
        start = np.searchsorted(labels, 1 << n)  # generation n starts at |T*_{n-1}|
        odd = group[start:].sum()
        fit = np.array([[start, pairs.size, labels.size, labels.size - start - odd, odd, n]])
        pair_rows = np.zeros(pairs.size, np.intp)
        for arr in (labels, group, mothers, pairs, pair_rows, fit):  # every caller shares these
            arr.flags.writeable = False
        object.__setattr__(self, "depth", n)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "_row", Forest(labels, None, group, mothers, pairs,
                                                pair_rows, fit))

    def __eq__(self, other):
        if not isinstance(other, ObservationTree):
            return NotImplemented
        return self.depth == other.depth and np.array_equal(self.labels, other.labels)

    def __hash__(self):
        return hash((self.depth, self.labels.tobytes()))

    @classmethod
    def from_indices(cls, depth: int, observed) -> "ObservationTree":
        """The tree of the given labels, in any order; repeats count once.
        A label that is not an integer raises ValueError."""
        check_depth(depth)
        labels = np.sort(observed if isinstance(observed, np.ndarray) else list(observed))
        first = np.ones(labels.size, dtype=bool)  # a repeat is not the first of its run
        first[1:] = labels[1:] != labels[:-1]
        return cls(depth, labels[first])

    @property
    def delta(self) -> np.ndarray:
        """Presence bits over all 2^(depth+1) labels (entry 0 unused).

        A dense view built on every access, for inspection; nothing in
        the library reads it.
        """
        delta = np.zeros(1 << (self.depth + 1), dtype=np.uint8)
        delta[self.labels] = 1
        return delta

    def observed_indices(self) -> np.ndarray:
        """Labels of the observed cells, ascending (the root first)."""
        return self.labels

    def counts(self) -> ObservedCounts:
        """The observed cells per generation, read off the labels on each call."""
        starts = np.searchsorted(self.labels, 1 << np.arange(self.depth + 2))
        return ObservedCounts(np.diff(starts))

    def reflect(self) -> "ObservationTree":
        """Swap every sibling pair recursively (mirror the tree)."""
        return ObservationTree(self.depth, np.sort(mirror(self.labels)))


class Forest(NamedTuple):
    """R checked trees, with their traits if given, stacked row after row:
    row r of an estimator's result over a forest is its r-th tree's.

    Per cell: ``group`` is 2 * row + type for a daughter and 2R for a
    root (a bin the estimators drop), ``mothers`` her mother's position
    (a root's is her own).  Per observed sister pair: ``pairs`` is the
    even daughter's position (her sister is the next) and ``pair_rows``
    its row.  ``counts`` holds, per row of depth n, the counts that the
    three tests read besides their sums: |T*_{n-1}|, |T*01_{n-1}|,
    |T*_n|, z[n] (the even and odd cells of generation n) and n.
    """

    labels: np.ndarray
    x: np.ndarray | None
    group: np.ndarray
    mothers: np.ndarray
    pairs: np.ndarray
    pair_rows: np.ndarray
    counts: np.ndarray

    @classmethod
    def of(cls, trees, values=None) -> "Forest":
        """The forest of ObservationTrees ``trees`` (or one-row Forests) and,
        if given, their ValueTrees ``values``: each one's row, stacked."""
        rows = [as_forest(t, v) for t, v in zip(trees, values or repeat(None))]
        sizes = np.array([r.labels.size for r in rows])
        starts, ids = np.cumsum(sizes) - sizes, np.arange(len(rows))
        group = 2 * np.repeat(ids, sizes) + np.concatenate([r.group for r in rows])
        group[starts] = 2 * ids.size
        x = None if rows[0].x is None else np.concatenate([r.x for r in rows])
        return cls(np.concatenate([r.labels for r in rows]), x, group,
                   np.concatenate([r.mothers + s for r, s in zip(rows, starts)]),
                   np.concatenate([r.pairs + s for r, s in zip(rows, starts)]),
                   np.repeat(ids, [r.pairs.size for r in rows]),
                   np.concatenate([r.counts for r in rows]))


def as_forest(tree, values=None) -> Forest:
    """``tree`` if it is a Forest, else the tree's own row, with the traits
    of ``values`` if given."""
    if isinstance(tree, Forest):
        return tree
    return tree._row if values is None else tree._row._replace(x=values.observed(tree))


def fitted(fit, lineages):
    """(tag, row) for each (tag, tree, values) of ``lineages``, in order: the
    tree's row of ``fit`` run on a Forest, or None for a tree None.  Consecutive
    trees share a Forest of at most STACK_CELLS cells (a larger tree is fitted
    alone); a tree waiting for its fit keeps only its row and observed traits."""
    tags, rows, cells = [], [], 0

    def fit_stack():
        forest = Forest.of(rows) if rows else None
        rows.clear()  # before the fit, which needs only the forest
        out = iter(() if forest is None else fit(forest))
        done = [(tag, next(out) if has_tree else None) for tag, has_tree in tags]
        tags.clear()
        return done

    for tag, tree, values in lineages:
        if tree is not None:
            if rows and cells + tree.labels.size > STACK_CELLS:
                yield from fit_stack()
                cells = 0
            cells += tree.labels.size
            rows.append(as_forest(tree, values))
        tags.append((tag, tree is not None))
    yield from fit_stack()
