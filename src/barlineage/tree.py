"""Label bookkeeping for binary cell-lineage trees.

Cells are labelled 1, 2, 3, ... with the two daughters of cell k at 2k
(type 0, "even") and 2k+1 (type 1, "odd"); the mother of k >= 2 is
k // 2.  Generation g is the label range [2**g, 2**(g+1)).

An ObservationTree is the ascending array of its observed labels, and
nothing more: ``counts()`` reads the per-generation cell counts off the
labels on each call, so nothing here grows with 2**depth.

A Forest stacks the labels of R trees, row after row, and indexes them
once for the estimators: where each cell's mother sits, where the
observed sister pairs sit (a daughter's type is her label's parity), and
the counts a fit needs.  Each per-row sum is a weighted ``bincount`` over
the row ids, so that a row's results do not depend on the rows beside
it.  One tree is fitted as its one-row forest.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import DepthError, IndexOutOfRange, MissingRoot, OrphanCell

# ~2e9 cells; the Monte Carlo experiments never need more than depth 11.
MAX_DEPTH = 30
# cells of the trees fitted together in one Forest, at most (a larger tree is
# fitted alone): a larger stack spreads a fit's fixed cost over more rows, but its
# fit peaks at 65-85 B per cell, 31-40 B of them its Forest's (see CHANGES.md)
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
    1 is observed, and no observed cell has an unobserved mother.  The
    tree keeps only its depth and a frozen copy of its labels; a fit
    indexes them in ``Forest.of``.  A simulator's tree is built by
    ``_of_valid``, which skips the checks.
    """

    depth: int
    labels: np.ndarray = field(repr=False)

    def __post_init__(self):
        check_depth(self.depth)
        labels = np.array(as_labels(self.labels, self.depth))  # a private copy
        if not labels.size or labels[0] != 1:
            raise MissingRoot()
        # a cell's mother is the observed label k >> 1, if there is one
        kids = labels[1:]
        bad = kids[labels[np.searchsorted(labels, kids >> 1)] != kids >> 1]
        if bad.size:
            raise OrphanCell(int(bad[0]))
        labels.flags.writeable = False  # the tree's hash and equality read it
        object.__setattr__(self, "labels", labels)

    @classmethod
    def _of_valid(cls, depth: int, labels: np.ndarray) -> "ObservationTree":
        """The tree of int64 ``labels`` valid by construction, which it owns."""
        labels.flags.writeable = False
        tree = object.__new__(cls)
        tree.__dict__.update(depth=depth, labels=labels)
        return tree

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

        A dense view built on every access (2 GB at depth 30), for
        inspection; nothing in the library reads it.
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
        """The forest of ObservationTrees ``trees`` and, if given, their
        ``values``: each tree's ValueTree, or the traits of its labels.

        The index is built in one pass over the stacked labels, each cell
        keyed (row << 32) | label: the keys ascend, since MAX_DEPTH keeps
        labels below 2^31, so a mother is found by one search and an even
        daughter's key | 1 is the next key when her sister is observed.
        """
        sizes = np.array([t.labels.size for t in trees])
        depths = np.array([t.depth for t in trees])
        ids = np.arange(sizes.size)
        labels = np.concatenate([t.labels for t in trees])
        row = np.repeat(ids, sizes)
        high = row << 32
        key = high | labels
        mothers = np.searchsorted(key, high | labels >> 1)  # a root's label >> 1 is 0
        pairs = np.flatnonzero(key[1:] == key[:-1] | 1)
        ends, types = np.cumsum(sizes), labels & 1
        group = 2 * row + types  # each cell's type, then the roots' bin
        group[ends - sizes] = 2 * ids.size
        # generation n starts after the row's |T*_{n-1}| cells, the root among them
        last = np.searchsorted(key, ids << 32 | 1 << depths)
        seen = np.cumsum(types)  # the odd cells up to each position
        odd = seen[ends - 1] - seen[last - 1]
        counts = np.stack([last - ends + sizes, np.bincount(row[pairs], minlength=ids.size),
                           sizes, ends - last - odd, odd, depths], axis=1)
        x = None if values is None else np.concatenate(
            [v if isinstance(v, np.ndarray) else v.observed(t) for t, v in zip(trees, values)])
        return cls(labels, x, group, mothers, pairs, row[pairs], counts)


def fitted(fit, lineages):
    """(tag, row) for each (tag, tree, values) of ``lineages``, in order: the
    tree's row of ``fit`` run on a Forest, or None for a tree None.  Consecutive
    trees share a Forest of at most STACK_CELLS cells (a larger tree is fitted
    alone); a tree waiting for its fit keeps only its labels and observed traits."""
    tags, trees, traits, cells = [], [], [], 0

    def fit_stack():
        forest = Forest.of(trees, None if traits[0] is None else traits) if trees else None
        del trees[:], traits[:]  # before the fit, which needs only the forest
        out = iter(() if forest is None else fit(forest))
        done = [(tag, next(out) if has_tree else None) for tag, has_tree in tags]
        tags.clear()
        return done

    for tag, tree, values in lineages:
        if tree is not None:
            if trees and cells + tree.labels.size > STACK_CELLS:
                yield from fit_stack()
                cells = 0
            cells += tree.labels.size
            trees.append(tree)
            traits.append(None if values is None else values.observed(tree))
        tags.append((tag, tree is not None))
    yield from fit_stack()
