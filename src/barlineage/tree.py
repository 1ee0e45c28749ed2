"""Label bookkeeping for binary cell-lineage trees.

Cells are labelled 1, 2, 3, ... with the two daughters of cell k at 2k
(type 0, "even") and 2k+1 (type 1, "odd"); the mother of k >= 2 is
k // 2.  Generation g is the label range [2**g, 2**(g+1)).

An ObservationTree is the ascending array of its observed labels.  At
construction it finds, once, where each observed cell's mother sits in
that array, where its observed sister pairs sit, and its
ObservedCounts.  The estimators read a tree through those three and
the labels alone (a daughter's type is her label's parity), so nothing
here grows with 2**depth.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DepthError, IndexOutOfRange, MissingRoot, OrphanCell

# ~2e9 cells; the Monte Carlo experiments never need more than depth 11.
MAX_DEPTH = 30


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
    checking that they are integers, strictly ascending and inside
    [1, 2^(depth+1)); a label out of range raises IndexOutOfRange."""
    labels = np.asarray(labels)
    if labels.dtype.kind == "f":  # an integer array is not searched
        bad = labels[~(np.isfinite(labels) & (labels == np.trunc(labels)))]
        if bad.size:
            raise ValueError(f"cell label {bad[0]} is not an integer")
    labels = labels.astype(np.int64, copy=False)
    if labels.ndim != 1:
        raise ValueError("labels must be a 1-d array")
    if (labels[1:] <= labels[:-1]).any():
        raise ValueError("labels must be strictly ascending")
    if labels.size and not (1 <= labels[0] and labels[-1] < 1 << (depth + 1)):
        raise IndexOutOfRange(int(labels[0] if labels[0] < 1 else labels[-1]))
    return labels


@dataclass(frozen=True, eq=False)
class ObservedCounts:
    """Per-generation and cumulative observed-cell counts.

    An ObservationTree builds these once, at construction, from its
    observed labels; ``tree.counts()`` returns that one object.  All
    arrays are indexed by generation 0..depth.  ``z`` rows are the
    observed daughters of each type born into that generation (row 0 is
    the root by convention: (0, 1)).  ``t01`` counts mothers in the
    sub-tree up to that generation with BOTH daughters observed, so its
    entry at depth equals the one at depth-1 (daughters of the deepest
    generation are never observed).
    """

    depth: int
    z: np.ndarray        # (depth+1, 2) ints
    g_star: np.ndarray   # (depth+1,) observed cells per generation
    t_star: np.ndarray   # (depth+1,) cumulative observed cells
    t01: np.ndarray      # (depth+1,) cumulative both-daughters-observed mothers

    @property
    def extinct(self) -> bool:
        return bool((self.g_star == 0).any())


@dataclass(frozen=True, eq=False)
class ObservationTree:
    """The observed cells of a fixed-depth binary tree, as ascending labels.

    Invariants (checked at construction): the labels are integers,
    strictly ascending and in [1, 2^(depth+1)) (``as_labels``), the root
    1 is observed, and no observed cell has an unobserved mother.
    Construction also finds each non-root cell's mother position, the
    sister-pair positions and the ObservedCounts, once; the methods below
    return them, read-only, and are all that the estimators read.
    """

    depth: int
    labels: np.ndarray = field(repr=False)
    _mothers: np.ndarray = field(init=False, repr=False)
    _pairs: np.ndarray = field(init=False, repr=False)
    _counts: ObservedCounts = field(init=False, repr=False)

    def __post_init__(self):
        n = self.depth
        check_depth(n)
        labels = np.array(as_labels(self.labels, n))  # a private copy
        if not labels.size or labels[0] != 1:
            raise MissingRoot()
        first, kids = labels[:-1], labels[1:]
        # a cell's mother is the observed label k >> 1, if there is one
        up = kids >> 1
        mothers = np.searchsorted(labels, up)
        bad = kids[labels[mothers] != up]
        if bad.size:
            raise OrphanCell(int(bad[0]))
        gen = np.frexp(labels)[1] - 1  # floor(log2 k), exact for k < 2**53
        # in sorted order an even daughter is directly followed by her
        # sister when both are observed
        pairs = np.flatnonzero(((first & 1) == 0) & (kids == first + 1))
        z = np.bincount(2 * gen + (labels & 1), minlength=2 * (n + 1)).reshape(n + 1, 2)
        t01 = np.cumsum(np.bincount(gen[pairs] - 1, minlength=n + 1))
        g_star = z.sum(axis=1)
        counts = ObservedCounts(n, z, g_star, np.cumsum(g_star), t01)
        # every caller shares these arrays
        for arr in (labels, mothers, pairs, z, g_star, counts.t_star, t01):
            arr.flags.writeable = False
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "_mothers", mothers)
        object.__setattr__(self, "_pairs", pairs)
        object.__setattr__(self, "_counts", counts)

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

    def mother_positions(self) -> np.ndarray:
        """Position in ``observed_indices()`` of the mother of each
        non-root observed cell, aligned with ``observed_indices()[1:]``."""
        return self._mothers

    def pair_positions(self) -> np.ndarray:
        """Position in ``observed_indices()`` of the even daughter of each
        observed sister pair, ascending; her sister sits one further on."""
        return self._pairs

    def counts(self) -> ObservedCounts:
        return self._counts

    def reflect(self) -> "ObservationTree":
        """Swap every sibling pair recursively (mirror the tree)."""
        return ObservationTree(self.depth, np.sort(mirror(self.labels)))
