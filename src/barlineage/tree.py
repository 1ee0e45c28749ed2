"""Flat-array bookkeeping for binary cell-lineage trees.

Cells are labelled 1, 2, 3, ... with the two daughters of cell k at 2k
(type 0, "even") and 2k+1 (type 1, "odd"); the mother of k >= 2 is
k // 2.  Generation g is the contiguous label slice [2**g, 2**(g+1)),
so everything here is plain index arithmetic on flat numpy arrays with
entry 0 unused.

An ObservationTree finds its observed labels, its observed sister pairs
and its ObservedCounts once, at construction; the estimators sum over
those observed cells only.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DepthError, IndexOutOfRange, MissingRoot, OrphanCell

# ~2e9 cells; the Monte Carlo experiments never need more than depth 11.
MAX_DEPTH = 30


def generation(k: int) -> int:
    """Generation of cell k, i.e. floor(log2 k)."""
    if k < 1:
        raise IndexOutOfRange(k)
    return int(k).bit_length() - 1


def gen_slice(g: int) -> slice:
    """Slice of a flat 1-based cell array covering generation g."""
    return slice(1 << g, 1 << (g + 1))


@dataclass(frozen=True)
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
    """Presence bits delta[k] over a fixed-depth binary tree.

    Invariants (checked at construction): every entry is 0 or 1,
    delta[1] == 1, and no observed cell has an unobserved mother.
    Construction also finds the sorted observed labels, the mothers of
    observed sister pairs and the ObservedCounts, once; the methods
    below return them, read-only.
    """

    depth: int
    delta: np.ndarray = field(repr=False)
    _labels: np.ndarray = field(init=False, repr=False)
    _pair_mothers: np.ndarray = field(init=False, repr=False)
    _counts: ObservedCounts = field(init=False, repr=False)

    def __post_init__(self):
        n = self.depth
        if not (1 <= n <= MAX_DEPTH):
            raise DepthError(n, MAX_DEPTH)
        delta = np.ascontiguousarray(self.delta, dtype=np.uint8)
        if delta.shape != (1 << (n + 1),):
            raise ValueError(f"delta must have length 2^(depth+1) = {1 << (n + 1)}")
        if delta.max() > 1:
            raise ValueError("delta entries must be 0 or 1")
        object.__setattr__(self, "delta", delta)
        if delta[1] != 1:
            raise MissingRoot()
        labels = np.flatnonzero(delta[1:]) + 1
        # an observed cell whose mother is missing
        kids = labels[1:]
        bad = kids[delta[kids >> 1] == 0]
        if bad.size:
            raise OrphanCell(int(bad[0]))
        gen = np.frexp(labels)[1] - 1  # floor(log2 k), exact for k < 2**53
        # in sorted order an even daughter is directly followed by her
        # sister when both are observed
        first = labels[:-1]
        pair = ((first & 1) == 0) & (labels[1:] == first + 1)
        z = np.bincount(2 * gen + (labels & 1), minlength=2 * (n + 1)).reshape(n + 1, 2)
        t01 = np.cumsum(np.bincount(gen[:-1][pair] - 1, minlength=n + 1))
        g_star = z.sum(axis=1)
        counts = ObservedCounts(n, z, g_star, np.cumsum(g_star), t01)
        pair_mothers = first[pair] >> 1
        # every caller shares these arrays
        for arr in (labels, pair_mothers, z, g_star, counts.t_star, t01):
            arr.flags.writeable = False
        object.__setattr__(self, "_labels", labels)
        object.__setattr__(self, "_pair_mothers", pair_mothers)
        object.__setattr__(self, "_counts", counts)

    def __eq__(self, other):
        if not isinstance(other, ObservationTree):
            return NotImplemented
        return self.depth == other.depth and np.array_equal(self.delta, other.delta)

    def __hash__(self):
        return hash((self.depth, self.delta.tobytes()))

    @classmethod
    def from_indices(cls, depth: int, observed) -> "ObservationTree":
        if not (1 <= depth <= MAX_DEPTH):
            raise DepthError(depth, MAX_DEPTH)
        if isinstance(observed, np.ndarray):
            labels = observed.astype(np.int64, copy=False)
        else:
            labels = np.fromiter(observed, dtype=np.int64)
        delta = np.zeros(1 << (depth + 1), dtype=np.uint8)
        bad = labels[(labels < 1) | (labels >= delta.size)]
        if bad.size:
            raise IndexOutOfRange(int(bad[0]))
        delta[labels] = 1
        return cls(depth, delta)

    def observed_indices(self) -> np.ndarray:
        """Labels of the observed cells, ascending (the root first)."""
        return self._labels

    def pair_mothers(self) -> np.ndarray:
        """Labels of the mothers whose two daughters are both observed, ascending."""
        return self._pair_mothers

    def counts(self) -> ObservedCounts:
        return self._counts

    def reflect(self) -> "ObservationTree":
        """Swap every sibling pair recursively (mirror the tree)."""
        return ObservationTree(self.depth, _reflect_array(self.delta, self.depth))


def _reflect_array(arr: np.ndarray, depth: int) -> np.ndarray:
    """Mirror the tree: map entry k to the label with every non-leading
    binary digit flipped (mirror(2k) = 2*mirror(k)+1), which reverses
    each generation's slice.
    """
    out = np.empty_like(arr)
    out[0] = arr[0]
    for g in range(depth + 1):
        out[gen_slice(g)] = arr[gen_slice(g)][::-1]
    return out
