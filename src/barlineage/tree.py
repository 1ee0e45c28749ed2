"""Flat-array bookkeeping for binary cell-lineage trees.

Cells are labelled 1, 2, 3, ... with the two daughters of cell k at 2k
(type 0, "even") and 2k+1 (type 1, "odd"); the mother of k >= 2 is
k // 2.  Generation g is the contiguous label slice [2**g, 2**(g+1)),
so everything here is plain index arithmetic on flat numpy arrays with
entry 0 unused.
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

    All arrays are indexed by generation 0..depth.  ``z`` rows are the
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

    Invariants (checked at construction): delta[1] == 1 and no observed
    cell has an unobserved mother.
    """

    depth: int
    delta: np.ndarray = field(repr=False)

    def __post_init__(self):
        if not (1 <= self.depth <= MAX_DEPTH):
            raise DepthError(self.depth, MAX_DEPTH)
        delta = np.ascontiguousarray(self.delta, dtype=np.uint8)
        if delta.shape != (1 << (self.depth + 1),):
            raise ValueError(f"delta must have length 2^(depth+1) = {1 << (self.depth + 1)}")
        object.__setattr__(self, "delta", delta)
        if delta[1] != 1:
            raise MissingRoot()
        # vectorized orphan check: an observed cell whose mother is missing
        kids = np.flatnonzero(delta[2:]) + 2
        bad = kids[delta[kids // 2] == 0]
        if bad.size:
            raise OrphanCell(int(bad[0]))

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
        delta = np.zeros(1 << (depth + 1), dtype=np.uint8)
        for k in observed:
            k = int(k)
            if not 1 <= k < len(delta):
                raise IndexOutOfRange(k)
            delta[k] = 1
        return cls(depth, delta)

    def observed_indices(self) -> np.ndarray:
        return np.flatnonzero(self.delta)

    def counts(self) -> ObservedCounts:
        return observed_counts(self)

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


def observed_counts(tree: ObservationTree) -> ObservedCounts:
    """Z_n per type, per-generation and cumulative observed totals."""
    n, delta = tree.depth, tree.delta
    z = np.zeros((n + 1, 2), dtype=np.int64)
    z[0, 1] = 1  # the root has label 1, an odd cell
    t01 = np.zeros(n + 1, dtype=np.int64)
    both = 0
    for g in range(n):
        mothers = np.arange(1 << g, 1 << (g + 1))
        d0, d1 = delta[2 * mothers], delta[2 * mothers + 1]
        z[g + 1, 0] = int(d0.sum())
        z[g + 1, 1] = int(d1.sum())
        both += int((d0 & d1).sum())
        t01[g] = both
    # daughters of generation `depth` fall outside the array, hence
    # count as unobserved: the cumulative count stays flat
    t01[n] = both
    g_star = z.sum(axis=1)
    return ObservedCounts(n, z, g_star, np.cumsum(g_star), t01)
