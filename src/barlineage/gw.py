"""Two-type Galton-Watson observation process.

Each observed cell of type i (label parity) produces its pair of
daughters according to a law p_i(j0, j1) over {0,1}^2: j0 is whether
the even daughter 2k is observed, j1 whether the odd daughter 2k+1
is.  This module simulates the presence process, estimates the eight
reproduction probabilities from one tree, and runs the Wald test for
equality of the two laws' mean offspring counts on each row of a Forest
(one tree as its one-row forest).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateTypeProportion,
    DegenerateVariance,
    InsufficientData,
    NotPositive,
    fail_rows,
)
from .numerics import VARIANCE_FLOOR
from .report import first, outcomes
from .tree import Forest, ObservationTree, check_depth

_SUM_TOL = 1e-12

# gradient of the mean difference m(p) w.r.t. the 8 stacked probabilities
MEAN_DIFF_GRADIENT = np.array([0.0, 1.0, 1.0, 2.0, 0.0, -1.0, -1.0, -2.0])
# presence bits (j0, j1) of outcomes 0 .. 4 as one uint16 each (4: past a law summing under 1)
_OUTCOME = np.array([[0, 0], [1, 0], [0, 1], [1, 1], [0, 1]], dtype=bool).view(np.uint16).ravel()


@dataclass(frozen=True)
class ReproductionLaw:
    """Offspring law of one mother type: P(j0 daughters of type 0, j1 of type 1).

    Field order matches the estimator vector: (0,0), (1,0), (0,1), (1,1).
    ``cumulative``, their running sums, is found once, at construction.
    """

    p00: float
    p10: float
    p01: float
    p11: float

    def __post_init__(self):
        v = self.as_array()
        if not ((0 <= v) & (v <= 1)).all():  # nan fails too
            raise ValueError(f"probabilities must lie in [0, 1], got {v}")
        if not abs(v.sum() - 1.0) <= _SUM_TOL:
            raise ValueError(f"probabilities must sum to 1, got {v.sum()!r}")
        object.__setattr__(self, "cumulative", np.cumsum(v))  # not a field
        self.cumulative.flags.writeable = False  # every simulation shares it

    def as_array(self) -> np.ndarray:
        return np.array([self.p00, self.p10, self.p01, self.p11])


@dataclass(frozen=True)
class GwModel:
    """Reproduction laws for type-0 and type-1 mothers."""

    law0: ReproductionLaw
    law1: ReproductionLaw

    def descendants_matrix(self) -> np.ndarray:
        """P[i, j] = expected observed daughters of type j per type-i mother."""
        return np.array([[law.p10 + law.p11, law.p01 + law.p11] for law in (self.law0, self.law1)])


def dominant_eigen(p: np.ndarray):
    """Dominant eigenvalue and normalized left eigenvector of a positive 2x2 matrix.

    Closed form: pi = (p00 + p11 + sqrt((p00 - p11)^2 + 4 p01 p10)) / 2.
    """
    p = np.asarray(p, dtype=float)
    if p.shape != (2, 2):
        raise ValueError("descendants matrix must be 2x2")
    if (p <= 0).any():
        raise NotPositive(p)
    p00, p01, p10, p11 = p[0, 0], p[0, 1], p[1, 0], p[1, 1]
    disc = math.sqrt((p00 - p11) ** 2 + 4.0 * p01 * p10)
    pi = (p00 + p11 + disc) / 2.0
    # left eigenvector: z0*(p00 - pi) + z1*p10 = 0
    z0, z1 = p10, pi - p00
    s = z0 + z1
    return pi, (z0 / s, z1 / s)


def simulate_observation_tree(
    model: GwModel, depth: int, rng: np.random.Generator
) -> ObservationTree:
    """Draw one realization of the presence process down to ``depth``.

    Each observed mother draws one of the four (j0, j1) outcomes from
    her type's law; unobserved cells leave both daughters unobserved.
    One ``rng.random`` call draws a uniform for every cell 1 .. 2^depth - 1
    (observed or not), in label order: the layout of one draw per
    generation, so the stream depends only on ``depth``.
    """
    check_depth(depth)
    u = rng.random((1 << depth) - 1)  # mother k's uniform is u[k - 1]
    # pairs[k], mother k's daughters delta[2k], delta[2k+1] as one uint16,
    # first takes her outcome, observed or not: the number of her type's
    # cumulative probabilities at or below her uniform.  Mothers of type 1
    # (k = 1, 3, ..) read u[0::2], those of type 0 (k = 2, 4, ..) u[1::2].
    delta = np.zeros(1 << (depth + 1), dtype=bool)
    pairs = delta.view(np.uint16)
    for law, k in ((model.law1, 1), (model.law0, 2)):
        pairs[k::2] = _OUTCOME[np.searchsorted(law.cumulative, u[k - 1 :: 2], side="right")]
    del u  # before the tree's arrays are built
    delta[1] = True
    for g in range(depth):  # a daughter stays observed only if her mother is
        pairs[1 << g : 2 << g] *= delta[1 << g : 2 << g]
    return ObservationTree._of_valid(depth, np.flatnonzero(delta))


@dataclass(frozen=True, eq=False)
class ReproductionEstimate:
    """Empirical reproduction probabilities from one observation tree.

    ``phat`` stacks the type-0 block then the type-1 block, each in the
    order (0,0), (1,0), (0,1), (1,1).  ``mother_counts`` are the
    numbers of observed mothers-of-record per type (denominators);
    a zero count leaves that block at 0.  ``zhat`` are those counts over
    ``t_star``, the observed sub-tree size that also normalizes the test
    statistic.
    """

    phat: np.ndarray
    mother_counts: tuple[int, int]
    zhat: tuple[float, float]
    t_star: int


def _reproduction(f: Forest):
    """Each row's (phat, mother counts, zhat), stacked."""
    rows = len(f.counts)
    # each observed daughter adds 1 (even) or 2 (odd) to her mother's code (a root to her own)
    outcome = np.bincount(f.mothers, weights=1 + (f.labels & 1), minlength=f.labels.size)
    code = 4 * f.group + outcome.astype(np.int64)  # 8 * row + 4 * type + outcome
    block = np.bincount(code, minlength=8 * rows + 4)[:8 * rows]
    # the deepest generation's cells, all of outcome (0,0), are no mothers of record
    block[::4] -= f.counts[:, 3:5].ravel()
    block = block.reshape(rows, 2, 4)
    counts = block.sum(axis=-1)
    phat = (block / np.maximum(counts, 1)[:, :, None]).reshape(rows, 8)
    return phat, counts, counts / f.counts[:, :1]  # over the cells of generations 0 .. n-1


def estimate_reproduction(tree: ObservationTree) -> ReproductionEstimate:
    """Empirical reproduction probabilities using all data in the tree.

    Mothers-of-record are the observed cells of generations 1 .. n-1;
    their daughter pair lands in the deepest generation at most.  The
    outcome code [2m observed] + 2 * [2m+1 observed] of mother m indexes
    the order (0,0), (1,0), (0,1), (1,1) within her type's block.
    """
    if tree.depth < 2:
        raise InsufficientData("estimating reproduction laws needs depth >= 2")
    f = Forest.of([tree])
    phat, counts, zhat = (a[0] for a in _reproduction(f))
    return ReproductionEstimate(phat, tuple(counts.tolist()), tuple(zhat.tolist()),
                                int(f.counts[0, 0]))


def reproduction_covariance(est: ReproductionEstimate) -> np.ndarray:
    """Block-diagonal multinomial sandwich: blockdiag(V0/z0, V1/z1)."""
    z = np.asarray(est.zhat, dtype=float)
    if (z <= 0).any():
        raise DegenerateTypeProportion(int(np.argmax(z <= 0)))
    p = est.phat.reshape(2, 4)
    blocks = (p[:, :, None] * np.eye(4) - p[:, :, None] * p[:, None, :]) / z[:, None, None]
    v = np.zeros((8, 8))
    v[:4, :4], v[4:, 4:] = blocks
    return v


@np.errstate(all="ignore")
def gw_mean_test(tree):
    """Wald test for equality of the two reproduction laws' means; for a
    Forest, each row's TestReport or StatError."""
    if not isinstance(tree, Forest):
        return first(gw_mean_test(Forest.of([tree])))
    errors = [None] * len(tree.counts)
    fail_rows(errors, tree.counts[:, 5] < 3,
              lambda r: InsufficientData("the mean test needs depth >= 3"))
    phat, counts, zhat = _reproduction(tree)  # with depth >= 3, n >= 2 holds
    c0, c1 = counts.T
    fail_rows(errors, (c0 == 0) | (c1 == 0), lambda r: InsufficientData(
        f"mothers of record per type: {tuple(counts[r].tolist())}"))
    # g'Vg for V = reproduction_covariance: per type, (sum g^2 p - (sum g p)^2) / z
    gp = (phat * MEAN_DIFF_GRADIENT).reshape(*counts.shape, 4)
    m = gp.sum(axis=-1)
    (m0, m1), (v0, v1) = m.T, (((gp * MEAN_DIFF_GRADIENT.reshape(2, 4)).sum(axis=-1)
                                - m * m) / zhat).T
    m_hat, delta_gw, t_star = m0 + m1, v0 + v1, tree.counts[:, 0]
    fail_rows(errors, ~((VARIANCE_FLOOR < delta_gw) & (delta_gw < np.inf)),  # nan fails too
              lambda r: DegenerateVariance(f"mean-difference variance {delta_gw[r]:.3g}"))
    statistic = t_star * m_hat * m_hat / delta_gw
    return outcomes("gw_mean", 1, statistic, t_star, errors, lambda r: {
        "m_hat": float(m_hat[r]), "variance": float(delta_gw[r]), "phat": phat[r].tolist(),
        "zhat": zhat[r].tolist(), "mother_counts": counts[r].tolist()})
