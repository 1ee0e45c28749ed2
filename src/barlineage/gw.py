"""Two-type Galton-Watson observation process.

Each observed cell of type i (label parity) produces its pair of
daughters according to a law p_i(j0, j1) over {0,1}^2: j0 is whether
the even daughter 2k is observed, j1 whether the odd daughter 2k+1
is.  This module simulates the presence process, estimates the eight
reproduction probabilities from one tree, and runs the Wald test for
equality of the two laws' mean offspring counts.
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
)
from .numerics import VARIANCE_FLOOR, chi2_sf
from .report import TestReport
from .tree import ObservationTree, check_depth

_SUM_TOL = 1e-12

# gradient of the mean difference m(p) w.r.t. the 8 stacked probabilities
MEAN_DIFF_GRADIENT = np.array([0.0, 1.0, 1.0, 2.0, 0.0, -1.0, -1.0, -2.0])


@dataclass(frozen=True)
class ReproductionLaw:
    """Offspring law of one mother type: P(j0 daughters of type 0, j1 of type 1).

    Field order matches the estimator vector: (0,0), (1,0), (0,1), (1,1).
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

    def as_array(self) -> np.ndarray:
        return np.array([self.p00, self.p10, self.p01, self.p11])


@dataclass(frozen=True)
class GwModel:
    """Reproduction laws for type-0 and type-1 mothers."""

    law0: ReproductionLaw
    law1: ReproductionLaw

    def descendants_matrix(self) -> np.ndarray:
        """P[i, j] = expected observed daughters of type j per type-i mother."""
        rows = []
        for law in (self.law0, self.law1):
            rows.append([law.p10 + law.p11, law.p01 + law.p11])
        return np.array(rows)


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
    # delta[2k], delta[2k+1] first take mother k's outcome, observed or not:
    # index #{cum <= u}, 0 -> (0,0), 1 -> (1,0), 2 -> (0,1), 3 -> (1,1) and
    # 4 (a law summing to just under 1) -> (0,1); so j0 is its parity and j1
    # is u >= cum[1].  Mothers of type 1 (k = 1, 3, ..) read u[0::2].
    delta = np.zeros(1 << (depth + 1), dtype=bool)
    for law, k in ((model.law1, 1), (model.law0, 2)):
        c, v = np.cumsum(law.as_array()), u[k - 1 :: 2]
        delta[2 * k :: 4] = (v >= c[0]) ^ (v >= c[1]) ^ (v >= c[2]) ^ (v >= c[3])
        delta[2 * k + 1 :: 4] = v >= c[1]
    del u, v  # before the tree's arrays are built
    delta[1] = True
    for g in range(depth):  # a daughter stays observed only if her mother is
        sisters = delta[2 << g : 4 << g].view(np.uint16)  # one entry per sister pair
        sisters *= delta[1 << g : 2 << g]
    return ObservationTree(depth, np.flatnonzero(delta))


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


def estimate_reproduction(tree: ObservationTree) -> ReproductionEstimate:
    """Empirical reproduction probabilities using all data in the tree.

    Mothers-of-record are the observed cells of generations 1 .. n-1;
    their daughter pair lands in the deepest generation at most.  The
    outcome code [2m observed] + 2 * [2m+1 observed] of mother m indexes
    the order (0,0), (1,0), (0,1), (1,1) within her type's block.
    """
    n = tree.depth
    if n < 2:
        raise InsufficientData("estimating reproduction laws needs depth >= 2")
    labels = tree.observed_indices()
    t_star = int(tree.counts().t_star[n - 1])  # cells of generations 0 .. n-1
    # each observed daughter adds 1 (even) or 2 (odd) to her mother's code
    outcome = np.bincount(tree.mother_positions(), weights=1 + (labels[1:] & 1),
                          minlength=labels.size)
    m = labels[1:t_star]  # skip the root
    code = 4 * (m & 1) + outcome[1:t_star].astype(np.int64)
    block = np.bincount(code, minlength=8).reshape(2, 4)
    counts = block.sum(axis=1)
    phat = (block / np.maximum(counts, 1)[:, None]).ravel()
    zhat = (counts[0] / t_star, counts[1] / t_star)
    return ReproductionEstimate(phat, (int(counts[0]), int(counts[1])), zhat, t_star)


def reproduction_covariance(est: ReproductionEstimate) -> np.ndarray:
    """Block-diagonal multinomial sandwich: blockdiag(V0/z0, V1/z1)."""
    v = np.zeros((8, 8))
    for i in (0, 1):
        z = est.zhat[i]
        if z <= 0:
            raise DegenerateTypeProportion(i)
        p = est.phat[4 * i : 4 * i + 4]
        v[4 * i : 4 * i + 4, 4 * i : 4 * i + 4] = (np.diag(p) - np.outer(p, p)) / z
    return v


def gw_mean_test(tree: ObservationTree) -> TestReport:
    """Wald test for equality of the two reproduction laws' means."""
    if tree.depth < 3:
        raise InsufficientData("the mean test needs depth >= 3")
    est = estimate_reproduction(tree)
    if est.mother_counts[0] == 0 or est.mother_counts[1] == 0:
        raise InsufficientData(f"mothers of record per type: {est.mother_counts}")
    v = reproduction_covariance(est)
    m_hat = float(MEAN_DIFF_GRADIENT @ est.phat)
    delta_gw = float(MEAN_DIFF_GRADIENT @ v @ MEAN_DIFF_GRADIENT)
    if not VARIANCE_FLOOR < delta_gw < np.inf:  # nan fails too
        raise DegenerateVariance(f"mean-difference variance {delta_gw:.3g}")
    statistic = est.t_star * m_hat * m_hat / delta_gw
    return TestReport(
        test="gw_mean",
        statistic=statistic,
        df=1,
        p_value=chi2_sf(statistic, 1),
        n_tstar=est.t_star,
        estimates={
            "m_hat": m_hat,
            "variance": delta_gw,
            "phat": est.phat.tolist(),
            "zhat": list(est.zhat),
            "mother_counts": list(est.mother_counts),
        },
    )
