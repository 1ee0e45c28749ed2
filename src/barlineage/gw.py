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
from .numerics import chi2_sf
from .report import TestReport
from .tree import ObservationTree

_SUM_TOL = 1e-12
VARIANCE_FLOOR = 1e-14

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
        if (v < 0).any() or (v > 1).any():
            raise ValueError(f"probabilities must lie in [0, 1], got {v}")
        if abs(v.sum() - 1.0) > _SUM_TOL:
            raise ValueError(f"probabilities must sum to 1, got {v.sum()!r}")

    def as_array(self) -> np.ndarray:
        return np.array([self.p00, self.p10, self.p01, self.p11])

    def mean_offspring(self) -> float:
        return self.p10 + self.p01 + 2.0 * self.p11


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
    One uniform is consumed per cell of each generation (observed or
    not) so the stream layout depends only on ``depth``.
    """
    delta = np.zeros(1 << (depth + 1), dtype=np.uint8)
    delta[1] = 1
    cum0 = np.cumsum(model.law0.as_array())
    cum1 = np.cumsum(model.law1.as_array())
    for g in range(depth):
        mothers = np.arange(1 << g, 1 << (g + 1))
        u = rng.random(mothers.size)
        out = np.where(
            mothers & 1,
            np.searchsorted(cum1, u, side="right"),
            np.searchsorted(cum0, u, side="right"),
        )
        obs = delta[mothers] == 1
        # outcome index -> (j0, j1): 0 -> (0,0), 1 -> (1,0), 2 -> (0,1), 3 -> (1,1)
        delta[2 * mothers] = obs & ((out == 1) | (out == 3))
        delta[2 * mothers + 1] = obs & (out >= 2)
    return ObservationTree(depth, delta)


@dataclass(frozen=True)
class ReproductionEstimate:
    """Empirical reproduction probabilities from one observation tree.

    ``phat`` stacks the type-0 block then the type-1 block, each in the
    order (0,0), (1,0), (0,1), (1,1).  ``mother_counts`` are the
    numbers of observed mothers-of-record per type (denominators);
    a zero count leaves that block at 0.  ``zhat`` are the empirical
    type proportions and ``t_star`` the observed sub-tree size used to
    normalize the test statistic.
    """

    phat: np.ndarray
    mother_counts: tuple[int, int]
    zhat: tuple[float, float]
    t_star: int


def estimate_reproduction(tree: ObservationTree) -> ReproductionEstimate:
    """Empirical reproduction probabilities using all data in the tree.

    Mothers-of-record of type i are the cells 2k+i for k in the sub-tree
    two generations above the leaves; their daughter pair lands in the
    deepest generation at most.
    """
    n, delta = tree.depth, tree.delta
    if n < 2:
        raise InsufficientData("estimating reproduction laws needs depth >= 2")
    k = np.arange(1, 1 << (n - 1))  # sub-tree up to generation n-2
    phat = np.zeros(8)
    counts = []
    for i in (0, 1):
        m = 2 * k + i
        present = delta[m].astype(np.int64)
        n_i = int(present.sum())
        counts.append(n_i)
        if n_i > 0:
            d0 = delta[2 * m].astype(np.int64)
            d1 = delta[2 * m + 1].astype(np.int64)
            block = np.array(
                [
                    (present * (1 - d0) * (1 - d1)).sum(),
                    (present * d0 * (1 - d1)).sum(),
                    (present * (1 - d0) * d1).sum(),
                    (present * d0 * d1).sum(),
                ],
                dtype=float,
            )
            phat[4 * i : 4 * i + 4] = block / n_i
    c = tree.counts()
    t_star = int(c.t_star[n - 1])
    zsum = c.z[1:n].sum(axis=0)  # generations 1 .. n-1
    zhat = (zsum[0] / t_star, zsum[1] / t_star)
    return ReproductionEstimate(phat, (counts[0], counts[1]), zhat, t_star)


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
    if delta_gw <= VARIANCE_FLOOR:
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
