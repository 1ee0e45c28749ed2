"""Bifurcating autoregressive process on the lineage tree.

The trait of each daughter is an affine function of her mother's trait
plus noise, with separate coefficients for even and odd daughters:

    X[2k]   = a + b * X[k] + e[2k]
    X[2k+1] = c + d * X[k] + e[2k+1]

Sister noises share variance sigma2 and covariance rho.  Estimation is
least squares over the observed mother-daughter pairs only; the two
Wald tests compare (a, b) with (c, d) and the fixed points a/(1-b) with
c/(1-d).
"""

from __future__ import annotations

from dataclasses import astuple, dataclass, field
from functools import cached_property

import numpy as np

from .errors import DegenerateVariance, NearUnitRoot, SingularDesign
from .numerics import MAX_COND, VARIANCE_FLOOR, chi2_sf, gaussian_pair, symmetric_2x2
from .report import TestReport
from .tree import ObservationTree, as_labels, check_depth, mirror

UNIT_ROOT_GUARD = 1e-8


@dataclass(frozen=True)
class BarModel:
    """Generative parameters (a, b, c, d, sigma2, rho), all finite.

    sigma2 = 0 is admitted for exact-recovery fixtures even though the
    statistical theory needs sigma2 > 0.
    """

    a: float
    b: float
    c: float
    d: float
    sigma2: float
    rho: float

    def __post_init__(self):
        if not np.isfinite(astuple(self)).all():
            raise ValueError(f"model parameters must be finite, got {astuple(self)}")
        if not 0.0 < max(abs(self.b), abs(self.d)) < 1.0:
            raise ValueError(f"need 0 < max(|b|, |d|) < 1, got b={self.b}, d={self.d}")
        if self.sigma2 < 0:
            raise ValueError(f"sigma2 must be >= 0, got {self.sigma2}")
        if abs(self.rho) > self.sigma2:
            raise ValueError(f"|rho| = {abs(self.rho)} exceeds sigma2 = {self.sigma2}")

    @property
    def fixed_point_even(self) -> float:
        return self.a / (1.0 - self.b)

    @property
    def fixed_point_odd(self) -> float:
        return self.c / (1.0 - self.d)


@dataclass(frozen=True, eq=False)
class ValueTree:
    """Traits of a lineage's cells.

    With ``labels`` None, ``x`` holds every cell of the full tree and
    x[k] is the trait of cell k (entry 0 unused): the simulator's draw.
    Otherwise ``x[i]`` is the trait of cell ``labels[i]``, the labels
    integers, ascending and inside the tree: the cells a file lists.
    """

    depth: int
    x: np.ndarray = field(repr=False)
    labels: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        x = np.ascontiguousarray(self.x, dtype=float)
        if self.labels is None:
            if x.shape != (1 << (self.depth + 1),):
                raise ValueError(f"x must have length 2^(depth+1) = {1 << (self.depth + 1)}")
            cells = x[1:]
        else:
            labels = as_labels(self.labels, self.depth)
            if x.shape != labels.shape:
                raise ValueError("x must hold one trait per label")
            object.__setattr__(self, "labels", labels)
            cells = x
        if not np.isfinite(cells).all():
            raise ValueError("trait values must be finite")
        object.__setattr__(self, "x", x)

    def observed(self, tree: ObservationTree) -> np.ndarray:
        """Traits of ``tree``'s observed cells, aligned with its labels."""
        if self.depth != tree.depth:
            raise ValueError("value tree and observation tree must share the same depth")
        labels = tree.observed_indices()
        if self.labels is labels:  # read from a file with this tree
            return self.x
        if self.labels is None:
            return self.x[labels]
        pos = np.searchsorted(self.labels, labels)
        hit = pos < self.labels.size
        hit[hit] = self.labels[pos[hit]] == labels[hit]
        if not hit.all():
            raise ValueError(f"no trait for observed cell {labels[~hit][0]}")
        return self.x[pos]

    def reflect(self) -> "ValueTree":
        """The traits of the mirrored tree (see ObservationTree.reflect)."""
        if self.labels is None:
            x = self.x.copy()
            x[1:] = self.x[mirror(np.arange(1, self.x.size))]
            return ValueTree(self.depth, x)
        mirrored = mirror(self.labels)
        order = np.argsort(mirrored)
        return ValueTree(self.depth, self.x[order], mirrored[order])


def simulate_bar_values(
    model: BarModel, depth: int, x1: float, rng: np.random.Generator
) -> ValueTree:
    """Iterate the recursion on the FULL tree (missingness is applied later).

    One draw fills x[2:] with every normal of the tree: generation g's
    2 * 2^g normals (g1, then g2) land on its daughters' slots
    x[2^(g+1) : 2^(g+2)], which the generation turns into its sisters'
    noise and then overwrites with their traits.
    """
    check_depth(depth)
    x = np.zeros(1 << (depth + 1))
    x[1] = x1
    noisy = model.sigma2 > 0
    if noisy:
        rng.standard_normal(out=x[2:])
    for g in range(depth):
        size = 1 << g
        mothers, daughters = x[size : 2 * size], x[2 * size : 4 * size]
        if noisy:
            e0, e1 = gaussian_pair(model.sigma2, model.rho, daughters[:size], daughters[size:])
        else:
            e0 = e1 = 0.0
        sisters = daughters.reshape(size, 2)
        sisters[:, 0] = model.a + model.b * mothers + e0
        sisters[:, 1] = model.c + model.d * mothers + e1
    return ValueTree(depth, x)


@dataclass(frozen=True, eq=False)
class SufficientStats:
    """Design sums over observed mother-daughter pairs.

    s0/s1/s01 are the 2x2 moment sums [[1, X], [X, X^2]] weighted by the
    presence of the even daughter, odd daughter, or both; ``rhs`` is the
    4-vector of daughter-value cross sums.  ``counts`` is
    (|T*_{n-1}|, |T*01_{n-1}|, |T*_n|) for a depth-n tree.
    """

    s0: np.ndarray
    s1: np.ndarray
    s01: np.ndarray
    rhs: np.ndarray
    counts: tuple[int, int, int]

    @cached_property
    def design_inverse(self) -> np.ndarray:
        """Inverses of s0 and s1 as a (2, 2, 2) stack, computed on first use."""
        adj, det, lmax = symmetric_2x2(np.stack([self.s0, self.s1]))
        # the condition number is lmax^2 / det; a nan or inf moment fails too
        ok = (0 < det) & (det < np.inf) & (lmax * lmax <= MAX_COND * det)
        if not ok.all():
            i = int(np.argmin(ok))
            raise SingularDesign(i, lmax[i] ** 2 / det[i] if 0 < det[i] < np.inf else np.inf)
        return adj / det[:, None, None]


def _daughters(values: ValueTree, tree: ObservationTree):
    """The traits of the observed daughters (every observed cell but the
    root, in label order), of each one's mother, and whether each is odd."""
    x = values.observed(tree)
    return x[1:], x[tree.mother_positions()], (tree.observed_indices()[1:] & 1).astype(bool)


def _moment(xm: np.ndarray) -> np.ndarray:
    sx, sxx = xm.sum(), (xm * xm).sum()
    return np.array([[xm.size, sx], [sx, sxx]], dtype=float)


def sufficient_stats(values: ValueTree, tree: ObservationTree) -> SufficientStats:
    n = tree.depth
    xd, xm, odd = _daughters(values, tree)
    (xm0, x0), (xm1, x1) = ((xm[m], xd[m]) for m in (~odd, odd))
    rhs = np.array([x0.sum(), (xm0 * x0).sum(), x1.sum(), (xm1 * x1).sum()])
    both = xm[tree.pair_positions() - 1]  # the mother of each sister pair
    c = tree.counts()
    counts = (int(c.t_star[n - 1]), int(c.t01[n - 1]), int(c.t_star[n]))
    return SufficientStats(_moment(xm0), _moment(xm1), _moment(both), rhs, counts)


def ls_estimate(stats: SufficientStats) -> np.ndarray:
    """Least-squares (a, b, c, d): one 2x2 solve per daughter type."""
    inv0, inv1 = stats.design_inverse
    return np.concatenate([inv0 @ stats.rhs[:2], inv1 @ stats.rhs[2:]])


@dataclass(frozen=True)
class NoiseEstimate:
    sigma2_hat: float
    rho_hat: float
    no_sister_pairs: bool = False


def residual_noise_estimates(
    values: ValueTree, tree: ObservationTree, theta
) -> NoiseEstimate:
    """Residual variance and sister covariance from the fitted recursion,
    with one residual per observed daughter (type-0 squares summed first).

    With no observed sister pair the covariance is reported as 0 and
    flagged instead of raising, so callers can still emit a report.
    """
    a, b, c, d = np.asarray(theta, dtype=float)
    n = tree.depth
    xd, xm, odd = _daughters(values, tree)
    e = xd - np.where(odd, c, a) - np.where(odd, d, b) * xm
    cnt = tree.counts()
    sigma2_hat = float(np.square(e[~odd]).sum() + np.square(e[odd]).sum()) / int(cnt.t_star[n])
    t01 = int(cnt.t01[n - 1])
    if t01 == 0:
        return NoiseEstimate(sigma2_hat, 0.0, no_sister_pairs=True)
    # the even daughter at position p has residual e[p - 1], her sister e[p]
    p = tree.pair_positions()
    rho_hat = float((e[p - 1] * e[p]).sum()) / t01
    return NoiseEstimate(sigma2_hat, rho_hat)


def asymptotic_covariance(stats: SufficientStats, sigma2_hat: float, rho_hat: float):
    """Sandwich covariance of sqrt(|T*_{n-1}|) (theta_hat - theta).

    C = |T*| Sigma^-1 Gamma_hat |T*| Sigma^-1 with Sigma = blockdiag(S0, S1)
    and Gamma_hat = |T*|^-1 [[s2 S0, rho S01], [rho S01, s2 S1]], whose
    blocks are t s2 S0^-1, t s2 S1^-1 and t rho S0^-1 S01 S1^-1.
    """
    t = stats.counts[0]
    inv0, inv1 = stats.design_inverse
    c = np.empty((4, 4))
    c[:2, :2] = (t * sigma2_hat) * inv0
    c[2:, 2:] = (t * sigma2_hat) * inv1
    c[:2, 2:] = (t * rho_hat) * (inv0 @ stats.s01 @ inv1)
    c[2:, :2] = c[:2, 2:].T
    return c


@dataclass(frozen=True, eq=False)
class BarEstimate:
    """Full estimation output for one (values, observations) pair."""

    theta: np.ndarray
    sigma2_hat: float
    rho_hat: float
    cov: np.ndarray
    counts: tuple[int, int, int]
    warnings: tuple = ()


def estimate_bar(values: ValueTree, tree: ObservationTree) -> BarEstimate:
    """sufficient_stats -> ls_estimate -> residuals -> sandwich, bundled."""
    stats = sufficient_stats(values, tree)
    theta = ls_estimate(stats)
    noise = residual_noise_estimates(values, tree, theta)
    cov = asymptotic_covariance(stats, noise.sigma2_hat, noise.rho_hat)
    warns = ("no_sister_pairs",) if noise.no_sister_pairs else ()
    return BarEstimate(theta, noise.sigma2_hat, noise.rho_hat, cov, stats.counts, warns)


def _base_estimates(est: BarEstimate) -> dict:
    a, b, c, d = est.theta
    return {
        "a": float(a),
        "b": float(b),
        "c": float(c),
        "d": float(d),
        "sigma2": est.sigma2_hat,
        "rho": est.rho_hat,
    }


def coefficient_test(est: BarEstimate) -> TestReport:
    """Wald test of (a, b) = (c, d), chi-square with 2 df."""
    t, c = est.counts[0], est.cov
    # the covariance of (a - c, b - d), C00 + C11 - (C01 + C10)
    adj, det, lmax = symmetric_2x2((c[:2, :2] + c[2:, 2:]) - (c[:2, 2:] + c[2:, :2]))
    # VARIANCE_FLOOR < lmin = det / lmax and lmax <= MAX_COND * lmin, without
    # dividing; the negated test rejects nan and inf
    if not (0 < lmax and VARIANCE_FLOOR * lmax < det and lmax * lmax <= MAX_COND * det):
        raise DegenerateVariance(f"covariance of (a - c, b - d): lmax {lmax:.3g}, det {det:.3g}")
    diff = est.theta[:2] - est.theta[2:]
    statistic = float(t * (diff @ adj @ diff) / det)
    return TestReport(
        test="coefficient",
        statistic=statistic,
        df=2,
        p_value=chi2_sf(statistic, 2),
        n_tstar=t,
        estimates={**_base_estimates(est), "diff": diff.tolist()},
        warnings=list(est.warnings),
    )


def fixed_point_test(est: BarEstimate) -> TestReport:
    """Wald test of a/(1-b) = c/(1-d), chi-square with 1 df."""
    a, b, c, d = est.theta
    if abs(1.0 - b) <= UNIT_ROOT_GUARD:
        raise NearUnitRoot("b_hat", 1.0 - b)
    if abs(1.0 - d) <= UNIT_ROOT_GUARD:
        raise NearUnitRoot("d_hat", 1.0 - d)
    fp0, fp1 = a / (1.0 - b), c / (1.0 - d)
    grad = np.array(
        [1.0 / (1.0 - b), a / (1.0 - b) ** 2, -1.0 / (1.0 - d), -c / (1.0 - d) ** 2]
    )
    delta_f = float(grad @ est.cov @ grad)
    if not VARIANCE_FLOOR < delta_f < np.inf:  # nan fails too
        raise DegenerateVariance(f"fixed-point variance {delta_f:.3g}")
    diff = fp0 - fp1
    statistic = est.counts[0] * diff * diff / delta_f
    return TestReport(
        test="fixed_point",
        statistic=statistic,
        df=1,
        p_value=chi2_sf(statistic, 1),
        n_tstar=est.counts[0],
        estimates={
            **_base_estimates(est),
            "fixed_point_even": fp0,
            "fixed_point_odd": fp1,
            "diff": diff,
            "variance": delta_f,
        },
        warnings=list(est.warnings),
    )
