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

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateVariance, NearUnitRoot, Singular, SingularDesign
from .numerics import chi2_sf, gaussian_pair, invert
from .report import TestReport
from .tree import ObservationTree

VARIANCE_FLOOR = 1e-14
UNIT_ROOT_GUARD = 1e-8

# gradient of (a - c, b - d) w.r.t. (a, b, c, d), one column per component
COEFF_GRADIENT = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])


@dataclass(frozen=True)
class BarModel:
    """Generative parameters (a, b, c, d, sigma2, rho).

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


@dataclass(frozen=True)
class ValueTree:
    """Trait X[k] for every cell label, observed or not (index 0 unused)."""

    depth: int
    x: np.ndarray = field(repr=False)

    def __post_init__(self):
        x = np.ascontiguousarray(self.x, dtype=float)
        if x.shape != (1 << (self.depth + 1),):
            raise ValueError(f"x must have length 2^(depth+1) = {1 << (self.depth + 1)}")
        if not np.isfinite(x[1:]).all():
            raise ValueError("trait values must be finite")
        object.__setattr__(self, "x", x)

    def reflect(self) -> "ValueTree":
        from .tree import _reflect_array

        return ValueTree(self.depth, _reflect_array(self.x, self.depth))


def simulate_bar_values(
    model: BarModel, depth: int, x1: float, rng: np.random.Generator
) -> ValueTree:
    """Iterate the recursion on the FULL tree (missingness is applied later)."""
    x = np.zeros(1 << (depth + 1))
    x[1] = x1
    for g in range(depth):
        mothers = np.arange(1 << g, 1 << (g + 1))
        if model.sigma2 > 0:
            e0, e1 = gaussian_pair(model.sigma2, model.rho, rng, size=mothers.size)
        else:
            e0 = e1 = 0.0
        x[2 * mothers] = model.a + model.b * x[mothers] + e0
        x[2 * mothers + 1] = model.c + model.d * x[mothers] + e1
    return ValueTree(depth, x)


@dataclass(frozen=True)
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


def sufficient_stats(values: ValueTree, tree: ObservationTree) -> SufficientStats:
    if values.depth != tree.depth:
        raise ValueError("value tree and observation tree must share the same depth")
    n = tree.depth
    k = np.arange(1, 1 << n)  # mothers: sub-tree up to generation n-1
    xk = values.x[k]
    d0 = tree.delta[2 * k].astype(float)
    d1 = tree.delta[2 * k + 1].astype(float)
    x0 = values.x[2 * k]
    x1 = values.x[2 * k + 1]

    def moment(w):
        sw, swx, swx2 = w.sum(), (w * xk).sum(), (w * xk * xk).sum()
        return np.array([[sw, swx], [swx, swx2]])

    rhs = np.array(
        [(d0 * x0).sum(), (d0 * xk * x0).sum(), (d1 * x1).sum(), (d1 * xk * x1).sum()]
    )
    c = tree.counts()
    counts = (int(c.t_star[n - 1]), int(c.t01[n - 1]), int(c.t_star[n]))
    return SufficientStats(moment(d0), moment(d1), moment(d0 * d1), rhs, counts)


def _invert_design(stats: SufficientStats, i: int) -> np.ndarray:
    """Inverse of the design block of type-i daughters."""
    try:
        return invert(stats.s1 if i else stats.s0)
    except Singular as exc:
        raise SingularDesign(i, exc.cond) from exc


def ls_estimate(stats: SufficientStats) -> np.ndarray:
    """Least-squares (a, b, c, d): one 2x2 solve per daughter type."""
    theta = np.empty(4)
    for i in (0, 1):
        theta[2 * i : 2 * i + 2] = _invert_design(stats, i) @ stats.rhs[2 * i : 2 * i + 2]
    return theta


@dataclass(frozen=True)
class NoiseEstimate:
    sigma2_hat: float
    rho_hat: float
    no_sister_pairs: bool = False


def residual_noise_estimates(
    values: ValueTree, tree: ObservationTree, theta
) -> NoiseEstimate:
    """Residual variance and sister covariance from the fitted recursion.

    With no observed sister pair the covariance is reported as 0 and
    flagged instead of raising, so callers can still emit a report.
    """
    a, b, c, d = np.asarray(theta, dtype=float)
    n = tree.depth
    k = np.arange(1, 1 << n)
    xk = values.x[k]
    e0 = tree.delta[2 * k] * (values.x[2 * k] - a - b * xk)
    e1 = tree.delta[2 * k + 1] * (values.x[2 * k + 1] - c - d * xk)
    cnt = tree.counts()
    sigma2_hat = float((e0 * e0 + e1 * e1).sum()) / int(cnt.t_star[n])
    t01 = int(cnt.t01[n - 1])
    if t01 == 0:
        return NoiseEstimate(sigma2_hat, 0.0, no_sister_pairs=True)
    rho_hat = float((e0 * e1).sum()) / t01
    return NoiseEstimate(sigma2_hat, rho_hat)


def asymptotic_covariance(stats: SufficientStats, sigma2_hat: float, rho_hat: float):
    """Sandwich covariance of sqrt(|T*_{n-1}|) (theta_hat - theta).

    C = |T*| Sigma^-1 Gamma_hat |T*| Sigma^-1 with Sigma = blockdiag(S0, S1)
    and Gamma_hat = |T*|^-1 [[s2 S0, rho S01], [rho S01, s2 S1]].
    """
    t = stats.counts[0]
    sigma = np.zeros((4, 4))
    sigma[:2, :2] = stats.s0
    sigma[2:, 2:] = stats.s1
    gamma = np.zeros((4, 4))
    gamma[:2, :2] = sigma2_hat * stats.s0
    gamma[2:, 2:] = sigma2_hat * stats.s1
    gamma[:2, 2:] = rho_hat * stats.s01
    gamma[2:, :2] = rho_hat * stats.s01
    sig_inv = np.zeros((4, 4))
    sig_inv[:2, :2] = _invert_design(stats, 0)
    sig_inv[2:, 2:] = _invert_design(stats, 1)
    c = t * sig_inv @ gamma @ sig_inv
    return 0.5 * (c + c.T)  # symmetrize away roundoff


@dataclass(frozen=True)
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
    t = est.counts[0]
    delta_c = COEFF_GRADIENT.T @ est.cov @ COEFF_GRADIENT
    eigs = np.linalg.eigvalsh(0.5 * (delta_c + delta_c.T))
    if eigs[0] <= 0 or eigs[1] / eigs[0] > 1e12:
        raise DegenerateVariance(f"coefficient-difference covariance eigenvalues {eigs}")
    diff = np.array([est.theta[0] - est.theta[2], est.theta[1] - est.theta[3]])
    statistic = float(t * diff @ invert(delta_c) @ diff)
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
    if delta_f <= VARIANCE_FLOOR:
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
