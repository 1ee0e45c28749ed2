"""Bifurcating autoregressive process on the lineage tree.

The trait of each daughter is an affine function of her mother's trait
plus noise, with separate coefficients for even and odd daughters:

    X[2k]   = a + b * X[k] + e[2k]
    X[2k+1] = c + d * X[k] + e[2k+1]

Sister noises share variance sigma2 and covariance rho.  Estimation is
least squares over the observed mother-daughter pairs only; the two
Wald tests compare (a, b) with (c, d) and the fixed points a/(1-b) with
c/(1-d).  Each estimator fits every row of a Forest at once, under its
own ``np.errstate``: its results carry a leading row axis, and a row that
fails a check keeps its StatError, without a numpy warning.  One (values,
tree) pair is fitted as its one-row forest: row 0, or its StatError raised.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass, field
from functools import cached_property

import numpy as np

from .errors import DegenerateVariance, NearUnitRoot, SingularDesign, fail_rows
from .numerics import MAX_COND, VARIANCE_FLOOR, gaussian_pair, symmetric_2x2
from .report import first, outcomes
from .tree import Forest, ObservationTree, as_labels, check_depth, mirror

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
    """Design sums over observed mother-daughter pairs, of one tree or,
    with a leading row axis, of each row of a Forest.

    s0/s1/s01 are the 2x2 moment sums [[1, X], [X, X^2]] weighted by the
    presence of the even daughter, odd daughter, or both; ``rhs`` is the
    4-vector of daughter-value cross sums.  ``counts`` is
    (|T*_{n-1}|, |T*01_{n-1}|, |T*_n|) for a depth-n tree (ints, or one
    array per count).  ``errors`` is None for one tree, whose failed check
    raises; for a forest it holds each row's first StatError, and a failed
    row carries on as nan.
    """

    s0: np.ndarray
    s1: np.ndarray
    s01: np.ndarray
    rhs: np.ndarray
    counts: tuple
    errors: list | None = None

    @cached_property
    @np.errstate(all="ignore")
    def design_inverse(self) -> np.ndarray:
        """Inverses of s0 and s1 as a (..., 2, 2, 2) stack, computed on first use."""
        s = np.concatenate([self.s0, self.s1], axis=-2).reshape(-1, 2, 2, 2)  # one tree: one row
        adj, det, lmax = symmetric_2x2(s)
        # the condition number is lmax^2 / det; a nan or inf moment fails too
        ok = (0 < det) & (det < np.inf) & (lmax * lmax <= MAX_COND * det)

        def singular(r):
            i = int(np.argmin(ok[r]))
            d, lm = det[r, i], lmax[r, i]
            return SingularDesign(i, lm ** 2 / d if 0 < d < np.inf else np.inf)

        errors = self.errors or [None]  # one tree's stats keep none: its row's error is raised
        fail_rows(errors, ~(ok[:, 0] & ok[:, 1]), singular)
        if self.errors is None:
            first(errors)
        return (adj / det[..., None, None]).reshape(*self.s0.shape[:-2], 2, 2, 2)


def _sums(ids, size, *weights) -> np.ndarray:
    """(len(weights), size) floats: each weight's sum per bin of ``ids`` (a
    count for None), taken left to right, so that it does not depend on the
    other bins; rows [0, 1, 1, 2] give the moments [[n, sx], [sx, sxx]]."""
    return np.array([np.bincount(ids, w, size) for w in weights], dtype=float)


def _traits(values):
    """``values``, which no BAR fit can do without."""
    if values is None:
        raise ValueError("the BAR fit needs trait values")
    return values


@np.errstate(all="ignore")
def sufficient_stats(values, tree) -> SufficientStats:
    """The sums of one tree, or of each row of a Forest ``tree`` (``values`` None)."""
    if not isinstance(tree, Forest):
        s = sufficient_stats(None, Forest.of([tree], [_traits(values)]))
        return SufficientStats(s.s0[0], s.s1[0], s.s01[0], s.rhs[0],
                               tuple(int(n[0]) for n in s.counts))
    f = tree
    rows, x = len(f.counts), _traits(f.x)
    xm = x[f.mothers]
    both = xm[f.pairs]  # the mother of each sister pair
    # bins 2r and 2r + 1 hold row r's even and odd daughters, bin 2R the roots
    sums = _sums(f.group, 2 * rows + 1, None, xm, xm * xm, x, xm * x)[:, :-1]
    design = sums[[0, 1, 1, 2]].T.reshape(rows, 2, 2, 2)
    s01 = _sums(f.pair_rows, rows, None, both, both * both)[[0, 1, 1, 2]].T.reshape(rows, 2, 2)
    return SufficientStats(design[:, 0], design[:, 1], s01, sums[3:].T.reshape(rows, 4),
                           tuple(f.counts[:, :3].T), [None] * rows)


@np.errstate(all="ignore")
def ls_estimate(stats: SufficientStats) -> np.ndarray:
    """Least-squares (a, b, c, d): one 2x2 solve per daughter type."""
    rhs = stats.rhs.reshape(*stats.rhs.shape[:-1], 2, 1, 2)
    return (stats.design_inverse * rhs).sum(axis=-1).reshape(stats.rhs.shape)


@dataclass(frozen=True)
class NoiseEstimate:
    sigma2_hat: float
    rho_hat: float
    no_sister_pairs: bool = False


@np.errstate(all="ignore")
def residual_noise_estimates(values, tree, theta) -> NoiseEstimate:
    """Residual variance and sister covariance from the fitted recursion,
    with one residual per observed daughter (type-0 squares summed first),
    of one tree or of each row of a Forest ``tree`` (``values`` None).

    With no observed sister pair the covariance is reported as 0 and
    flagged instead of raising, so callers can still emit a report.
    """
    if not isinstance(tree, Forest):
        noise = residual_noise_estimates(None, Forest.of([tree], [_traits(values)]), theta)
        return NoiseEstimate(noise.sigma2_hat[0], noise.rho_hat[0], noise.no_sister_pairs[0])
    f = tree
    rows, t01, x = len(f.counts), f.counts[:, 1], _traits(f.x)
    # each cell's (intercept, slope): (a, b) if even, (c, d) if odd; a root's is dropped
    coef = np.asarray(theta, dtype=float).reshape(-1, 2).take(f.group, axis=0, mode="clip")
    e = x - coef[:, 0] - coef[:, 1] * x[f.mothers]
    sq = np.bincount(f.group, e * e, 2 * rows + 1)
    sigma2_hat = (sq[0:-1:2] + sq[1:-1:2]) / f.counts[:, 2]
    # the even daughter at p has residual e[p], her sister e[p + 1]
    rho_hat = np.bincount(f.pair_rows, e[f.pairs] * e[1:][f.pairs], rows) / np.maximum(t01, 1)
    return NoiseEstimate(sigma2_hat, rho_hat, t01 == 0)


@np.errstate(all="ignore")
def asymptotic_covariance(stats: SufficientStats, sigma2_hat, rho_hat):
    """Sandwich covariance of sqrt(|T*_{n-1}|) (theta_hat - theta).

    C = |T*| Sigma^-1 Gamma_hat |T*| Sigma^-1 with Sigma = blockdiag(S0, S1)
    and Gamma_hat = |T*|^-1 [[s2 S0, rho S01], [rho S01, s2 S1]], whose
    blocks are t s2 S0^-1, t s2 S1^-1 and t rho S0^-1 S01 S1^-1.
    """
    t, inv = stats.counts[0], stats.design_inverse
    inv0, inv1 = inv[..., 0, :, :], inv[..., 1, :, :]
    ts2, trho = (np.multiply(t, v)[..., None, None] for v in (sigma2_hat, rho_hat))
    c = np.empty(inv.shape[:-3] + (4, 4))
    c[..., :2, :2] = ts2 * inv0
    c[..., 2:, 2:] = ts2 * inv1
    c[..., :2, 2:] = trho * (inv0 @ stats.s01 @ inv1)
    c[..., 2:, :2] = np.swapaxes(c[..., :2, 2:], -1, -2)
    return c


@dataclass(frozen=True, eq=False)
class BarEstimate:
    """Full estimation output for one (values, observations) pair, or with
    a leading row axis for each row of a Forest (``warnings`` then holds
    one tuple per row, and ``errors`` each row's first StatError)."""

    theta: np.ndarray
    sigma2_hat: float
    rho_hat: float
    cov: np.ndarray
    counts: tuple
    warnings: tuple = ()
    errors: list | None = None

    def rows(self) -> "BarEstimate":
        """One tree's estimate (``errors`` None) as its one-row forest's."""
        return BarEstimate(self.theta[None], np.reshape(self.sigma2_hat, 1),
                           np.reshape(self.rho_hat, 1), self.cov[None],
                           tuple(np.reshape(n, 1) for n in self.counts), [self.warnings], [None])

    def parameters(self, r: int) -> dict:
        """Row ``r``'s a, b, c, d, sigma2 and rho, as floats."""
        return dict(zip("abcd", self.theta[r].tolist()), sigma2=float(self.sigma2_hat[r]),
                    rho=float(self.rho_hat[r]))


def estimate_bar(values, tree) -> BarEstimate:
    """sufficient_stats -> ls_estimate -> residuals -> sandwich, bundled,
    for one tree or for each row of a Forest ``tree`` (``values`` None)."""
    if not isinstance(tree, Forest):
        est = estimate_bar(None, Forest.of([tree], [_traits(values)]))
        first(est.errors)  # raises row 0's StatError, if it has one
        return BarEstimate(est.theta[0], est.sigma2_hat[0], est.rho_hat[0], est.cov[0],
                           tuple(int(n[0]) for n in est.counts), est.warnings[0])
    stats = sufficient_stats(None, tree)
    theta = ls_estimate(stats)
    noise = residual_noise_estimates(None, tree, theta)
    cov = asymptotic_covariance(stats, noise.sigma2_hat, noise.rho_hat)
    warns = [("no_sister_pairs",) if w else () for w in noise.no_sister_pairs]
    return BarEstimate(theta, noise.sigma2_hat, noise.rho_hat, cov, stats.counts, warns,
                       stats.errors)


@np.errstate(all="ignore")
def coefficient_test(est: BarEstimate):
    """Wald test of (a, b) = (c, d), chi-square with 2 df; for a forest's
    estimate, each row's TestReport or StatError."""
    if est.errors is None:  # one tree's
        return first(coefficient_test(est.rows()))
    errors, c = list(est.errors), est.cov
    # the covariance of (a - c, b - d), C00 + C11 - (C01 + C10)
    adj, det, lmax = symmetric_2x2((c[..., :2, :2] + c[..., 2:, 2:])
                                   - (c[..., :2, 2:] + c[..., 2:, :2]))
    # VARIANCE_FLOOR < lmin = det / lmax and lmax <= MAX_COND * lmin, without
    # dividing; the negated test rejects nan and inf
    ok = (0 < lmax) & (VARIANCE_FLOOR * lmax < det) & (lmax * lmax <= MAX_COND * det)
    fail_rows(errors, ~ok, lambda r: DegenerateVariance(
        f"covariance of (a - c, b - d): lmax {lmax[r]:.3g}, det {det[r]:.3g}"))
    diff = est.theta[..., :2] - est.theta[..., 2:]
    quad = (adj * (diff[..., :, None] * diff[..., None, :])).sum(axis=(-2, -1))
    statistic = est.counts[0] * quad / det
    return outcomes("coefficient", 2, statistic, est.counts[0], errors,
                    lambda r: {**est.parameters(r), "diff": diff[r].tolist()}, est.warnings)


@np.errstate(all="ignore")
def fixed_point_test(est: BarEstimate):
    """Wald test of a/(1-b) = c/(1-d), chi-square with 1 df; for a forest's
    estimate, each row's TestReport or StatError."""
    if est.errors is None:  # one tree's
        return first(fixed_point_test(est.rows()))
    errors = list(est.errors)
    a, b, c, d = est.theta.T
    for name, v in (("b_hat", 1.0 - b), ("d_hat", 1.0 - d)):
        fail_rows(errors, abs(v) <= UNIT_ROOT_GUARD,
                  lambda r, name=name, v=v: NearUnitRoot(name, v[r]))
    fp0, fp1 = a / (1.0 - b), c / (1.0 - d)
    grad = np.array([1.0 / (1.0 - b), a / ((1.0 - b) * (1.0 - b)),
                     -1.0 / (1.0 - d), -c / ((1.0 - d) * (1.0 - d))]).T
    delta_f = (est.cov * (grad[..., :, None] * grad[..., None, :])).sum(axis=(-2, -1))
    fail_rows(errors, ~((VARIANCE_FLOOR < delta_f) & (delta_f < np.inf)),  # nan fails too
              lambda r: DegenerateVariance(f"fixed-point variance {delta_f[r]:.3g}"))
    diff = fp0 - fp1
    statistic = est.counts[0] * diff * diff / delta_f
    return outcomes("fixed_point", 1, statistic, est.counts[0], errors, lambda r: {
        **est.parameters(r), "fixed_point_even": float(fp0[r]), "fixed_point_odd": float(fp1[r]),
        "diff": float(diff[r]), "variance": float(delta_f[r])}, est.warnings)
