"""Shared fixtures and independent reference implementations.

The brute-force functions below deliberately use plain Python loops and
per-cell index arithmetic (2k, 2k+1, k // 2) so they share no code path
with the vectorized library implementations they are checked against.
They read a tree through its dense view: presence bits and traits over
all 2^(depth+1) labels.

The dense_* functions are the earlier array implementation, which kept
every tree as such dense arrays, with each sum taken left to right as
the library's per-row sums are; the label-based library must agree
with them bit for bit.  The lapack_* functions are the BAR fit and
coefficient test as they were before the 2x2 closed forms: an SVD
condition number and LAPACK inverses.
"""

import math

import numpy as np
import pytest
from hypothesis import strategies as st

from barlineage import ObservationTree, ValueTree, residual_noise_estimates, sufficient_stats
from barlineage.bar import BarEstimate
from barlineage.errors import (
    DegenerateVariance,
    DuplicateIndex,
    IndexOutOfRange,
    MissingRoot,
    ParseError,
    SingularDesign,
)
from barlineage.lineage_io import HEADER
from barlineage.numerics import MAX_COND, VARIANCE_FLOOR
from barlineage.tree import MAX_DEPTH, generation


# ------------------------------------------------------------- dense views

def dense_delta(tree):
    """Presence bits of every label 0 .. 2^(depth+1) - 1 (entry 0 unused)."""
    delta = np.zeros(2 ** (tree.depth + 1), dtype=np.uint8)
    for k in tree.observed_indices().tolist():
        delta[k] = 1
    return delta


def dense_x(values):
    """Traits of every label 0 .. 2^(depth+1) - 1, 0.0 where none is given."""
    if values.labels is None:
        return values.x
    x = np.zeros(2 ** (values.depth + 1))
    for k, v in zip(values.labels.tolist(), values.x.tolist()):
        x[k] = v
    return x


def tree_of(depth, delta):
    """The observation tree whose presence bits are ``delta``."""
    return ObservationTree.from_indices(depth, np.flatnonzero(delta))


# ---------------------------------------------------------------- oracles

def brute_counts(tree):
    """Per-generation observed counts by direct iteration over labels."""
    n, delta = tree.depth, dense_delta(tree)
    z = [[0, 0] for _ in range(n + 1)]
    z[0][1] = 1
    for g in range(1, n + 1):
        for k in range(2 ** g, 2 ** (g + 1)):
            if delta[k]:
                z[g][k % 2] += 1
    t01 = []
    both = 0
    for g in range(n + 1):
        for k in range(2 ** g, 2 ** (g + 1)):
            if 2 * k + 1 < len(delta) and delta[2 * k] and delta[2 * k + 1]:
                both += 1
        t01.append(both)
    return z, t01


def brute_reproduction(tree):
    """Reproduction probability estimates by explicit summation."""
    n, delta = tree.depth, dense_delta(tree)
    phat = np.zeros(8)
    counts = [0, 0]
    for i in (0, 1):
        num = {(0, 0): 0, (1, 0): 0, (0, 1): 0, (1, 1): 0}
        den = 0
        for k in range(1, 2 ** (n - 1)):  # sub-tree up to generation n-2
            m = 2 * k + i
            if delta[m]:
                den += 1
                num[(int(delta[2 * m]), int(delta[2 * m + 1]))] += 1
        counts[i] = den
        if den:
            phat[4 * i + 0] = num[(0, 0)] / den
            phat[4 * i + 1] = num[(1, 0)] / den
            phat[4 * i + 2] = num[(0, 1)] / den
            phat[4 * i + 3] = num[(1, 1)] / den
    return phat, counts


def brute_sufficient_stats(values, tree):
    """Design sums by explicit per-mother accumulation."""
    n, delta, x = tree.depth, dense_delta(tree), dense_x(values)
    s0 = np.zeros((2, 2))
    s1 = np.zeros((2, 2))
    s01 = np.zeros((2, 2))
    rhs = np.zeros(4)
    for k in range(1, 2 ** n):
        xk = x[k]
        mm = np.array([[1.0, xk], [xk, xk * xk]])
        d0, d1 = int(delta[2 * k]), int(delta[2 * k + 1])
        s0 += d0 * mm
        s1 += d1 * mm
        s01 += d0 * d1 * mm
        rhs[0] += d0 * x[2 * k]
        rhs[1] += d0 * xk * x[2 * k]
        rhs[2] += d1 * x[2 * k + 1]
        rhs[3] += d1 * xk * x[2 * k + 1]
    return s0, s1, s01, rhs


def brute_noise(values, tree, theta):
    """Residual variance / sister covariance by explicit loops."""
    a, b, c, d = theta
    n, delta, x = tree.depth, dense_delta(tree), dense_x(values)
    sum_sq = 0.0
    sum_cross = 0.0
    n_pairs = 0
    n_tn = sum(int(delta[k]) for k in range(1, 2 ** (n + 1)))
    for k in range(1, 2 ** n):
        e0 = delta[2 * k] * (x[2 * k] - a - b * x[k])
        e1 = delta[2 * k + 1] * (x[2 * k + 1] - c - d * x[k])
        sum_sq += e0 * e0 + e1 * e1
        sum_cross += e0 * e1
        if delta[2 * k] and delta[2 * k + 1]:
            n_pairs += 1
    rho = sum_cross / n_pairs if n_pairs else 0.0
    return sum_sq / n_tn, rho, n_pairs


def brute_sandwich(s0, s1, s01, t_star, sigma2, rho):
    """C = |T*| Sigma^-1 Gamma |T*| Sigma^-1 as one plain matrix product."""
    sigma = np.block([[s0, np.zeros((2, 2))], [np.zeros((2, 2)), s1]])
    gamma = np.block([[sigma2 * s0, rho * s01], [rho * s01, sigma2 * s1]]) / t_star
    si = np.linalg.inv(sigma)
    return (t_star * si) @ gamma @ (t_star * si)


# ------------------------------------------- LAPACK in place of the 2x2 closed forms

def lapack_inverse(m):
    """Inverse of each matrix of a (..., k, k) stack by LAPACK ``inv``,
    after an SVD condition number check: SingularDesign names the first
    matrix whose condition number exceeds MAX_COND or is not finite."""
    m = np.asarray(m, dtype=float)
    finite = np.isfinite(m).all(axis=(-2, -1))
    # the SVD raises LinAlgError on nan, so a non-finite matrix is zeroed first
    cond = np.where(finite, np.linalg.cond(np.where(finite[..., None, None], m, 0.0)), np.inf)
    cond = cond.ravel()
    bad = np.flatnonzero(~(cond <= MAX_COND))
    if bad.size:
        raise SingularDesign(int(bad[0]), cond[bad[0]])
    return np.linalg.inv(m)


def lapack_estimate(values, tree):
    """estimate_bar with the design blocks inverted by ``lapack_inverse``
    and the sandwich taken as one 4x4 product (``brute_sandwich``)."""
    s = sufficient_stats(values, tree)
    inv0, inv1 = lapack_inverse(np.stack([s.s0, s.s1]))
    theta = np.concatenate([inv0 @ s.rhs[:2], inv1 @ s.rhs[2:]])
    noise = residual_noise_estimates(values, tree, theta)
    cov = brute_sandwich(s.s0, s.s1, s.s01, s.counts[0], noise.sigma2_hat, noise.rho_hat)
    return BarEstimate(theta, noise.sigma2_hat, noise.rho_hat, cov, s.counts)


def coefficient_covariance(cov):
    """The covariance of (a - c, b - d) as G^T cov G, G the gradient."""
    grad = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
    return grad.T @ cov @ grad


def lapack_coefficient_statistic(est):
    """coefficient_test's statistic from ``eigvalsh`` and LAPACK ``inv``
    of the covariance of (a - c, b - d), with the same floor and
    conditioning rule."""
    delta_c = coefficient_covariance(est.cov)
    eigs = np.linalg.eigvalsh(0.5 * (delta_c + delta_c.T))
    if not (np.isfinite(delta_c).all() and VARIANCE_FLOOR < eigs[0]
            and eigs[1] <= MAX_COND * eigs[0]):
        raise DegenerateVariance(f"eigenvalues {eigs}")
    diff = est.theta[:2] - est.theta[2:]
    return float(est.counts[0] * diff @ np.linalg.inv(delta_c) @ diff)


# ------------------------------------------- the earlier dense arrays

def dense_tree(depth, delta):
    """(labels, sister-pair mothers, (z, g_star, t_star, t01)) read off
    presence bits, as the dense tree found them at construction."""
    n = depth
    labels = np.flatnonzero(delta[1:]) + 1
    gen = np.frexp(labels)[1] - 1
    first = labels[:-1]
    pair = ((first & 1) == 0) & (labels[1:] == first + 1)
    z = np.bincount(2 * gen + (labels & 1), minlength=2 * (n + 1)).reshape(n + 1, 2)
    t01 = np.cumsum(np.bincount(gen[:-1][pair] - 1, minlength=n + 1))
    g_star = z.sum(axis=1)
    return labels, first[pair] >> 1, (z, g_star, np.cumsum(g_star), t01)


def dense_reproduction(depth, delta):
    """(phat, mother counts, zhat, t_star), each mother's outcome code
    read off the presence bits of her daughters."""
    n = depth
    labels, _, (z, _, t_star, _) = dense_tree(depth, delta)
    m = labels[1 : np.searchsorted(labels, 1 << n)]
    code = 4 * (m & 1) + delta[2 * m] + 2 * delta[2 * m + 1]
    block = np.bincount(code, minlength=8).reshape(2, 4)
    counts = block.sum(axis=1)
    phat = (block / np.maximum(counts, 1)[:, None]).ravel()
    t = int(t_star[n - 1])
    zsum = z[1:n].sum(axis=0)
    return phat, (int(counts[0]), int(counts[1])), (zsum[0] / t, zsum[1] / t), t


def _dense_daughters(labels, x):
    kids = labels[1:]
    odd = (kids & 1).astype(bool)
    return [(x[k >> 1], x[k]) for k in (kids[~odd], kids[odd])]


def _dense_sum(a):
    """The left-to-right sum, the order of the library's per-row sums."""
    return np.cumsum(a)[-1] if a.size else 0.0


def _dense_moment(xm):
    sx, sxx = _dense_sum(xm), _dense_sum(xm * xm)
    return np.array([[xm.size, sx], [sx, sxx]], dtype=float)


def dense_sufficient_stats(depth, delta, x):
    """(s0, s1, s01, rhs, counts) gathered from traits of every label."""
    labels, pair_mothers, (_, _, t_star, t01) = dense_tree(depth, delta)
    (xm0, x0), (xm1, x1) = _dense_daughters(labels, x)
    rhs = np.array([_dense_sum(x0), _dense_sum(xm0 * x0), _dense_sum(x1), _dense_sum(xm1 * x1)])
    counts = (int(t_star[depth - 1]), int(t01[depth - 1]), int(t_star[depth]))
    both = _dense_moment(x[pair_mothers])
    return _dense_moment(xm0), _dense_moment(xm1), both, rhs, counts


def dense_noise(depth, delta, x, theta):
    """(sigma2_hat, rho_hat) from traits of every label; rho_hat is 0.0
    when no sister pair is observed."""
    a, b, c, d = np.asarray(theta, dtype=float)
    labels, m, (_, _, t_star, t01) = dense_tree(depth, delta)
    (xm0, x0), (xm1, x1) = _dense_daughters(labels, x)
    e0, e1 = x0 - a - b * xm0, x1 - c - d * xm1
    sigma2 = float(_dense_sum(e0 * e0) + _dense_sum(e1 * e1)) / int(t_star[depth])
    if t01[depth - 1] == 0:
        return sigma2, 0.0
    cross = (x[2 * m] - a - b * x[m]) * (x[2 * m + 1] - c - d * x[m])
    return sigma2, float(_dense_sum(cross)) / int(t01[depth - 1])


def dense_reflect(arr, depth):
    """A dense array of the mirrored tree: each generation's slice reversed."""
    out = np.empty_like(arr)
    out[0] = arr[0]
    for g in range(depth + 1):
        out[2 ** g : 2 ** (g + 1)] = arr[2 ** g : 2 ** (g + 1)][::-1]
    return out


def brute_simulate_observation_tree(model, depth, rng):
    """The presence process one generation at a time: one uniform per
    mother of generation g, her outcome found by ``searchsorted`` in her
    type's cumulative law."""
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
    return ObservationTree(depth, np.flatnonzero(delta))


def brute_simulate_bar_values(model, depth, x1, rng):
    """The recursion cell by cell, drawing one generation's normals at a
    time: the g1 row for the mothers of generation g, then the g2 row."""
    x = np.zeros(2 ** (depth + 1))
    x[1] = x1
    sigma = math.sqrt(model.sigma2)
    for g in range(depth):
        if model.sigma2 > 0:
            g1, g2 = rng.standard_normal((2, 2 ** g))
        for j, k in enumerate(range(2 ** g, 2 ** (g + 1))):
            e0 = e1 = 0.0
            if model.sigma2 > 0:
                resid = math.sqrt(max(model.sigma2 - model.rho ** 2 / model.sigma2, 0.0))
                e0 = sigma * g1[j]
                e1 = (model.rho / sigma) * g1[j] + resid * g2[j]
            x[2 * k] = model.a + model.b * x[k] + e0
            x[2 * k + 1] = model.c + model.d * x[k] + e1
    return x


def brute_ingest(path):
    """A lineage file read line by line, every check applied to each row
    as it is read and the cells kept in a dict."""
    entries = {}
    depth_hint = 0
    with open(path, "r", encoding="utf-8") as fh:
        saw_header = False
        for line_no, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                if line.removeprefix("#").strip().startswith("depth="):
                    try:
                        depth_hint = int(line.split("=", 1)[1])
                    except ValueError as exc:
                        raise ParseError(line_no, f"bad depth comment: {exc}") from exc
                continue
            if not saw_header:
                if line != HEADER:
                    raise ParseError(line_no, f"expected header {HEADER!r}, got {line!r}")
                saw_header = True
                continue
            parts = line.split(",")
            if len(parts) != 2:
                raise ParseError(line_no, f"expected 'index,value', got {line!r}")
            try:
                k = int(parts[0])
                v = float(parts[1])
            except ValueError as exc:
                raise ParseError(line_no, str(exc)) from exc
            if k < 1:
                raise ParseError(line_no, f"cell index must be >= 1, got {k}")
            if not math.isfinite(v):
                raise ParseError(line_no, f"non-finite value {parts[1]!r}")
            if k in entries:
                raise DuplicateIndex(line_no, k)
            entries[k] = v
        if not saw_header:
            raise ParseError(0, "empty file")
    if 1 not in entries:
        raise MissingRoot()
    deepest = max(entries)
    if generation(deepest) > MAX_DEPTH:
        raise IndexOutOfRange(deepest)
    depth = max(generation(deepest), depth_hint, 1)
    tree = ObservationTree.from_indices(depth, entries)
    x = np.zeros(2 ** (depth + 1))
    for k, v in entries.items():
        x[k] = v
    return tree, ValueTree(depth, x)


# --------------------------------------------------------------- fixtures

def overflowing_leaves():
    """Complete depth-3 tree whose leaves are +-1e155: the residual
    squares overflow, so sigma2_hat is inf and rho_hat -inf."""
    x = np.zeros(16)
    x[1:8] = np.linspace(0.5, 2.0, 7)
    x[8:] = 1e155 * np.array([1, -1, 1, -1, -1, 1, -1, 1])
    return ObservationTree.from_indices(3, range(1, 16)), ValueTree(3, x)


def random_tree(depth, rng, p_obs=0.8):
    """Random valid observation tree: each daughter present w.p. p_obs
    given her mother is, built top-down so the orphan rule holds."""
    delta = np.zeros(2 ** (depth + 1), dtype=np.uint8)
    delta[1] = 1
    for k in range(1, 2 ** depth):
        if delta[k]:
            delta[2 * k] = rng.random() < p_obs
            delta[2 * k + 1] = rng.random() < p_obs
    return tree_of(depth, delta)


def random_values(depth, rng):
    return ValueTree(depth, np.concatenate([[0.0], rng.normal(size=2 ** (depth + 1) - 1)]))


@st.composite
def observation_trees(draw, min_depth=2, max_depth=5):
    """Hypothesis strategy for valid observation trees."""
    depth = draw(st.integers(min_depth, max_depth))
    delta = np.zeros(2 ** (depth + 1), dtype=np.uint8)
    delta[1] = 1
    for k in range(1, 2 ** depth):
        if delta[k]:
            delta[2 * k] = draw(st.booleans())
            delta[2 * k + 1] = draw(st.booleans())
    return tree_of(depth, delta)


@st.composite
def presence_arrays(draw, min_depth=1, max_depth=12):
    """Hypothesis strategy for (depth, presence bits) of valid trees,
    each daughter kept w.p. p_obs given her mother is."""
    depth = draw(st.integers(min_depth, max_depth))
    p_obs = draw(st.sampled_from([0.3, 0.55, 0.7, 0.85, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    delta = np.zeros(2 ** (depth + 1), dtype=np.uint8)
    delta[1] = 1
    for g in range(depth):
        mothers = delta[2 ** g : 2 ** (g + 1)]
        keep = rng.random(2 ** (g + 1)) < p_obs
        delta[2 ** (g + 1) : 2 ** (g + 2)] = np.repeat(mothers, 2) & keep
    return depth, delta


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
