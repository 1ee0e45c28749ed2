"""Independent recomputation of one Monte Carlo replica.

The spot check compares the program's p-value archives with this module
on the first replicas of every cell, at any workload seed.  It is written
from the model and test definitions with per-cell Python loops and calls
no barlineage code.  The one thing it must share with the program is the
stream contract: numpy's Philox keyed by a splitmix64 fold of (seed,
hypothesis, generation, replica); one uniform per cell of each generation
for the presence process; then, for the trait, two ziggurat normals per
mother, generation by generation.
"""

from __future__ import annotations

import bisect
import itertools
import math

import numpy as np

MASK = (1 << 64) - 1
MAX_COND = 1e12
VARIANCE_FLOOR = 1e-14
UNIT_ROOT_GUARD = 1e-8


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & MASK
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & MASK
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & MASK
    return x ^ (x >> 31)


def stream(seed: int, *subkeys: int) -> np.random.Generator:
    k0 = seed & MASK
    acc = _splitmix64(k0)
    for s in subkeys:
        acc = _splitmix64(acc ^ (s & MASK))
    return np.random.Generator(np.random.Philox(key=np.array([k0, acc], dtype=np.uint64)))


def presence(laws, depth: int, rng) -> list:
    """obs[k] for a tree whose type-i mothers reproduce by laws[i] = (p00, p10, p01, p11)."""
    cums = [list(itertools.accumulate(law)) for law in laws]
    obs = [0] * (1 << (depth + 1))
    obs[1] = 1
    for g in range(depth):
        lo = 1 << g
        u = rng.random(lo)
        for j in range(lo):
            k = lo + j
            if obs[k]:
                outcome = bisect.bisect_right(cums[k & 1], u[j])  # 00, 10, 01, 11
                obs[2 * k] = int(outcome in (1, 3))
                obs[2 * k + 1] = int(outcome >= 2)
    return obs


def traits(model, depth: int, rng) -> list:
    """x[k] on the full tree; model = (a, b, c, d, sigma2, rho), root at c/(1-d)."""
    a, b, c, d, s2, rho = model
    sigma = math.sqrt(s2)
    resid = math.sqrt(max(s2 - rho * rho / s2, 0.0))
    x = [0.0] * (1 << (depth + 1))
    x[1] = c / (1.0 - d)
    for g in range(depth):
        lo = 1 << g
        z = rng.standard_normal((2, lo))
        for j in range(lo):
            k = lo + j
            e0 = sigma * z[0, j]
            e1 = (rho / sigma) * z[0, j] + resid * z[1, j]
            x[2 * k] = a + b * x[k] + e0
            x[2 * k + 1] = c + d * x[k] + e1
    return x


def _extinct(obs, depth: int) -> bool:
    return any(not any(obs[1 << g: 2 << g]) for g in range(depth + 1))


def _inverse(m):
    m = np.asarray(m, dtype=float)
    cond = np.linalg.cond(m)
    if not np.isfinite(cond) or cond > MAX_COND:
        return None
    return np.linalg.inv(m)


def _chi2_sf(stat: float, df: int) -> float:
    return math.erfc(math.sqrt(stat / 2.0)) if df == 1 else math.exp(-stat / 2.0)


def gw_mean_pvalue(obs, n: int):
    """Wald test of equal mean offspring of the two types, or None if undefined."""
    if n < 3:
        return None
    phat, z = np.zeros(8), [0, 0]
    for i in (0, 1):
        block, mothers = [0, 0, 0, 0], 0
        for k in range(1, 1 << (n - 1)):
            m = 2 * k + i
            if obs[m]:
                mothers += 1
                block[obs[2 * m] + 2 * obs[2 * m + 1]] += 1
        if mothers == 0:
            return None
        phat[4 * i: 4 * i + 4] = np.array(block, dtype=float) / mothers
    t_star = sum(obs[1: 1 << n])
    for k in range(2, 1 << n):
        z[k & 1] += obs[k]
    v = np.zeros((8, 8))
    for i in (0, 1):
        zi = z[i] / t_star
        if zi <= 0:
            return None
        p = phat[4 * i: 4 * i + 4]
        v[4 * i: 4 * i + 4, 4 * i: 4 * i + 4] = (np.diag(p) - np.outer(p, p)) / zi
    grad = np.array([0.0, 1.0, 1.0, 2.0, 0.0, -1.0, -1.0, -2.0])
    m_hat = float(grad @ phat)
    var = float(grad @ v @ grad)
    if var <= VARIANCE_FLOOR:
        return None
    return _chi2_sf(t_star * m_hat * m_hat / var, 1)


def bar_pvalue(cells: dict, n: int, test: str):
    """Fixed-point or coefficient Wald test p-value, or None if undefined.

    ``cells`` maps each observed label of a depth-``n`` tree to its trait.
    """
    s = {key: np.zeros((2, 2)) for key in ("s0", "s1", "s01")}
    rhs = np.zeros(4)
    t01 = 0
    mothers = [k for k in sorted(cells) if k < 1 << n]
    for k in mothers:
        xk, x0, x1 = cells[k], cells.get(2 * k), cells.get(2 * k + 1)
        moment = np.array([[1.0, xk], [xk, xk * xk]])
        if x0 is not None:
            s["s0"] += moment
            rhs[0:2] += (x0, xk * x0)
        if x1 is not None:
            s["s1"] += moment
            rhs[2:4] += (x1, xk * x1)
        if x0 is not None and x1 is not None:
            s["s01"] += moment
            t01 += 1
    inv0, inv1 = _inverse(s["s0"]), _inverse(s["s1"])
    if inv0 is None or inv1 is None:
        return None
    a, b = inv0 @ rhs[0:2]
    c, d = inv1 @ rhs[2:4]
    sq = cross = 0.0
    for k in mothers:
        x0, x1 = cells.get(2 * k), cells.get(2 * k + 1)
        e0 = 0.0 if x0 is None else x0 - a - b * cells[k]
        e1 = 0.0 if x1 is None else x1 - c - d * cells[k]
        sq += e0 * e0 + e1 * e1
        cross += e0 * e1
    sigma2 = sq / len(cells)
    rho = cross / t01 if t01 else 0.0
    t = len(mothers)
    sig_inv = np.zeros((4, 4))
    sig_inv[:2, :2], sig_inv[2:, 2:] = inv0, inv1
    gamma = np.zeros((4, 4))
    gamma[:2, :2], gamma[2:, 2:] = sigma2 * s["s0"], sigma2 * s["s1"]
    gamma[:2, 2:] = gamma[2:, :2] = rho * s["s01"]
    cov = t * sig_inv @ gamma @ sig_inv
    cov = 0.5 * (cov + cov.T)
    if test == "fixed_point":
        if abs(1.0 - b) <= UNIT_ROOT_GUARD or abs(1.0 - d) <= UNIT_ROOT_GUARD:
            return None
        grad = np.array([1.0 / (1.0 - b), a / (1.0 - b) ** 2,
                         -1.0 / (1.0 - d), -c / (1.0 - d) ** 2])
        var = float(grad @ cov @ grad)
        if var <= VARIANCE_FLOOR:
            return None
        diff = a / (1.0 - b) - c / (1.0 - d)
        return _chi2_sf(t * diff * diff / var, 1)
    g = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
    dc = g.T @ cov @ g
    eigs = np.linalg.eigvalsh(0.5 * (dc + dc.T))
    if eigs[0] <= 0 or eigs[1] / eigs[0] > MAX_COND:
        return None
    dc_inv = _inverse(dc)
    if dc_inv is None:
        return None
    diff = np.array([a - c, b - d])
    return _chi2_sf(float(t * diff @ dc_inv @ diff), 2)


def replica_pvalue(config, hypothesis: str, generation: int, replica: int):
    """The p-value of one replica of a McConfig, or None if extinct or undefined."""
    rng = stream(config.master_seed, {"H0": 0, "H1": 1}[hypothesis], generation, replica)
    gw_model = config.gw_null
    if config.which_test == "gw_mean" and hypothesis == "H1":
        gw_model = config.gw_alt
    laws = [(law.p00, law.p10, law.p01, law.p11) for law in (gw_model.law0, gw_model.law1)]
    obs = presence(laws, generation, rng)
    if _extinct(obs, generation):
        return None
    if config.which_test == "gw_mean":
        return gw_mean_pvalue(obs, generation)
    m = config.bar_null if hypothesis == "H0" else config.bar_alt
    x = traits((m.a, m.b, m.c, m.d, m.sigma2, m.rho), generation, rng)
    cells = {k: x[k] for k, seen in enumerate(obs) if seen}
    return bar_pvalue(cells, generation, config.which_test)
