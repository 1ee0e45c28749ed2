"""Numerical kernels: small matrix inversion, chi-square tails, and
reproducible random streams.

Random stream contract: streams are built on numpy's Philox counter
generator, keyed by a splitmix64 fold of (master_seed, *subkeys).  The
same (seed, subkeys) tuple always yields the same stream, independent
streams for different tuples, and normal variates come from numpy's
ziggurat ``standard_normal`` on that stream.  This triple (Philox,
splitmix64 keying, ziggurat normals) is the reproducibility contract:
replica results are bit-identical across runs and worker counts.

Stream layout of one Monte Carlo replica of depth n: first 2^n - 1
uniforms, one per mother slot 1 .. 2^n - 1 in label order (the GW tree,
drawn even for unobserved mothers); then, for the trait tests, 2 * 2^g
normals per generation g = 0 .. n-1, the g1 block of that generation's
mothers followed by its g2 block (see ``gaussian_pair``).  Changing
this layout changes every table.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import Singular

MAX_COND = 1e12
# a variance at or below this is treated as zero by every Wald test
VARIANCE_FLOOR = 1e-14

_MASK64 = (1 << 64) - 1


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def replica_stream(master_seed: int, *subkeys: int) -> np.random.Generator:
    """Independent, reproducible stream for one (seed, subkeys) tuple."""
    k0 = int(master_seed) & _MASK64
    acc = _splitmix64(k0)
    for s in subkeys:
        acc = _splitmix64(acc ^ (int(s) & _MASK64))
    key = np.array([k0, acc], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def invert(m) -> np.ndarray:
    """Inverse of a small dense matrix, or of each matrix of a (..., k, k)
    stack, refusing ill-conditioned input.  For a stack, ``Singular.index``
    is the flat position of the first ill-conditioned matrix."""
    m = np.asarray(m, dtype=float)
    finite = np.isfinite(m).all(axis=(-2, -1))
    # a matrix with a nan or inf entry is singular; it is zeroed before
    # the SVD, which raises LinAlgError on nan
    cond = np.where(finite, np.linalg.cond(np.where(finite[..., None, None], m, 0.0)), np.inf)
    cond = cond.ravel()
    bad = np.flatnonzero(~(cond <= MAX_COND))  # nan fails the comparison too
    if bad.size:
        c = cond[bad[0]]
        raise Singular(c if np.isfinite(c) else np.inf, int(bad[0]) if m.ndim > 2 else None)
    return np.linalg.inv(m)


def chi2_sf(x: float, df: int) -> float:
    """Chi-square survival function for the two df values the tests need.

    df=1 reduces to erfc(sqrt(x/2)); df=2 to exp(-x/2).
    """
    if not x >= 0:  # also rejects nan
        raise ValueError(f"chi-square statistic must be >= 0, got {x}")
    if df == 1:
        return math.erfc(math.sqrt(x / 2.0))
    if df == 2:
        return math.exp(-x / 2.0)
    raise ValueError(f"unsupported df {df}; only 1 and 2 occur here")


def gaussian_pair(sigma2: float, rho: float, g1: np.ndarray, g2: np.ndarray):
    """Correlated centered Gaussian pairs with covariance [[s2, rho], [rho, s2]].

    Fixed transform of two standard-normal arrays g1, g2 (g1 drawn first):
        e0 = sigma * g1
        e1 = (rho / sigma) * g1 + sqrt(sigma2 - rho**2 / sigma2) * g2
    """
    if sigma2 <= 0:
        raise ValueError(f"sigma2 must be > 0, got {sigma2}")
    if abs(rho) > sigma2:
        raise ValueError(f"|rho| = {abs(rho)} exceeds sigma2 = {sigma2}")
    sigma = math.sqrt(sigma2)
    resid = math.sqrt(max(sigma2 - rho * rho / sigma2, 0.0))
    e0 = sigma * g1
    e1 = (rho / sigma) * g1 + resid * g2
    return e0, e1
