"""Numerical kernels: closed forms for symmetric 2x2 matrices,
chi-square tails, and reproducible random streams.

Random stream contract: streams are built on numpy's Philox counter
generator, keyed by a splitmix64 fold of (master_seed, *subkeys).  The
same (seed, subkeys) tuple always yields the same stream, independent
streams for different tuples, and normal variates come from numpy's
ziggurat ``standard_normal`` on that stream.  This triple (Philox,
splitmix64 keying, ziggurat normals) is the reproducibility contract:
replica results are bit-identical across runs and worker counts.  A
Monte Carlo span (``run_replica`` is a span of one) draws each replica
from its own stream, as one generator of the span's own reset to each
replica's key in turn (``span_streams``), which then reads exactly
``replica_stream``'s stream; ``replica_stream`` still returns a fresh one.

Stream layout of one Monte Carlo replica of depth n: first 2^n - 1
uniforms, one per mother slot 1 .. 2^n - 1 in label order (the GW tree,
drawn even for unobserved mothers); then, for the trait tests, 2 * 2^g
normals per generation g = 0 .. n-1, the g1 block of that generation's
mothers followed by its g2 block (see ``gaussian_pair``).  A span reads
a survivor's normals into its row of a trait block before the next
replica's uniforms, so blocks leave the layout as it is.  Changing this
layout changes every table.
"""

from __future__ import annotations

import math

import numpy as np

MAX_COND = 1e12
# a variance at or below this is treated as zero by every Wald test
VARIANCE_FLOOR = 1e-14

_MASK64 = (1 << 64) - 1
_ADJ_SIGNS = np.array([[1.0, -1.0], [-1.0, 1.0]])


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def _stream_key(master_seed: int, subkeys) -> tuple[int, int]:
    """Philox key (seed, splitmix64 fold of seed and subkeys), all mod 2^64."""
    k0 = int(master_seed) & _MASK64
    acc = _splitmix64(k0)
    for s in subkeys:
        acc = _splitmix64(acc ^ (int(s) & _MASK64))
    return k0, acc


def replica_stream(master_seed: int, *subkeys: int) -> np.random.Generator:
    """Independent, reproducible stream for one (seed, subkeys) tuple."""
    key = np.array(_stream_key(master_seed, subkeys), dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def span_streams(master_seed: int, prefix, ids):
    """One generator of this call's own, reset for each i of ``ids`` in turn to
    read exactly the stream of ``replica_stream(master_seed, *prefix, i)`` until
    the next i: the prefix is folded once, then each i takes one splitmix64 step."""
    generator = np.random.Generator(np.random.Philox())  # its entropy seed: reset before use
    k0, acc = _stream_key(master_seed, prefix)
    for i in ids:
        # a fresh Philox(key=...): counter 0, empty buffer, no spare uint32
        state = {"counter": (0, 0, 0, 0), "key": (k0, _splitmix64(acc ^ (int(i) & _MASK64)))}
        generator.bit_generator.state = {"bit_generator": "Philox", "state": state,
                                         "uinteger": 0, "buffer": (0, 0, 0, 0),
                                         "buffer_pos": 4, "has_uint32": 0}
        yield generator


def symmetric_2x2(m: np.ndarray):
    """(adjugate, determinant, largest eigenvalue) of each symmetric
    [[p, q], [q, r]] of a (..., 2, 2) stack, in closed form.  The inverse
    is adj / det, the condition number lmax^2 / det; the caller divides
    only after its conditioning check, so a singular matrix warns of nothing."""
    p, q, r = m[..., 0, 0], m[..., 0, 1], m[..., 1, 1]
    adj = m[..., ::-1, ::-1] * _ADJ_SIGNS
    return adj, p * r - q * q, 0.5 * (p + r + np.hypot(p - r, 2.0 * q))


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
    Needs sigma2 > 0 and |rho| <= sigma2, which its caller's BarModel checks.
    """
    sigma = math.sqrt(sigma2)
    resid = math.sqrt(max(sigma2 - rho * rho / sigma2, 0.0))
    e0 = sigma * g1
    e1 = (rho / sigma) * g1 + resid * g2
    return e0, e1
