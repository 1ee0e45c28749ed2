"""Simulate one lineage and look at what the observation process kept.

Cells live on a binary tree: cell k has daughters 2k and 2k+1, the root
is cell 1.  A two-type Galton-Watson process decides which cells are
observed (even/odd daughters play the two types), and a bifurcating
autoregressive recursion generates a trait value for every cell.
"""

import numpy as np

from barlineage import (
    BarModel,
    GwModel,
    ReproductionLaw,
    dominant_eigen,
    replica_stream,
    simulate_bar_values,
    simulate_observation_tree,
)

# the reproduction law used throughout: an observed mother keeps both
# daughters with probability 0.8, loses both with probability 0.04
law = ReproductionLaw(0.04, 0.08, 0.08, 0.8)
model = GwModel(law, law)

pi, z = dominant_eigen(model.descendants_matrix())
print(f"descendants matrix:\n{model.descendants_matrix()}")
print(f"dominant eigenvalue pi = {pi:.4f} (supercritical: {pi > 1})")
print(f"asymptotic type proportions z = ({z[0]:.3f}, {z[1]:.3f})")

# one stream drives both the missingness and the trait noise, so a
# replica is fully determined by its seed
stream = replica_stream(2026, 0)
depth = 9
tree = simulate_observation_tree(model, depth, stream)

counts = tree.counts()
obs = tree.observed_indices()
print(f"\ndepth {depth}: {obs.size} of {2 ** (depth + 1) - 1} cells observed")
print("observed per generation:", counts.g_star.tolist())
print("empirical growth factors:",
      np.round(counts.g_star[2:] / counts.g_star[1:-1], 3).tolist())

# traits: even daughters follow x -> a + b x, odd daughters x -> c + d x,
# with correlated sister noise
bar = BarModel(a=0.5, b=0.5, c=0.5, d=0.4, sigma2=1.0, rho=0.5)
values = simulate_bar_values(bar, depth, bar.fixed_point_odd, stream)

print(f"\ntrait mean over observed cells: {values.observed(tree).mean():.3f}")
print(f"even fixed point a/(1-b) = {bar.fixed_point_even:.3f}, "
      f"odd fixed point c/(1-d) = {bar.fixed_point_odd:.3f}")
