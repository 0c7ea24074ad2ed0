# Ricci curvature of the family: closed forms against two oracles
# ----------------------------------------------------------------
# The curvature module evaluates T = R G from exact derivative tensors of the
# potential, compares the corner-model cofactor formulas against that route,
# and arbitrates conventions with a finite-difference Christoffel computation
# of the real 2n-dimensional metric.

import numpy as np

from toricspec import (
    ModelSpec,
    christoffel_ricci_oracle,
    make_potential_spec,
    model_T,
    model_T_prime,
    ricci_general,
    ricci_lower_bound_scan,
    ricci_of_potential,
    segment,
    simplex2,
)
from toricspec.curvature import model_potential
from toricspec.potential import GuilleminPotential

print("== the bare interval metric is a round sphere ==")
vp = GuilleminPotential.of_polytope(segment())
for x in (0.3, 0.5, 0.7):
    data = ricci_of_potential(vp, np.array([x]))
    print(f"  x={x}: min generalized eigenvalue of (T, G) = {data.min_ratio:.12f}")
print("  constant in x, as it must be on a homogeneous space")

print()
print("== corner model: cofactor closed form vs the general route ==")
rng = np.random.default_rng(3)
B = rng.normal(size=(2, 2))
mod = ModelSpec(A=B @ B.T + 2 * np.eye(2), y=np.array([0.3, 0.7]))
s = 0.05
T_closed = model_T(mod, s)
T_general = ricci_of_potential(model_potential(mod, s), mod.x_coords(s)).T
print("  closed form:\n", np.array_str(T_closed, precision=4))
print("  max relative difference:",
      f"{np.abs(T_closed - T_general).max() / np.abs(T_general).max():.2e}")

tp, ratios = model_T_prime(np.array([1.0]), np.array([]), 1.0)
print(f"  reference metric diagonal at y=1, s=1: T' = {tp[0]}, ratio = {ratios[0]}")

print()
print("== finite-difference oracle on a curved 2d family ==")
spec = make_potential_spec(simplex2())
x = np.array([0.3, 0.25])
fd_block = christoffel_ricci_oracle(spec, 0.5, x)
T = ricci_general(spec, 0.5, x).T
print(f"  FD Ricci (dx,dx)-block vs T/2: rel err "
      f"{np.abs(fd_block - T / 2).max() / np.abs(T / 2).max():.2e}")

print()
print("== lower-bound scans across the degeneration ==")
_, inf_id = ricci_lower_bound_scan(np.eye(2), 2, 2, [1.0, 0.1, 0.01], [50.0, 5.0],
                                   grid_points=8)
print("  identity model, strip region: per-s infimum", {k: f"{v:.2e}" for k, v in inf_id.items()},
      "(bounded below by 0)")
A = np.array([[2.0, 1.0], [1.0, 2.0]])
_, inf_skew = ricci_lower_bound_scan(A, 2, 2, [1.0, 0.1, 0.01], [50.0, 50.0],
                                     grid_points=8, allow_corner=True)
print("  skew model, full corner:  per-s infimum", {k: f"{v:.2e}" for k, v in inf_skew.items()},
      "(keeps shrinking)")
