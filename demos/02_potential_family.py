# The degenerating potential family u_s = v_P + phi + psi/s
# ----------------------------------------------------------
# The boundary potential v_P = sum ell_r log ell_r fixes the complex structure
# near the facets while psi/s blows up the metric as s -> 0.  This script
# evaluates the Hessian family G_s and checks the closed-form bound states of
# the reduced operators.

import numpy as np

from toricspec import (
    GuilleminPotential,
    family_hessian_batch,
    ground_state,
    make_potential_spec,
    segment,
    simplex2,
)

print("== boundary potential of [0, 1] ==")
v, x = GuilleminPotential.of_polytope(segment()), [0.25]
val, grad, hess, third = v(x), v.tensor(x, 1), v.tensor(x, 2), v.tensor(x, 3)
print(f"  v(0.25) = {val:.6f}, v' = {grad[0]:.6f}, v'' = {hess[0,0]:.6f}, "
      f"v''' = {third[0,0,0]:.6f}")

print()
print("== the Hessian family stiffens like 1/s ==")
spec = make_potential_spec(segment())      # default psi = x^2/2
for s in (1.0, 0.1, 0.01):
    G, G_inv = family_hessian_batch(spec, s, [[0.5]])
    print(f"  s={s:5.2f}: G = {G[0,0,0]:9.2f}   G^-1 = {G_inv[0,0,0]:.5f}")

print()
print("== exact bound states ==")
# each quantized mode m owns the closed-form state
#   phi_m = exp((m - kx) . grad u_s + k u_s),  eigenvalue k^2 + nk
spec2 = make_potential_spec(simplex2())
state = ground_state(spec2, 0.2, 1, (1, 0))
xs = np.array([[0.85, 0.05], [0.6, 0.1], [0.3, 0.3], [0.05, 0.05]])
print("  |phi_(1,0)| along a path toward its base point (1,0), s = 0.2:")
vals = state(xs)
for x, v in zip(xs, vals / vals.max()):
    print(f"    x = {tuple(x)}: {v:.2e}")
print("  the state concentrates near x = m/k = (1, 0)")
