# Reduced mode spectra and their limit oscillators
# -------------------------------------------------
# Fourier reduction turns the section Laplacian at level k into one singular
# Schrodinger operator per lattice mode m on the polytope itself.  As s -> 0
# each quantized mode's spectrum approaches the Gaussian oscillator of the
# cone at b = m/k, rescaled by xi = A0^(1/2) x / sqrt(s).

import numpy as np

from toricspec import (
    SweepConfig,
    bs_points,
    build_mesh,
    cone_at,
    dbar_spectrum,
    exact_cone_spectrum,
    is_separable,
    make_potential_spec,
    mode_set,
    numeric_cone_spectrum,
    predicted_limit,
    segment,
    simplex2,
)

spec = make_potential_spec(segment())
P = spec.polytope
k = 1

print("== one vertex mode of the interval, k = 1 ==")
print("  predicted limit values: 0, 2, 4, ... (half of 4k Z_{>=0})")
# the sweep's mesh-size rule h(s)
config = SweepConfig(spec=spec, k_list=(k,), s_list=(0.2, 0.05, 0.02))
for s in config.s_list:
    mesh = build_mesh(P, config.h_of(s))
    vals, _ = dbar_spectrum(spec, s, k, (0,), mesh, 4)
    print(f"  s={s:5.2f}: holomorphic-sector eigenvalues {np.round(vals[:3], 4)}")

print()
print("== a mode outside the polytope stiffens instead ==")
mesh = build_mesh(P, 1 / 200)
for s in (0.5, 0.1, 0.02):
    vals, _ = dbar_spectrum(spec, s, k, (2,), mesh, 1)
    print(f"  s={s:5.2f}: lowest eigenvalue of mode m=2: {vals[0]:.3f}")

print()
print("== cones over the 2-simplex, psi = |x|^2/2 ==")
spec2 = make_potential_spec(simplex2())
for b in bs_points(simplex2(), 1):
    cone = cone_at(spec2, b)
    tag = "right-angled" if is_separable(cone) else "skew (45-degree wedge)"
    print(f"  corner ({', '.join(str(c) for c in b.point)}): {tag}")
    ls = exact_cone_spectrum(cone, 1, n_max=6)
    print("    closed form:", list(ls.values[:4]), "mult", list(ls.multiplicities[:4]))
    if not is_separable(cone):
        # the sector formula k (2 j + l pi / alpha) against the weighted FEM
        num = numeric_cone_spectrum(cone, 1, 5)
        print("    closed form, listed:", np.round(ls.flat(5), 3))
        print("    FEM check:          ", np.round(num, 3))

print()
print("== direct-sum prediction across all quantized points, k = 2 ==")
for b, ls in sorted(predicted_limit(spec, 2, count=4).items(), key=lambda kv: kv[0].point):
    print(f"  b = {tuple(str(c) for c in b.point)}: first values {list(ls.values[:3])}"
          f" ({'exact' if ls.exact else 'numeric'})")

print()
print("== kernel census: zero modes against lattice points ==")
for kk in (1, 2):
    mesh = build_mesh(P, 1 / 300)
    zeros = 0
    for m in mode_set(P, kk, 1):
        vals, _ = dbar_spectrum(spec, 0.5, kk, m, mesh, 1)
        zeros += int(vals[0] < 1e-3)
    print(f"  k={kk}: {zeros} zero modes vs {len(bs_points(P, kk))} lattice points")
