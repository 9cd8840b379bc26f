"""The vacuum refraction index bound, probed with an actual gate search.

For each coupling mu the largest unitary flow speed is sqrt(1 - mu**2), so
the vacuum behaves like a medium with refraction index 1/sqrt(1 - mu**2) for
a massive field.  The gate solver demonstrates both sides of the bound: just
below it the saturating gate pair grants the request exactly, in closed form
with no search; just above it twenty optimizer restarts all stay above the
proved defect floor hypot(zeta, mu) - 1.
"""

import math

from causalqca.gates import (
    canonical_gates,
    check_fb_combination,
    compose_row,
    refraction_bound,
    solve_gates,
    tile_gates,
)

print("== the bound itself ==")
print("mu    zeta_max   n_min")
for mu10 in range(0, 11, 2):
    mu = mu10 / 10
    bound = refraction_bound(mu)
    n_min = "inf" if math.isinf(bound.n_min) else f"{bound.n_min:.4f}"
    print(f"{mu:.1f}   {bound.zeta_max:.4f}     {n_min}")

print("\n== a closed-form gate pair on the bound ==")
zeta, mu = 0.8, 0.6
gate_a, gate_b = canonical_gates(zeta, mu)
t = compose_row(tile_gates(gate_a, gate_b, 8), 8)
print(f"A = {gate_a.matrix().round(3).tolist()}")
print(f"B = {gate_b.matrix().round(3).tolist()} (a swap)")
print(f"combination defect against the Dirac form: {check_fb_combination(t, zeta, mu):.2e}")

print("\n== searching near the bound (mu = 0.6, zeta_max = 0.8) ==")
for zeta_req in (0.8 * (1 - 1e-6), 0.8 * 1.001, 0.9):
    sol = solve_gates(zeta_req, mu, restarts=20, seed=1)
    print(
        f"requested zeta = {zeta_req:.6f}: {sol.status} "
        f"(residual {sol.residual:.2e}, achieved speed {sol.achieved_zeta:.6f})"
    )
    floor = math.hypot(zeta_req, mu) - 1
    if floor > 0:
        print(f"    smallest restart {min(sol.restart_residuals):.2e} >= proved floor {floor:.2e}")
print(
    "\nnote: the attainable speed is exactly sqrt(1 - mu**2) - requests below the\n"
    "bound are granted by the saturating pair, requests above are proved infeasible"
)
