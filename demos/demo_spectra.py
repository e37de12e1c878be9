"""Spectra demo: the exactly-known eigenvalue ladders of L+ and L-.

For the ground state A(p) the spectra are p-independent apart from the single
positive eigenvalue 2(1+p^2)/(1-p^2) of L+; the linearized frequencies
Omega_m = (m-1)/(m+1) do not move with p at all. Single-mode states show the
same structure through their closed-form frequency tables.
"""

import numpy as np

from conformalflow import (
    build_ground_ops,
    build_single_mode_ops,
    spectrum,
    stability_spectrum,
)

for p in (0.0, 0.3, 0.6):
    ops = build_ground_ops(p, 128)
    minus = spectrum(ops.Lminus, 8)
    plus = spectrum(ops.Lplus, 8)
    print(f"p = {p}:")
    print("  L- top:", np.round(minus, 9))
    print("  L+ top:", np.round(plus, 9),
          f"(lambda* = {2 * (1 + p * p) / (1 - p * p):.9f})")
    rep = stability_spectrum(ops)
    print("  Omega: ", np.round(rep.omegas[:6], 9),
          f" zero modes {rep.zero_geometric}+{rep.jordan_partners}")

print("\nsingle-mode states:")
for mode in (0, 1, 2):
    rep = stability_spectrum(build_single_mode_ops(mode, 1.0, 64))
    print(f"  N_mode = {mode}: smallest Omega "
          f"{np.round(rep.omegas[:4], 6)}, stable = {not rep.unstable}")
