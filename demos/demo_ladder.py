"""Ladder demo: why the negative spectrum sits exactly at -1, -2, -3, ...

The operator 2T(p) - M intertwines with the shift S: applying S to an
eigenvector lowers the eigenvalue by one, so the closed-form first
eigenvector generates the whole integer ladder. A companion ladder solves
the generalized problem T v = mu M v with mu_m = 1/(m+1).
"""

import numpy as np

from conformalflow import build_ground_ops, ladder_check, mu_ladder

for p in (0.2, 0.5):
    rep = ladder_check(build_ground_ops(p, 192))
    print(f"p = {p}:")
    print(f"  commutation residuals: S {rep.commutation_residual_S:.2e}, "
          f"S* {rep.commutation_residual_Sstar:.2e}")
    print(f"  first eigenvector residual: {rep.v1_residual:.2e}, "
          f"angle(S* v1, A') = {rep.v1_shift_angle:.2e}")
    print(f"  eigen residuals m = 1..{rep.eigen_residuals.size}:",
          np.array2string(rep.eigen_residuals, formatter={"all": "{:.1e}".format}))

    mu = mu_ladder(build_ground_ops(p, 256))
    print("  mu ladder residuals:",
          np.array2string(mu.residuals, formatter={"all": "{:.1e}".format}))
    c1 = mu.coefficients[1][0]
    print(f"  m = 1 expansion coefficient: {c1:.9f} "
          f"(closed form {-(1 + p * p) / (1 - p * p):.9f})")
