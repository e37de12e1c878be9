"""Conservation demo: integrate a random state and watch H, Q, E stand still.

A random unit-charge state at N = 64 is evolved to t = 50 with DOP853 in
the co-rotating frame; samples between step ends come from the stepper's
dense output. The three conserved quantities are printed at a few
sample times together with the final relative drift and the run's step and
field-evaluation counts.
"""

import numpy as np

from conformalflow import IntegratorConfig, integrate
from conformalflow.lab import random_state

alpha0 = random_state(123, 64, q_normalize=1.0)
cfg = IntegratorConfig(t_end=50.0, sample_dt=5.0, rel_tol=1e-10)
traj = integrate(alpha0, cfg)

print("   t        H                Q                E")
for i in range(0, traj.times.size, 2):
    print(f"{traj.times[i]:5.1f}  {traj.H[i]:.12e}  {traj.Q[i]:.12e}  "
          f"{traj.E[i]:.12e}")

drift = traj.max_relative_drift()
print(f"\naccepted steps: {traj.accepted}, rejected: {traj.rejected}, "
      f"field evaluations: {traj.rhs_evals}")
print(f"max relative drift: H {drift['H']:.2e}, Q {drift['Q']:.2e}, "
      f"E {drift['E']:.2e}")
