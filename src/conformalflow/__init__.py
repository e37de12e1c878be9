"""Numerical laboratory for the truncated conformal flow on the 3-sphere.

Modules
-------
kernel       the fast vector field's layered pair sums, walked and contracted in blocks
state        states, the gauge action, ground-state family
observables  H (its oracle and its table-free walk), Q, E, the gap, the functional K
flow         vector field (naive and fast), co-rotating DOP853 integration
linearized   operators L+- with the weight M = diag(n+1), spectra, stability, ladders, identities
modulation   decomposition in the q-chart, orbit distance, tracking
lab          seeded experiments, persistence, and the CLI entry point

A run chooses its settings through ``IntegratorConfig`` and
``ExperimentConfig``.  Fixed tolerances, step and input bounds, iteration
caps and seeds are upper-case module-level names; the residual contract and
kernel verdicts of ``linearized`` and the verdicts of ``lab``'s commands stay
inline.

The package runs on numpy alone: importing it loads numpy and nothing else,
``linearized``'s eigen-solves go through ``numpy.linalg``, and ``flow`` steps
its own numpy port of DOP853.  No command imports any other package.
"""

# each module's __all__ is the package surface
from .kernel import *
from .state import *
from .observables import *
from .flow import *
from .linearized import *
from .modulation import *

__version__ = "0.1.0"
