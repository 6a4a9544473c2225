"""equiflow: equivariant spectral invariants of finite operator paths and
exactly solvable 1D Dirac boundary models.

Modules
-------
spectra       eigendecompositions, branch tracking, quadrature
symplectic    Lagrangian projections, pair diagnostics, APS projections
specflow      equivariant spectral flow (grid partitions + crossing oracle)
winding       winding numbers, Fredholm determinants, double indices
maslov        Maslov index, triple indices, Maslov cycle predicate
eta_zeta      eta/zeta invariants, zeta determinants, the Getzler flow
dirac_models  circle and interval Dirac models, splitting experiments
harness       scenario configs, verification suites, CLI
"""

from .tolerances import DEFAULT, TolerancePolicy
from . import errors

__version__ = "0.1.0"

__all__ = ["TolerancePolicy", "DEFAULT", "errors", "__version__"]
