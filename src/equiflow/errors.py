"""Exception hierarchy shared by all equiflow modules."""


class EquiflowError(Exception):
    """Base class for all equiflow errors."""


class NotHermitian(EquiflowError):
    pass


class NotUnitary(EquiflowError):
    pass


class NotLagrangian(EquiflowError):
    pass


class NotEquivariant(EquiflowError):
    """Operator fails to commute with the group element."""


class NotCommuting(EquiflowError):
    pass


class BranchCut(EquiflowError):
    """Spectrum touches the branch cut of a principal logarithm."""


class NoConvergence(EquiflowError):
    """Adaptive quadrature hit its refinement depth cap."""


class TrackingAmbiguous(EquiflowError):
    """Eigenbranch matching or det-phase unwrapping could not be certified at
    the depth cap, or a block crossing count is not an integer."""


class PartitionFailure(EquiflowError):
    """No valid grid partition found at the bisection depth cap."""


class DimensionMismatch(EquiflowError, ValueError):
    """A matrix, path sample or actor of the wrong shape, or of entries
    that are not numbers."""


class IncompatibleSplitting(EquiflowError):
    """Unitaries do not share the canonical -1 eigenspace splitting."""


class KernelLagrangianInvalid(EquiflowError):
    """Supplied subspace is not a Lagrangian inside ker(A)."""


class KernelPresent(EquiflowError):
    """Operator has spectrum at zero where an invertible one is required."""


class ConfigInvalid(EquiflowError):
    """Malformed harness configuration (exit code 2)."""


class UnknownSuite(EquiflowError):
    pass
