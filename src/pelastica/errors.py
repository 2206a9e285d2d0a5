"""Exception hierarchy shared across the library.

The CLI maps each exception to one of its exit codes, the EXIT_* constants
in pelastica.cli: domain errors to 2, invariant breaches and resolution
errors to 4, and every other library error to 3.
"""


class PElasticaError(Exception):
    """Base class for all library errors."""


class DomainError(PElasticaError):
    """An argument lies outside the mathematical domain of the operation."""


class NoPeriodicOrbit(DomainError):
    """The momentum parameter does not admit a periodic curvature orbit."""


class AdmissibilityError(DomainError):
    """A lobe/winding pair fails the closure admissibility window."""


class ConvergenceFailure(PElasticaError):
    """An iterative scheme exceeded its iteration or panel budget."""


class NotFound(PElasticaError):
    """A bracketed search found no sign change on its scan grid."""


class StepFailure(PElasticaError):
    """The ODE integrator underflowed its minimum step size."""


class InvariantBreach(PElasticaError):
    """A conserved quantity drifted beyond its tolerance."""


class ResolutionError(PElasticaError):
    """Sampling density is too coarse for the requested operation."""


class SeedError(PElasticaError):
    """A fiber seed point does not project onto the base point."""


class CoverOverflow(PElasticaError):
    """Closing the lift holonomy would require too many covers."""


class PoleCollision(PElasticaError):
    """A mesh vertex lies too close to the projection pole."""
