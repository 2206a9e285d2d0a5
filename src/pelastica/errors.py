"""Exception hierarchy shared across the library.

The CLI maps each exception to one of its exit codes, the EXIT_* constants
in pelastica.cli: domain errors to 2 (PoleCollision is one), invariant
breaches and resolution errors to 4, and every other library error to 3.
InvariantBreach is raised by the CLI itself, when a report holds a value
that is not a finite number and so has no JSON text.
"""


class PElasticaError(Exception):
    """Base class for all library errors."""


class DomainError(PElasticaError):
    """An argument lies outside the mathematical domain of the operation."""


class NoPeriodicOrbit(DomainError):
    """The momentum parameter does not admit a periodic curvature orbit."""


class ConvergenceFailure(PElasticaError):
    """An iterative scheme exceeded its iteration or panel budget."""


class NotFound(PElasticaError):
    """A bracketed search found no sign change on its scan grid."""


class InvariantBreach(PElasticaError):
    """A computed result breaks an invariant it must satisfy, such as being
    finite."""


class ResolutionError(PElasticaError):
    """Sampling density is too coarse for the requested operation."""


class SeedError(PElasticaError):
    """A fiber seed point does not project onto the base point."""


class PoleCollision(DomainError):
    """A mesh vertex lies too close to the projection pole the caller chose."""
