"""Exception types shared across the package.

DomainError covers bad inputs (precondition violations); StructureError
covers internal inconsistencies discovered mid-computation, e.g. a blowdown
sequence whose next class never reaches self-intersection -1.  The CLI maps
DomainError to exit code 2 and StructureError to exit code 1.
"""


class DomainError(ValueError):
    """An argument violates a documented precondition."""


class ValidationError(DomainError):
    """A fixed-point set failed validation; ``errors`` lists every reason."""

    def __init__(self, errors: tuple[str, ...]):
        super().__init__("; ".join(errors))
        self.errors = errors


class EvaluationError(DomainError):
    """A continued-fraction evaluation hit an intermediate zero denominator."""


class StructureError(RuntimeError):
    """A data structure is internally inconsistent (corrupted config/state)."""
