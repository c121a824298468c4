"""Exception types shared across the package, and the input rules.

DomainError covers bad inputs (precondition violations); StructureError
covers internal inconsistencies discovered mid-computation, e.g. a blowdown
sequence whose next class never reaches self-intersection -1.  The CLI maps
DomainError to exit code 2 and StructureError to exit code 1.

An integer input is checked by ``require_int``: its type must be exactly
``int``, so a bool, a float, a Fraction or a string is refused, never
coerced.  A sequence input is checked by ``require_seq``: it must be a list
or a tuple, so None, a number, a set or a dict is refused, and when a
``kind`` is given each item's type must be exactly that kind, so ints are
never coerced and every class label (a ``str``) reads back from JSON.  A
package object (a lattice, a config, a singularity, an expansion, a state)
is checked by ``require_object``: one ``isinstance`` test, so None, a
number or another kind of object is refused.  All three raise
``DomainError(f"{rule}, got {value!r}")`` with the caller's ``rule``, the
requirement in words.
"""


class DomainError(ValueError):
    """An argument violates a documented precondition."""


class ValidationError(DomainError):
    """A fixed-point set failed validation; ``errors`` lists its reasons:
    repeated levels and a single sign, whichever occur, else the first
    pairing failure."""

    def __init__(self, errors: tuple[str, ...]):
        super().__init__("; ".join(errors))
        self.errors = errors


class EvaluationError(DomainError):
    """A continued-fraction evaluation hit an intermediate zero denominator."""


class StructureError(RuntimeError):
    """A data structure is internally inconsistent (corrupted config/state)."""


def require_int(value, rule: str, least: int | None = None) -> int:
    """``value`` itself if it is an int, and at least ``least`` when that
    is given; otherwise a DomainError."""
    if type(value) is not int or (least is not None and value < least):
        raise DomainError(f"{rule}, got {value!r}")
    return value


def require_seq(values, kind: type | None, rule: str) -> tuple:
    """``values`` as a tuple if it is a list or a tuple of items of type
    exactly ``kind`` (None: any); otherwise a DomainError, at C speed."""
    if not isinstance(values, (list, tuple)) or (
            kind is not None and not {kind}.issuperset(map(type, values))):
        raise DomainError(f"{rule}, got {values!r}")
    return tuple(values)


def require_object(value, kind: type, rule: str):
    """``value`` itself if it is an instance of ``kind``; otherwise a
    DomainError."""
    if not isinstance(value, kind):
        raise DomainError(f"{rule}, got {value!r}")
    return value
