"""Exception types shared across the library.

Invariant *violations* are returned as data (lists of Violation records), not
raised; exceptions are reserved for misuse of an operation (bad arguments,
unmet preconditions) and for parse failures.
"""

from __future__ import annotations

from typing import NamedTuple


class StrataError(Exception):
    """Base class for all library errors."""


class GraphError(StrataError):
    """Malformed request against a level graph (e.g. a non-crossing passage)."""


class BasisError(StrataError):
    """Malformed request against an adapted homology basis."""


class SystemDataError(StrataError):
    """Malformed request against an equation system."""


class LimitError(StrataError):
    """A combinatorial search was refused because it exceeds the size limit."""


class ConversionError(StrataError):
    """Period-to-plumbing conversion failed.

    ``missing`` names the relation that would be needed, when that is the
    obstruction.
    """

    def __init__(self, message: str, missing: str | None = None):
        super().__init__(message)
        self.missing = missing


class PlumbingError(StrataError):
    """Invalid smoothing request against a local model."""


class DeformationError(StrataError):
    """Cylinder-deformation request violates a hard precondition."""


class AimError(StrataError):
    """Affine-invariant-manifold analysis precondition failure."""


class DocumentParseError(StrataError):
    """Input document is syntactically malformed.

    ``position`` locates the offending token, either as ``line:col`` for raw
    JSON errors or as a JSON path such as ``system.equations[0].coeffs.g1``.
    """

    def __init__(self, message: str, position: str):
        super().__init__(f"{position}: {message}")
        self.position = position


class Violation(NamedTuple):
    """One failed invariant: which object, which rule, and what went wrong."""

    subject: str
    rule: str
    detail: str

    def __str__(self) -> str:
        return f"{self.subject}: {self.rule}: {self.detail}"
