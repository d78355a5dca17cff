"""Exception hierarchy for the whole engine.

Errors carry their witnesses as attributes so callers (and the CLI) can
render them; failure *verdicts* that are ordinary results, not errors,
live next to the operations that produce them.
"""

from __future__ import annotations


class ParamjetError(Exception):
    """Base class for every error raised by this package."""


# --- field ----------------------------------------------------------------

class DivisionByZero(ParamjetError):
    pass


class UnknownVariable(ParamjetError):
    pass


class DenominatorVanishes(ParamjetError):
    """A substitution sends the denominator to zero (pole)."""


class ParseError(ParamjetError):
    def __init__(self, message: str, position: int | None = None, line: int | None = None):
        self.position = position
        self.line = line
        where = ""
        if line is not None:
            where = f" (line {line})"
        elif position is not None:
            where = f" (at {position})"
        super().__init__(message + where)


class SemanticError(ParamjetError):
    """A well-formed input that refers to undefined names or wrong shapes."""


# --- differential structures ----------------------------------------------

class NotIndependent(ParamjetError):
    pass


class NotClosed(ParamjetError):
    """Bracket of two basis derivations escapes the span.

    Attributes: ``pair`` is the offending (i, j), ``residual`` the part of
    the bracket that is not a basis combination.
    """

    def __init__(self, pair, residual):
        self.pair = pair
        self.residual = residual
        super().__init__(f"bracket of basis elements {pair} leaves the span")


class NotCommuting(ParamjetError):
    def __init__(self, pair, residual):
        self.pair = pair
        self.residual = residual
        super().__init__(f"basis elements {pair} do not commute")


class PrincipalMovesConstants(ParamjetError):
    def __init__(self, index, variable):
        self.index = index
        self.variable = variable
        super().__init__(f"principal derivation {index} moves constant variable {variable!r}")


class ConstantsMismatch(ParamjetError):
    """Declared constants are not exactly the joint constants of the
    principal derivations."""


class MorphismInvalid(ParamjetError):
    pass


# --- jets -------------------------------------------------------------------

class MembershipViolated(ParamjetError):
    pass


class NotInAugmentationIdeal(ParamjetError):
    pass


# --- modules ----------------------------------------------------------------

class StructureMismatch(ParamjetError):
    pass


class ShapeMismatch(ParamjetError):
    pass


class NotFlat(ParamjetError):
    def __init__(self, witness=None):
        self.witness = witness
        super().__init__("module is not integrable")
