"""Exception hierarchy for the engine.

Input/validation problems raise subclasses of :class:`EngineError`; internal
invariant violations (things that should be impossible for well-formed inputs)
raise :class:`InternalInvariantError` so the CLI can map them to a distinct
exit code.
"""


class EngineError(Exception):
    """Base class for all engine errors."""


class FieldMismatchError(EngineError):
    """Operands live over different coefficient fields."""


class WellDefinednessError(EngineError):
    """A map does not descend to the requested subquotient."""


class NonHomogeneousError(EngineError):
    """A polynomial that must be homogeneous is not."""


class ZeroGeneratorError(EngineError):
    """A Koszul generator is the zero polynomial."""


class EmptyGeneratorsError(EngineError):
    """An ideal was given with no generators."""


class ConventionMismatchError(EngineError):
    """Two Koszul specs disagree on twist convention, ring, or generators."""


class OrderError(EngineError):
    """Transition endpoints are not ordered as the system requires."""


class NotFreeError(EngineError):
    """An operation needs free terms and was given a presented one."""


class NotRegularError(EngineError):
    """A sequence expected to be regular has nonvanishing higher Koszul homology."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class ResolutionValidationError(EngineError):
    """A purported resolution fails exactness or augmentation checks on its window."""


class ParseError(EngineError):
    """Malformed polynomial text; carries the offending position."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnknownVariableError(EngineError):
    """A parsed name is not a variable of the ring."""


class SchemaError(EngineError):
    """A job document does not match the input schema."""

    def __init__(self, message, location=""):
        suffix = f" (at {location})" if location else ""
        super().__init__(message + suffix)
        self.location = location


class InternalInvariantError(EngineError):
    """A computation violated an invariant that valid inputs cannot break."""
