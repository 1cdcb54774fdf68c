"""Exception hierarchy shared by every engine module."""


class IschemaError(Exception):
    """Base class for all engine errors."""


# --- model construction ---------------------------------------------------

class DuplicateEntity(IschemaError):
    pass


class BadShapeForSort(IschemaError):
    pass


class NegativeExtent(IschemaError):
    pass


class InvalidScenario(IschemaError):
    pass


class UnknownSort(IschemaError):
    def __init__(self, message: str, span=None):
        super().__init__(message)
        self.span = span  # where the declaration at fault names the sort, if known


class UnknownEntity(IschemaError):
    pass


class UnknownParameter(IschemaError):
    pass


# --- geometry -------------------------------------------------------------

class UnknownRelation(IschemaError):
    pass


class UnsupportedShapePair(IschemaError):
    pass


class NotMeasurable(IschemaError):
    pass


class CoincidentCenters(IschemaError):
    pass


class ValueOutOfRange(IschemaError):
    """An exact value that a distance, angle or measure, computed in floats,
    needs as a float is beyond the range of a float; or a tolerance is not finite."""


# --- formula evaluation ---------------------------------------------------

class UnboundSymbol(IschemaError):
    pass


class TimeOutOfRange(IschemaError):
    pass


class SortMismatchInBinding(IschemaError):
    pass


class MissingRole(IschemaError):
    pass


# --- simulation -----------------------------------------------------------

class ConflictingEffects(IschemaError):
    pass


class UnstratifiableRuleSet(IschemaError):
    pass


class NonPositiveDelta(IschemaError):
    pass


# --- library / enumeration ------------------------------------------------

class UnknownSchema(IschemaError):
    pass


class SearchSpaceTooLarge(IschemaError):
    pass


# Raised during relation evaluation when a candidate binding pairs shapes a
# relation is not defined for; binding searches treat these as "not satisfied"
# instead of aborting.
EVALUATION_GAP_ERRORS = (
    UnsupportedShapePair,
    NotMeasurable,
    CoincidentCenters,
    UnknownParameter,
)
