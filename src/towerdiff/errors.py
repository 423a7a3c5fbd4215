"""Exception hierarchy shared by all towerdiff modules."""


class TowerDiffError(Exception):
    """Base class for all structured errors raised by this package."""

    code = "error"


class ParseError(TowerDiffError):
    code = "parse_error"


class FieldMismatch(TowerDiffError):
    code = "field_mismatch"


class DivisionByZero(TowerDiffError, ZeroDivisionError):
    code = "division_by_zero"


class NotCoprimeToCharacteristic(TowerDiffError):
    code = "not_coprime_to_characteristic"


class ZeroArgument(TowerDiffError):
    code = "zero_argument"


class NegativeValuation(TowerDiffError):
    code = "negative_valuation"


class InfinitePlaceUnsupported(TowerDiffError):
    code = "infinite_place_unsupported"


class ValidationFailed(TowerDiffError):
    code = "validation_failed"


class ValuationAmbiguous(TowerDiffError):
    """Raised when the strict-triangle minimum cannot be certified.

    Carries the offending term exponents so a caller can supply a manual
    certificate.
    """

    code = "valuation_ambiguous"

    def __init__(self, terms):
        self.terms = list(terms)
        super().__init__(f"valuation minimum shared by terms {self.terms}")


class UnsupportedAction(TowerDiffError):
    code = "unsupported_action"


class InvariantViolation(TowerDiffError):
    """Base for internal-consistency failures (CLI exit status 2)."""

    code = "invariant_violation"


class NonIntegralGenus(InvariantViolation):
    code = "non_integral_genus"


class NonIntegralInvariant(InvariantViolation):
    code = "non_integral_invariant"


class ClosureFailure(InvariantViolation):
    code = "closure_failure"


class DecompositionInconsistent(InvariantViolation):
    code = "decomposition_inconsistent"


class NotAnASExtension(TowerDiffError):
    code = "not_an_artin_schreier_extension"


class ConstantFieldTooSmall(TowerDiffError):
    code = "constant_field_too_small"


class NotPrimitive(TowerDiffError):
    code = "not_primitive"


class SharedRamification(TowerDiffError):
    code = "shared_ramification"


class DivisibilityObstruction(TowerDiffError):
    code = "divisibility_obstruction"


class SharedPoles(TowerDiffError):
    code = "shared_poles"
