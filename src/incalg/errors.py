"""Exception taxonomy shared by all incalg modules.

Precondition failures (bad user input) and internal-consistency failures
(states the classification results rule out) are kept in separate branches so
callers can tell "you gave me a map that is not a preserver" apart from "the
library contradicted itself"; the latter must never be swallowed.
"""


class IncalgError(Exception):
    pass


# --- poset construction ---

class EmptyPoset(IncalgError):
    pass


class CycleError(IncalgError):
    pass


class UnknownLabel(IncalgError):
    pass


# --- scalars ---

class UnsupportedField(IncalgError):
    pass


class DivisionByZero(IncalgError, ZeroDivisionError):
    pass


class NotFound(IncalgError):
    """No element with the requested property exists in the field."""


# --- algebra elements ---

class StructureMismatch(IncalgError):
    """Operands live over different posets or different fields."""


class IncomparablePair(IncalgError):
    pass


class NotInvertible(IncalgError):
    pass


class DisconnectedPoset(IncalgError):
    pass


# --- linear maps ---

class DimensionMismatch(IncalgError):
    pass


# --- potent machinery ---

class BudgetExceeded(IncalgError):
    def __init__(self, message, required=None):
        super().__init__(message)
        self.required = required


class NotIdempotent(IncalgError):
    pass


class NotCommuting(IncalgError):
    pass


class NotKPotent(IncalgError):
    pass


class NoPrimitiveRoot(NotFound):
    pass


class HypothesesNotMet(IncalgError):
    pass


class NotConjugate(IncalgError):
    pass


# --- classification preconditions ---

class NotJordanAutomorphism(IncalgError):
    pass


class NotIdempotentPreserver(IncalgError):
    pass


class PhiDeltaNotScalar(IncalgError):
    pass


class RootConditionFailed(IncalgError):
    pass


class UnsupportedRegime(IncalgError, ValueError):
    """(F, k) lies outside the statements the classification covers."""


class DownstreamJordanFailure(IncalgError):
    pass


# --- internal consistency: reachable only through a bug or a genuine
# counterexample to the classification, so always reported loudly with the
# offending data attached ---

class InternalConsistencyError(IncalgError):
    def __init__(self, message, detail=None):
        super().__init__(message if detail is None else f"{message}: {detail}")
        self.detail = detail


class LambdaNotOrderMap(InternalConsistencyError):
    pass


class RecompositionMismatch(InternalConsistencyError):
    pass


class ThetaNotSingleBasisVector(InternalConsistencyError):
    pass


class ThetaNotBijective(InternalConsistencyError):
    pass


class NuNotCentral(InternalConsistencyError):
    pass


# --- demos / verification ---

class ClaimFailed(IncalgError):
    def __init__(self, message, claims=None):
        super().__init__(message)
        self.claims = claims or []
