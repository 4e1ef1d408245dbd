"""Exception hierarchy shared across the package.

Errors that represent *data* (validation violations, infeasible statuses,
unbounded sentinels) are not exceptions; only contract breaches and
unusable inputs raise.

A run that cannot make its claim says which of four things is at fault,
and the base class of its error names it (the CLI's exit code follows):

- ``InputError``: the input is unusable, a file, a numeral or an option
  (exit 1);
- ``AssumptionError``: the input breaks a boundedness assumption of the
  theorems, so no finite claim exists (exit 2);
- ``InfeasibleError``: the problem has no feasible point (exit 3);
- anything else is a bug (exit 4): the classes directly under
  ``AldualError`` each name a broken invariant, and an exception from
  outside the package is a bug too.
"""


class AldualError(Exception):
    """Base class for all package errors."""


class InputError(AldualError):
    """The input is unusable: a file, a numeral or an option."""


class AssumptionError(AldualError):
    """The input breaks a boundedness assumption of the theorems."""


class InfeasibleError(AldualError):
    """The problem has no feasible point."""


class DimMismatchError(AldualError, ValueError):
    """Operands have incompatible dimensions."""


class NotSquareError(AldualError, ValueError):
    """A square matrix was required."""


class NotSymmetricError(AldualError, ValueError):
    """A symmetric matrix was required."""


class NotPsdError(AldualError, ValueError):
    """A positive semidefinite matrix was required; carries a witness."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class RationalParseError(InputError, ValueError):
    """A string is not a valid base-10 ``p/q`` rational."""


class ParseError(InputError):
    """An input file failed to parse; carries field/position detail."""

    def __init__(self, message, field=None):
        super().__init__(message)
        self.field = field


class SchemaViolationError(InputError):
    """An instance file parsed but does not match the schema."""

    def __init__(self, field):
        super().__init__(f"schema violation: {field}")
        self.field = field


class NegativeDeltaError(AldualError, ValueError):
    """A nonnegative level was required."""


class UnsupportedKindError(InputError, ValueError):
    """The penalty kind does not support the requested operation."""


class UnboundedIntegerVarError(AssumptionError):
    """An integer variable has no finite implied bound; enumeration refused."""

    def __init__(self, index):
        super().__init__(f"integer variable {index} is unbounded under the linear set")
        self.index = index


class NlpInfeasibleError(InfeasibleError):
    """The continuous relaxation is infeasible."""


class NlpUnboundedError(AssumptionError):
    """The continuous relaxation is unbounded; multipliers do not exist."""


class InfeasibleDomainError(InfeasibleError):
    """The mixed integer linear set is empty."""


class DeltaZeroError(AssumptionError):
    """The infimum of the violation over infeasible points is zero."""


class BisectionCapError(AldualError):
    """No certifying weight found below the search cap (indicates a bug)."""


class InternalInvariantError(AldualError):
    """A mathematically mandated identity failed; never expected at runtime."""
