"""Exception types shared across the package."""


class FrameDualError(Exception):
    """Base class for all framedual errors."""


class InvalidParameterError(FrameDualError, ValueError):
    """An argument violates a documented precondition."""


class NotProjectiveError(FrameDualError):
    """Operator compositions are not scalar multiples of a single target
    (so no multiplier can be read off), or not the multiples a given
    multiplier prescribes."""


class NotInvariantError(FrameDualError):
    """A projection does not commute with the representation it is meant
    to cut down."""


class RouteDisagreementError(FrameDualError):
    """Two independent computation routes for the same predicate returned
    different verdicts.  This signals an internal inconsistency (or a
    tolerance set too tight), never bad user input."""


class ConstructionFailureError(FrameDualError):
    """A randomized construction exhausted its tries without producing an
    output that passes certification."""


class SearchExhaustedError(ConstructionFailureError):
    """A randomized search used up its tries.  The object it looks for may
    still exist: this is not a counterexample, and the CLI exits 4 on it."""


class NoWitnessError(FrameDualError):
    """No orthogonal-range witness exists: the analysis range is already
    the whole coefficient space."""


class ParameterizationError(FrameDualError):
    """Least-squares parameterization inside the generated algebra left a
    residual above tolerance."""


class InvalidPairError(FrameDualError):
    """The two representations do not form the required commuting or dual
    pair."""


class CompletionExhaustedError(SearchExhaustedError, ParameterizationError):
    """bessel_parameterize found solutions of A xi = eta but used up its
    random completions before one had the promised structure."""
