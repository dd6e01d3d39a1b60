"""Exception types shared across the package."""


class ConflictNetError(Exception):
    """Base class for all conflictnet errors."""


class NonFiniteEvaluation(ConflictNetError):
    """A function evaluation produced NaN where a finite value was required."""


class BracketFailure(ConflictNetError):
    """Geometric bracket expansion exhausted without straddling the target."""


class NoConvergence(ConflictNetError):
    """A root finder used up its iteration budget before the bracket closed."""


class UnknownPlayer(ConflictNetError):
    """A player id is not part of the network."""


class DimensionTooLarge(ConflictNetError):
    """Brute-force grid search was asked for more dimensions or points than it
    can enumerate."""


class UnknownExample(ConflictNetError):
    """Requested built-in example network does not exist."""


class PreconditionViolation(ConflictNetError):
    """Operation invoked outside its stated domain of validity."""
