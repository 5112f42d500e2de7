"""Exception types shared across the package."""


class DivpairError(Exception):
    """Base class for every error raised by this package."""


class ParseError(DivpairError):
    """Malformed literal, flag value, or config file."""


class DomainError(DivpairError):
    """Input outside an operation's mathematical domain."""


class DiagonalSingularityError(DomainError):
    def __init__(self, message: str = "diagonal singularity"):
        super().__init__(message)


class DegreeZeroRequiredError(DomainError):
    def __init__(self, message: str = "degree must be zero"):
        super().__init__(message)


class DegreeIntegralityError(DomainError):
    def __init__(self, message: str = "degree integrality violated"):
        super().__init__(message)


class NonIntegralCoefficientError(DomainError):
    def __init__(self, message: str = "non-integral coefficient off marked set"):
        super().__init__(message)


class DisjointSupportError(DomainError):
    def __init__(self, message: str = "divisors not disjoint"):
        super().__init__(message)


class TrivialJacobianError(DomainError):
    def __init__(self, message: str = "genus-0 curve has trivial Jacobian"):
        super().__init__(message)


class ContextMismatchError(DomainError):
    def __init__(self, message: str = "mismatched marked-curve contexts"):
        super().__init__(message)
