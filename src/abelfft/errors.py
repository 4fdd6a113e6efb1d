"""Exception types shared across the package."""


class AbelfftError(Exception):
    """Base class for all library-specific errors."""


class InvalidGroupError(AbelfftError, ValueError):
    """Raised for malformed group descriptions (empty, non-integer or non-positive orders),
    or a group too large for the operation."""


class GroupMismatchError(AbelfftError, ValueError):
    """Raised when two values live on different groups."""


class SideMismatchError(AbelfftError, ValueError):
    """Raised when a primal-side value is used where a dual-side one is needed, or vice versa."""


class InvalidPermutationError(AbelfftError, ValueError):
    """Raised for index permutations of the wrong length or ones that are not automorphisms."""


class FileFormatError(AbelfftError, ValueError):
    """Raised when an on-disk record cannot be parsed or violates its schema."""


class NotEssentiallyFourierError(AbelfftError, RuntimeError):
    """Raised when operator recovery finds a structural violation.

    ``step`` names the recovery stage that failed and ``details`` carries the
    offending data (point-mass index, support set, violating pair, ...).
    """

    def __init__(self, step: str, message: str, **details):
        super().__init__(message)
        self.step = step
        self.details = dict(details)


class DichotomyViolationError(NotEssentiallyFourierError):
    """Raised when the recovered scalar map is neither the identity nor conjugation."""
