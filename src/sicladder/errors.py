"""Exception types shared across the package.

Every package error is a SicladderError. A subclass exists only where
package code catches it to tell that failure apart from the others; a
failure that nothing tells apart raises SicladderError with its message.
"""


class SicladderError(Exception):
    """Base class for all package errors."""


class NoMatchingPhase(SicladderError):
    pass


class NotASic(SicladderError):
    pass


class SearchFailed(SicladderError):
    pass


class BadPairing(SicladderError):
    pass


class AlignmentRequired(SicladderError):
    pass
