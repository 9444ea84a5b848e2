"""Exception types shared across the package.

Every package error is a SicladderError, and a refusal raises it with its
message. A subclass exists only where one try statement tells it apart
from its base class, with a handler for each: SearchFailed, which the CLI
maps to exit 2 and every other SicladderError to exit 1.
"""


class SicladderError(Exception):
    """Base class for all package errors."""


class SearchFailed(SicladderError):
    pass
