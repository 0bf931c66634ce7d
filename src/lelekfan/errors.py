"""Exception taxonomy shared across the package: one type per kind of failure.

Library code raises these and never calls sys.exit; `cli.main` maps them
to exit codes. Every type derives from FanError:

- DomainError: an input outside the paper's hypotheses or an operation's
  domain (a range, a length, a depth, a point off the relation), exit 3;
- FormatError: malformed serialized input, exit 3;
- NcViolation: a multiplicatively dependent slope pair, exit 2;
- ResourceError: an enumeration or search budget exceeded, exit 4.
"""


class FanError(Exception):
    """Base class for all package errors."""


class DomainError(FanError):
    """A value lies outside the mathematical domain of an operation."""


class NcViolation(FanError):
    """A slope pair is multiplicatively dependent where independence is required."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class ResourceError(FanError):
    """A configured enumeration or search budget would be exceeded."""


class FormatError(FanError):
    """Malformed serialized input (scalar strings, leg files)."""
