"""Exception hierarchy for the reasoner.

Input problems (bad syntax, unknown names, violated preconditions) derive
from InputError; resource-cap violations derive from CapExceeded.  The CLI
maps these to exit codes 2 and 3 respectively.
"""


class ReasonerError(Exception):
    """Base class for all errors raised by this package."""


class InputError(ReasonerError):
    """Malformed or unacceptable input."""


class CapExceeded(ReasonerError):
    """A hard resource cap would be exceeded; refusing to degrade silently."""


class FormulaSyntaxError(InputError):
    """Formula text does not conform to the prefix grammar."""

    def __init__(self, message: str, position: int | None = None):
        if position is not None:
            message = f"{message} (at offset {position})"
        super().__init__(message)
        self.position = position


class UnknownConnective(FormulaSyntaxError):
    pass


class ArityMismatch(FormulaSyntaxError):
    pass


class UnboundVariable(InputError):
    pass


class TooManyVariables(CapExceeded):
    pass


class DefaultCountTooLarge(CapExceeded):
    pass


class RuleCountTooLarge(CapExceeded):
    pass


class NestingTooDeep(CapExceeded):
    """A formula nests deeper than the parser or the recursive formula
    walks can follow under the interpreter's recursion limit."""

    def __init__(self):
        super().__init__("formula nesting exceeds the cap set by the recursion limit")


class UnknownClone(InputError):
    pass


class ArityUnsupported(InputError):
    pass


class EmptyArgs(InputError):
    pass


class NotAffine(InputError):
    pass


class ShapeMismatch(InputError):
    pass


class NotThreeCnf(InputError):
    pass


class MalformedChain(InputError):
    pass


class EmptyDisjunction(InputError):
    pass


class TheoryFormatError(InputError):
    """Theory or instance file does not parse."""

    def __init__(self, message: str, filename: str = "<input>", line: int | None = None):
        loc = filename if line is None else f"{filename}:{line}"
        super().__init__(f"{loc}: {message}")
        self.filename = filename
        self.line = line
