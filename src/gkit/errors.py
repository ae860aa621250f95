"""Exception hierarchy.

Every error a caller can trigger derives from GkitError and carries a stable
``code`` used by the CLI to emit machine-readable error objects.  InternalError
signals a broken invariant (a bug), never bad input.
"""


class GkitError(Exception):
    code = "Error"

    def payload(self):
        return {"type": self.code, "message": str(self)}


class DivisionByZero(GkitError):
    code = "DivisionByZero"


class NotAPthPower(GkitError):
    code = "NotAPthPower"


class NotAUnit(GkitError):
    code = "NotAUnit"


class LengthMismatch(GkitError):
    code = "LengthMismatch"


class IndexOutOfRange(GkitError):
    code = "IndexOutOfRange"


class NotInCohen(GkitError):
    code = "NotInCohen"


class LevelMismatch(GkitError):
    code = "LevelMismatch"


class NotInImage(GkitError):
    code = "NotInImage"


class NotEisenstein(GkitError):
    code = "NotEisenstein"


class UnsupportedAlgebra(GkitError):
    code = "UnsupportedAlgebra"


class ResourceLimit(GkitError):
    code = "ResourceLimit"


class LevelTooLow(GkitError):
    code = "LevelTooLow"


class NotInTargetFiltration(GkitError):
    code = "NotInTargetFiltration"


class NotASolution(GkitError):
    code = "NotASolution"


class UnknownIdentifier(GkitError):
    code = "UnknownIdentifier"


class TypeMismatch(GkitError):
    code = "TypeMismatch"


class ParseError(GkitError):
    code = "ParseError"

    def __init__(self, line, col, expected, found=None):
        self.line = line
        self.col = col
        self.expected = expected
        self.found = found
        msg = f"line {line}, col {col}: expected {expected}"
        if found is not None:
            msg += f", found {found!r}"
        super().__init__(msg)

    def payload(self):
        return {
            "type": self.code,
            "message": str(self),
            "line": self.line,
            "col": self.col,
            "expected": self.expected,
        }


class InternalError(GkitError):
    """An invariant the library guarantees was violated; always a bug."""

    code = "InternalError"
