"""Exception types shared across the package."""


class UltragradeError(Exception):
    pass


class ParseError(UltragradeError):
    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no
        self.message = message


class DanglingReference(ParseError):
    pass


class EmptyRange(ParseError):
    pass


class ExpressionError(UltragradeError):
    """An algebra expression that does not read."""


class InfiniteEmitter(UltragradeError):
    def __init__(self, vertex):
        super().__init__(f"{vertex} is an infinite emitter")
        self.vertex = vertex


class NotFinite(UltragradeError):
    pass


class NotFiniteEdges(UltragradeError):
    pass


class NotUnital(UltragradeError):
    pass


class NotHomogeneous(UltragradeError):
    pass


class MixedPresentation(UltragradeError):
    pass


class TermCountCap(UltragradeError):
    pass


class NoEdges(UltragradeError):
    pass


class NotStronglyGraded(UltragradeError):
    pass


class NotInDomain(UltragradeError):
    pass


class NotInIdeal(UltragradeError):
    pass


class CertificateError(UltragradeError):
    """A certificate or witness failed its own re-check: a bug, never an
    answer.  Raised rather than asserted so that it holds under -O."""
