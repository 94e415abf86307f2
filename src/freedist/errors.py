"""Exception types shared across the package."""

from __future__ import annotations


class FreeDistError(Exception):
    """Base class for all domain errors raised by this package."""


class ParseError(FreeDistError):
    """Syntax or range error in an expression or frame file.

    Carries 1-based ``line`` and ``col`` of the offending token.
    """

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{message} (line {line}, column {col})")
        self.message = message
        self.line = line
        self.col = col


class UnsupportedFrameError(FreeDistError):
    """The frame matrix determinant is not a nonzero constant."""


class DegenerateFrameError(FreeDistError):
    """The frame fields and their brackets fail to span at the origin."""


class NotFreeDistributionError(FreeDistError):
    """The coframe's pair-form differentials carry an unexpected
    single-single block, so the distribution is not free of the expected
    type."""


class UnsupportedError(FreeDistError):
    """The requested computation lies outside the supported parameter
    range (wrong rank, odd-size Pfaffian, guarded resource limits...)."""
