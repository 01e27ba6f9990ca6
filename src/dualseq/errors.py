"""Exception types shared across the package."""

from __future__ import annotations


class ValidationFailed(Exception):
    """An input value violates a structural invariant.

    The message names the violated invariant so callers (and the CLI)
    can report it without guessing.
    """


class NotExact(ValidationFailed):
    """A pair of morphisms does not form a degreewise short exact sequence."""


class StabilizationDepthExceeded(Exception):
    """A phantom certificate has more levels than the depth allows.

    Only ``phantom`` raises it.  The levels are proven, not sampled
    (``dualseq.phantom``); a depth below their number still raises, so
    that ``depth`` keeps the meaning it had when they were computed.
    """

    def __init__(self, message: str, depth: int):
        super().__init__(message)
        self.depth = depth


class ParseError(Exception):
    """Document parse failure, with 1-based line/column position."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, col {col}: {message}")
        self.line = line
        self.col = col
