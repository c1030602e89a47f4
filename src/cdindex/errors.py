"""Exception types shared across the package."""

from __future__ import annotations


class CdIndexError(Exception):
    """Base class for all package-specific errors."""


class NotInSubringError(CdIndexError):
    """An AD-polynomial has no expression in the variables c, d."""


class NotDecomposableError(CdIndexError):
    """An AD-polynomial has no expression of the form f + A*g with f, g in c, d."""


class FlipUndefinedError(CdIndexError):
    """The flip bijection has no value for a requested argument.

    Either a T-set and its reverse-order counterpart differ in size (so the
    lexicographic pairing between them does not exist; conjectured never to
    occur, reported loudly rather than patched over), or a flip value was
    requested for a path outside the T-set the flip is defined on.
    """

    def __init__(self, source, gamma, sink, t_size=None, tbar_size=None, reason=None):
        self.source = source
        self.gamma = gamma
        self.sink = sink
        self.t_size = t_size
        self.tbar_size = tbar_size
        self.reason = reason
        where = f"on [{source}, {sink}] for AD-word {gamma!r}"
        if reason is None:
            reason = f"|T| = {t_size} but |T-bar| = {tbar_size}"
        super().__init__(f"flip undefined {where}: {reason}")

    def __reduce__(self):
        # the constructor's arguments, not the message, so that the error
        # crosses a process boundary (a worker of `scan --workers`)
        return type(self), (self.source, self.gamma, self.sink, self.t_size, self.tbar_size, self.reason)
