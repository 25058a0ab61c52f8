"""The package's errors: the two that its exit codes tell apart."""

from __future__ import annotations


class RebalanceError(ValueError):
    """Bad input, or a request the input cannot meet; the message says
    which row, value or rule is at fault. The CLI exits with status 2."""


class InfeasibleError(RebalanceError):
    """The concentration bound lies below the equal-weight floor. The CLI
    exits with status 3."""
