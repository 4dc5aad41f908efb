"""Exceptions shared across layers.

DomainError is the base of every error a well-formed request can meet in
the mathematics (an invalid step, a dimension mismatch, an index out of
range, ...); the CLI exits 3 on any of them.  Each layer's own domain
errors derive from it and from the builtin exception they always had.
UsageError is a request the CLI cannot parse (exit 2).  This module
imports nothing, so the CLI can catch both without loading the layers that
raise them.
"""


# The default element cap for crystals, Hecke bases and cylindrical windows
# (the CLI's --max-size).
DEFAULT_SIZE_CAP = 10**6


class DomainError(Exception):
    """A request that parses but is refused by the mathematics."""


class SizeLimit(RuntimeError, DomainError):
    """A materialized object (tensor power, Hecke basis, cylindrical window)
    would exceed the configured element cap."""


class UsageError(Exception):
    """A command line the CLI refuses before any layer runs."""
