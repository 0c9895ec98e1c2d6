"""The errors grasscy raises on purpose; the class alone decides the exit
code.  A `UsageError` (exit 2) is bad input, rejected before any work.  Any
other `GrasscyError` (exit 1) is a failed check, a `Mismatch`, or a fault
the run caught itself, such as a `TruncationError`.  Anything else is a bug."""


class GrasscyError(Exception):
    """Root of every error grasscy raises on purpose."""


class Mismatch(GrasscyError):
    """A result failed one of the program's checks."""


class UsageError(GrasscyError, ValueError):
    """Bad input, rejected before any work.  It is a ValueError, so a caller
    that catches ValueError around a library call still catches it."""


def shown(value) -> str:
    """`value` as an input check names it: by its size if an int past 1024
    bits, which may have more digits than Python prints by default."""
    if isinstance(value, int) and value.bit_length() > 1024:
        return f"<an int of {value.bit_length()} bits>"
    return str(value)
