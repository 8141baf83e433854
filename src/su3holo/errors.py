"""Exception types shared across the package, and the two input rules that
every entry point applies to its arguments before it evaluates anything:
``check_level`` for a level number and ``check_positive`` for a tolerance
or a radius.  Both raise ``ValueError`` with one message each; the module
imports no numpy, as it is on the path of ``import su3holo.cli``."""
import math


class DegenerateInput(ValueError):
    """Raised when an operation requires a simple spectrum but the input
    lies on (or too close to) a degeneracy surface, where eigenvector
    phases and mixing are not determined."""


class UnderResolvedPath(ValueError):
    """Raised when a discretized path or surface is too coarse for its
    result to be trusted: consecutive eigenvector overlaps along a loop fall
    below the resolution guard, so the discrete geometric phase is
    unreliable, or the monopole-flux quadrature reaches its order cap
    without two refinements agreeing within the tolerance."""


_LEVELS = (1, 2, 3)


def check_level(level) -> int:
    """The level number ``level`` as the int 1, 2 or 3.  Accepts whatever
    compares equal to one of them (``2.0``, ``numpy.int64(2)``);
    ``ValueError`` otherwise."""
    if level not in _LEVELS:
        raise ValueError(f"level must be 1, 2 or 3, got {level!r}")
    return _LEVELS.index(level) + 1


def check_positive(name: str, value) -> float:
    """``value`` as a float if it is a positive, finite number; ``ValueError``
    naming the argument ``name`` otherwise (NaN, infinities, zero, negative
    numbers, and values that are not numbers)."""
    try:
        ok = value > 0 and math.isfinite(value)
    except TypeError:
        ok = False
    if not ok:
        raise ValueError(f"{name} must be positive and finite, got {value!r}")
    return float(value)
