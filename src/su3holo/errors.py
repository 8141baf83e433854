"""Exception types shared across the package, the default classification
tolerance, and the input rules: ``check_level`` for a level number and
``check_positive`` for a tolerance or a radius, which every entry point applies
to its arguments first, each raising ``ValueError`` with one message, and
``check_within`` for an input that must hold a property within a relative
tolerance.  No numpy: the parser, all that ``--help`` and ``--version`` load,
reads the tolerance here."""
import math

DEFAULT_CLASSIFY_TOL = 1e-9  # spectrum.classify's tol, and the --classify-tol default


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


def check_within(message: str, deviation: float, size: float, tol: float, k: int = 0) -> None:
    """``ValueError(message)`` where an input deviates from a property it must
    hold (tracelessness, symmetry) by more than ``tol * max(1, |M|)``, ``|M|``
    its largest entry.  ``deviation`` and ``size`` may be given at ``2**-k``
    times the input's scale, where no sum overflows; the test is made at the
    input's own scale: ``deviation > tol * max(2**-k, size)``."""
    floor = math.ldexp(1.0, -k) if k > -1024 else math.inf  # 2**-k, or past the range
    if deviation > tol * max(floor, size):
        raise ValueError(message)
