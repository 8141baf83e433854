"""The ``sweep`` command: point generators and the CSV rows.

The rows are evaluated in ``spectrum._row_blocks``: per block one closed
form and, at a level, one eigenvector and one curvature pass over the
Generic rows, each field the same bits as the single-point API gives.
Columns come in the fixed order ``BASE_COLUMNS``, followed by
``CURVATURE_COLUMNS`` when a level is given.  Every field is an int, a
``repr`` float, a class name, ``""`` or ``"nan"``: none holds a comma, quote
or newline, so no field needs quoting.  Only the ``sweep`` and ``selfcheck``
commands import this module, ``selfcheck`` for its point generators.
"""
import math

import numpy as np

from . import algebra, spectrum
from .errors import check_positive

BASE_COLUMNS = [
    "index", "xi1", "xi2", "xi3", "xi4", "xi5", "xi6", "xi7", "xi8",
    "norm", "phi", "class", "e12", "e23", "e13", "quadratic", "cubic",
]
CURVATURE_COLUMNS = ["v12", "v45", "v67", "v38", "vmax"]


def random_generic(rng, count: int, tol: float, scale: float = 1.0) -> np.ndarray:
    """``count`` draws of ``scale`` times a standard-normal octet vector that
    are Generic at tolerance ``tol``, classified in blocks of the number still
    missing and at most one block, so the seed is consumed as one draw at a time would;
    ``ValueError`` where ``classify`` raises, where a finite ``scale`` takes a
    draw past the float range, naming it, or if ``100 * count`` draws hold fewer."""
    blocks, found, tries, cap = [np.empty((0, 8))], 0, 0, 100 * count
    while found < count and tries < cap:
        with np.errstate(over="ignore"):  # a finite scale that overflows is named below
            block = scale * rng.standard_normal(
                (min(count - found, cap - tries, spectrum._BLOCK_POINTS), 8))
        if math.isfinite(scale) and not np.isfinite(block).all():
            raise ValueError(f"--scale {scale!r} takes a drawn point past the float range")
        tries += len(block)
        ranks = spectrum._classified(block, tol)[2]
        spectrum._reject(block, caller="classify")  # as for one draw at a time
        blocks.append(block[ranks == spectrum._GENERIC])
        found += len(blocks[-1])
    if found < count:
        raise ValueError(f"random generator found {found} of {count} generic points")
    return np.concatenate(blocks)


def rest_frame_points(rng, count: int, gaps: tuple[float, float]) -> np.ndarray:
    """``count`` rest-frame octet vectors with gaps E12, E23 uniform in ``gaps``."""
    e12, e23 = rng.uniform(*gaps, size=(2, count))
    pts = np.zeros((count, 8))
    pts[:, 2] = e12
    pts[:, 7] = (e12 + 2.0 * e23) / np.sqrt(3.0)  # (E13 + E23) / sqrt(3)
    return pts


def _points(args) -> np.ndarray:
    # every option is checked before any point is drawn, whichever the generator
    for option, value in (("--count", args.count), ("--seed", args.seed)):
        if value < 0:
            raise ValueError(f"{option} must be 0 or more, got {value}")
    check_positive("tol", args.classify_tol)
    start = check_positive("--delta-start", 1e-4 if args.delta_start is None else args.delta_start)
    stop = check_positive("--delta-stop", 1e-1 if args.delta_stop is None else args.delta_stop)
    scale = 1.0 if args.scale is None else args.scale
    if not math.isfinite(scale):
        raise ValueError(f"--scale must be finite, got {scale!r}")
    if args.scale is not None and args.generator != "random":
        raise ValueError(f"the {args.generator} generator takes no --scale")
    rng = np.random.default_rng(args.seed)
    if args.generator == "ray":
        if args.ray_from is None or args.toward is None:
            raise ValueError("ray sweep needs --ray-from and --toward")
        for option, value in (("--ray-from", args.ray_from), ("--toward", args.toward)):
            if not np.all(np.isfinite(value)):
                raise ValueError(f"{option} must have finite components")
        deltas = np.logspace(math.log10(start), math.log10(stop), args.count)
        with np.errstate(over="ignore"):  # a point past the float range fails in _lines
            return args.ray_from + deltas[:, None] * args.toward
    for option, value in (("--ray-from", args.ray_from), ("--toward", args.toward),
                          ("--delta-start", args.delta_start), ("--delta-stop", args.delta_stop)):
        if value is not None:
            raise ValueError(f"the {args.generator} generator takes no {option}")
    if args.generator == "random":
        return random_generic(rng, args.count, args.classify_tol, scale)
    return rest_frame_points(rng, args.count, (0.2, 2.0))  # the one other kind allowed


def _lines(xi: np.ndarray, first: int, level: int | None, tol: float) -> list[str]:
    """The CSV lines of points (n, 8) numbered from ``first``, each number
    evaluated at the unit-scaled point and scaled back by the scale rule.
    The first row with a non-finite component or a number past the float
    range raises, naming, at that row, what the single-point API would."""
    c, gaps, ranks = spectrum._classified(xi, tol)
    numbers = [("spectrum", gaps, 1), ("quadratic invariant", algebra.quadratic_invariant(c.u), 2),
               ("cubic invariant", c.cubic, 3), ("norm", c.norm, 1)]
    if level is not None:
        from . import curvature

        generic = ranks == spectrum._GENERIC
        g, e = c.u[generic], c.unit_levels[generic]
        t = curvature._tables(g, e, spectrum._columns(g, 0, e, (level,))[..., 0].T, level - 1)
        v = np.full((len(xi), 8, 8), np.nan)  # as curvature_spectral gives it, on Generic rows
        v[generic] = (t - np.swapaxes(t, -1, -2)) / 2.0  # as CurvatureTwoForm
        numbers.append(("curvature", v, -2))
    gaps, quad, cubic, norm, *curvatures = c.scaled(*numbers, caller="sweep")
    numbers = [xi, norm, c.phi, gaps, quad, cubic]
    for v in curvatures:  # one, given a level
        numbers += [*(v[:, i, j] for _, (i, j) in curvature._PAIRS), v[:, 2, 7],
                    np.abs(v).max(axis=(1, 2))]
    lines = []
    for index, (row, rank) in enumerate(zip(np.column_stack(numbers), ranks.tolist()), first):
        fields = [repr(x) for x in row.tolist()]
        fields[9] = fields[9] if row[8] > 0.0 else ""  # phi is undefined at the zero vector
        fields.insert(10, spectrum._LADDER[rank].value)
        lines.append(",".join([str(index), *fields]))
    return lines


def cmd_sweep(args) -> list[str]:
    """The sweep's CSV text as newline-ended strings to write in order: the
    header line, then each block's lines, every block made before any write."""
    columns = BASE_COLUMNS + (CURVATURE_COLUMNS if args.level is not None else [])
    points, text = _points(args), [",".join(columns) + "\n"]
    # one block's numeric temporaries, whatever --count: 2.48 MiB (tracemalloc) at
    # level 1.  The points and the CSV text, held once, grow with --count.
    for rows in spectrum._row_blocks(len(points), 1):
        text.append("\n".join(_lines(points[rows], rows.start, args.level, args.classify_tol))
                    + "\n")
    return text
