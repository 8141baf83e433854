"""The ``sweep`` command: point generators and the CSV rows.

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
    are Generic at tolerance ``tol``; ``ValueError`` if ``100 * count`` draws
    hold fewer.  Draws are classified in blocks of the number still missing,
    so the seed is consumed exactly as one draw at a time would."""
    pts, tries, cap = [], 0, 100 * count
    while len(pts) < count and tries < cap:
        block = scale * rng.standard_normal((min(count - len(pts), cap - tries), 8))
        tries += len(block)
        generic = spectrum.generic_mask(block, tol)
        for xi in block[~generic]:
            spectrum.classify(xi, tol)  # raises where the closed form is not finite
        pts.extend(block[generic])
    if len(pts) < count:
        raise ValueError(f"random generator found {len(pts)} of {count} generic points")
    return np.array(pts)


def rest_frame_points(rng, count: int, gaps: tuple[float, float]) -> np.ndarray:
    """``count`` rest-frame octet vectors with gaps E12, E23 uniform in ``gaps``."""
    e12, e23 = rng.uniform(*gaps, size=(2, count))
    pts = np.zeros((count, 8))
    pts[:, 2] = e12
    pts[:, 7] = (e12 + 2.0 * e23) / np.sqrt(3.0)  # (E13 + E23) / sqrt(3)
    return pts


def _points(args) -> np.ndarray:
    # every option is checked before any point is drawn, whichever the generator
    if args.count < 0:
        raise ValueError(f"--count must be 0 or more, got {args.count}")
    check_positive("tol", args.classify_tol)
    check_positive("--delta-start", args.delta_start)
    check_positive("--delta-stop", args.delta_stop)
    rng = np.random.default_rng(args.seed)
    if args.generator == "ray":
        if args.ray_from is None or args.toward is None:
            raise ValueError("ray sweep needs --ray-from and --toward")
        deltas = np.logspace(
            math.log10(args.delta_start), math.log10(args.delta_stop), args.count
        )
        return args.ray_from + deltas[:, None] * args.toward
    for option, value in (("--ray-from", args.ray_from), ("--toward", args.toward)):
        if value is not None:
            raise ValueError(f"the {args.generator} generator takes no {option}")
    if args.generator == "random":
        return random_generic(rng, args.count, args.classify_tol, args.scale)
    return rest_frame_points(rng, args.count, (0.2, 2.0))  # the one other kind allowed


def _lines(points: np.ndarray, level: int | None, tol: float) -> list[str]:
    """One CSV line per point, its fields in column order."""
    if level is not None:
        from . import curvature
    lines = []
    for index, xi in enumerate(points):
        s = spectrum.eigenvalues(xi, tol)
        quad, cubic = algebra.invariants(xi)
        fields = [str(index), *[repr(float(v)) for v in xi],
                  repr(float(spectrum.octet_norm(xi))),
                  "" if math.isnan(s.phi) else repr(s.phi), s.degeneracy.value,
                  repr(s.e12), repr(s.e23), repr(s.e13), repr(quad), repr(cubic)]
        if level is not None:
            if s.degeneracy is spectrum.DegeneracyClass.GENERIC:
                v = curvature.curvature_spectral(xi, level, tol).coeffs
                fields += [repr(float(v[slot])) for _, slot in curvature._PAIRS]
                fields += [repr(float(v[2, 7])), repr(float(np.abs(v).max()))]
            else:
                fields += ["nan"] * 5
        lines.append(",".join(fields))
    return lines


def cmd_sweep(args) -> str:
    """The sweep's CSV text, header line first."""
    # Rows are computed one by one on this thread: a thread pool measured
    # about 2x slower.
    columns = BASE_COLUMNS + (CURVATURE_COLUMNS if args.level is not None else [])
    lines = [",".join(columns), *_lines(_points(args), args.level, args.classify_tol)]
    return "\n".join(lines) + "\n"
