"""The ``sweep`` command: point generators and the CSV rows.

Columns come in the fixed order ``BASE_COLUMNS``, followed by
``CURVATURE_COLUMNS`` when a level is given.  Every field is an int, a
``repr`` float, a class name, ``""`` or ``"nan"``: none holds a comma, quote
or newline, so no field needs quoting.  Only the ``sweep`` command imports
this module.
"""
import math

import numpy as np

from . import algebra, spectrum

BASE_COLUMNS = [
    "index", "xi1", "xi2", "xi3", "xi4", "xi5", "xi6", "xi7", "xi8",
    "norm", "phi", "class", "e12", "e23", "e13", "quadratic", "cubic",
]
CURVATURE_COLUMNS = ["v12", "v45", "v67", "v38", "vmax"]


def _points(args) -> np.ndarray:
    rng = np.random.default_rng(args.seed)
    if args.generator == "ray":
        if args.ray_from is None or args.toward is None:
            raise ValueError("ray sweep needs --ray-from and --toward")
        deltas = np.logspace(
            math.log10(args.delta_start), math.log10(args.delta_stop), args.count
        )
        return args.ray_from + deltas[:, None] * args.toward
    if args.generator == "random":
        pts, tries = [], 0
        while len(pts) < args.count and tries < 100 * args.count:
            xi = args.scale * rng.standard_normal(8)
            tries += 1
            if spectrum.classify(xi, args.classify_tol) is spectrum.DegeneracyClass.GENERIC:
                pts.append(xi)
        if len(pts) < args.count:
            raise ValueError(
                f"random generator found {len(pts)} of {args.count} generic points"
            )
        return np.array(pts)
    if args.generator == "rest-frame":
        e12 = rng.uniform(0.2, 2.0, size=args.count)
        e23 = rng.uniform(0.2, 2.0, size=args.count)
        pts = np.zeros((args.count, 8))
        pts[:, 2] = e12
        pts[:, 7] = (e12 + 2.0 * e23) / np.sqrt(3.0)
        return pts
    raise ValueError(f"generator: unknown kind {args.generator!r}")


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
                fields += [repr(float(v[0, 1])), repr(float(v[3, 4])), repr(float(v[5, 6])),
                           repr(float(v[2, 7])), repr(float(np.abs(v).max()))]
            else:
                fields += ["nan"] * 5
        lines.append(",".join(fields))
    return lines


def cmd_sweep(args) -> str:
    """The sweep's CSV text, header line first."""
    # Rows are computed one by one on this thread (a thread pool measured
    # about 2x slower); --threads is ignored.
    columns = BASE_COLUMNS + (CURVATURE_COLUMNS if args.level is not None else [])
    lines = [",".join(columns), *_lines(_points(args), args.level, args.classify_tol)]
    return "\n".join(lines) + "\n"
