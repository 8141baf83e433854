"""Command-line front end.

Subcommands: classify, spectrum, curvature, decompose, loop-phase,
surface-flux, monopole, sweep, selfcheck, job.  Single results are written
as JSON; sweeps as CSV with a fixed, documented column order.  Exit codes:
0 success, 1 usage or descriptor error, 2 degenerate-input rejection.

Every number emitted here is obtained through the library API; the CLI adds
no computation of its own.  ``job FILE`` runs a ``su3holo/1`` JSON
descriptor, which ``su3holo.job`` translates into the equivalent command.
"""
import argparse
import math
import sys

import numpy as np

from . import __version__
from .errors import DegenerateInput

SCHEMA = "su3holo/1"

SWEEP_BASE_COLUMNS = [
    "index", "xi1", "xi2", "xi3", "xi4", "xi5", "xi6", "xi7", "xi8",
    "norm", "phi", "class", "e12", "e23", "e13", "quadratic", "cubic",
]
SWEEP_CURVATURE_COLUMNS = ["v12", "v45", "v67", "v38", "vmax"]


class _Parser(argparse.ArgumentParser):
    # usage errors must exit 1 (argparse default is 2, reserved here for
    # degenerate-input rejection)
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        sys.exit(1)


def _vec8(text: str) -> np.ndarray:
    parts = text.split(",")
    if len(parts) != 8:
        raise argparse.ArgumentTypeError("expected 8 comma-separated numbers")
    return np.array([float(p) for p in parts])


def _vec3(text: str) -> np.ndarray:
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("expected 3 comma-separated numbers")
    return np.array([float(p) for p in parts])


def _rest_pair(text: str) -> np.ndarray:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("expected x3,x8")
    xi = np.zeros(8)
    xi[2], xi[7] = float(parts[0]), float(parts[1])
    return xi


def _grid_shape(text: str) -> tuple[int, int]:
    parts = text.lower().split("x")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("expected NUxNV, e.g. 64x128")
    return int(parts[0]), int(parts[1])


def _jsonable(value):
    if isinstance(value, float):
        return None if math.isnan(value) else value
    if isinstance(value, np.generic):  # numpy scalars: bools from comparisons too
        return _jsonable(value.item())
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()]
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    return value


def _write(text: str, path: str | None) -> None:
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_csv(rows: list[dict], columns: list[str], path: str | None) -> None:
    # Sweep fields are ints, repr floats, class names, "" and "nan": none of
    # them holds a comma, quote or newline, so no field needs quoting.
    lines = [",".join(columns)]
    lines += [",".join(str(row.get(k, "")) for k in columns) for row in rows]
    _write("\n".join(lines) + "\n", path)


def _xi_from_args(args) -> np.ndarray:
    if args.xi is None and args.rest is None:
        raise ValueError("one of --xi or --rest is required")
    return args.rest if args.xi is None else args.xi


def _points_from_args(args, what: str, file_option: str, names: tuple) -> np.ndarray | None:
    """The points in the ``--FILE_OPTION`` JSON file, or None once all of ``names`` are set."""
    path = getattr(args, file_option.replace("-", "_"))
    if path:
        import json

        with open(path, encoding="utf-8") as fh:
            return np.array(json.load(fh), dtype=float)
    for name in names:
        if getattr(args, name) is None:
            raise ValueError(f"{what} generator needs --{name} (or --{file_option})")
    return None


def _cmd_classify(args) -> dict:
    from . import spectrum

    xi = _xi_from_args(args)
    s = spectrum.eigenvalues(xi, args.classify_tol)
    return {"xi": xi, "class": s.degeneracy.value, "phi": s.phi,
            "gaps": {"e12": s.e12, "e23": s.e23, "e13": s.e13}}


def _cmd_spectrum(args) -> dict:
    from . import spectrum
    from .algebra import invariants

    xi = _xi_from_args(args)
    s = spectrum.eigenvalues(xi, args.classify_tol)
    quad, cubic = invariants(xi)
    return {"xi": xi, "energies": [s.e1, s.e2, s.e3], "phi": s.phi,
            "gaps": {"e12": s.e12, "e23": s.e23, "e13": s.e13}, "class": s.degeneracy.value,
            "rest_frame": spectrum.rest_frame(xi),
            "invariants": {"quadratic": quad, "cubic": cubic}}


def _cmd_curvature(args) -> dict:
    from . import curvature

    xi, level, tol = _xi_from_args(args), args.level, args.classify_tol
    routes = {}
    if args.route in ("spectral", "all"):
        routes["spectral"] = curvature.curvature_spectral(xi, level, tol).coeffs
    if args.route in ("transported", "all"):
        routes["transported"] = curvature.curvature_transported(xi, level, tol).coeffs
    if args.route in ("parts", "all"):
        from . import tensors

        routes["parts"] = tensors.curvature_from_parts(xi, level, tol).coeffs
    payload = {"xi": xi, "level": level, "route": args.route, "coefficients": routes}
    if len(routes) > 1:
        names = list(routes)
        payload["max_pairwise_deviation"] = max(
            float(np.abs(routes[a] - routes[b]).max())
            for i, a in enumerate(names) for b in names[i + 1:]
        )
    return payload


def _cmd_decompose(args) -> dict:
    from . import curvature, spectrum, tensors

    xi = _xi_from_args(args)
    level = args.level
    form = curvature.curvature_spectral(xi, level, args.classify_tol)
    parts = tensors.project_irreducible(form.coeffs)
    s = spectrum.eigenvalues(xi, args.classify_tol)
    lam, mu = tensors.octet_coefficients(level, spectrum.rest_frame(xi), args.classify_tol)
    return {
        "xi": xi,
        "level": level,
        "octet": parts.octet,
        "decouplet_re": parts.decouplet.real,
        "decouplet_im": parts.decouplet.imag,
        "antidecouplet_re": parts.antidecouplet.real,
        "antidecouplet_im": parts.antidecouplet.imag,
        "octet_expansion": {"lambda": lam, "mu": mu,
                            "prefactor": -1.0 / (4.0 * s.e12 * s.e13 * s.e23)},
        "decouplet_weight": tensors.decouplet_weight(level, s.e12, s.e23),
    }


def _cmd_loop_phase(args) -> dict:
    from . import holonomy

    path = _points_from_args(args, "loop", "path-file", ("center", "axis1", "axis2", "radius"))
    if path is not None:
        loop = holonomy.LoopPath(path, args.classify_tol)
    else:
        loop = holonomy.circle_loop(args.center, args.axis1, args.axis2, args.radius,
                                    args.samples, args.classify_tol)
    payload = {"samples": len(loop.samples)}
    if args.level:
        payload["level"] = args.level
        payload["phase"] = holonomy.loop_phase(loop, args.level)
    else:
        phases, total = holonomy.phase_sum_rule_check(loop)
        payload["phases"] = {"level1": phases[0], "level2": phases[1], "level3": phases[2]}
        payload["sum_mod_2pi"] = total
    return payload


def _cmd_surface_flux(args) -> dict:
    from . import holonomy

    grid = _points_from_args(args, "patch", "patch-file",
                             ("center", "frame1", "frame2", "frame3", "radius"))
    if grid is not None:
        patch = holonomy.SurfacePatch(grid, args.classify_tol)
    else:
        patch = holonomy.spherical_patch(
            args.center, np.stack([args.frame1, args.frame2, args.frame3]), args.radius,
            (args.theta_min, args.theta_max), args.grid, args.classify_tol,
        )
    level = args.level or 1
    return {"level": level, "grid": list(patch.grid.shape[:2]),
            "flux": holonomy.surface_flux(patch, level)}


def _cmd_monopole(args) -> dict:
    from . import limits

    level = args.level or 1
    flux = limits.monopole_flux(
        args.direction, args.radius, level,
        center_offset=args.offset, rel_tol=args.quadrature_tol,
        tol=args.classify_tol,
    )
    return {"direction": args.direction, "radius": args.radius, "level": level,
            "flux": flux, "flux_over_2pi": flux / (2.0 * np.pi)}


def _sweep_points(args) -> np.ndarray:
    from . import spectrum

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


def _sweep_rows(points: np.ndarray, level: int | None, tol: float) -> list[dict]:
    from . import curvature, spectrum
    from .algebra import invariants

    rows = []
    for index, xi in enumerate(points):
        s = spectrum.eigenvalues(xi, tol)
        quad, cubic = invariants(xi)
        row = {
            "index": index,
            **{f"xi{k+1}": repr(float(xi[k])) for k in range(8)},
            "norm": repr(float(spectrum.octet_norm(xi))),
            "phi": "" if math.isnan(s.phi) else repr(s.phi),
            "class": s.degeneracy.value,
            "e12": repr(s.e12), "e23": repr(s.e23), "e13": repr(s.e13),
            "quadratic": repr(quad), "cubic": repr(cubic),
        }
        if level is not None:
            if s.degeneracy is spectrum.DegeneracyClass.GENERIC:
                v = curvature.curvature_spectral(xi, level, tol).coeffs
                row.update(
                    v12=repr(float(v[0, 1])), v45=repr(float(v[3, 4])),
                    v67=repr(float(v[5, 6])), v38=repr(float(v[2, 7])),
                    vmax=repr(float(np.abs(v).max())),
                )
            else:
                row.update(v12="nan", v45="nan", v67="nan", v38="nan", vmax="nan")
        rows.append(row)
    return rows


def _cmd_sweep(args) -> None:
    # Rows are computed one by one on this thread (a thread pool measured
    # about 2x slower); --threads is ignored.
    points = _sweep_points(args)
    columns = list(SWEEP_BASE_COLUMNS)
    if args.level is not None:
        columns += SWEEP_CURVATURE_COLUMNS
    _emit_csv(_sweep_rows(points, args.level, args.classify_tol), columns, args.output)


def _cmd_selfcheck(args) -> dict:
    from . import selfcheck  # only this command needs the check battery

    results = selfcheck.run_all(args.seed)
    passed = sum(r.passed for r in results)
    for r in results:
        print(f"{'PASS' if r.passed else 'FAIL'} {r.name}: {r.detail}")
    print(f"{passed}/{len(results)} checks passed")
    return {"passed": passed, "total": len(results),
            "checks": [{"name": r.name, "passed": r.passed, "detail": r.detail}
                       for r in results]}


def _add_common(p: argparse.ArgumentParser, point: bool = False) -> None:
    from . import spectrum

    p.add_argument("--output", help="output path (default: stdout)")
    p.add_argument("--format", choices=["json", "csv"], default=None)
    p.add_argument("--seed", type=int, default=0, help="seed for all randomness")
    p.add_argument("--classify-tol", type=float, default=spectrum.DEFAULT_CLASSIFY_TOL)
    p.add_argument("--quadrature-tol", type=float, default=1e-4)
    if point:
        p.add_argument("--xi", type=_vec8, help="explicit octet vector, 8 comma-separated values")
        p.add_argument("--rest", type=_rest_pair, help="rest-frame pair x3,x8")


def _build_parser() -> _Parser:
    parser = _Parser(prog="su3holo", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="cmd", required=True)

    for name in ("classify", "spectrum"):
        p = sub.add_parser(name)
        _add_common(p, point=True)

    p = sub.add_parser("curvature")
    _add_common(p, point=True)
    p.add_argument("--level", type=int, choices=[1, 2, 3], required=True)
    p.add_argument("--route", choices=["spectral", "transported", "parts", "all"],
                   default="spectral")

    p = sub.add_parser("decompose")
    _add_common(p, point=True)
    p.add_argument("--level", type=int, choices=[1, 2, 3], required=True)

    p = sub.add_parser("loop-phase")
    _add_common(p)
    p.add_argument("--level", type=int, choices=[1, 2, 3])
    p.add_argument("--path-file", help="JSON file with a list of 8-vectors")
    p.add_argument("--center", type=_vec8)
    p.add_argument("--axis1", type=_vec8)
    p.add_argument("--axis2", type=_vec8)
    p.add_argument("--radius", type=float)
    p.add_argument("--samples", type=int, default=1000)

    p = sub.add_parser("surface-flux")
    _add_common(p)
    p.add_argument("--level", type=int, choices=[1, 2, 3])
    p.add_argument("--patch-file", help="JSON file with an (nu, nv, 8) grid")
    p.add_argument("--center", type=_vec8)
    p.add_argument("--frame1", type=_vec8)
    p.add_argument("--frame2", type=_vec8)
    p.add_argument("--frame3", type=_vec8)
    p.add_argument("--radius", type=float)
    p.add_argument("--theta-min", type=float, default=0.0)
    p.add_argument("--theta-max", type=float, default=math.pi)
    p.add_argument("--grid", type=_grid_shape, default=(64, 128))

    p = sub.add_parser("monopole")
    _add_common(p)
    p.add_argument("--direction", type=_vec8, required=True)
    p.add_argument("--radius", type=float, required=True)
    p.add_argument("--level", type=int, choices=[1, 2, 3])
    p.add_argument("--offset", type=_vec3, default=None,
                   help="sphere-center offset in the unfolding subspace")

    p = sub.add_parser("sweep")
    _add_common(p)
    p.add_argument("--threads", type=int, default=None,
                   help="accepted for compatibility and ignored")
    p.add_argument("--generator", choices=["ray", "random", "rest-frame"], required=True)
    p.add_argument("--level", type=int, choices=[1, 2, 3])
    p.add_argument("--count", type=int, default=50)
    p.add_argument("--scale", type=float, default=1.0)
    p.add_argument("--ray-from", type=_vec8)
    p.add_argument("--toward", type=_vec8)
    p.add_argument("--delta-start", type=float, default=1e-4)
    p.add_argument("--delta-stop", type=float, default=1e-1)

    p = sub.add_parser("selfcheck")
    _add_common(p)

    p = sub.add_parser("job")
    p.add_argument("file", help="JSON job descriptor")

    return parser


_HANDLERS = {
    "classify": _cmd_classify,
    "spectrum": _cmd_spectrum,
    "curvature": _cmd_curvature,
    "decompose": _cmd_decompose,
    "loop-phase": _cmd_loop_phase,
    "surface-flux": _cmd_surface_flux,
    "monopole": _cmd_monopole,
    "sweep": _cmd_sweep,
    "selfcheck": _cmd_selfcheck,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.cmd == "job":
            from . import job

            return main(job.to_argv(args.file))
        if args.format == "csv" and args.cmd not in ("sweep", "selfcheck"):
            raise ValueError("format: csv is only available for sweep")
        if args.format == "json" and args.cmd == "sweep":
            raise ValueError("format: sweep emits csv only")
        payload = _HANDLERS[args.cmd](args)
        # every JSON result is written here, its schema and command first
        if payload is not None and (args.cmd != "selfcheck" or args.output):
            import json

            head = {"schema": SCHEMA, "command": args.cmd.replace("-", "_")}
            _write(json.dumps(_jsonable({**head, **payload}), indent=2) + "\n", args.output)
        return int(args.cmd == "selfcheck" and payload["passed"] < payload["total"])
    except DegenerateInput as exc:
        sys.stderr.write(f"su3holo: degenerate input: {exc}\n")
        return 2
    except (ValueError, TypeError, OSError) as exc:
        sys.stderr.write(f"su3holo: error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
