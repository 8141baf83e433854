"""Handlers of the loop, surface and sphere commands: loop-phase,
surface-flux and monopole.

Each takes the parsed command-line arguments and returns the command's
JSON payload; ``su3holo.parser.run`` adds the schema head and writes it.  Only these
three commands import this module.
"""
import numpy as np


def _points_from_args(args, what: str, file_option: str, names: tuple, holds: str,
                      optional: tuple) -> np.ndarray | None:
    """The points in the ``--FILE_OPTION`` JSON file, which ``holds`` them,
    or None once all of ``names`` are set.  The file excludes ``names`` and
    the generator's ``optional`` options, which have no parser default."""
    path = getattr(args, file_option.replace("-", "_"))
    if path:
        for name in names + optional:
            if getattr(args, name) is not None:
                raise ValueError(f"--{file_option} cannot be given with "
                                 f"--{name.replace('_', '-')}")
        import json

        with open(path, encoding="utf-8") as fh:
            try:
                points = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ValueError(f"cannot read --{file_option}: {exc}") from None
        try:
            return np.array(points, dtype=float)
        except (TypeError, ValueError):  # an object, a ragged list, a string
            raise ValueError(f"--{file_option}: expected {holds}") from None
    for name in names:
        if getattr(args, name) is None:
            raise ValueError(f"{what} generator needs --{name} (or --{file_option})")
    return None


def cmd_loop_phase(args) -> dict:
    from . import holonomy

    path = _points_from_args(args, "loop", "path-file", ("center", "axis1", "axis2", "radius"),
                             "a JSON list of 8-component points", ("samples",))
    if path is not None:
        loop = holonomy.LoopPath(path, args.classify_tol)
    else:
        samples = 1000 if args.samples is None else args.samples
        loop = holonomy.circle_loop(args.center, args.axis1, args.axis2, args.radius,
                                    samples, args.classify_tol)
    payload = {"samples": len(loop.samples)}
    if args.level:
        payload["level"] = args.level
        payload["phase"] = holonomy.loop_phase(loop, args.level)
    else:
        phases, total = holonomy.phase_sum_rule_check(loop)
        payload["phases"] = {"level1": phases[0], "level2": phases[1], "level3": phases[2]}
        payload["sum_mod_2pi"] = total
    return payload


def cmd_surface_flux(args) -> dict:
    from . import holonomy

    grid = _points_from_args(args, "patch", "patch-file",
                             ("center", "frame1", "frame2", "frame3", "radius"),
                             "a JSON (nu, nv, 8) grid of numbers",
                             ("grid", "theta_min", "theta_max"))
    if grid is not None:
        patch = holonomy.SurfacePatch(grid, args.classify_tol)
    else:
        theta_range = (0.0 if args.theta_min is None else args.theta_min,
                       np.pi if args.theta_max is None else args.theta_max)
        patch = holonomy.spherical_patch(
            args.center, np.stack([args.frame1, args.frame2, args.frame3]), args.radius,
            theta_range, (64, 128) if args.grid is None else args.grid, args.classify_tol,
        )
    level = args.level or 1
    return {"level": level, "grid": list(patch.grid.shape[:2]),
            "flux": holonomy.surface_flux(patch, level)}


def cmd_monopole(args) -> dict:
    from . import limits

    level = args.level or 1
    flux = limits.monopole_flux(
        args.direction, args.radius, level,
        center_offset=args.offset, rel_tol=args.quadrature_tol,
        tol=args.classify_tol,
    )
    return {"direction": args.direction, "radius": args.radius, "level": level,
            "flux": flux, "flux_over_2pi": flux / (2.0 * np.pi)}
