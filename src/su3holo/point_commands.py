"""Handlers of the single-point commands: classify, spectrum, curvature and
decompose.

Each takes the parsed command-line arguments and returns the command's
JSON payload; ``su3holo.parser.run`` adds the schema head and writes it.  Only these
four commands import this module.
"""
import numpy as np

from . import algebra, spectrum


def _xi_from_args(args) -> np.ndarray:
    if args.xi is None and args.rest is None:
        raise ValueError("one of --xi or --rest is required")
    if args.xi is not None and args.rest is not None:
        raise ValueError("--xi cannot be given with --rest")
    option, xi = ("--rest", args.rest) if args.xi is None else ("--xi", args.xi)
    if not np.all(np.isfinite(xi)):
        raise ValueError(f"{option} must have finite components")
    if option == "--rest":  # the pair x3, x8 of a rest-frame vector
        xi = np.zeros(8)
        xi[2], xi[7] = args.rest
    return xi


def cmd_classify(args) -> dict:
    xi = _xi_from_args(args)
    s = spectrum.eigenvalues(xi, args.classify_tol)
    return {"xi": xi, "class": s.degeneracy.value, "phi": s.phi,
            "gaps": {"e12": s.e12, "e23": s.e23, "e13": s.e13}}


def cmd_spectrum(args) -> dict:
    xi = _xi_from_args(args)
    s = spectrum.eigenvalues(xi, args.classify_tol)
    quad, cubic = algebra.invariants(xi)
    return {"xi": xi, "energies": [s.e1, s.e2, s.e3], "phi": s.phi,
            "gaps": {"e12": s.e12, "e23": s.e23, "e13": s.e13}, "class": s.degeneracy.value,
            "rest_frame": spectrum._rest_from_levels(s.energies),
            "invariants": {"quadratic": quad, "cubic": cubic}}


def cmd_curvature(args) -> dict:
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


def cmd_decompose(args) -> dict:
    from . import curvature, tensors

    xi, level = _xi_from_args(args), args.level
    c, s, form = curvature._spectral(xi, level, args.classify_tol)  # s at unit scale
    parts = tensors.project_irreducible(form.coeffs)
    rest = spectrum._rest_from_levels(s.energies)
    lam, mu = tensors.octet_coefficients(level, rest, args.classify_tol)
    mu, prefactor, weight = map(float, c.scaled(
        ("octet coefficient mu", mu, -1),
        ("octet prefactor", -1.0 / (4.0 * s.e12 * s.e13 * s.e23), -3),
        ("decouplet weight", tensors.decouplet_weight(level, s.e12, s.e23), -2)))
    return {
        "xi": xi,
        "level": level,
        "octet": parts.octet,
        "decouplet_re": parts.decouplet.real,
        "decouplet_im": parts.decouplet.imag,
        "antidecouplet_re": parts.antidecouplet.real,
        "antidecouplet_im": parts.antidecouplet.imag,
        "octet_expansion": {"lambda": lam, "mu": mu, "prefactor": prefactor},
        "decouplet_weight": weight,
    }
