"""Command-line front end.

Subcommands: classify, spectrum, curvature, decompose, loop-phase,
surface-flux, monopole, sweep, selfcheck, job.  Single results are written
as JSON; sweeps as CSV with a fixed, documented column order.  Exit codes:
0 success, 1 usage or descriptor error, 2 degenerate-input rejection.

Every number emitted here is obtained through the library API; the CLI adds
no computation of its own.  ``job FILE`` runs a ``su3holo/1`` JSON
descriptor, which ``su3holo.job`` translates into the equivalent command.
"""
# The parser, which ``su3holo.cli`` loads on its first parse; the docstring is
# the ``--help`` text.  Under ``python -m su3holo.cli`` an import of
# ``su3holo.cli`` here would compile and run the CLI a second time.
import argparse
import math

import numpy as np

from . import __version__
from .spectrum import DEFAULT_CLASSIFY_TOL


class _UsageError(ValueError):
    """An argument that ``parser`` rejects."""

    def __init__(self, parser: argparse.ArgumentParser, message: str):
        super().__init__(message)
        self.parser = parser


class _Parser(argparse.ArgumentParser):
    # raised, not exited: ``main`` reports a usage error on the command line
    # with the usage and exit 1 (argparse's 2 is reserved here for
    # degenerate-input rejection), and one in a job as a descriptor error
    def error(self, message):
        raise _UsageError(self, message)


class _CommandParser(_Parser):
    # A command's parser reports the arguments it does not take itself, with
    # its own usage; those left to the top-level parser came before the command.
    def parse_known_args(self, args=None, namespace=None):
        args, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return args, extras


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


def build() -> _Parser:
    """The parser of every command: the one place that knows which options a
    command takes, each only where its handler reads it, and their defaults."""
    parser = _Parser(prog="su3holo", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="cmd", required=True, parser_class=_CommandParser)
    parser.commands = sub.choices  # the parser of each command, by name

    def command(name, point=False, classify_tol=True, seed=False):
        p = sub.add_parser(name)
        p.add_argument("--output", help="output path (default: stdout)")
        if seed:
            p.add_argument("--seed", type=int, default=0, help="seed for all randomness")
        if classify_tol:
            p.add_argument("--classify-tol", type=float, default=DEFAULT_CLASSIFY_TOL)
        if point:
            p.add_argument("--xi", type=_vec8,
                           help="explicit octet vector, 8 comma-separated values")
            p.add_argument("--rest", type=_rest_pair, help="rest-frame pair x3,x8")
        return p

    for name in ("classify", "spectrum"):
        command(name, point=True)

    p = command("curvature", point=True)
    p.add_argument("--level", type=int, choices=[1, 2, 3], required=True)
    p.add_argument("--route", choices=["spectral", "transported", "parts", "all"],
                   default="spectral")

    p = command("decompose", point=True)
    p.add_argument("--level", type=int, choices=[1, 2, 3], required=True)

    p = command("loop-phase")
    p.add_argument("--level", type=int, choices=[1, 2, 3])
    p.add_argument("--path-file", help="JSON file with a list of 8-vectors")
    p.add_argument("--center", type=_vec8)
    p.add_argument("--axis1", type=_vec8)
    p.add_argument("--axis2", type=_vec8)
    p.add_argument("--radius", type=float)
    p.add_argument("--samples", type=int, default=1000)

    p = command("surface-flux")
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

    p = command("monopole")
    p.add_argument("--quadrature-tol", type=float, default=1e-4)
    p.add_argument("--direction", type=_vec8, required=True)
    p.add_argument("--radius", type=float, required=True)
    p.add_argument("--level", type=int, choices=[1, 2, 3])
    p.add_argument("--offset", type=_vec3, default=None,
                   help="sphere-center offset in the unfolding subspace")

    p = command("sweep", seed=True)
    p.add_argument("--generator", choices=["ray", "random", "rest-frame"], required=True)
    p.add_argument("--level", type=int, choices=[1, 2, 3])
    p.add_argument("--count", type=int, default=50)
    p.add_argument("--scale", type=float)  # the random generator's alone, 1.0 if not given
    p.add_argument("--ray-from", type=_vec8)
    p.add_argument("--toward", type=_vec8)
    p.add_argument("--delta-start", type=float, default=1e-4)
    p.add_argument("--delta-stop", type=float, default=1e-1)

    command("selfcheck", classify_tol=False, seed=True)

    p = sub.add_parser("job")
    p.add_argument("file", help="JSON job descriptor")

    return parser
