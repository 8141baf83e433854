"""Command-line front end.

Subcommands: classify, spectrum, curvature, decompose, loop-phase,
surface-flux, monopole, sweep, selfcheck, job.  Single results are written
as JSON; sweeps as CSV with a fixed, documented column order.  Exit codes:
0 success, 1 usage or descriptor error, 2 degenerate-input rejection.

Every number emitted here is obtained through the library API; the CLI adds
no computation of its own.  ``job FILE`` runs a ``su3holo/1`` JSON
descriptor, which ``su3holo.job`` translates into the equivalent command.
A --grid (nu * nv points), --samples or --count may ask for at most
10000000 points; a larger size exits 1 before anything is computed.
"""
# The front end that ``su3holo.cli.main`` loads on its first call: the parser
# (the docstring is its ``--help`` text), the dispatch and the output writers.
# numpy loads only with a vector option or a handler.  Under ``python -m
# su3holo.cli`` an import of ``su3holo.cli`` here would run the CLI twice.
import argparse
import functools
import math
import sys
from importlib import import_module

from . import SCHEMA, __version__
from .errors import DEFAULT_CLASSIFY_TOL, DegenerateInput


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


def _numbers(text: str, n: int, message: str) -> "np.ndarray":
    # the n comma-separated numbers of a vector option, as an array
    import numpy as np

    parts = text.split(",")
    if len(parts) != n:
        raise argparse.ArgumentTypeError(message)
    return np.array([float(p) for p in parts])


def _vec8(text: str) -> "np.ndarray":
    return _numbers(text, 8, "expected 8 comma-separated numbers")


def _vec3(text: str) -> "np.ndarray":
    return _numbers(text, 3, "expected 3 comma-separated numbers")


def _rest_pair(text: str) -> "np.ndarray":
    return _numbers(text, 2, "expected x3,x8")  # the components 3 and 8 of --rest


# The most points a --grid (nu * nv), --samples or --count may ask for.  A
# larger size is rejected as it is parsed, before any array is built, and as
# input, not usage: with one message line and exit 1.
MAX_POINTS = 10**7
_CAPPED = f"at most {MAX_POINTS} points"


def _capped(option: str, points: int) -> int:
    if points > MAX_POINTS:
        raise OverflowError(f"{option} asks for {points} points, more than {MAX_POINTS}")
    return points


def _size(option: str):
    """The type of a size option: an int of at most ``MAX_POINTS``."""
    def size(text: str) -> int:
        return _capped(option, int(text))
    return size


def _grid_shape(text: str) -> tuple[int, int]:
    parts = text.lower().split("x")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("expected NUxNV, e.g. 64x128")
    nu, nv = int(parts[0]), int(parts[1])
    _capped("--grid", max(nu, 0) * max(nv, 0))
    return nu, nv


@functools.cache
def build() -> _Parser:
    """The parser of every command, built once per process: the one place that
    knows which options a command takes, each only where its handler reads
    it, and their defaults."""
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
    # the circle's alone, 1000 if not given
    p.add_argument("--samples", type=_size("--samples"), help=_CAPPED)

    p = command("surface-flux")
    p.add_argument("--level", type=int, choices=[1, 2, 3])
    p.add_argument("--patch-file", help="JSON file with an (nu, nv, 8) grid")
    p.add_argument("--center", type=_vec8)
    p.add_argument("--frame1", type=_vec8)
    p.add_argument("--frame2", type=_vec8)
    p.add_argument("--frame3", type=_vec8)
    p.add_argument("--radius", type=float)
    # the sphere's alone, 0, pi and 64x128 if not given
    p.add_argument("--theta-min", type=float)
    p.add_argument("--theta-max", type=float)
    p.add_argument("--grid", type=_grid_shape, help=_CAPPED)

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
    p.add_argument("--count", type=_size("--count"), default=50, help=_CAPPED)
    p.add_argument("--scale", type=float)  # the random generator's alone, 1.0 if not given
    p.add_argument("--ray-from", type=_vec8)
    p.add_argument("--toward", type=_vec8)
    # the ray generator's alone, 1e-4 and 1e-1 if not given
    p.add_argument("--delta-start", type=float)
    p.add_argument("--delta-stop", type=float)

    command("selfcheck", classify_tol=False, seed=True)

    p = sub.add_parser("job")
    p.add_argument("file", help="JSON job descriptor")

    return parser


# ``run`` imports the handler of the parsed command, ``cmd_<command>``, from
# the module of its group below, so with no bytecode cache a run compiles only
# the handlers it needs.  A handler returns its JSON payload, or the CSV text
# of a sweep as a list of strings; ``run`` writes it.  Handler modules do not
# import this one.
_HANDLER_MODULES = {
    "classify": "point_commands",
    "spectrum": "point_commands",
    "curvature": "point_commands",
    "decompose": "point_commands",
    "loop-phase": "geometry_commands",
    "surface-flux": "geometry_commands",
    "monopole": "geometry_commands",
    "sweep": "sweep",
    "selfcheck": "selfcheck",
}


def _jsonable(value):
    import numpy as np

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


def _write(text: list[str], path: str | None) -> None:
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(text)
    else:
        sys.stdout.writelines(text)


def run(argv=None) -> int:
    """``su3holo.cli.main``: parse ``argv``, run the command, write its result.
    Returns 0, 1 on an error or failed selfcheck, 2 on degenerate input."""
    parser = build()
    try:
        try:
            args = parser.parse_args(argv)
        except _UsageError as exc:  # a job's is a descriptor error, below
            exc.parser.print_usage(sys.stderr)
            sys.stderr.write(f"{exc.parser.prog}: error: {exc}\n")
            sys.exit(1)
        if args.cmd == "job":
            from .job import to_argv  # ``from . import job`` would load su3holo._exports

            args = parser.parse_args(to_argv(args.file))
        module = import_module(f"{__package__}.{_HANDLER_MODULES[args.cmd]}")
        payload = getattr(module, "cmd_" + args.cmd.replace("-", "_"))(args)
        if isinstance(payload, list):  # the CSV text of a sweep
            _write(payload, args.output)
            return 0
        # every JSON result is written here, its schema and command first
        if args.cmd != "selfcheck" or args.output:
            import json

            head = {"schema": SCHEMA, "command": args.cmd.replace("-", "_")}
            _write([json.dumps(_jsonable({**head, **payload}), indent=2) + "\n"], args.output)
        return int(args.cmd == "selfcheck" and payload["passed"] < payload["total"])
    except DegenerateInput as exc:
        sys.stderr.write(f"su3holo: degenerate input: {exc}\n")
        return 2
    except (ValueError, TypeError, OSError, OverflowError) as exc:
        sys.stderr.write(f"su3holo: error: {exc}\n")
        return 1
