"""Command-line entry point.  The parser and the ``--help`` text are in
``su3holo.parser``, which ``main`` loads on its first call, so importing this
module loads neither it nor ``argparse``."""
import functools
import math
import sys
from importlib import import_module

import numpy as np

from . import SCHEMA
from .errors import DegenerateInput


# This module only dispatches.  ``main`` imports the handler of the parsed
# command, ``cmd_<command>``, from the module of its group below, so with no
# bytecode cache a run compiles only the handlers it needs.  A handler returns
# its JSON payload, or the CSV text of a sweep; ``main`` writes it.  Handler
# modules do not import this one.
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


@functools.cache
def _build_parser():
    """The parser of every command, built once per process."""
    from .parser import build

    return build()


def main(argv=None) -> int:
    parser = _build_parser()
    from .parser import _UsageError

    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        exc.parser.print_usage(sys.stderr)
        sys.stderr.write(f"{exc.parser.prog}: error: {exc}\n")
        sys.exit(1)
    try:
        if args.cmd == "job":
            from . import job

            args = parser.parse_args(job.to_argv(args.file))
        module = import_module(f"{__package__}.{_HANDLER_MODULES[args.cmd]}")
        payload = getattr(module, "cmd_" + args.cmd.replace("-", "_"))(args)
        if isinstance(payload, str):  # the CSV text of a sweep
            _write(payload, args.output)
            return 0
        # every JSON result is written here, its schema and command first
        if args.cmd != "selfcheck" or args.output:
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
