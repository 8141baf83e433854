"""Job descriptors: ``su3holo job FILE``.

A ``su3holo/1`` descriptor is a JSON object naming a command, its point or
generator, tolerances and output.  It is translated into the equivalent
command line, which the front end, ``su3holo.parser.run``, then parses and
runs, so argparse stays the one validator and the one holder of defaults: a
field becomes a flag only when given, and one whose command does not take its
option fails there as an unrecognized argument.  Here each field is only
checked to hold a JSON value of its type, and no option may come from two
fields.  Only the ``job`` command imports this module.
"""
import json

from . import SCHEMA


def _require_field(obj: dict, name: str, kind=None):
    if name not in obj:
        raise ValueError(f"descriptor field {name!r} is missing")
    if kind is not None and not isinstance(obj[name], kind):
        raise ValueError(f"descriptor field {name!r} has the wrong type")
    return obj[name]


def _object_field(obj: dict, name: str) -> dict:
    value = obj.get(name, {})
    if not isinstance(value, dict):
        raise ValueError(f"{name}: expected a JSON object")
    return value


def _pair(value, field: str, kind=float) -> list[str]:
    """The argument texts of a list of two JSON numbers."""
    if not (isinstance(value, list) and len(value) == 2):
        raise ValueError(f"{field}: expected a list of two numbers")
    return [_number(v, field, kind) for v in value]


def _number(value, field: str, kind=float) -> str:
    """The argument text of a JSON number; ``kind=int`` also requires an integral one."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or kind is int and isinstance(value, float) and not value.is_integer()):
        raise ValueError(f"{field}: expected {'an integer' if kind is int else 'a number'}")
    try:
        return str(int(value)) if kind is int else repr(float(value))
    except OverflowError:  # a JSON integer beyond the float range
        raise ValueError(f"{field}: expected a number within the float range") from None


def _vector(value, field: str) -> str:
    """The argument text of a list of 8 JSON numbers."""
    if not (isinstance(value, list) and len(value) == 8):
        raise ValueError(f"{field}: expected a list of 8 numbers")
    return ",".join(_number(v, field) for v in value)


def to_argv(path: str) -> list[str]:
    """The command line equivalent to the descriptor in the file ``path``."""
    try:
        with open(path, encoding="utf-8") as fh:
            desc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ValueError(f"cannot read descriptor: {exc}") from exc
    if not isinstance(desc, dict):
        raise ValueError("descriptor must be a JSON object")
    if _require_field(desc, "schema", str) != SCHEMA:
        raise ValueError(f"schema: expected {SCHEMA!r}")
    command = _require_field(desc, "command", str)
    tolerances = _object_field(desc, "tolerances")
    output = _object_field(desc, "output")
    # the format a command writes is fixed, so the field only has to name it
    writes = "csv" if command == "sweep" else "json"
    if output.get("format") and output["format"] != writes:
        raise ValueError(f"output.format: {command} writes {writes}, not {output['format']!r}")
    argv = []  # flag, value, flag, value, ...
    if "xi" in desc:
        argv += ["--direction" if command == "monopole" else "--xi", _vector(desc["xi"], "xi")]
    if "radius" in desc:
        argv += ["--radius", _number(desc["radius"], "radius")]
    if "level" in desc:
        argv += ["--level", _number(desc["level"], "level", int)]
    if "classify" in tolerances:
        argv += ["--classify-tol", _number(tolerances["classify"], "tolerances.classify")]
    if "quadrature" in tolerances:
        argv += ["--quadrature-tol", _number(tolerances["quadrature"], "tolerances.quadrature")]
    if "seed" in desc:
        argv += ["--seed", _number(desc["seed"], "seed", int)]
    if "path" in output and output["path"]:
        argv += ["--output", str(output["path"])]
    if "generator" in desc:
        argv += _generator_argv(_object_field(desc, "generator"))
    # argparse would keep the last of two values and drop the other silently
    flags = argv[::2]
    for flag in flags:
        if flags.count(flag) > 1:
            raise ValueError(f"descriptor field {flag[2:]!r} is given twice")
    # ``--flag=value``: a value such as ``-1,0,...`` or ``-1e-05`` would
    # otherwise be taken for an option flag
    return [command, *(f"{flag}={value}" for flag, value in zip(argv[::2], argv[1::2]))]


def _generator_argv(gen: dict) -> list[str]:
    kind = _require_field(gen, "kind", str)
    out: list[str] = []

    def vec(name):
        return _vector(_require_field(gen, name, list), name)

    if kind == "circle":
        out += ["--center", vec("center8")]
        pair = _require_field(gen, "axis_pair", list)
        if len(pair) != 2:
            raise ValueError("axis_pair: expected two 8-vectors")
        out += ["--axis1", _vector(pair[0], "axis_pair"),
                "--axis2", _vector(pair[1], "axis_pair")]
        out += ["--radius", _number(_require_field(gen, "radius"), "radius")]
        if "samples" in gen:
            out += ["--samples", _number(gen["samples"], "samples", int)]
    elif kind == "sphere-patch":
        out += ["--center", vec("center8")]
        frame = _require_field(gen, "frame", list)
        if len(frame) != 3:
            raise ValueError("frame: expected three 8-vectors")
        for k, v in enumerate(frame, 1):
            out += [f"--frame{k}", _vector(v, "frame")]
        out += ["--radius", _number(_require_field(gen, "radius"), "radius")]
        if "theta_range" in gen:
            theta = _pair(gen["theta_range"], "theta_range")
            out += ["--theta-min", theta[0], "--theta-max", theta[1]]
        if "grid" in gen:
            out += ["--grid", "x".join(_pair(gen["grid"], "grid", int))]
    elif kind in ("ray", "random", "rest-frame"):
        out += ["--generator", kind]
        if kind == "ray":
            out += ["--ray-from", vec("from8"), "--toward", vec("toward8")]
            if "delta_range" in gen:
                deltas = _pair(gen["delta_range"], "delta_range")
                out += ["--delta-start", deltas[0], "--delta-stop", deltas[1]]
        if "count" in gen:
            out += ["--count", _number(gen["count"], "count", int)]
        if "scale" in gen:
            out += ["--scale", _number(gen["scale"], "scale")]
    else:
        raise ValueError(f"generator.kind: unknown kind {kind!r}")
    return out
