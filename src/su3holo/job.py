"""Job descriptors: ``su3holo job FILE``.

A ``su3holo/1`` descriptor is a JSON object naming a command, its point or
generator, tolerances and output.  It is translated into the equivalent
command line, which ``cli.main`` then parses and runs, so argparse stays the
one validator of every option.  Only the ``job`` command imports this module.
"""
import json
import math

from .cli import SCHEMA


def _require_field(obj: dict, name: str, kind=None):
    if name not in obj:
        raise ValueError(f"descriptor field {name!r} is missing")
    if kind is not None and not isinstance(obj[name], kind):
        raise ValueError(f"descriptor field {name!r} has the wrong type")
    return obj[name]


def _optional_field(obj: dict, name: str, default):
    # a present field must have the default's JSON type: an object, or a pair
    value = obj.get(name, default)
    if isinstance(default, dict) and not isinstance(value, dict):
        raise ValueError(f"{name}: expected a JSON object")
    if isinstance(default, list) and not (isinstance(value, list) and len(value) == 2):
        raise ValueError(f"{name}: expected a list of two numbers")
    return value


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
    tolerances = _optional_field(desc, "tolerances", {})
    output = _optional_field(desc, "output", {})
    argv = [command]
    if "xi" in desc:
        xi = desc["xi"]
        if not isinstance(xi, list) or len(xi) != 8:
            raise ValueError("xi: expected a list of 8 numbers")
        flag = "--direction" if command == "monopole" else "--xi"
        argv += [flag, ",".join(repr(float(v)) for v in xi)]
    if command == "monopole":
        argv += ["--radius", repr(float(desc.get("radius", 1e-3)))]
    if "level" in desc:
        argv += ["--level", str(int(desc["level"]))]
    if "classify" in tolerances:
        argv += ["--classify-tol", repr(float(tolerances["classify"]))]
    if "quadrature" in tolerances:
        argv += ["--quadrature-tol", repr(float(tolerances["quadrature"]))]
    if "seed" in desc:
        argv += ["--seed", str(int(desc["seed"]))]
    if "path" in output and output["path"]:
        argv += ["--output", str(output["path"])]
    if "format" in output and output["format"]:
        argv += ["--format", str(output["format"])]
    if "generator" in desc:
        argv += _generator_argv(_optional_field(desc, "generator", {}))
    return argv


def _generator_argv(gen: dict) -> list[str]:
    kind = _require_field(gen, "kind", str)
    out: list[str] = []

    def vec(name):
        val = _require_field(gen, name, list)
        return ",".join(repr(float(v)) for v in val)

    if kind == "circle":
        out += ["--center", vec("center8")]
        pair = _require_field(gen, "axis_pair", list)
        if len(pair) != 2:
            raise ValueError("axis_pair: expected two 8-vectors")
        out += ["--axis1", ",".join(repr(float(v)) for v in pair[0])]
        out += ["--axis2", ",".join(repr(float(v)) for v in pair[1])]
        out += ["--radius", repr(float(_require_field(gen, "radius")))]
        out += ["--samples", str(int(gen.get("samples", 1000)))]
    elif kind == "sphere-patch":
        out += ["--center", vec("center8")]
        frame = _require_field(gen, "frame", list)
        if len(frame) != 3:
            raise ValueError("frame: expected three 8-vectors")
        for k, v in enumerate(frame, 1):
            out += [f"--frame{k}", ",".join(repr(float(x)) for x in v)]
        out += ["--radius", repr(float(_require_field(gen, "radius")))]
        theta = _optional_field(gen, "theta_range", [0.0, math.pi])
        out += ["--theta-min", repr(float(theta[0])), "--theta-max", repr(float(theta[1]))]
        grid = _optional_field(gen, "grid", [64, 128])
        out += ["--grid", f"{int(grid[0])}x{int(grid[1])}"]
    elif kind in ("ray", "random", "rest-frame"):
        out += ["--generator", kind]
        if kind == "ray":
            out += ["--ray-from", vec("from8"), "--toward", vec("toward8")]
            deltas = _optional_field(gen, "delta_range", [1e-4, 1e-1])
            out += ["--delta-start", repr(float(deltas[0])),
                    "--delta-stop", repr(float(deltas[1]))]
        if "count" in gen:
            out += ["--count", str(int(gen["count"]))]
        if "scale" in gen:
            out += ["--scale", repr(float(gen["scale"]))]
    else:
        raise ValueError(f"generator.kind: unknown kind {kind!r}")
    return out
