"""Job descriptors: ``su3holo job FILE``.

A ``su3holo/1`` descriptor is a JSON object naming a command, its point or
generator, tolerances and output.  It is translated into the equivalent
command line, which the front end, ``su3holo.parser.run``, then parses and
runs, so argparse stays the one validator and the one holder of defaults.
``_FIELDS`` holds every field the schema defines and the options it becomes;
a field is translated only when given, and one whose command or generator
does not take its option fails there, as that option fails on the command
line.  Here a field is only checked to be defined, to hold a JSON value of
its type, and to share no option with another.  Only the ``job`` command
imports this module.
"""
import json

from . import SCHEMA


def _number(value, field: str) -> str:
    """The argument text of a JSON number."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{field}: expected a number")
    try:
        return repr(float(value))
    except OverflowError:  # a JSON integer beyond the float range
        raise ValueError(f"{field}: expected a number within the float range") from None


def _integer(value, field: str) -> str:
    """The argument text of an integral JSON number (``2.0`` is one)."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{field}: expected an integer")
    return str(value)


def _text(value, field: str) -> str:
    if not isinstance(value, str):
        raise ValueError(f"{field}: expected a string")
    return value


def _items(value, field: str, read, n: int) -> list[str]:
    """The argument texts of a JSON list of ``n`` values, each read by ``read``."""
    if not (isinstance(value, list) and len(value) == n):
        raise ValueError(f"{field}: expected a list of {n} {_NOUNS[read]}")
    return [read(v, field) for v in value]


def _vector(value, field: str) -> str:
    return ",".join(_items(value, field, _number, 8))


def _grid(value, field: str) -> str:
    return "x".join(_items(value, field, _integer, 2))


_NOUNS = {_number: "numbers", _integer: "integers", _vector: "8-vectors"}

# Every field the schema defines, by the object that holds it (None: the
# descriptor itself): the reader of its value and its options.  A field of
# several options holds a list of their values.  A field marked None becomes
# no option: it is read on its own.
_FIELDS = {
    None: {"schema": None, "command": None, "tolerances": None, "output": None,
           "generator": None, "xi": (_vector, "--xi"), "radius": (_number, "--radius"),
           "level": (_integer, "--level"), "seed": (_integer, "--seed")},
    "tolerances": {"classify": (_number, "--classify-tol"),
                   "quadrature": (_number, "--quadrature-tol")},
    "output": {"format": None, "path": (_text, "--output")},
    "generator": {
        "kind": (_text, "--generator"), "center8": (_vector, "--center"),
        "axis_pair": (_vector, "--axis1", "--axis2"),
        "frame": (_vector, "--frame1", "--frame2", "--frame3"),
        "radius": (_number, "--radius"), "samples": (_integer, "--samples"),
        "theta_range": (_number, "--theta-min", "--theta-max"), "grid": (_grid, "--grid"),
        "from8": (_vector, "--ray-from"), "toward8": (_vector, "--toward"),
        "delta_range": (_number, "--delta-start", "--delta-stop"),
        "count": (_integer, "--count"), "scale": (_number, "--scale")},
}
# a loop's and a patch's generator has one kind, which their commands imply
_IMPLIED_KIND = {"loop-phase": "circle", "surface-flux": "sphere-patch"}


def to_argv(path: str) -> list[str]:
    """The command line equivalent to the descriptor in the file ``path``."""
    try:
        with open(path, encoding="utf-8") as fh:
            desc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ValueError(f"cannot read descriptor: {exc}") from exc
    if not isinstance(desc, dict):
        raise ValueError("descriptor must be a JSON object")
    if desc.get("schema") != SCHEMA:
        raise ValueError(f"schema: expected {SCHEMA!r}")
    command = _text(desc.get("command"), "command")
    if command.startswith("-"):  # an option such as --help is no command
        raise ValueError(f"command: expected a command name, got {command!r}")
    given = {}  # option -> argument text
    for name, fields in _FIELDS.items():
        obj = desc if name is None else desc.get(name, {})
        if not isinstance(obj, dict):
            raise ValueError(f"{name}: expected a JSON object")
        for key, value in obj.items():
            field = key if name in (None, "generator") else f"{name}.{key}"
            if key not in fields:
                raise ValueError(f"{field}: not a field of a {SCHEMA} descriptor")
            if fields[key] is None or (key, value) == ("kind", _IMPLIED_KIND.get(command)):
                continue
            read, *options = fields[key]
            n = len(options)
            texts = _items(value, field, read, n) if n > 1 else [read(value, field)]
            for option, text in zip(options, texts):
                if command == "monopole" and option == "--xi":
                    option = "--direction"
                # argparse would keep the last of two values and drop the other silently
                if option in given:
                    raise ValueError(f"descriptor field {option[2:]!r} is given twice")
                given[option] = text
    # the format a command writes is fixed, so the field only has to name it
    writes, named = "csv" if command == "sweep" else "json", desc.get("output", {}).get("format")
    if named and named != writes:
        raise ValueError(f"output.format: {command} writes {writes}, not {named!r}")
    # ``--option=value``: a value such as ``-1,0,...`` or ``-1e-05`` would
    # otherwise be taken for an option flag
    return [command, *(f"{option}={text}" for option, text in given.items())]
