"""The two input rules of ``su3holo.errors``: a level is 1, 2 or 3, and a
tolerance or radius is positive and finite.  Every public callable that
takes such an argument applies its rule before it evaluates any point, and
every command that takes ``--classify-tol`` exits 1 with the rule's message."""
import dataclasses
import inspect
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import su3holo
from su3holo import cli, spectrum
from su3holo.algebra import octet_to_matrix
from su3holo.cli import main
from su3holo.errors import DegenerateInput

GENERIC = np.array([0.3, -0.2, 0.6, 0.1, -0.4, 0.25, 0.15, 1.3])
E8 = np.eye(8)[7]  # on the upper degeneracy cone
RULED = ("level", "tol", "rel_tol", "radius")


def _loop_samples(xi):
    # a loop whose first sample is the point itself
    return np.stack([xi, xi + 1e-2 * np.eye(8)[0], xi + 1e-2 * np.eye(8)[1]])


def _grid(xi):
    return np.stack([np.stack([xi, xi + 1e-2 * np.eye(8)[0]]),
                     np.stack([xi + 1e-2 * np.eye(8)[1], xi + 1e-2 * np.eye(8)[3]])])


# Each public callable with a ruled parameter, and its valid arguments built
# around an octet vector (the generic point, or E8 to show that a rule comes
# before the degeneracy check).  Paths and patches are always built around
# the generic point, as only a valid one can be passed on.
CALLS = {
    "CurvatureTwoForm": lambda xi: {"level": 1, "coeffs": np.zeros((8, 8))},
    "LoopPath": lambda xi: {"samples": _loop_samples(xi)},
    "SingularExpansion": lambda xi: {"level": 1, "epsilon": 1e-3, "e13": 1.0,
                                     "octet": {}, "decouplet": {}, "total": {}},
    "SurfacePatch": lambda xi: {"grid": _grid(xi)},
    "adjoint_matrix": lambda xi: {"a": spectrum.diagonalizer(GENERIC)},
    "circle_loop": lambda xi: {"center": xi, "axis_a": np.eye(8)[0], "axis_b": np.eye(8)[1],
                               "radius": 1e-2, "samples": 16},
    "classify": lambda xi: {"xi": xi},
    "curvature_from_parts": lambda xi: {"xi": xi, "level": 1},
    "curvature_rest_frame": lambda xi: {"spectral": spectrum.eigenvalues(xi), "level": 1},
    "curvature_spectral": lambda xi: {"xi": xi, "level": 1},
    "curvature_transported": lambda xi: {"xi": xi, "level": 1},
    "decouplet_weight": lambda xi: {"level": 1, "e12": 0.4, "e23": 0.7},
    "delta_tensors": lambda xi: {"xi": xi},
    "diagonalizer": lambda xi: {"xi": xi},
    "eigenvalues": lambda xi: {"xi": xi},
    "hermitian": lambda xi: {"matrix": octet_to_matrix(xi)},
    "level_sum": lambda xi: {"xi": xi},
    "loop_phase": lambda xi: {"path": su3holo.LoopPath(_loop_samples(GENERIC)), "level": 1},
    "monopole_flux": lambda xi: {"direction": E8, "radius": 1e-3, "level": 1},
    "octet_coefficients": lambda xi: {"level": 1, "rest_xi": spectrum.rest_frame(xi)},
    "octet_components": lambda xi: {"m": octet_to_matrix(xi)},
    "orbit_invariants": lambda xi: {"xi": xi},
    "orbit_type": lambda xi: {"h": octet_to_matrix(xi)},
    "same_orbit": lambda xi: {"h1": octet_to_matrix(xi), "h2": octet_to_matrix(xi)},
    "singular_expansion": lambda xi: {"epsilon": 1e-3, "e13": 1.0, "level": 1},
    "spherical_patch": lambda xi: {"center": xi, "frame": np.eye(8)[:3], "radius": 1e-2,
                                   "shape": (5, 9)},
    "surface_flux": lambda xi: {"patch": su3holo.SurfacePatch(_grid(GENERIC)), "level": 1},
    "symplectic_kernel_dim": lambda xi: {"h": octet_to_matrix(xi)},
    "symplectic_two_form_fd": lambda xi: {"xi": xi},
    "weighted_sum": lambda xi: {"xi": xi},
}
# public in their modules, not re-exported by the package
EXTRA = {
    "generic_mask": (spectrum.generic_mask, lambda xi: {"xis": xi[None]}),
    "is_special_unitary": (su3holo.algebra.is_special_unitary,
                           lambda xi: {"a": spectrum.diagonalizer(GENERIC)}),
}
TABLE = {**{name: (getattr(su3holo, name), build) for name, build in CALLS.items()}, **EXTRA}


def _ruled(fn) -> list[str]:
    return [p for p in inspect.signature(fn).parameters if p in RULED]


def _cases(params):
    return [(name, param) for name, (fn, _) in TABLE.items() for param in _ruled(fn)
            if param in params]


def test_the_table_holds_every_public_callable_with_a_ruled_parameter():
    found = set()
    for name in su3holo.__all__:
        value = getattr(su3holo, name)
        if callable(value) and not isinstance(value, type(su3holo)):
            try:
                params = inspect.signature(value).parameters
            except ValueError:  # exception types have no signature
                continue
            if any(p in RULED for p in params):
                found.add(name)
    assert found == set(CALLS)
    assert all(_ruled(fn) for fn, _ in TABLE.values())


@pytest.fixture
def no_point_evaluated(monkeypatch):
    # every closed form is reached through one of these
    def evaluated(*args, **kwargs):
        raise AssertionError("a point was evaluated before the input rules")

    monkeypatch.setattr(spectrum, "_closed_form", evaluated)
    monkeypatch.setattr(su3holo.algebra, "cubic_invariant", evaluated)


def _raises_rule(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert type(info.value) is ValueError  # not DegenerateInput or another subclass
    assert str(info.value).startswith(message)


@pytest.mark.parametrize("bad", [0, 4, 1.5, None, "2", float("nan")])
@pytest.mark.parametrize("name", [name for name, _ in _cases(("level",))])
@pytest.mark.parametrize("xi", [GENERIC, E8], ids=["generic", "degenerate"])
def test_a_bad_level_is_rejected_before_any_point(request, name, xi, bad):
    fn, build = TABLE[name]
    kwargs = {**build(xi), "level": bad}
    request.getfixturevalue("no_point_evaluated")
    _raises_rule(lambda: fn(**kwargs), f"level must be 1, 2 or 3, got {bad!r}")


@pytest.mark.parametrize("bad", [0.0, -1e-9, float("nan"), float("inf"), -np.inf, None])
@pytest.mark.parametrize("name, param", _cases(("tol", "rel_tol", "radius")))
@pytest.mark.parametrize("xi", [GENERIC, E8], ids=["generic", "degenerate"])
def test_a_bad_tolerance_is_rejected_before_any_point(request, name, param, xi, bad):
    fn, build = TABLE[name]
    kwargs = {**build(xi), param: bad}
    request.getfixturevalue("no_point_evaluated")
    _raises_rule(lambda: fn(**kwargs), f"{param} must be positive and finite, got {bad!r}")


def test_the_level_rule_comes_before_the_degeneracy_check():
    # E8 is not Generic: with a valid level these raise DegenerateInput
    for fn in (su3holo.curvature_transported, su3holo.curvature_from_parts):
        with pytest.raises(DegenerateInput):
            fn(E8, 2)
        _raises_rule(lambda: fn(E8, 4), "level must be 1, 2 or 3, got 4")


def _same(a, b) -> bool:
    if dataclasses.is_dataclass(a):
        return type(a) is type(b) and all(
            _same(getattr(a, f.name), getattr(b, f.name)) for f in dataclasses.fields(a))
    if isinstance(a, np.ndarray):
        return np.array_equal(a, b)
    if isinstance(a, tuple):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    return type(a) is type(b) and a == b


@pytest.mark.parametrize("level", [2.0, np.int64(2), np.float64(2.0), True])
@pytest.mark.parametrize("name", [name for name, _ in _cases(("level",))])
def test_a_level_equal_to_an_int_works_as_that_int(name, level):
    fn, build = TABLE[name]
    want = 1 if level is True else 2
    kwargs = build(GENERIC)
    got, expected = fn(**{**kwargs, "level": level}), fn(**{**kwargs, "level": want})
    assert _same(got, expected)
    if hasattr(got, "level"):
        assert type(got.level) is int and got.level == want


def test_the_rules_messages_each_have_one_home():
    sources = "".join(p.read_text() for p in Path(su3holo.__file__).parent.glob("*.py"))
    assert sources.count("level must be 1, 2 or 3, got") == 1
    assert sources.count("must be positive and finite, got") == 1


# A valid command line of every command that takes --classify-tol.  The
# spectrum, loop-phase and monopole lines are ones that a NaN or negative
# tolerance used to let through (a wrong class, a phase through the cone,
# an unconverged quadrature).
TOL_COMMANDS = {
    "classify": ["classify", "--xi", "0,0,0.6,0,0,0,0,1.3"],
    "spectrum": ["spectrum", "--xi", "0,0,0.6,0,0,0,0,1.3"],
    "curvature": ["curvature", "--xi", "0,0,0.6,0,0,0,0,1.3", "--level", "1"],
    "decompose": ["decompose", "--rest", "0.6,1.3", "--level", "2"],
    "loop-phase": ["loop-phase", "--center", "1e-3,0,0,0,0,0,0,1",
                   "--axis1", "1,0,0,0,0,0,0,0", "--axis2", "0,1,0,0,0,0,0,0",
                   "--radius", "1e-3", "--samples", "200", "--level", "1"],
    "surface-flux": ["surface-flux", "--center", "0,0,0,0,0,0,0,1",
                     "--frame1", "1,0,0,0,0,0,0,0", "--frame2", "0,1,0,0,0,0,0,0",
                     "--frame3", "0,0,1,0,0,0,0,0", "--radius", "1e-3", "--grid", "9x17"],
    "monopole": ["monopole", "--direction", "0,0,0,0,0,0,0,1", "--radius", "1e-3",
                 "--offset", "1e-3,0,0"],
    "sweep": ["sweep", "--generator", "rest-frame", "--count", "0"],
}


def test_the_cli_table_holds_every_command_with_classify_tol():
    parsers = cli._build_parser().commands
    taking = {name for name, p in parsers.items()
              if any("--classify-tol" in a.option_strings for a in p._actions)}
    assert taking == set(TOL_COMMANDS)


@pytest.mark.parametrize("value", ["0", "-1", "nan", "inf"])
@pytest.mark.parametrize("command", list(TOL_COMMANDS))
def test_a_bad_classify_tol_exits_1_on_every_command(capsys, command, value):
    assert main([*TOL_COMMANDS[command], f"--classify-tol={value}"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("su3holo: error: tol must be positive and finite, "
                            f"got {float(value)!r}\n")


@pytest.mark.parametrize("value", [-1.0, 0.0, float("nan")])
def test_a_bad_classify_tolerance_in_a_descriptor_exits_1(tmp_path, capsys, value):
    desc = {"schema": "su3holo/1", "command": "spectrum", "xi": [0, 0, 0.6, 0, 0, 0, 0, 1.3],
            "tolerances": {"classify": value}}
    (tmp_path / "job.json").write_text(json.dumps(desc))
    assert main(["job", str(tmp_path / "job.json")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"su3holo: error: tol must be positive and finite, got {value!r}\n"


RAY = ["--ray-from", "0,0,0,0,0,0,0,1", "--toward", "0,0,1,0,0,0,0,0"]
GENERATORS = {"random": [], "rest-frame": [], "ray": RAY}
RAY_FIELDS = {"from8": [0, 0, 0, 0, 0, 0, 0, 1], "toward8": [0, 0, 1, 0, 0, 0, 0, 0]}


def _sweep_job(tmp_path, generator: dict) -> list[str]:
    path = tmp_path / "job.json"
    path.write_text(json.dumps({"schema": "su3holo/1", "command": "sweep",
                                "generator": generator}))
    return ["job", str(path)]


def _exits_1_with(capsys, argv, message):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"su3holo: error: {message}\n"


@pytest.mark.parametrize("kind", list(GENERATORS))
def test_a_negative_count_exits_1_for_every_generator(tmp_path, capsys, kind):
    assert main(["sweep", "--generator", kind, *GENERATORS[kind], "--count", "0"]) == 0
    out = capsys.readouterr().out  # a zero count writes the header alone
    assert out.count("\n") == 1 and out.startswith("index,xi1,")
    _exits_1_with(capsys, ["sweep", "--generator", kind, *GENERATORS[kind], "--count=-5"],
                  "--count must be 0 or more, got -5")
    fields = RAY_FIELDS if kind == "ray" else {}
    _exits_1_with(capsys, _sweep_job(tmp_path, {"kind": kind, **fields, "count": -5}),
                  "--count must be 0 or more, got -5")


@pytest.mark.parametrize("value", ["0", "-1e-3", "nan", "inf"])
@pytest.mark.parametrize("option", ["--delta-start", "--delta-stop"])
def test_a_bad_delta_exits_1(capsys, option, value):
    _exits_1_with(capsys, ["sweep", "--generator", "ray", *RAY, f"{option}={value}"],
                  f"{option} must be positive and finite, got {float(value)!r}")


def test_a_bad_delta_range_in_a_descriptor_exits_1(tmp_path, capsys):
    gen = {"kind": "ray", **RAY_FIELDS, "delta_range": [1e-3, -0.1]}
    _exits_1_with(capsys, _sweep_job(tmp_path, gen),
                  "--delta-stop must be positive and finite, got -0.1")
    gen["delta_range"] = [0, 0.1]
    _exits_1_with(capsys, _sweep_job(tmp_path, gen),
                  "--delta-start must be positive and finite, got 0.0")


def test_the_rules_return_python_numbers_and_load_no_numpy():
    from su3holo.errors import check_level, check_positive

    assert type(check_positive("tol", 1)) is float and check_positive("tol", 1) == 1.0
    assert type(check_positive("radius", np.float64(1e-300))) is float
    assert type(check_level(np.int64(3))) is int and check_level(np.int64(3)) == 3
    # the rules sit on the path of ``import su3holo.cli``
    code = "import sys, su3holo.errors; assert 'numpy' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], check=True)
