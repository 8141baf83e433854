"""The two input rules of ``su3holo.errors``: a level is 1, 2 or 3, and a
tolerance or radius is positive and finite.  Every public callable that
takes such an argument applies its rule before it evaluates any point, and
every command that takes ``--classify-tol`` exits 1 with the rule's message."""
import dataclasses
import inspect
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import su3holo
from su3holo import spectrum
from su3holo.algebra import octet_to_matrix
from su3holo.cli import main
from su3holo.errors import DegenerateInput
from su3holo.parser import build

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
    "curvature_batch": lambda xi: {"xis": xi, "level": 1},
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


# Each library argument that must be a number (or numbers), called with one
# that is not, or with a number that breaks its own condition, and the start
# of the message, which names the argument
NOT_NUMBERS = {
    "singular_expansion-epsilon": (lambda: su3holo.singular_expansion("a", 1.0, 1),
                                   "epsilon must be a number, got 'a'"),
    "singular_expansion-e13": (lambda: su3holo.singular_expansion(1e-3, None, 1),
                               "e13 must be a number, got None"),
    "singular_expansion-negative-e13": (lambda: su3holo.singular_expansion(1e-3, -1.0, 1),
                                        "e13 must be positive and finite, got -1.0"),
    "symplectic_two_form_fd-step": (lambda: su3holo.symplectic_two_form_fd(GENERIC, step="a"),
                                    "step must be a number, got 'a'"),
    "spherical_patch-theta_range": (
        lambda: su3holo.spherical_patch(GENERIC, np.eye(8)[:3], 1e-2, theta_range=1.0),
        "theta_range must be two numbers, got 1.0"),
    "spherical_patch-theta_end": (
        lambda: su3holo.spherical_patch(GENERIC, np.eye(8)[:3], 1e-2, theta_range=(0.0, "1")),
        "theta_range must be two numbers, got (0.0, '1')"),
    "diagonalizer-pivots": (lambda: su3holo.diagonalizer(GENERIC, pivots=3),
                            "pivots 3: expected two row indices in 0..2"),
}


@pytest.mark.parametrize("name", list(NOT_NUMBERS))
def test_an_argument_that_is_not_a_number_is_a_value_error_naming_it(name):
    call, message = NOT_NUMBERS[name]
    _raises_rule(call, message)


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
    parsers = build().commands
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


def _sweep_job(tmp_path, generator: dict, **fields) -> list[str]:
    path = tmp_path / "job.json"
    path.write_text(json.dumps({"schema": "su3holo/1", "command": "sweep",
                                "generator": generator, **fields}))
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


@pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
def test_a_non_finite_scale_exits_1(tmp_path, capsys, value):
    # checked where it is read, before any draw; a zero or negative scale is allowed
    message = f"--scale must be finite, got {float(value)!r}"
    _exits_1_with(capsys, ["sweep", "--generator", "random", "--count", "2", f"--scale={value}"],
                  message)
    gen = {"kind": "random", "count": 2, "scale": float(value)}
    _exits_1_with(capsys, _sweep_job(tmp_path, gen), message)


def test_a_scale_that_overflows_a_draw_exits_1_naming_it(tmp_path, capsys):
    # under the suite's warnings-as-errors filter: the overflow warns no more
    message = "--scale 1e+308 takes a drawn point past the float range"
    _exits_1_with(capsys, ["sweep", "--generator", "random", "--count", "3", "--scale=1e308"],
                  message)
    _exits_1_with(capsys, _sweep_job(tmp_path, {"kind": "random", "count": 3, "scale": 1e308}),
                  message)


def test_a_scale_whose_draw_the_closed_form_overflows_exits_1_naming_it(tmp_path, capsys):
    # the draws and their closed form are finite; the first row's quadratic
    # invariant, about 3.5e400, is past the float range
    message = "the quadratic invariant is past the float range at |xi| = 1.86265e+200"
    _exits_1_with(capsys, ["sweep", "--generator", "random", "--count", "3", "--scale=1e200"],
                  message)
    _exits_1_with(capsys, _sweep_job(tmp_path, {"kind": "random", "count": 3, "scale": 1e200}),
                  message)


@pytest.mark.parametrize("scale", [1e80, 1e100])
def test_a_scale_whose_draw_the_frames_overflow_exits_1_naming_it(tmp_path, capsys, scale):
    # above |xi| of about 1e77 the frames of these draws overflowed; at unit
    # scale every field is finite, and each is that of the sweep at the scale
    # times 2**-power, whose draws are those times 2**-power, scaled back by
    # its degree: the components, norm and gaps 1, phi and the class 0, the
    # invariants 2 and 3, the curvature -2
    power = 266 if scale == 1e80 else 332
    rows = []
    for argv in (["sweep", "--generator", "random", "--count", "3", f"--scale={scale}",
                  "--level", "1"],
                 _sweep_job(tmp_path, {"kind": "random", "count": 3, "scale": scale}, level=1),
                 ["sweep", "--generator", "random", "--count", "3",
                  f"--scale={math.ldexp(scale, -power)!r}", "--level", "1"]):
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        rows.append([line.split(",") for line in captured.out.splitlines()[1:]])
    assert rows[0] == rows[1]
    degrees = [1] * 9 + [0] + [1] * 3 + [2, 3] + [-2] * 5  # xi1 ... xi8, norm, phi, ... vmax
    for got, want in zip(rows[0], rows[2]):
        assert got[11] == want[11] == "generic"
        numbers = np.array([float(v) for v in got[1:11] + got[12:]])
        assert np.isfinite(numbers).all()
        assert numbers.tobytes() == np.ldexp(
            [float(v) for v in want[1:11] + want[12:]], np.array(degrees) * power).tobytes()


@pytest.mark.parametrize("kind", ["ray", "rest-frame"])
def test_a_scale_the_generator_does_not_read_exits_1(tmp_path, capsys, kind):
    message = f"the {kind} generator takes no --scale"
    _exits_1_with(capsys, ["sweep", "--generator", kind, *GENERATORS[kind], "--scale=5"],
                  message)
    fields = RAY_FIELDS if kind == "ray" else {}
    _exits_1_with(capsys, _sweep_job(tmp_path, {"kind": kind, **fields, "scale": 1e308}),
                  message)


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
    # the parser, all that ``--help`` loads, imports this module
    code = "import sys, su3holo.errors; assert 'numpy' not in sys.modules"
    src = Path(__file__).resolve().parent.parent / "src"
    subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(src)},
                   check=True)


NON_FINITE_POINTS = [
    (["classify", "--xi", "nan,0,0,0,0,0,0,1"], "--xi"),
    (["spectrum", "--rest", "inf,1"], "--rest"),
    (["curvature", "--level", "1", "--xi", "0,0,inf,0,0,0,0,1"], "--xi"),
    (["decompose", "--level", "2", "--rest", "0.6,nan"], "--rest"),
    (["sweep", *RAY[:1], "nan,0,0,0,0,0,0,1", *RAY[2:]], "--ray-from"),
    (["sweep", *RAY[:3], "0,0,-inf,0,0,0,0,0"], "--toward"),
]


@pytest.mark.parametrize("argv, option", NON_FINITE_POINTS,
                         ids=[f"{argv[0]}{option}" for argv, option in NON_FINITE_POINTS])
def test_a_non_finite_point_option_is_named(capsys, argv, option):
    if argv[0] == "sweep":
        argv = [argv[0], "--generator", "ray", *argv[1:]]
    _exits_1_with(capsys, argv, f"{option} must have finite components")


@pytest.mark.parametrize("command", ["classify", "spectrum", "curvature", "decompose"])
def test_a_non_finite_point_in_a_descriptor_is_named(tmp_path, capsys, command):
    desc = {"schema": "su3holo/1", "command": command, "xi": [0, 0, float("nan"), 0, 0, 0, 0, 1]}
    text = json.dumps({**desc, "level": 1} if command in ("curvature", "decompose") else desc)
    assert "NaN" in text  # Python's json reads and writes NaN
    (tmp_path / "job.json").write_text(text)
    _exits_1_with(capsys, ["job", str(tmp_path / "job.json")], "--xi must have finite components")


@pytest.mark.parametrize("field, option", [("from8", "--ray-from"), ("toward8", "--toward")])
def test_a_non_finite_ray_in_a_descriptor_is_named(tmp_path, capsys, field, option):
    gen = {"kind": "ray", **RAY_FIELDS}
    gen[field] = [float("inf")] + gen[field][1:]
    _exits_1_with(capsys, _sweep_job(tmp_path, gen), f"{option} must have finite components")


def test_a_ray_past_the_float_range_exits_1_without_a_warning(capsys):
    argv = ["sweep", "--generator", "ray", "--ray-from", "1e308,0,0,0,0,0,0,0",
            "--toward", "1e308,0,0,0,0,0,0,0", "--delta-start", "1", "--delta-stop", "2",
            "--count", "3"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _exits_1_with(capsys, argv, "sweep requires finite octet components")


def _antisym_tensor_times_i():
    t = np.zeros((8, 8))
    t[0, 1], t[1, 0] = 1.0, -1.0
    return 1j * su3holo.to_tensor_components(t).tensor


# A typed error of each shape, order or residue check that no other test
# reaches: (id, call, message).
TYPED_ERRORS = [
    ("CoordinateForm", lambda: su3holo.CoordinateForm(0.0, np.zeros(7)),
     r"octet part must have shape \(8,\), got \(7,\)"),
    ("CoordinateForm-xi0", lambda: su3holo.CoordinateForm(np.nan, np.zeros(8)),
     "coordinates must be finite"),
    ("CoordinateForm-xi", lambda: su3holo.CoordinateForm(0.0, np.full(8, np.inf)),
     "coordinates must be finite"),
    ("to_coordinates-finite", lambda: su3holo.to_coordinates(np.full((3, 3), np.nan)),
     "matrix entries must be finite"),
    ("to_coordinates-hermitian", lambda: su3holo.to_coordinates(np.triu(np.ones((3, 3)))),
     "matrix is not Hermitian within tolerance"),
    ("energy_levels", lambda: su3holo.energy_levels(np.zeros(7)),
     r"octet vectors have 8 components, got shape \(7,\)"),
    ("CurvatureTwoForm", lambda: su3holo.CurvatureTwoForm(1, np.zeros((7, 7))),
     r"coefficients must be 8x8, got shape \(7, 7\)"),
    ("SurfacePatch", lambda: su3holo.SurfacePatch(np.zeros((1, 5, 8))),
     r"a patch needs an \(nu, nv, 8\) grid with nu, nv >= 2"),
    ("spherical_patch", lambda: su3holo.spherical_patch(E8, np.eye(8)[:2], 1e-3),
     "frame must hold three 8-component vectors"),
    ("gap_asymptotic", lambda: su3holo.gap_asymptotic(np.zeros(8)),
     "phase angle is undefined for the zero vector"),
    ("classify", lambda: su3holo.classify(np.zeros((2, 8))), "classify takes a single octet vector"),
    ("octet_matrix", lambda: su3holo.octet_matrix(np.zeros(7)),
     r"octet vectors have 8 components, got shape \(7,\)"),
    ("octet_components-shape", lambda: su3holo.octet_components(np.eye(2)),
     r"expected a 3x3 matrix, got shape \(2, 2\)"),
    ("octet_components-residue", lambda: su3holo.octet_components(1j * np.diag([1.0, -1.0, 0.0])),
     "octet components carry a nonreal residue"),
    ("to_tensor_components", lambda: su3holo.to_tensor_components(np.zeros((7, 7))),
     r"coefficient arrays must be 8x8, got shape \(7, 7\)"),
    ("from_tensor_components-shape", lambda: su3holo.from_tensor_components(np.zeros((3, 3, 3))),
     r"tensor components must be 3x3x3x3, got shape \(3, 3, 3\)"),
    ("from_tensor_components-residue",
     lambda: su3holo.from_tensor_components(_antisym_tensor_times_i()),
     "coefficient array carries a nonreal residue"),
    ("project_irreducible", lambda: su3holo.project_irreducible(np.zeros(3)),
     "expected an AntisymTensor or an 8x8 coefficient array"),
    ("octet_coefficients-shape", lambda: su3holo.octet_coefficients(1, np.zeros(7)),
     r"octet vectors have 8 components, got shape \(7,\)"),
    ("octet_coefficients-order", lambda: su3holo.octet_coefficients(1, [0, 0, -0.6, 0, 0, 0, 0, 1.3]),
     r"rest-frame vectors must satisfy xi8 >= xi3/sqrt\(3\) >= 0"),
    ("energy_levels-scalar", lambda: su3holo.energy_levels(1.0),
     r"octet vectors have 8 components, got shape \(\)"),
    ("classify-scalar", lambda: su3holo.classify(1.0),
     r"octet vectors have 8 components, got shape \(\)"),
    ("octet_to_matrix-scalar", lambda: su3holo.octet_to_matrix(1.0),
     r"octet vectors have 8 components, got shape \(\)"),
    ("octet_norm-scalar", lambda: su3holo.octet_norm(1.0),
     r"octet vectors have 8 components, got shape \(\)"),
    ("matrix_to_octet-2x2", lambda: su3holo.matrix_to_octet(np.eye(2)),
     r"expected \(\.\.\., 3, 3\) matrices, got shape \(2, 2\)"),
    ("matrix_to_octet-vector", lambda: su3holo.matrix_to_octet(np.zeros(3)),
     r"expected \(\.\.\., 3, 3\) matrices, got shape \(3,\)"),
    ("matrix_to_octet-3x4", lambda: su3holo.matrix_to_octet(np.zeros((2, 3, 4))),
     r"expected \(\.\.\., 3, 3\) matrices, got shape \(2, 3, 4\)"),
]


@pytest.mark.parametrize("call, message", [case[1:] for case in TYPED_ERRORS],
                         ids=[case[0] for case in TYPED_ERRORS])
def test_each_shape_and_residue_check_raises_its_message(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


def test_a_matrix_that_is_not_3x3_is_not_special_unitary():
    assert su3holo.algebra.is_special_unitary(np.eye(2)) is False


def _nan_at(shape, dtype=float):
    a = np.zeros(shape, dtype)
    a.flat[1] = np.nan
    return a


# Each call that reads an array whole, given one NaN entry, and the function
# its message names: (id, call, caller).
NON_FINITE_ENTRIES = [
    ("project_irreducible", lambda: su3holo.project_irreducible(_nan_at((8, 8))),
     "project_irreducible"),
    ("project_irreducible-tensor", lambda: su3holo.project_irreducible(
        su3holo.AntisymTensor(np.zeros((8, 8)), _nan_at((3, 3, 3, 3), complex))),
     "project_irreducible"),
    ("to_tensor_components", lambda: su3holo.to_tensor_components(_nan_at((8, 8))),
     "to_tensor_components"),
    ("from_tensor_components", lambda: su3holo.from_tensor_components(_nan_at((3, 3, 3, 3))),
     "from_tensor_components"),
    ("reconstitute", lambda: su3holo.reconstitute(su3holo.IrreducibleParts(
        np.zeros((3, 3, 3)), np.zeros((3, 3, 3)), _nan_at(8))), "reconstitute"),
    ("octet_matrix", lambda: su3holo.octet_matrix(_nan_at(8)), "octet_matrix"),
    ("octet_components", lambda: su3holo.octet_components(_nan_at((3, 3))), "octet_components"),
    ("octet_from_coefficients", lambda: su3holo.octet_from_coefficients(_nan_at((8, 8))),
     "octet_from_coefficients"),
    ("matrix_to_octet", lambda: su3holo.matrix_to_octet(_nan_at((3, 3))), "matrix_to_octet"),
    ("CurvatureTwoForm", lambda: su3holo.CurvatureTwoForm(1, _nan_at((8, 8))), "CurvatureTwoForm"),
]


@pytest.mark.parametrize("call, caller", [case[1:] for case in NON_FINITE_ENTRIES],
                         ids=[case[0] for case in NON_FINITE_ENTRIES])
def test_a_non_finite_entry_is_named_without_a_warning(call, caller):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as info:
            call()
    assert type(info.value) is ValueError
    assert str(info.value).startswith(f"{caller} requires finite ")


# Each public callable that takes a single octet vector, as a call of the
# vector, and its message for E8, on the upper degeneracy cone (None where it
# takes E8).
_UPPER = "{} requires a generic spectrum, got upper_degenerate"
SINGLE_VECTOR = {
    "classify": (su3holo.classify, None),
    "eigenvalues": (su3holo.eigenvalues, None),
    "orbit_invariants": (su3holo.orbit_invariants, None),
    "gap_asymptotic": (su3holo.gap_asymptotic, None),
    "diagonalizer": (su3holo.diagonalizer, _UPPER.format("diagonalizer")),
    "curvature_spectral": (lambda xi: su3holo.curvature_spectral(xi, 1),
                           _UPPER.format("curvature_spectral")),
    "curvature_transported": (lambda xi: su3holo.curvature_transported(xi, 1),
                              _UPPER.format("curvature_transported")),
    "curvature_from_parts": (lambda xi: su3holo.curvature_from_parts(xi, 1),
                             _UPPER.format("curvature_from_parts")),
    "weighted_sum": (su3holo.weighted_sum, _UPPER.format("weighted_sum")),
    "level_sum": (su3holo.level_sum, _UPPER.format("level_sum")),
    "symplectic_two_form_fd": (su3holo.symplectic_two_form_fd, _UPPER.format("symplectic_two_form_fd")),
    "delta_tensors": (su3holo.delta_tensors, _UPPER.format("delta_tensors")),
    "octet_coefficients": (lambda xi: su3holo.octet_coefficients(1, xi),
                           "octet coefficients are singular at degeneracies"),
}
BAD_VECTORS = {"nan": np.full(8, np.nan), "batch": np.ones((2, 8)), "e8": E8}


@pytest.mark.parametrize("name, bad", [(name, bad) for name, (_, cone) in SINGLE_VECTOR.items()
                                       for bad in BAD_VECTORS if bad != "e8" or cone])
def test_a_single_vector_entry_point_names_itself(name, bad):
    call, cone = SINGLE_VECTOR[name]
    error, message = {"nan": (ValueError, f"{name} requires finite octet components"),
                      "batch": (ValueError, f"{name} takes a single octet vector"),
                      "e8": (DegenerateInput, cone)}[bad]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error, match=f"^{message}$") as info:
            call(BAD_VECTORS[bad])
    assert type(info.value) is error
