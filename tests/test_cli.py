import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from su3holo.cli import main
from su3holo.parser import _grid_shape, _rest_pair, _vec3, _vec8, build

E8 = "0,0,0,0,0,0,0,1"
REST = "0,0,0.6,0,0,0,0,1.3"


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_classify_matches_documented_example(capsys):
    code, doc = run_json(capsys, ["classify", "--xi", E8])
    assert code == 0
    assert doc["schema"] == "su3holo/1"
    assert doc["class"] == "upper_degenerate"
    assert doc["phi"] == pytest.approx(0.5235988, abs=1e-7)
    assert doc["gaps"]["e12"] == 0.0
    assert doc["gaps"]["e23"] == pytest.approx(0.8660254, abs=1e-7)


def test_classify_zero_vector_reports_null_phi(capsys):
    code, doc = run_json(capsys, ["classify", "--xi", "0,0,0,0,0,0,0,0"])
    assert code == 0
    assert doc["class"] == "triple_degenerate"
    assert doc["phi"] is None


def test_spectrum_payload(capsys):
    code, doc = run_json(capsys, ["spectrum", "--rest", "0.6,1.3"])
    assert code == 0
    energies = doc["energies"]
    assert energies[0] >= energies[1] >= energies[2]
    assert sum(energies) == pytest.approx(0.0, abs=1e-12)
    assert doc["invariants"]["quadratic"] == pytest.approx(0.6**2 + 1.3**2)
    assert doc["rest_frame"][2] == pytest.approx(doc["gaps"]["e12"])


def test_curvature_all_routes_agree(capsys):
    code, doc = run_json(capsys, ["curvature", "--rest", "0.6,1.3", "--level", "1",
                                  "--route", "all"])
    assert code == 0
    assert set(doc["coefficients"]) == {"spectral", "transported", "parts"}
    assert doc["max_pairwise_deviation"] < 1e-9
    spectral = np.array(doc["coefficients"]["spectral"])
    assert spectral[0, 1] == pytest.approx(1 / (2 * 0.36))


def test_curvature_values_round_trip_through_json(capsys):
    code, doc = run_json(capsys, ["curvature", "--xi", REST, "--level", "2"])
    assert code == 0
    from su3holo.curvature import curvature_spectral
    want = curvature_spectral(np.array([0, 0, 0.6, 0, 0, 0, 0, 1.3]), 2).coeffs
    np.testing.assert_array_equal(np.array(doc["coefficients"]["spectral"]), want)


def test_decompose_payload(capsys):
    code, doc = run_json(capsys, ["decompose", "--rest", "0.6,1.3", "--level", "1"])
    assert code == 0
    w123 = doc["decouplet_im"][0][1][2]
    assert doc["decouplet_re"][0][1][2] == pytest.approx(0.0, abs=1e-12)
    assert w123 != 0.0
    assert doc["octet_expansion"]["lambda"] + 0 == doc["octet_expansion"]["lambda"]


def test_degenerate_input_exits_2(capsys):
    assert main(["curvature", "--xi", E8, "--level", "1"]) == 2
    assert "degenerate" in capsys.readouterr().err


@pytest.mark.parametrize("xi", ["nan,0,0,0,0,0,0,1", "0,0,inf,0,0,0,0,1"])
def test_classify_non_finite_input_exits_1(capsys, xi):
    assert main(["classify", "--xi", xi]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "finite" in captured.err


def _scaled_text(text: str, power: int) -> str:
    """Comma-separated numbers times ``2**power``, exactly, each as its repr."""
    return ",".join(repr(math.ldexp(float(v), power)) for v in text.split(","))


def _run_json(capsys, argv) -> dict:
    """The JSON payload of a command that exits 0 with no warning and no stderr."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    return json.loads(captured.out)


def _assert_scaled(got, want, power: int) -> None:
    """Every number of ``got`` is ``want``'s times ``2**power``, bit for bit."""
    assert np.asarray(got).tobytes() == np.ldexp(np.asarray(want, dtype=float), power).tobytes()


@pytest.mark.parametrize("command", [["classify"], ["spectrum"], ["curvature", "--level", "1"]])
def test_closed_form_overflow_exits_1(capsys, command):
    # |xi|^3 overflows at this |xi|, 3.7e110: each result is that of the point
    # scaled by 2**-366, scaled back by its degree, and spectrum's cubic
    # invariant, about 5e331, is past the float range
    xi = "1e110,2e110,0,0,0,0,0,3e110"
    if command == ["spectrum"]:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([*command, "--xi", xi]) == 1
        assert capsys.readouterr() == ("", "su3holo: error: the cubic invariant is past the "
                                           "float range at |xi| = 3.74166e+110\n")
        return
    got = _run_json(capsys, [*command, "--xi", xi])
    want = _run_json(capsys, [*command, "--xi", _scaled_text(xi, -366)])
    if command == ["classify"]:
        assert got["class"] == want["class"] == "generic" and got["phi"] == want["phi"]
        _assert_scaled(list(got["gaps"].values()), list(want["gaps"].values()), 366)
    else:
        _assert_scaled(got["coefficients"]["spectral"], want["coefficients"]["spectral"], -732)


def test_usage_error_exits_1(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["classify", "--bogus"])
    assert exc.value.code == 1
    assert main(["classify"]) == 1  # neither --xi nor --rest


def test_loop_phase_circle(capsys):
    code, doc = run_json(capsys, [
        "loop-phase", "--center", E8,
        "--axis1", "1,0,0,0,0,0,0,0", "--axis2", "0,1,0,0,0,0,0,0",
        "--radius", "1e-3", "--samples", "800",
    ])
    assert code == 0
    assert doc["phases"]["level1"] == pytest.approx(-np.pi, abs=1e-3)
    assert abs(doc["sum_mod_2pi"]) < 1e-3


def test_surface_flux_sphere(capsys):
    code, doc = run_json(capsys, [
        "surface-flux", "--center", E8,
        "--frame1", "1,0,0,0,0,0,0,0", "--frame2", "0,1,0,0,0,0,0,0",
        "--frame3", "0,0,1,0,0,0,0,0",
        "--radius", "1e-3", "--grid", "101x201", "--level", "1",
    ])
    assert code == 0
    assert abs(abs(doc["flux"]) - 2 * np.pi) < 0.05


def test_monopole_command(capsys):
    code, doc = run_json(capsys, ["monopole", "--direction", E8, "--radius", "1e-3",
                                  "--level", "1"])
    assert code == 0
    assert abs(doc["flux_over_2pi"]) == pytest.approx(1.0, abs=1e-3)


@pytest.mark.parametrize("tol", ["0", "-1e-4", "nan"])
def test_monopole_bad_quadrature_tol_exits_1(capsys, tol):
    assert main(["monopole", "--direction", E8, "--radius", "1e-3",
                 f"--quadrature-tol={tol}"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "rel_tol" in captured.err


def test_sweep_is_deterministic_with_fixed_columns(capsys):
    argv = ["sweep", "--generator", "random", "--count", "5", "--seed", "42",
            "--level", "1"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    second = capsys.readouterr().out
    assert first == second
    header = first.splitlines()[0]
    assert header == ("index,xi1,xi2,xi3,xi4,xi5,xi6,xi7,xi8,norm,phi,class,"
                      "e12,e23,e13,quadratic,cubic,v12,v45,v67,v38,vmax")
    assert len(first.splitlines()) == 6


def test_short_random_sweep_exits_1(capsys, tmp_path):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--generator", "random", "--count", "3", "--scale", "0",
                 "--output", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "su3holo: error: random generator found 0 of 3 generic points\n"
    assert not out.exists()


def _one_draw_at_a_time(rng, count, tol, scale):
    # the random generator's reference: classify each draw as it is made
    from su3holo.spectrum import DegeneracyClass, classify

    pts, tries = [], 0
    while len(pts) < count and tries < 100 * count:
        xi = scale * rng.standard_normal(8)
        tries += 1
        if classify(xi, tol) is DegeneracyClass.GENERIC:
            pts.append(xi)
    if len(pts) < count:
        raise ValueError(f"random generator found {len(pts)} of {count} generic points")
    return np.array(pts)


@pytest.mark.parametrize("count, tol, scale", [
    (500, 1e-9, 1.0), (300, 0.3, 2.0), (40, 0.6, 1.0), (3, 1e-9, 0.0), (3, 1e-9, 1e200),
    (3, 1e-9, np.inf),
])
def test_random_generator_blocks_equal_one_draw_at_a_time(count, tol, scale):
    from su3holo.sweep import random_generic

    results = []
    for generate in (random_generic, _one_draw_at_a_time):
        rng = np.random.default_rng(7)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                results.append((generate(rng, count, tol, scale).tobytes(),
                                rng.bit_generator.state))
            except ValueError as exc:
                results.append(str(exc))
    assert results[0] == results[1]


@pytest.mark.parametrize("argv", [
    ["--generator", "random", "--count", "12", "--seed", "3", "--level", "2"],
    # the first rows lie on the cone: their curvature fields are nan
    ["--generator", "ray", "--ray-from", E8, "--toward", "0,0,1,0,0,0,0,0",
     "--delta-start", "1e-12", "--delta-stop", "1e-1", "--count", "8", "--level", "1"],
    ["--generator", "rest-frame", "--count", "6", "--seed", "4"],
], ids=["random-level", "ray-to-cone", "rest-frame"])
def test_sweep_csv_matches_dictwriter(capsys, argv):
    import csv
    import io

    assert main(["sweep", *argv]) == 0
    text = capsys.readouterr().out
    reader = csv.DictReader(io.StringIO(text))
    rows = list(reader)
    if "ray" in argv:
        assert rows[0]["class"] != "generic" and rows[0]["v12"] == "nan"
        assert rows[-1]["class"] == "generic" and rows[-1]["v12"] != "nan"
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=reader.fieldnames, lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    assert text.encode() == buf.getvalue().encode()


@pytest.mark.parametrize("route", ["transported", "all"])
def test_transported_route_too_close_to_a_cone_is_degenerate_input(capsys, route):
    # relative gap about 1e-6: the transported frame fails adjoint_matrix's
    # 1e-8 unitarity check, which exited 1 naming an argument ``a``
    xi = ("-0.15354838244663183,0.14709016846474693,0.20558194016554143,-0.17255288768674745,"
          "0.27033533123506615,-0.7347107559294185,0.1788309545874763,0.4877369648763085")
    assert main(["curvature", f"--xi={xi}", "--route", route, "--level", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("su3holo: degenerate input: curvature_transported: the frame is "
                            "not unitary to 1e-8 this close to a degeneracy\n")


def test_cli_import_defers_unused_modules():
    # A fresh interpreter: pytest itself has loaded some of these modules.
    src = Path(__file__).resolve().parent.parent / "src"
    deferred = ["concurrent.futures", "csv", "numpy.polynomial", "su3holo.selfcheck",
                "su3holo.point_commands", "su3holo.geometry_commands", "su3holo.sweep",
                "argparse", "gettext", "su3holo.parser", "numpy", "su3holo.errors",
                "su3holo._exports"]
    code = ("import sys, su3holo, su3holo.cli\n"
            f"print([m for m in {deferred!r} if m in sys.modules])")
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"


def test_json_and_the_job_front_end_load_only_for_job(tmp_path):
    # A fresh interpreter: pytest itself has loaded json.
    (tmp_path / "job.json").write_text(json.dumps(
        {"schema": "su3holo/1", "command": "classify", "xi": [0, 0, 0.6, 0, 0, 0, 0, 1.3],
         "output": {"path": str(tmp_path / "out.json")}}))
    code = ("import sys, su3holo, su3holo.cli\n"
            "def loaded():\n"
            "    print([m in sys.modules for m in ('json', 'su3holo.job', 'su3holo._exports')])\n"
            "loaded()\n"
            "assert su3holo.cli.main(['sweep', '--generator', 'random', '--count', '3',"
            f" '--output', {str(tmp_path / 'out.csv')!r}]) == 0\n"
            "loaded()\n"
            f"assert su3holo.cli.main(['job', {str(tmp_path / 'job.json')!r}]) == 0\n"
            "loaded()\n")
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.splitlines() == ["[False, False, False]", "[False, False, False]",
                                "[True, True, False]"]
    assert json.loads((tmp_path / "out.json").read_text())["class"] == "generic"


def test_job_run_as_a_module_imports_no_second_cli(tmp_path):
    # Under ``-m`` the CLI runs as __main__; a job that imported su3holo.cli
    # would compile and execute cli.py a second time.
    (tmp_path / "job.json").write_text(json.dumps(
        {"schema": "su3holo/1", "command": "classify", "xi": [0, 0, 0.6, 0, 0, 0, 0, 1.3],
         "output": {"path": str(tmp_path / "out.json")}}))
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, "-X", "importtime", "-m", "su3holo.cli", "job",
                           str(tmp_path / "job.json")], env=env, capture_output=True,
                          text=True, check=True)
    imported = [line.rsplit("|", 1)[-1].strip() for line in done.stderr.splitlines()
                if line.startswith("import time:")]
    assert "su3holo.job" in imported and "su3holo.cli" not in imported
    assert json.loads((tmp_path / "out.json").read_text())["class"] == "generic"


def _fresh_run(code: str) -> subprocess.CompletedProcess:
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)


def test_two_calls_in_one_process_build_the_parser_once():
    done = _fresh_run(
        "import su3holo.cli as cli\n"
        f"assert cli.main(['classify', '--xi', {REST!r}]) == 0\n"
        "assert cli.main(['sweep', '--generator', 'rest-frame', '--count', '2']) == 0\n"
        "from su3holo.parser import build\n"
        "info = build.cache_info()\n"
        "assert (info.misses, info.hits) == (1, 1), info")
    assert done.stdout.count('"schema"') == 1 and done.stdout.count("index,xi1") == 1


def test_a_usage_error_leaves_the_next_call_unchanged(capsys):
    bad = ["sweep", "--generator", "random", "--bogus"]
    good = ["classify", "--xi", REST]
    done = _fresh_run(
        "import sys, su3holo.cli as cli\n"
        "for argv in (%r, %r, %r):\n"
        "    try:\n"
        "        cli.main(argv)\n"
        "    except SystemExit as exc:\n"
        "        assert exc.code == 1\n" % (bad, good, bad))
    with pytest.raises(SystemExit):
        main(bad)
    assert main(good) == 0
    alone = capsys.readouterr()
    assert done.stdout == alone.out
    assert done.stderr == 2 * alone.err and alone.err.startswith("usage: su3holo sweep ")


def _fresh_su3holo_modules(code: str) -> list[str]:
    """The su3holo modules loaded after ``code`` runs in a fresh interpreter."""
    code += ("\nimport json\nprint(json.dumps(sorted(m for m in sys.modules"
             " if m.startswith('su3holo'))), file=sys.stderr)")
    return json.loads(_fresh_run(code).stderr.strip().splitlines()[-1])


def test_package_and_cli_import_load_no_library_module():
    assert _fresh_su3holo_modules("import sys, su3holo, su3holo.cli") == [
        "su3holo", "su3holo.cli"]


def test_a_public_name_loads_the_name_table_and_a_submodule_does_not():
    # the table of public names is compiled only when a name other than a
    # submodule is looked up
    assert _fresh_su3holo_modules("import sys\nfrom su3holo import algebra") == [
        "su3holo", "su3holo.algebra", "su3holo.errors"]
    assert _fresh_su3holo_modules("import sys, su3holo\nsu3holo.classify") == [
        "su3holo", "su3holo._exports", "su3holo.algebra", "su3holo.errors", "su3holo.spectrum"]


def test_the_package_root_names_the_submodules_of_the_table():
    import su3holo

    assert su3holo._SUBMODULES.split() == sorted(su3holo._EXPORTS)


@pytest.mark.parametrize("argv", [["--version"], ["--help"], ["sweep", "--help"],
                                  ["sweep", "--generator", "random", "--bogus"]])
def test_help_version_and_usage_errors_load_no_numpy(capsys, monkeypatch, argv):
    # the console script in a fresh interpreter prints what main prints here,
    # where numpy is loaded; COLUMNS fixes the help text's width for both
    monkeypatch.setenv("COLUMNS", "80")
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, "-X", "importtime", "-m", "su3holo.cli", *argv],
                          env=env, capture_output=True, text=True)
    timed = [line for line in done.stderr.splitlines(keepends=True)
             if line.startswith("import time:")]
    imported = [line.rsplit("|", 1)[-1].strip() for line in timed]
    assert "su3holo.parser" in imported and "numpy" not in imported
    with pytest.raises(SystemExit) as exc:
        main(argv)
    alone = capsys.readouterr()
    assert done.returncode == exc.value.code
    assert done.stdout == alone.out and (alone.out or alone.err)
    assert "".join(line for line in done.stderr.splitlines(keepends=True)
                   if line not in timed) == alone.err


def test_classify_loads_only_the_spectrum():
    loaded = _fresh_su3holo_modules(
        "import sys\nfrom su3holo.cli import main\n"
        f"assert main(['classify', '--xi', {REST!r}]) == 0")
    assert loaded == ["su3holo", "su3holo.algebra", "su3holo.cli", "su3holo.errors",
                      "su3holo.parser", "su3holo.point_commands", "su3holo.spectrum"]
    for name in ("curvature", "tensors", "holonomy", "limits", "kinematics", "orbits",
                 "selfcheck"):
        assert f"su3holo.{name}" not in loaded


def test_sweep_loads_no_other_handler_and_no_json():
    loaded = _fresh_su3holo_modules(
        "import sys\nfrom su3holo.cli import main\n"
        "assert main(['sweep', '--generator', 'random', '--count', '3', '--level', '1']) == 0\n"
        "assert 'json' not in sys.modules")
    assert "su3holo.sweep" in loaded
    for name in ("point_commands", "geometry_commands", "selfcheck", "job"):
        assert f"su3holo.{name}" not in loaded


def test_monopole_loads_no_sweep():
    loaded = _fresh_su3holo_modules(
        "import sys\nfrom su3holo.cli import main\n"
        f"assert main(['monopole', '--direction', {E8!r}, '--radius', '1e-3']) == 0")
    assert "su3holo.geometry_commands" in loaded and "su3holo.limits" in loaded
    for name in ("sweep", "point_commands", "selfcheck", "job"):
        assert f"su3holo.{name}" not in loaded


def test_sweep_ray_toward_degeneracy(capsys):
    assert main(["sweep", "--generator", "ray",
                 "--ray-from", E8, "--toward", "0,0,1,0,0,0,0,0",
                 "--delta-start", "1e-3", "--delta-stop", "1e-2",
                 "--count", "3", "--level", "1"]) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    for row in rows:
        fields = row.split(",")
        e12, v12 = float(fields[12]), float(fields[17])
        assert v12 * e12**2 == pytest.approx(0.5, rel=1e-6)


def test_job_descriptor_round_trip(tmp_path, capsys):
    out_file = tmp_path / "result.json"
    desc = {
        "schema": "su3holo/1",
        "command": "curvature",
        "xi": [0, 0, 0.6, 0, 0, 0, 0, 1.3],
        "level": 1,
        "tolerances": {"classify": 1e-9},
        "output": {"format": "json", "path": str(out_file)},
    }
    desc_file = tmp_path / "job.json"
    desc_file.write_text(json.dumps(desc))
    assert main(["job", str(desc_file)]) == 0
    doc = json.loads(out_file.read_text())
    assert doc["command"] == "curvature"
    assert np.array(doc["coefficients"]["spectral"])[0, 1] == pytest.approx(1 / 0.72)


def test_job_descriptor_with_circle_generator(tmp_path, capsys):
    desc = {
        "schema": "su3holo/1",
        "command": "loop-phase",
        "level": 1,
        "generator": {
            "kind": "circle",
            "center8": [0, 0, 0, 0, 0, 0, 0, 1],
            "axis_pair": [[1, 0, 0, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0, 0, 0]],
            "radius": 1e-3,
            "samples": 600,
        },
    }
    desc_file = tmp_path / "job.json"
    desc_file.write_text(json.dumps(desc))
    code = main(["job", str(desc_file)])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert doc["phase"] == pytest.approx(-np.pi, abs=1e-3)


def test_job_descriptor_monopole_maps_xi_to_direction(tmp_path, capsys):
    desc = {
        "schema": "su3holo/1",
        "command": "monopole",
        "xi": [0, 0, 0, 0, 0, 0, 0, 1],
        "radius": 1e-3,
        "level": 2,
    }
    desc_file = tmp_path / "job.json"
    desc_file.write_text(json.dumps(desc))
    code = main(["job", str(desc_file)])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert doc["flux_over_2pi"] == pytest.approx(-1.0, abs=1e-3)


def test_job_descriptor_errors(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"schema": "su3holo/1"}))
    assert main(["job", str(bad)]) == 1
    assert "command" in capsys.readouterr().err
    bad.write_text(json.dumps({"schema": "other/9", "command": "classify"}))
    assert main(["job", str(bad)]) == 1
    assert "schema" in capsys.readouterr().err
    bad.write_text(json.dumps({"schema": "su3holo/1", "command": "classify",
                               "xi": [1, 2, 3]}))
    assert main(["job", str(bad)]) == 1
    assert "xi" in capsys.readouterr().err
    # degenerate point flows through to exit code 2
    bad.write_text(json.dumps({"schema": "su3holo/1", "command": "curvature",
                               "xi": [0, 0, 0, 0, 0, 0, 0, 1], "level": 1}))
    assert main(["job", str(bad)]) == 2


def test_output_file_writing(tmp_path, capsys):
    out = tmp_path / "spectrum.json"
    assert main(["spectrum", "--xi", REST, "--output", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["command"] == "spectrum"


SPHERE_GENERATOR = {
    "kind": "sphere-patch",
    "center8": [0, 0, 0, 0, 0, 0, 0, 1],
    "frame": [[1, 0, 0, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0, 0, 0], [0, 0, 1, 0, 0, 0, 0, 0]],
    "radius": 1e-3,
}
RAY_GENERATOR = {
    "kind": "ray",
    "from8": [0, 0, 0, 0, 0, 0, 0, 1],
    "toward8": [0, 0, 1, 0, 0, 0, 0, 0],
}


@pytest.mark.parametrize("field, change", [
    ("theta_range", {"generator": {**SPHERE_GENERATOR, "theta_range": [0.0]}}),
    ("theta_range", {"generator": {**SPHERE_GENERATOR, "theta_range": 1.0}}),
    ("grid", {"generator": {**SPHERE_GENERATOR, "grid": [11]}}),
    ("delta_range", {"command": "sweep", "generator": {**RAY_GENERATOR, "delta_range": [1e-3]}}),
    ("output", {"output": "out.json"}),
    ("tolerances", {"tolerances": [1e-9]}),
    ("generator", {"generator": ["sphere-patch"]}),
    ("generator", {"generator": None}),
    ("level", {"level": 1.7}),
    ("level", {"level": True}),
    ("count", {"command": "sweep", "generator": {"kind": "rest-frame", "count": 2.9}}),
    ("center8", {"generator": {**SPHERE_GENERATOR, "center8": [0, 0, 0, 0, 0, 0, 1]}}),
    ("frame", {"generator": {**SPHERE_GENERATOR, "frame": [
        [1, 0, 0, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0, 0, 0], [0, 0, "1", 0, 0, 0, 0, 0]]}}),
    ("radius", {"generator": {**SPHERE_GENERATOR, "radius": "1e-3"}}),
    ("grid", {"generator": {**SPHERE_GENERATOR, "grid": [11.5, 21]}}),
    ("seed", {"seed": False}),
    ("tolerances.quadrature", {"tolerances": {"quadrature": None}}),
    ("radius", {"generator": {**SPHERE_GENERATOR, "radius": 10**400}}),
])
def test_job_descriptor_field_errors_exit_1(tmp_path, capsys, monkeypatch, field, change):
    monkeypatch.chdir(tmp_path)
    desc = {"schema": "su3holo/1", "command": "surface-flux", "level": 1,
            "generator": SPHERE_GENERATOR, **change}
    (tmp_path / "job.json").write_text(json.dumps(desc))
    assert main(["job", "job.json"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"su3holo: error: {field}: ")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["job.json"]


@pytest.mark.parametrize("desc, argv", [
    ({"command": "classify", "xi": [-1, 0, 0, 0, 0, 0, 0, 1]},
     ["classify", "--xi=-1,0,0,0,0,0,0,1"]),
    ({"command": "spectrum", "xi": [-1e-05, 0, 0.6, 0, 0, 0, 0, 1.3]},
     ["spectrum", "--xi=-1e-05,0,0.6,0,0,0,0,1.3"]),
    ({"command": "surface-flux", "level": 1,
      "generator": {**SPHERE_GENERATOR, "theta_range": [-1e-05, 1.0], "grid": [9, 17]}},
     ["surface-flux", "--center", E8, "--frame1", "1,0,0,0,0,0,0,0", "--frame2",
      "0,1,0,0,0,0,0,0", "--frame3", "0,0,1,0,0,0,0,0", "--radius", "1e-3",
      "--theta-min=-1e-05", "--theta-max", "1.0", "--grid", "9x17", "--level", "1"]),
])
def test_job_descriptor_negative_numbers(tmp_path, capsys, desc, argv):
    (tmp_path / "job.json").write_text(json.dumps({"schema": "su3holo/1", **desc}))
    assert main(["job", str(tmp_path / "job.json")]) == 0
    from_job = capsys.readouterr()
    assert main(argv) == 0
    assert from_job == capsys.readouterr()
    assert from_job.err == ""


@pytest.mark.parametrize("change, message", [
    ({"command": "classify", "level": 4}, "unrecognized arguments: --level=4"),
    ({"command": "curvature", "level": 4}, "argument --level: invalid choice: 4"),
    ({"command": "classify", "output": {"format": "xml"}},
     "output.format: classify writes json"),
])
def test_job_descriptor_usage_errors_exit_1(tmp_path, capsys, change, message):
    desc = {"schema": "su3holo/1", "xi": [0, 0, 0.6, 0, 0, 0, 0, 1.3], **change}
    (tmp_path / "job.json").write_text(json.dumps(desc))
    assert main(["job", str(tmp_path / "job.json")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"su3holo: error: {message}")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["classify", "--xi", REST],
    ["monopole", "--direction", E8, "--radius", "1e-3"],
    ["selfcheck"],
    ["sweep", "--generator", "rest-frame"],
])
def test_threads_is_a_sweep_option_only(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--threads", "2"])
    assert exc.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"usage: su3holo {argv[0]} ")
    assert captured.err.endswith(f"su3holo {argv[0]}: error: unrecognized arguments: --threads 2\n")


CIRCLE = ["--center", E8, "--axis1", "1,0,0,0,0,0,0,0", "--axis2", "0,1,0,0,0,0,0,0",
          "--radius", "1e-3"]
SPHERE = ["--center", E8, "--frame1", "1,0,0,0,0,0,0,0", "--frame2", "0,1,0,0,0,0,0,0",
          "--frame3", "0,0,1,0,0,0,0,0", "--radius", "1e-3", "--grid", "9x17"]


@pytest.mark.parametrize("argv", [
    ["classify", "--xi", REST],
    ["spectrum", "--rest", "0.6,1.3"],
    ["curvature", "--xi", REST, "--level", "1", "--route", "all"],
    ["decompose", "--xi", REST, "--level", "2"],
    ["loop-phase", *CIRCLE, "--samples", "50"],
    ["surface-flux", *SPHERE],
    ["monopole", "--direction", E8, "--radius", "1e-3", "--level", "3"],
])
def test_json_results_lead_with_schema_and_command(capsys, argv):
    code, doc = run_json(capsys, argv)
    assert code == 0
    assert list(doc)[:2] == ["schema", "command"]
    assert doc["schema"] == "su3holo/1"
    assert doc["command"] == argv[0].replace("-", "_")


def test_selfcheck_output_leads_with_schema_and_command(tmp_path, capsys, monkeypatch):
    from su3holo import selfcheck

    # the checks compare numpy floats, so their flags are numpy bools
    results = [selfcheck.CheckResult("one", np.float64(1e-15) < 1e-14, "ok"),
               selfcheck.CheckResult("two", np.float64(1e-3) < 1e-14, "off")]
    monkeypatch.setattr(selfcheck, "run_all", lambda seed: results)
    out = tmp_path / "selfcheck.json"
    assert main(["selfcheck", "--output", str(out)]) == 1
    assert capsys.readouterr().out == "PASS one: ok\nFAIL two: off\n1/2 checks passed\n"
    doc = json.loads(out.read_text())
    assert list(doc) == ["schema", "command", "passed", "total", "checks"]
    assert doc["command"] == "selfcheck"
    assert doc["checks"][1] == {"name": "two", "passed": False, "detail": "off"}


@pytest.mark.parametrize("scale", [1e78, 1e100])
@pytest.mark.parametrize("route", ["spectral", "transported", "parts", "all"])
def test_overflowing_frames_exit_1(capsys, scale, route):
    # past |xi| of about 1e77 the frames overflowed at this scale; evaluated at
    # unit scale, each route gives the coefficients of the point scaled by
    # 2**-power, scaled back by 2**(2 power)
    xi = scale * np.array([0.6, -0.3, 0.2, 0.1, -0.5, 0.3, 0.2, 0.3]) / np.sqrt(0.97)
    text = ",".join(repr(float(v)) for v in xi)
    power = 260 if scale == 1e78 else 330
    got = _run_json(capsys, ["curvature", f"--xi={text}", "--level", "2", "--route", route])
    want = _run_json(capsys, ["curvature", f"--xi={_scaled_text(text, -power)}", "--level", "2",
                              "--route", route])
    assert list(got["coefficients"]) == list(want["coefficients"])
    for name, coeffs in got["coefficients"].items():
        _assert_scaled(coeffs, want["coefficients"][name], -2 * power)
    if route == "all":
        _assert_scaled(got["max_pairwise_deviation"], want["max_pairwise_deviation"], -2 * power)


# the unit direction of test_curvature.DIRECTION
DIRECTION = np.array([0.6, -0.3, 0.2, 0.1, -0.5, 0.3, 0.2, 0.3]) / np.sqrt(0.97)


def test_all_routes_are_exactly_covariant_past_the_old_frame_limit(capsys):
    # at 2**330 |xi| is about 2.2e99, where the frames used to overflow: each
    # route's coefficients are those at the direction itself times 2**-660
    unit = ",".join(map(repr, DIRECTION.tolist()))
    got = _run_json(capsys, ["curvature", "--xi", _scaled_text(unit, 330), "--route", "all",
                             "--level", "2"])
    want = _run_json(capsys, ["curvature", "--xi", unit, "--route", "all", "--level", "2"])
    for name in ("spectral", "transported", "parts"):
        _assert_scaled(got["coefficients"][name], want["coefficients"][name], -660)


def test_a_cubic_invariant_past_the_float_range_exits_1_naming_it(capsys):
    # at |xi| = 1e120 the cubic invariant, about 1e360, is past the float range;
    # the quadratic invariant, about 1e240, is not
    big = ",".join(map(repr, (1e120 * DIRECTION).tolist()))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["spectrum", "--xi", big]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("su3holo: error: the cubic invariant is past the float range "
                                   "at |xi| = 1e+120")


@pytest.mark.parametrize("command", ["classify", "spectrum"])
def test_a_tiny_point_above_tol_is_generic_with_scaled_gaps(capsys, command):
    # |xi| = 2.4e-200: the norm underflowed to 0 and the point read as
    # triple degenerate with zero gaps at any tol
    xi = "1e-200,2e-200,0,0,0,0,0,1e-200"
    got = _run_json(capsys, [command, "--xi", xi, "--classify-tol", "1e-300"])
    want = _run_json(capsys, [command, "--xi", _scaled_text(xi, 664)])
    assert got["class"] == want["class"] == "generic"
    _assert_scaled(list(got["gaps"].values()), list(want["gaps"].values()), -664)
    # the triple rule is absolute: at the default tol the point is triple degenerate
    assert _run_json(capsys, [command, "--xi", xi])["class"] == "triple_degenerate"


LOOP_ARGS = ["loop-phase", "--center", REST, "--axis1", "1,0,0,0,0,0,0,0",
             "--axis2", "0,1,0,0,0,0,0,0", "--samples", "200"]
PATCH_ARGS = ["surface-flux", "--center", E8, "--frame1", "1,0,0,0,0,0,0,0",
              "--frame2", "0,1,0,0,0,0,0,0", "--frame3", "0,0,1,0,0,0,0,0", "--grid", "9x17"]


@pytest.mark.parametrize("argv, message", [
    (["monopole", "--direction", E8, "--radius", "nan"], "radius must be positive and finite"),
    (["monopole", "--direction", E8, "--radius", "inf"], "radius must be positive and finite"),
    (["monopole", "--direction", "nan,0,0,0,0,0,0,1", "--radius", "1e-3"], "direction"),
    (["monopole", "--direction", E8, "--radius", "1e-3", "--offset", "0,nan,0"],
     "center_offset"),
    ([*LOOP_ARGS, "--radius", "nan"], "radius must be positive and finite"),
    ([*LOOP_ARGS, "--radius", "inf"], "radius must be positive and finite"),
    ([*LOOP_ARGS, "--radius", "0"], "radius must be positive and finite"),
    ([*LOOP_ARGS[:2], "nan,0,0.6,0,0,0,0,1.3", *LOOP_ARGS[3:], "--radius", "0.1"],
     "finite 8-component"),
    ([*PATCH_ARGS, "--radius", "1e-3", "--theta-max", "nan"], "theta_range must be finite"),
    ([*PATCH_ARGS, "--radius", "1e-3", "--theta-min=-inf"], "theta_range must be finite"),
    ([*PATCH_ARGS, "--radius", "nan"], "radius must be positive and finite"),
    ([*PATCH_ARGS[:2], "0,0,0,0,0,0,inf,1", *PATCH_ARGS[3:], "--radius", "1e-3"],
     "center and frame must be finite"),
])
def test_non_finite_options_exit_1(capsys, argv, message):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("su3holo: error: ") and message in captured.err


@pytest.mark.parametrize("desc, message", [
    ({"command": "surface-flux", "generator": {**SPHERE_GENERATOR, "radius": float("nan")}},
     "radius must be positive and finite"),
    ({"command": "surface-flux",
      "generator": {**SPHERE_GENERATOR, "theta_range": [0.0, float("inf")]}},
     "theta_range must be finite"),
    ({"command": "loop-phase", "generator": {
        "kind": "circle", "center8": [0, 0, 0.6, 0, 0, 0, 0, 1.3],
        "axis_pair": [[1, 0, 0, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0, 0, 0]],
        "radius": float("inf"), "samples": 200}},
     "radius must be positive and finite"),
    ({"command": "monopole", "xi": [0, 0, 0, 0, 0, 0, 0, 1], "radius": float("nan")},
     "radius must be positive and finite"),
])
def test_job_descriptor_non_finite_values_exit_1(tmp_path, capsys, desc, message):
    text = json.dumps({"schema": "su3holo/1", "level": 1, **desc})
    assert "NaN" in text or "Infinity" in text
    (tmp_path / "job.json").write_text(text)
    assert main(["job", str(tmp_path / "job.json")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("su3holo: error: ") and message in captured.err


XI = {"xi": [0, 0, 0.6, 0, 0, 0, 0, 1.3]}


@pytest.mark.parametrize("desc, argv", [
    ({"command": "surface-flux", "level": 1, "generator": SPHERE_GENERATOR},
     ["surface-flux", *SPHERE[:-2], "--level", "1"]),
    ({"command": "loop-phase", "level": 1, "generator": {
        "kind": "circle", "center8": [0, 0, 0, 0, 0, 0, 0, 1],
        "axis_pair": [[1, 0, 0, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0, 0, 0]], "radius": 1e-3}},
     ["loop-phase", *CIRCLE, "--level", "1"]),
    ({"command": "sweep", "generator": RAY_GENERATOR},
     ["sweep", "--generator", "ray", "--ray-from", E8, "--toward", "0,0,1,0,0,0,0,0"]),
], ids=["sphere-patch", "circle", "ray"])
def test_job_descriptor_absent_fields_take_the_cli_defaults(tmp_path, capsys, desc, argv):
    (tmp_path / "job.json").write_text(json.dumps({"schema": "su3holo/1", **desc}))
    assert main(["job", str(tmp_path / "job.json")]) == 0
    from_job = capsys.readouterr()
    assert main(argv) == 0
    assert from_job == capsys.readouterr()


def test_job_descriptor_monopole_needs_a_radius(tmp_path, capsys):
    (tmp_path / "job.json").write_text(json.dumps(
        {"schema": "su3holo/1", "command": "monopole", "xi": [0, 0, 0, 0, 0, 0, 0, 1]}))
    assert main(["job", str(tmp_path / "job.json")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("su3holo: error: the following arguments are required: "
                            "--radius\n")


@pytest.mark.parametrize("change, message", [
    ({"command": "classify", **XI, "seed": 5}, "unrecognized arguments: --seed=5"),
    ({"command": "curvature", **XI, "level": 1, "tolerances": {"quadrature": 1e-4}},
     "unrecognized arguments: --quadrature-tol=0.0001"),
    ({"command": "selfcheck", "tolerances": {"classify": 1e-9}},
     "unrecognized arguments: --classify-tol=1e-09"),
    ({"command": "spectrum", **XI, "radius": 1e-3}, "unrecognized arguments: --radius=0.001"),
    ({"command": "sweep", "generator": {"kind": "rest-frame"}, "output": {"format": "json"}},
     "output.format: sweep writes csv"),
    ({"command": "selfcheck", "output": {"format": "csv"}},
     "output.format: selfcheck writes json"),
], ids=["seed", "quadrature", "classify-tol", "radius", "sweep-json", "selfcheck-csv"])
def test_job_descriptor_fields_the_command_does_not_take_exit_1(tmp_path, capsys, change,
                                                                message):
    (tmp_path / "job.json").write_text(json.dumps({"schema": "su3holo/1", **change}))
    assert main(["job", str(tmp_path / "job.json")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"su3holo: error: {message}")
    assert captured.err.count("\n") == 1


def test_job_descriptor_format_naming_the_written_format_is_accepted(tmp_path, capsys):
    (tmp_path / "job.json").write_text(json.dumps(
        {"schema": "su3holo/1", "command": "sweep", "output": {"format": "csv"},
         "generator": {"kind": "rest-frame", "count": 3}}))
    assert main(["job", str(tmp_path / "job.json")]) == 0
    from_job = capsys.readouterr()
    assert main(["sweep", "--generator", "rest-frame", "--count", "3"]) == 0
    assert from_job == capsys.readouterr()


@pytest.mark.parametrize("argv, desc", [
    (["sweep", "--generator", "random", "--seed=-1", "--count", "2"],
     {"command": "sweep", "seed": -1, "generator": {"kind": "random", "count": 2}}),
    (["selfcheck", "--seed=-1"], {"command": "selfcheck", "seed": -1}),
], ids=["sweep", "selfcheck"])
def test_a_negative_seed_exits_1_naming_it(tmp_path, capsys, monkeypatch, argv, desc):
    # numpy's "expected non-negative integer" named no option; now no
    # generator is made, so no point is drawn
    def no_rng(seed=None):
        raise AssertionError("a generator was made")

    monkeypatch.setattr(np.random, "default_rng", no_rng)
    (tmp_path / "job.json").write_text(json.dumps({"schema": "su3holo/1", **desc}))
    for args in (argv, ["job", str(tmp_path / "job.json")]):
        assert main(args) == 1
        assert capsys.readouterr() == ("", "su3holo: error: --seed must be 0 or more, got -1\n")


POINT_OPTIONS = {"output", "classify_tol", "xi", "rest"}
OPTIONS = {
    "classify": POINT_OPTIONS,
    "spectrum": POINT_OPTIONS,
    "curvature": POINT_OPTIONS | {"level", "route"},
    "decompose": POINT_OPTIONS | {"level"},
    "loop-phase": {"output", "classify_tol", "level", "path_file", "center", "axis1", "axis2",
                   "radius", "samples"},
    "surface-flux": {"output", "classify_tol", "level", "patch_file", "center", "frame1",
                     "frame2", "frame3", "radius", "theta_min", "theta_max", "grid"},
    "monopole": {"output", "classify_tol", "quadrature_tol", "direction", "radius", "level",
                 "offset"},
    "sweep": {"output", "classify_tol", "seed", "generator", "level", "count", "scale",
              "ray_from", "toward", "delta_start", "delta_stop"},
    "selfcheck": {"output", "seed"},
    "job": {"file"},
}


def test_each_command_takes_only_the_options_it_reads():
    import argparse

    parser = build()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    got = {name: {a.dest for a in p._actions if a.dest != "help"}
           for name, p in sub.choices.items()}
    assert got == OPTIONS
    assert sum(len(options) for options in got.values()) == 61


# The arguments of a valid command line of each command, and options that
# each command does not read.
VALID = {
    "classify": ["--xi", REST],
    "spectrum": ["--rest", "0.6,1.3"],
    "curvature": ["--xi", REST, "--level", "1"],
    "decompose": ["--xi", REST, "--level", "1"],
    "loop-phase": CIRCLE,
    "surface-flux": SPHERE,
    "monopole": ["--direction", E8, "--radius", "1e-3"],
    "sweep": ["--generator", "rest-frame"],
    "selfcheck": [],
}
REMOVED = [(command, ["--format", "json"]) for command in VALID]
REMOVED += [("sweep", ["--threads", "2"]), ("selfcheck", ["--classify-tol", "1e-9"])]
REMOVED += [(command, ["--seed", "5"]) for command in VALID
            if command not in ("sweep", "selfcheck")]
REMOVED += [(command, ["--quadrature-tol", "1e-4"]) for command in VALID
            if command != "monopole"]


@pytest.mark.parametrize("command, option", REMOVED,
                         ids=[f"{c}{o[0]}" for c, o in REMOVED])
def test_options_a_command_does_not_read_exit_1(capsys, command, option):
    with pytest.raises(SystemExit) as exc:
        main([command, *VALID[command], *option])
    assert exc.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"usage: su3holo {command} ")
    assert captured.err.endswith(
        f"su3holo {command}: error: unrecognized arguments: {' '.join(option)}\n")


@pytest.mark.parametrize("offset", ["0,0,1e-3", "0,0,0.0010000001"])
def test_monopole_sphere_through_the_degenerate_point_exits_2(capsys, offset):
    assert main(["monopole", "--direction", E8, "--radius", "1e-3", "--offset", offset]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "su3holo: degenerate input: sphere passes through a degeneracy\n"


@pytest.mark.parametrize("argv, extras", [
    (["sweep", "--generator", "random", "--count", "2", "--bogus", "1"], "--bogus 1"),
    (["job", "job.json", "--bogus"], "--bogus"),
])
def test_unrecognized_arguments_print_the_commands_usage(capsys, argv, extras):
    usage = build().commands[argv[0]].format_usage()
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"{usage}su3holo {argv[0]}: error: unrecognized arguments: {extras}\n"


def test_unknown_option_before_the_command_is_reported_by_the_top_level_parser(capsys):
    usage = build().format_usage()
    with pytest.raises(SystemExit) as exc:
        main(["--bogus", "classify", "--xi", "0,0,0.6,0,0,0,0,1.3"])
    assert exc.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"{usage}su3holo: error: unrecognized arguments: --bogus\n"


CIRCLE_GENERATOR = {"kind": "circle", "center8": [0, 0, 0, 0, 0, 0, 0, 1],
                    "axis_pair": [[1, 0, 0, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0, 0, 0]],
                    "radius": 1e-3}


@pytest.mark.parametrize("desc", [
    {"command": "loop-phase", "generator": CIRCLE_GENERATOR},
    {"command": "surface-flux", "generator": SPHERE_GENERATOR},
], ids=["circle", "sphere-patch"])
def test_job_descriptor_field_given_twice_exits_1(tmp_path, capsys, desc):
    # the generator's --radius came after the top-level one, which argparse dropped
    (tmp_path / "job.json").write_text(json.dumps(
        {"schema": "su3holo/1", "level": 1, "radius": 0.5, **desc}))
    assert main(["job", str(tmp_path / "job.json")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "su3holo: error: descriptor field 'radius' is given twice\n"


HUGE = "0,0,6e77,0,0,0,0,1.3e78"  # |xi| about 1.4e78
HUGE_CIRCLE = ["--center", HUGE, "--axis1", "1,0,0,0,0,0,0,0", "--axis2", "0,1,0,0,0,0,0,0",
               "--radius", "1e76", "--samples", "50"]
HUGE_SPHERE = ["--center", HUGE, "--frame1", "1,0,0,0,0,0,0,0", "--frame2", "0,1,0,0,0,0,0,0",
               "--frame3", "0,0,0,1,0,0,0,0", "--radius", "1e76", "--grid", "9x17"]
HUGE_CIRCLE_GENERATOR = {"kind": "circle", "center8": [0, 0, 6e77, 0, 0, 0, 0, 1.3e78],
                         "axis_pair": np.eye(8)[:2].tolist(), "radius": 1e76, "samples": 50}
HUGE_SPHERE_GENERATOR = {"kind": "sphere-patch", "center8": [0, 0, 6e77, 0, 0, 0, 0, 1.3e78],
                         "frame": np.eye(8)[[0, 1, 3]].tolist(), "radius": 1e76,
                         "grid": [9, 17]}


@pytest.mark.parametrize("desc, argv", [
    ({"command": "loop-phase", "generator": HUGE_CIRCLE_GENERATOR},
     ["loop-phase", *HUGE_CIRCLE]),
    ({"command": "loop-phase", "level": 2, "generator": HUGE_CIRCLE_GENERATOR},
     ["loop-phase", *HUGE_CIRCLE, "--level", "2"]),
    ({"command": "surface-flux", "generator": HUGE_SPHERE_GENERATOR},
     ["surface-flux", *HUGE_SPHERE]),
    ({"command": "surface-flux", "level": 1, "generator": HUGE_SPHERE_GENERATOR},
     ["surface-flux", *HUGE_SPHERE, "--level", "1"]),
], ids=["loop-phase", "loop-phase-level", "surface-flux", "surface-flux-level"])
def test_overflowing_loop_and_patch_frames_exit_1(tmp_path, capsys, desc, argv):
    # the squared cross products behind the eigenvectors overflowed past about
    # 1e77; evaluated at unit scale, the phases and fluxes are those of the
    # loop or sphere scaled by 2**-256, bit for bit
    _assert_the_power_of_two_image_is_written(tmp_path, capsys, desc, argv, -256)


def _assert_the_power_of_two_image_is_written(tmp_path, capsys, desc, argv, power) -> None:
    """``argv`` and its job ``desc`` exit 0, writing what ``argv`` with its
    center and radius times ``2**power`` writes."""
    (tmp_path / "job.json").write_text(json.dumps({"schema": "su3holo/1", **desc}))
    small = list(argv)
    for option in ("--center", "--radius"):
        small[small.index(option) + 1] = _scaled_text(small[small.index(option) + 1], power)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 0
        from_cli = capsys.readouterr()
        assert main(["job", str(tmp_path / "job.json")]) == 0
        assert capsys.readouterr() == from_cli
        assert main(small) == 0
    assert capsys.readouterr() == from_cli
    assert from_cli.err == ""


# |xi| about 1.4e111: |xi|^3 and the cubic invariant overflow at this scale;
# these loops and patches were once reported as degenerate (exit 2) after two
# RuntimeWarnings, then as a closed form that is not finite
VAST_CENTER = [0, 0, 6e110, 0, 0, 0, 0, 1.3e111]
VAST = ",".join(repr(float(v)) for v in VAST_CENTER)
VAST_CIRCLE = ["--center", VAST, "--axis1", "1,0,0,0,0,0,0,0", "--axis2", "0,1,0,0,0,0,0,0",
               "--radius", "1e109", "--samples", "400"]
VAST_SPHERE = ["--center", VAST, "--frame1", "1,0,0,0,0,0,0,0", "--frame2", "0,1,0,0,0,0,0,0",
               "--frame3", "0,0,0,1,0,0,0,0", "--radius", "1e109", "--grid", "9x17"]
VAST_CIRCLE_GENERATOR = {**HUGE_CIRCLE_GENERATOR, "center8": VAST_CENTER, "radius": 1e109,
                         "samples": 400}
VAST_SPHERE_GENERATOR = {**HUGE_SPHERE_GENERATOR, "center8": VAST_CENTER, "radius": 1e109}


@pytest.mark.parametrize("desc, argv", [
    ({"command": "loop-phase", "generator": VAST_CIRCLE_GENERATOR},
     ["loop-phase", *VAST_CIRCLE]),
    ({"command": "loop-phase", "level": 3, "generator": VAST_CIRCLE_GENERATOR},
     ["loop-phase", *VAST_CIRCLE, "--level", "3"]),
    ({"command": "surface-flux", "generator": VAST_SPHERE_GENERATOR},
     ["surface-flux", *VAST_SPHERE]),
], ids=["loop-phase", "loop-phase-level", "surface-flux"])
def test_overflowing_loop_and_patch_closed_form_exit_1(tmp_path, capsys, desc, argv):
    _assert_the_power_of_two_image_is_written(tmp_path, capsys, desc, argv, -366)


def _point_files(tmp_path) -> dict:
    """A valid loop file and a valid patch file, by option."""
    from su3holo import holonomy

    frame = np.eye(8)[:3]
    loop = holonomy.circle_loop(np.eye(8)[7], frame[0], frame[1], 1e-3, 50).samples
    patch = holonomy.spherical_patch(np.eye(8)[7], frame, 1e-3, shape=(9, 17)).grid
    files = {"path-file": tmp_path / "loop.json", "patch-file": tmp_path / "patch.json"}
    files["path-file"].write_text(json.dumps(loop.tolist()))
    files["patch-file"].write_text(json.dumps(patch.tolist()))
    return files


POINT_FILES = [("loop-phase", "path-file", "a JSON list of 8-component points"),
               ("surface-flux", "patch-file", "a JSON (nu, nv, 8) grid of numbers")]


@pytest.mark.parametrize("text, message", [
    ("not json", "cannot read --{option}: Expecting value: line 1 column 1 (char 0)"),
    ('{"a": 1}', "--{option}: expected {holds}"),
    ("[[1, 2], [3]]", "--{option}: expected {holds}"),
    ('"points"', "--{option}: expected {holds}"),
])
@pytest.mark.parametrize("command, option, holds", POINT_FILES)
def test_an_unreadable_point_file_names_its_option(tmp_path, capsys, command, option, holds,
                                                   text, message):
    path = tmp_path / "points.json"
    path.write_text(text)
    assert main([command, f"--{option}", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"su3holo: error: {message.format(option=option, holds=holds)}\n"


@pytest.mark.parametrize("command, option, sample", [
    ("loop-phase", "path-file", "a loop sample"),
    ("surface-flux", "patch-file", "a patch grid point"),
])
def test_a_non_finite_point_in_a_point_file_is_named(tmp_path, capsys, command, option, sample):
    path = _point_files(tmp_path)[option]
    points = np.array(json.loads(path.read_text()))
    points[(1,) * (points.ndim - 1) + (6,)] = np.nan
    path.write_text(json.dumps(points.tolist()))
    assert main([command, f"--{option}", str(path)]) == 1
    assert capsys.readouterr() == ("", f"su3holo: error: {sample} has a non-finite component\n")


@pytest.mark.parametrize("command, option, extra", [
    ("loop-phase", "path-file", ["--center", E8]),
    ("loop-phase", "path-file", ["--axis2", "0,1,0,0,0,0,0,0"]),
    ("loop-phase", "path-file", ["--radius", "1e-3"]),
    ("surface-flux", "patch-file", ["--frame3", "0,0,1,0,0,0,0,0"]),
    ("surface-flux", "patch-file", ["--radius", "1e-3"]),
    # the generators' options with a value if not given
    ("loop-phase", "path-file", ["--samples", "7"]),
    ("surface-flux", "patch-file", ["--grid", "3x3"]),
    ("surface-flux", "patch-file", ["--theta-min", "0"]),
    ("surface-flux", "patch-file", ["--theta-max", "0.5"]),
])
def test_a_point_file_with_a_generator_option_exits_1(tmp_path, capsys, command, option, extra):
    path = str(_point_files(tmp_path)[option])
    assert main([command, f"--{option}", path]) == 0
    capsys.readouterr()
    assert main([command, f"--{option}", path, *extra]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"su3holo: error: --{option} cannot be given with {extra[0]}\n"


@pytest.mark.parametrize("argv, message", [
    (["classify", "--xi", REST, "--rest", "0.6,1.3"], "--xi cannot be given with --rest"),
    (["curvature", "--rest", "0.6,1.3", "--xi", REST, "--level", "1"],
     "--xi cannot be given with --rest"),
    (["sweep", "--generator", "random", f"--ray-from={E8}"],
     "the random generator takes no --ray-from"),
    (["sweep", "--generator", "rest-frame", "--toward=0,0,1,0,0,0,0,0"],
     "the rest-frame generator takes no --toward"),
    (["sweep", "--generator", "ray", f"--ray-from={E8}"], "ray sweep needs --ray-from and --toward"),
    (["sweep", "--generator", "ray", "--toward=0,0,1,0,0,0,0,0"],
     "ray sweep needs --ray-from and --toward"),
])
def test_an_option_the_input_mode_does_not_read_exits_1(capsys, argv, message):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"su3holo: error: {message}\n"


@pytest.mark.parametrize("argv, message", [
    (["classify", "--xi", "1,2,3"], "argument --xi: expected 8 comma-separated numbers"),
    (["monopole", "--direction", E8, "--radius", "1e-3", "--offset", "1,2"],
     "argument --offset: expected 3 comma-separated numbers"),
    (["classify", "--rest", "0.6,1.3,0"], "argument --rest: expected x3,x8"),
    (["surface-flux", "--center", E8, "--grid", "64"], "argument --grid: expected NUxNV, e.g. 64x128"),
], ids=["xi", "offset", "rest", "grid"])
def test_a_vector_or_grid_with_the_wrong_arity_is_a_usage_error(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith(f"usage: su3holo {argv[0]} ")
    assert captured.err.splitlines()[-1] == f"su3holo {argv[0]}: error: {message}"


@pytest.mark.parametrize("text, message", [
    (None, "cannot read descriptor: [Errno 2] No such file or directory: {path!r}"),
    ("{", "cannot read descriptor: Expecting property name enclosed in double quotes: "
          "line 1 column 2 (char 1)"),
    ('[{"schema": "su3holo/1", "command": "classify"}]', "descriptor must be a JSON object"),
], ids=["missing", "not-json", "array"])
def test_a_descriptor_file_that_holds_no_json_object_exits_1(tmp_path, capsys, text, message):
    path = str(tmp_path / "job.json")
    if text is not None:
        (tmp_path / "job.json").write_text(text)
    assert main(["job", path]) == 1
    assert capsys.readouterr() == ("", f"su3holo: error: {message.format(path=path)}\n")


@pytest.mark.parametrize("grid", [[-3, 5], [1, 5], [5, 0]])
def test_a_bad_grid_exits_1_with_the_grid_rule(tmp_path, capsys, grid):
    message = "su3holo: error: a patch needs an (nu, nv, 8) grid with nu, nv >= 2\n"
    assert main(["surface-flux", *SPHERE[:-2], f"--grid={grid[0]}x{grid[1]}"]) == 1
    assert capsys.readouterr() == ("", message)
    path = tmp_path / "job.json"
    path.write_text(json.dumps({"schema": "su3holo/1", "command": "surface-flux",
                                "generator": {**SPHERE_GENERATOR, "grid": grid}}))
    assert main(["job", str(path)]) == 1
    assert capsys.readouterr() == ("", message)


# A product past the float range in a check that rejects the input: each of
# these once printed a numpy RuntimeWarning before its message.
OVERFLOWING_CHECKS = [
    (["loop-phase", "--center", REST, "--axis1", "1e300,0,0,0,0,0,0,1",
      "--axis2", "0,1,0,0,0,0,0,0", "--radius", "0.1", "--samples", "50"],
     {"command": "loop-phase", "generator": {
         "kind": "circle", "center8": [0, 0, 0.6, 0, 0, 0, 0, 1.3],
         "axis_pair": [[1e300, 0, 0, 0, 0, 0, 0, 1], [0, 1, 0, 0, 0, 0, 0, 0]],
         "radius": 0.1, "samples": 50}},
     "circle axes must be orthonormal"),
    (["surface-flux", *SPHERE[:2], "--frame1", "1e300,0,0,0,0,0,0,0", *SPHERE[4:]],
     {"command": "surface-flux", "generator": {
         **SPHERE_GENERATOR, "grid": [9, 17],
         "frame": [[1e300, 0, 0, 0, 0, 0, 0, 0], *SPHERE_GENERATOR["frame"][1:]]}},
     "frame vectors must be orthonormal"),
    (["monopole", "--direction", E8, "--radius", "1e-3", "--offset", "1e300,0,0"], None,
     "sphere too large: it approaches the lower degeneracy"),
    (["sweep", "--generator", "random", "--count", "3", "--level", "1",
      "--classify-tol", "1e308"],
     {"command": "sweep", "level": 1, "tolerances": {"classify": 1e308},
      "generator": {"kind": "random", "count": 3}},
     "random generator found 0 of 3 generic points"),
]


@pytest.mark.parametrize("argv, desc, message", OVERFLOWING_CHECKS,
                         ids=["circle-axes", "sphere-frame", "monopole-offset",
                              "sweep-classify-tol"])
def test_an_overflowing_check_exits_1_with_no_warning(tmp_path, capsys, argv, desc, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 1
        assert capsys.readouterr() == ("", f"su3holo: error: {message}\n")
        if desc is not None:  # the monopole's offset has no descriptor field
            (tmp_path / "job.json").write_text(json.dumps({"schema": "su3holo/1", **desc}))
            assert main(["job", str(tmp_path / "job.json")]) == 1
            assert capsys.readouterr() == ("", f"su3holo: error: {message}\n")


# The edge-value search: every float option of every command takes each of
# EDGE_VALUES, and every vector option takes each in its first, then its last
# component.  Only float and vector options are searched, so no size option
# (--count, --samples, --grid, --seed) ever asks for a huge size.  An option
# takes its value in the first of its command's EDGE_LINES that holds it, or
# is added to the first line; each line is valid and cheap.
EDGE_VALUES = ["nan", "inf", "-inf", "0", "-1", "5e-324", "1e300"]
REST_LINES = [["--xi", REST, "--level", "1"], ["--rest", "0.6,1.3", "--level", "1"]]
EDGE_LINES = {
    "classify": [line[:2] for line in REST_LINES],
    "spectrum": [line[:2] for line in REST_LINES],
    "curvature": REST_LINES,
    "decompose": REST_LINES,
    "loop-phase": [["--center", REST, "--axis1", "1,0,0,0,0,0,0,0", "--axis2", "0,1,0,0,0,0,0,0",
                    "--radius", "0.1", "--samples", "50"]],
    "surface-flux": [[*SPHERE[:-2], "--grid", "5x9", "--theta-min", "0", "--theta-max", "1"]],
    "monopole": [["--direction", E8, "--radius", "1e-3", "--offset", "0,0,0", "--level", "1",
                  "--quadrature-tol", "1e-4"]],
    "sweep": [["--generator", "random", "--count", "3", "--level", "1", "--scale", "1"],
              ["--generator", "ray", "--ray-from", E8, "--toward", "0,0,1,0,0,0,0,0",
               "--count", "3", "--level", "1", "--delta-start", "1e-4", "--delta-stop", "0.1"]],
}


def _edge_cases() -> list:
    """(command, option, value, component) of the search, walking the parser:
    component is None for a float option, else the vector component set."""
    cases = []
    for command, p in build().commands.items():
        for action in p._actions:
            if action.type is float:
                components = [None]
            elif action.type in (_vec8, _vec3, _rest_pair):
                components = [0, -1]
            else:
                continue
            cases += [(command, action.option_strings[-1], value, component)
                      for component in components for value in EDGE_VALUES]
    return cases


EDGE_CASES = _edge_cases()


@pytest.mark.parametrize("command, option, value, component", EDGE_CASES,
                         ids=[f"{c}{o}={v}" + ("" if k is None else f"@{k}")
                              for c, o, v, k in EDGE_CASES])
def test_edge_values_of_each_option_exit_cleanly(capsys, command, option, value, component):
    lines = EDGE_LINES[command]
    line = next((line for line in lines if option in line[::2]), lines[0])
    given = dict(zip(line[::2], line[1::2]))
    if component is not None:
        assert option in given, f"no line of {command} holds the vector option {option}"
        parts = given[option].split(",")
        parts[component] = value
        value = ",".join(parts)
    given.pop(option, None)
    argv = [command, *(text for pair in given.items() for text in pair), f"{option}={value}"]
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    err = capsys.readouterr().err
    assert code in (0, 1, 2)
    if code == 0:
        assert err == ""
    else:
        assert "Traceback" not in err and "Warning" not in err
        assert err.endswith("\n") and err.count("\n") == 1 and err.startswith("su3holo: ")


# Combinations of options through main: a command of the parser table and
# one of its EDGE_LINES, then for each option of the command, one of: the
# line's value, no value (a required option or a size always has one), or a
# value typed by the option: valid numbers and EDGE_VALUES for floats; for a
# vector, one of a few valid vectors or valid numbers with at most one
# component an edge value; at most 64 points for a size.  Left out:
# selfcheck (a second per run, and it takes only --seed), job (the
# descriptor search above walks its fields), and the options that name
# files (--output, --path-file, --patch-file).
NUMBERS = ["0", "0.1", "1e-3", "0.6", "1.3", "-0.2", "1", "3"]
VECTORS = {
    8: [E8, REST, *(",".join("1" if i == k else "0" for i in range(8)) for k in range(3))],
    3: ["0,0,0", "0,0,1e-3", "1e-3,0,0"],
    2: ["0.6,1.3", "0,1", "1,0"],
}
_SKIPPED_OPTIONS = {"--output", "--path-file", "--patch-file"}


def _vector(n: int):
    def spoil(drawn):
        parts, edge = drawn
        if edge is not None:
            parts[edge[0]] = edge[1]
        return ",".join(parts)
    edges = st.none() | st.tuples(st.integers(0, n - 1), st.sampled_from(EDGE_VALUES))
    drawn = st.tuples(st.lists(st.sampled_from(NUMBERS), min_size=n, max_size=n), edges)
    return st.sampled_from(VECTORS[n]) | drawn.map(spoil)


def _values(action):
    """The typed strategy of one option's values, as strings."""
    if action.choices is not None:
        other = "4" if isinstance(action.choices[0], int) else "none"
        return st.sampled_from([*map(str, action.choices), other])
    if action.type is float:
        return st.sampled_from(NUMBERS) | st.sampled_from(EDGE_VALUES)
    vectors = {_vec8: 8, _vec3: 3, _rest_pair: 2}
    if action.type in vectors:
        return _vector(vectors[action.type])
    if action.type is _grid_shape:
        return st.tuples(st.integers(0, 8), st.integers(0, 8)).map("{0[0]}x{0[1]}".format)
    if action.type is int:  # --seed
        return st.integers(-1, 2**32).map(str)
    return st.integers(-1, 64).map(str)  # --count, --samples


_COMMANDS = {name: [a for a in p._actions if a.dest != "help"
                    and a.option_strings[-1] not in _SKIPPED_OPTIONS]
             for name, p in build().commands.items() if name not in ("selfcheck", "job")}


@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_combinations_of_options_exit_cleanly(capsys, data):
    assert sorted(_COMMANDS) == sorted(EDGE_LINES)
    command = data.draw(st.sampled_from(sorted(_COMMANDS)), label="command")
    line = data.draw(st.sampled_from(EDGE_LINES[command]), label="line")
    given = dict(zip(line[::2], line[1::2]))
    argv = [command]
    for action in _COMMANDS[command]:
        option = action.option_strings[-1]
        sized = action.type is _grid_shape or getattr(action.type, "__name__", "") == "size"
        modes = [mode for mode, allowed in [("line", option in given),
                                            ("omit", not (sized or action.required)),
                                            ("draw", True)] if allowed]
        mode = data.draw(st.sampled_from(modes), label=option)
        if mode != "omit":
            value = given[option] if mode == "line" else data.draw(_values(action), label=option)
            argv.append(f"{option}={value}")
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    err = capsys.readouterr().err
    assert code in (0, 1, 2)
    assert "Traceback" not in err and "Warning" not in err
    if code == 0:
        assert err == ""
    else:
        assert err.endswith("\n")
        assert err.splitlines()[-1].startswith(("su3holo: error: ", "su3holo: degenerate input: ",
                                                f"su3holo {command}: error: "))


# The same search through job descriptors, walking the descriptor table:
# every numeric field takes each of EDGE_VALUES (NaN and the infinities as
# the JSON literals Python's json reads) in its first, then its last number.
# A field takes its value in the first of EDGE_JOBS that holds it.
EDGE_JOBS = [
    {"command": "curvature", "xi": [0, 0, 0.6, 0, 0, 0, 0, 1.3], "level": 1,
     "tolerances": {"classify": 1e-9}},
    {"command": "monopole", "xi": [0, 0, 0, 0, 0, 0, 0, 1], "radius": 1e-3, "level": 1,
     "tolerances": {"quadrature": 1e-4}},
    {"command": "loop-phase", "level": 1, "generator": {
        **CIRCLE_GENERATOR, "center8": [0, 0, 0.6, 0, 0, 0, 0, 1.3], "radius": 0.1,
        "samples": 50}},
    {"command": "surface-flux", "level": 1,
     "generator": {**SPHERE_GENERATOR, "grid": [5, 9], "theta_range": [0, 1]}},
    {"command": "sweep", "level": 1, "seed": 0,
     "generator": {"kind": "random", "count": 3, "scale": 1}},
    {"command": "sweep", "level": 1,
     "generator": {**RAY_GENERATOR, "count": 3, "delta_range": [1e-4, 0.1]}},
]
EDGE_JSON_VALUES = [json.loads(value.replace("nan", "NaN").replace("inf", "Infinity"))
                    for value in EDGE_VALUES]


def _ends(value) -> list[tuple]:
    """The index paths of the first and the last number in a nested list."""
    if not isinstance(value, list):
        return [()]
    return [(0, *_ends(value[0])[0]), (-1, *_ends(value[-1])[-1])]


def _edge_jobs() -> list:
    """(id, descriptor) of the search, one per numeric field, end and value."""
    from su3holo.job import _FIELDS, _grid, _integer, _number, _vector

    cases = []
    for name, fields in _FIELDS.items():
        for key, spec in fields.items():
            if spec is None or spec[0] not in (_number, _integer, _vector, _grid):
                continue
            base = next((job for job in EDGE_JOBS if key in job.get(name, {}) or
                         name is None and key in job), None)
            assert base is not None, f"no descriptor of EDGE_JOBS holds {name}.{key}"
            field = key if name is None else f"{name}.{key}"
            for end in _ends((base if name is None else base[name])[key]):
                path = (key, *end)
                for text, value in zip(EDGE_VALUES, EDGE_JSON_VALUES):
                    desc = json.loads(json.dumps(base))
                    target = desc if name is None else desc[name]
                    for index in path[:-1]:
                        target = target[index]
                    target[path[-1]] = value
                    cases.append((f"{base['command']}.{field}{list(end)}={text}", desc))
    return cases


EDGE_JOBS_CASES = _edge_jobs()


@pytest.mark.parametrize("desc", [desc for _, desc in EDGE_JOBS_CASES],
                         ids=[case_id for case_id, _ in EDGE_JOBS_CASES])
def test_edge_values_of_each_descriptor_field_exit_cleanly(tmp_path, capsys, desc):
    from su3holo.job import to_argv

    path = tmp_path / "job.json"
    path.write_text(json.dumps({"schema": "su3holo/1", **desc}))
    code = main(["job", str(path)])
    from_job = capsys.readouterr()
    assert code in (0, 1, 2)
    if code == 0:
        assert from_job.err == ""
    else:
        assert "Traceback" not in from_job.err and "Warning" not in from_job.err
        assert from_job.err.count("\n") == 1 and from_job.err.startswith("su3holo: ")
        assert from_job.out == ""
    try:
        argv = to_argv(str(path))
    except ValueError as exc:  # no command line: a value of the wrong JSON type
        assert (code, from_job.err) == (1, f"su3holo: error: {exc}\n")
        return
    try:
        cli_code = main(argv)
        usage = False
    except SystemExit as exc:
        cli_code, usage = exc.code, True
    from_cli = capsys.readouterr()
    assert (cli_code, from_cli.out) == (code, from_job.out)
    if usage:  # the command line adds the usage; the job reports the message alone
        assert from_cli.err.startswith("usage: su3holo ")
        assert (from_cli.err.splitlines()[-1].split(": error: ", 1)[1]
                == from_job.err.split(": error: ", 1)[1].rstrip("\n"))
    else:
        assert from_cli.err == from_job.err


RANDOM_GENERATOR = {"kind": "random", "count": 3}


@pytest.mark.parametrize("desc, message", [
    ({"command": "sweep", "sead": 3, "generator": RANDOM_GENERATOR},
     "sead: not a field of a su3holo/1 descriptor"),
    ({"command": "curvature", **XI, "level": 1, "tolerances": {"clasify": 1e-9}},
     "tolerances.clasify: not a field of a su3holo/1 descriptor"),
    ({"command": "classify", **XI, "output": {"paht": "out.json"}},
     "output.paht: not a field of a su3holo/1 descriptor"),
    ({"command": "sweep", "generator": {**RANDOM_GENERATOR, "count8": 3}},
     "count8: not a field of a su3holo/1 descriptor"),
    ({"command": "sweep", "generator": {**RANDOM_GENERATOR, "from8": [0, 0, 0, 0, 0, 0, 0, 1]}},
     "the random generator takes no --ray-from"),
    ({"command": "sweep", "generator": {**RANDOM_GENERATOR, "delta_range": [1e-3, 0.1]}},
     "the random generator takes no --delta-start"),
    ({"command": "loop-phase", "generator": {**CIRCLE_GENERATOR, "grid": [5, 9]}},
     "unrecognized arguments: --grid=5x9"),
    ({"command": "loop-phase", "generator": {**CIRCLE_GENERATOR, "theta_range": [0, 1]}},
     "unrecognized arguments: --theta-min=0.0 --theta-max=1.0"),
    ({"command": "loop-phase", "generator": {**CIRCLE_GENERATOR, "kind": "sphere-patch"}},
     "unrecognized arguments: --generator=sphere-patch"),
    ({"command": "sweep", "generator": {**CIRCLE_GENERATOR, "kind": "circle"}},
     "argument --generator: invalid choice: 'circle'"),
    ({"command": "loop-phase", "generator": {**CIRCLE_GENERATOR, "center8": None}},
     "center8: expected a list of 8 numbers"),
    ({"command": "--help"}, "command: expected a command name, got '--help'"),
    ({"command": "loop-phase", "generator": {k: v for k, v in CIRCLE_GENERATOR.items()
                                              if k != "center8"}},
     "loop generator needs --center (or --path-file)"),
], ids=["top-level", "tolerances", "output", "generator", "random-from8", "random-delta_range",
        "circle-grid", "circle-theta_range", "circle-kind", "sweep-circle", "null-center8",
        "help", "no-center8"])
def test_a_descriptor_field_is_never_dropped(tmp_path, capsys, desc, message):
    # each of these ran, exit 0, with the field dropped, or named the field as missing
    (tmp_path / "job.json").write_text(json.dumps({"schema": "su3holo/1", **desc}))
    assert main(["job", str(tmp_path / "job.json")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"su3holo: error: {message}")
    assert captured.err.count("\n") == 1


def test_a_ray_option_on_another_generator_exits_1(capsys):
    # --delta-start and --delta-stop, like --ray-from and --toward, are the ray's alone
    for option in ("--delta-start=1e-3", "--delta-stop=0.5"):
        assert main(["sweep", "--generator", "random", "--count", "3", option]) == 1
        assert capsys.readouterr() == (
            "", f"su3holo: error: the random generator takes no {option.split('=')[0]}\n")


def test_the_ray_deltas_default_as_before(capsys):
    ray = ["sweep", "--generator", "ray", "--ray-from", E8, "--toward", "0,0,1,0,0,0,0,0",
           "--count", "4"]
    assert main(ray) == 0
    default = capsys.readouterr()
    assert main([*ray, "--delta-start", "1e-4", "--delta-stop", "0.1"]) == 0
    assert capsys.readouterr() == default


BIG = 10**20


@pytest.mark.parametrize("argv, desc, message", [
    (["sweep", "--generator", "random", f"--count={BIG}"],
     {"command": "sweep", "generator": {"kind": "random", "count": BIG}},
     f"--count asks for {BIG} points, more than 10000000"),
    (["loop-phase", *CIRCLE, f"--samples={BIG}"],
     {"command": "loop-phase", "generator": {**CIRCLE_GENERATOR, "samples": BIG}},
     f"--samples asks for {BIG} points, more than 10000000"),
    (["surface-flux", *SPHERE[:-2], "--grid", "100000x100000"],
     {"command": "surface-flux", "generator": {**SPHERE_GENERATOR, "grid": [100000, 100000]}},
     "--grid asks for 10000000000 points, more than 10000000"),
], ids=["count", "samples", "grid"])
def test_a_size_above_the_cap_exits_1_before_anything_is_allocated(tmp_path, capsys, argv, desc,
                                                                    message):
    import tracemalloc

    from su3holo.parser import MAX_POINTS

    assert MAX_POINTS == 10**7
    (tmp_path / "job.json").write_text(json.dumps({"schema": "su3holo/1", **desc}))
    for line in (argv, ["job", str(tmp_path / "job.json")]):
        tracemalloc.start()
        try:
            code = main(line)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 1
        assert capsys.readouterr() == ("", f"su3holo: error: {message}\n")
        assert peak < 1_000_000  # bytes: no array of the asked size was built


def test_a_size_at_the_cap_parses():
    from su3holo.parser import MAX_POINTS

    parser = build()
    args = parser.parse_args(["sweep", "--generator", "random", f"--count={MAX_POINTS}"])
    assert args.count == MAX_POINTS
    args = parser.parse_args(["surface-flux", "--grid", f"2x{MAX_POINTS // 2}"])
    assert args.grid == (2, MAX_POINTS // 2)
    # a negative side fails the grid rule later, not the cap
    args = parser.parse_args(["surface-flux", f"--grid=-{MAX_POINTS}x-9"])
    assert args.grid == (-MAX_POINTS, -9)


def test_the_help_states_the_size_cap():
    from su3holo.parser import MAX_POINTS

    parser = build()
    assert f"at most {MAX_POINTS} points" in " ".join(parser.format_help().split())
    for command, option in [("sweep", "--count"), ("loop-phase", "--samples"),
                            ("surface-flux", "--grid")]:
        text = parser.commands[command].format_help()
        assert f"{option} {option[2:].upper()}" in text
        assert f"at most {MAX_POINTS} points" in text


THETA_MESSAGE = "theta_range must span at most pi, got ({t0}, {t1})"


@pytest.mark.parametrize("theta", [(0.0, 1e300), (1e300, np.pi), (-0.1, np.pi), (3.0, -0.2)])
def test_a_theta_range_wider_than_pi_exits_1(tmp_path, capsys, theta):
    # these once covered part of the sphere twice, or many times, and exited 0
    message = f"su3holo: error: {THETA_MESSAGE.format(t0=theta[0], t1=theta[1])}\n"
    assert main(["surface-flux", *SPHERE, f"--theta-min={theta[0]!r}",
                 f"--theta-max={theta[1]!r}"]) == 1
    assert capsys.readouterr() == ("", message)
    (tmp_path / "job.json").write_text(json.dumps(
        {"schema": "su3holo/1", "command": "surface-flux",
         "generator": {**SPHERE_GENERATOR, "grid": [9, 17], "theta_range": list(theta)}}))
    assert main(["job", str(tmp_path / "job.json")]) == 1
    assert capsys.readouterr() == ("", message)
