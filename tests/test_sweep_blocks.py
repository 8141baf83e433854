"""The sweep as block evaluations: a point gives the same bits alone as in a
block, the batched CSV equals the per-row reference byte for byte, and the
sweep makes no per-row spectral or curvature call."""
import tracemalloc

import numpy as np
import pytest

from helpers import near_cone_points, per_row_sweep_lines
from su3holo import curvature, spectrum, sweep
from su3holo.cli import main
from su3holo.parser import build

E8 = "0,0,0,0,0,0,0,1"
RAY = ["--generator", "ray", "--ray-from", E8, "--toward", "0,0,1,0,0,0,0,0"]


def _points() -> np.ndarray:
    # 10^4 points, |xi| from 1e-6 to 1e6, a fifth of them near the two cones
    rng = np.random.default_rng(2024)
    xi = rng.standard_normal((8000, 8)) * 10.0 ** rng.uniform(-6.0, 6.0, (8000, 1))
    cones = np.concatenate([near_cone_points(rng, gap, cone, 500)
                            for gap in (1e-2, 1e-5) for cone in ("upper", "lower")])
    cones *= 10.0 ** rng.uniform(-6.0, 6.0, (len(cones), 1))
    return np.concatenate([xi, cones])


POINTS = _points()


def test_a_point_alone_has_the_bits_of_its_row_in_a_block():
    block = spectrum._closed_form(POINTS)
    levels, gaps = block.levels, block.gaps
    for k, xi in enumerate(POINTS):
        s = spectrum.eigenvalues(xi)
        assert float.hex(s.phi) == float.hex(float(block.phi[k]))
        assert s.energies.tobytes() == levels[k].tobytes()
        assert np.array([s.e12, s.e23, s.e13]).tobytes() == gaps[k].tobytes()


@pytest.mark.parametrize("level", [1, 2, 3])
def test_a_point_alone_has_the_columns_and_curvature_of_its_row(level):
    e = spectrum._closed_form(POINTS).levels
    columns = spectrum._columns(POINTS, e, (level,))
    # the sweep's curvature pass: one table per point, from the block's columns
    tables = curvature._tables(POINTS, e, columns[..., 0].T, level - 1)
    tables = (tables - np.swapaxes(tables, -1, -2)) / 2.0
    for k, xi in enumerate(POINTS):
        assert spectrum._columns(xi, e[k], (level,)).tobytes() == columns[k].tobytes()
        assert curvature.curvature_spectral(xi, level).coeffs.tobytes() == tables[k].tobytes()


def _reference(argv: list[str]) -> str:
    """The sweep's CSV text, or its error line, from the per-row reference."""
    args = build().parse_args(["sweep", *argv])
    try:
        lines = per_row_sweep_lines(sweep._points(args), args.level, args.classify_tol)
    except ValueError as exc:
        return f"su3holo: error: {exc}\n"
    columns = sweep.BASE_COLUMNS + (sweep.CURVATURE_COLUMNS if args.level else [])
    return "\n".join([",".join(columns), *lines]) + "\n"


CASES = {
    **{f"{kind}-{level}": [*generator, *(["--level", level] if level else [])]
       for kind, generator in (
           ("random", ["--generator", "random", "--count", "300", "--seed", "9"]),
           ("rest-frame", ["--generator", "rest-frame", "--count", "40", "--seed", "4"]),
           # through E8: the first rows lie on the cone, their curvature fields are nan
           ("ray", [*RAY, "--delta-start", "1e-12", "--delta-stop", "1e-1", "--count", "30"]))
       for level in (None, "1", "2", "3")},
    "count-0": ["--generator", "random", "--count", "0", "--level", "2"],
    "zero-vector": ["--generator", "ray", "--ray-from", "0,0,0,0,0,0,0,0",
                    "--toward", "0,0,0,0,0,0,0,0", "--count", "4", "--level", "1"],
    "three-blocks": ["--generator", "random", "--count", "1100", "--seed", "3", "--level", "2"],
    "scale-1e110": ["--generator", "random", "--count", "5", "--scale", "1e110", "--level", "1"],
    # the frames fail past |xi| = 1e77, rows before the closed form does past 5.6e102
    "frames-fail-first": [*RAY[:4], "--toward", "0,0,1e100,0,1e100,0,0,0", "--delta-start",
                          "1e-30", "--delta-stop", "1e5", "--count", "40", "--level", "1"],
}


@pytest.mark.parametrize("argv", CASES.values(), ids=CASES.keys())
def test_the_batched_sweep_equals_the_per_row_reference(capsys, argv):
    code = main(["sweep", *argv])
    captured = capsys.readouterr()
    assert code == (1 if captured.err else 0)
    assert (captured.out or captured.err).encode() == _reference(argv).encode()


def test_the_sweep_makes_no_per_row_call(monkeypatch):
    calls = {name: 0 for name in ("_classified", "_point", "_columns", "_tables")}

    def counted(owner, name):
        real = getattr(owner, name)

        def call(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, call)

    for name in ("_classified", "_point", "_columns"):
        counted(spectrum, name)
    counted(curvature, "_tables")
    args = build().parse_args(["sweep", "--generator", "rest-frame", "--count",
                               str(2 * sweep._BLOCK_ROWS + 1), "--level", "1"])
    sweep.cmd_sweep(args)
    assert calls == {"_classified": 3, "_point": 0, "_columns": 3, "_tables": 3}


def test_the_working_set_does_not_grow_with_the_count():
    peaks = []
    for count in (sweep._BLOCK_ROWS, 4 * sweep._BLOCK_ROWS):
        points = np.random.default_rng(5).standard_normal((count, 8))
        tracemalloc.start()
        try:
            for first in range(0, count, sweep._BLOCK_ROWS):
                sweep._lines(points[first:first + sweep._BLOCK_ROWS], first, 1, 1e-9)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    # one block's temporaries, about 2.5 KiB per row: the lines are dropped here
    assert peaks[1] <= 1.1 * peaks[0] and peaks[0] <= 3000 * sweep._BLOCK_ROWS
