"""The sweep as block evaluations: a point gives the same bits alone as in a
block, the batched CSV equals the per-row reference byte for byte, and the
sweep makes no per-row spectral or curvature call."""
import tracemalloc

import numpy as np
import pytest

from helpers import near_cone_points, one_draw_at_a_time_random_generic, per_row_sweep_lines
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
    phi = spectrum._closed_form(POINTS).phi
    levels, gaps = spectrum.energy_levels(POINTS), spectrum.energy_gaps(POINTS)
    for k, xi in enumerate(POINTS):
        s = spectrum.eigenvalues(xi)
        assert float.hex(s.phi) == float.hex(float(phi[k]))
        assert s.energies.tobytes() == levels[k].tobytes()
        assert np.array([s.e12, s.e23, s.e13]).tobytes() == gaps[k].tobytes()


@pytest.mark.parametrize("level", [1, 2, 3])
def test_a_point_alone_has_the_columns_and_curvature_of_its_row(level):
    c = spectrum._closed_form(POINTS)
    e = c.unit_levels
    columns = spectrum._columns(POINTS, c.k, e, (level,))
    # the sweep's curvature pass at unit scale: one table per point, from the
    # block's columns, scaled back as of degree -2
    tables = curvature._tables(c.u, e, columns[..., 0].T, level - 1)
    tables = np.ldexp((tables - np.swapaxes(tables, -1, -2)) / 2.0, -2 * c.k[:, None, None])
    for i, xi in enumerate(POINTS):
        assert spectrum._columns(xi, int(c.k[i]), e[i], (level,)).tobytes() == columns[i].tobytes()
        assert curvature.curvature_spectral(xi, level).coeffs.tobytes() == tables[i].tobytes()


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
    # |xi| from 1 to 1.4e105: the first row whose cubic invariant is past the
    # float range, near |xi| = 5.6e102, raises
    "cubic-past-range": [*RAY[:4], "--toward", "0,0,1e100,0,1e100,0,0,0", "--delta-start",
                          "1e-30", "--delta-stop", "1e5", "--count", "40", "--level", "1"],
}


@pytest.mark.parametrize("budget", [None, 7], ids=["1024-point-blocks", "7-point-blocks"])
@pytest.mark.parametrize("argv", CASES.values(), ids=CASES.keys())
def test_the_batched_sweep_equals_the_per_row_reference(monkeypatch, capsys, argv, budget):
    if budget is not None:
        monkeypatch.setattr(spectrum, "_BLOCK_POINTS", budget)
    code = main(["sweep", *argv])
    captured = capsys.readouterr()
    assert code == (1 if captured.err else 0)
    assert (captured.out or captured.err).encode() == _reference(argv).encode()


def _draws(draw, seed: int, count: int, tol: float):
    # the kept points, or the error, and the generator's next draw
    rng = np.random.default_rng(seed)
    try:
        kept = draw(rng, count, tol).tobytes()
    except ValueError as exc:
        kept = str(exc)
    return kept, rng.standard_normal().hex()


@pytest.mark.parametrize("budget", [None, 7])
@pytest.mark.parametrize("count, tol", [(0, 1e-9), (1, 1e-9), (5, 0.3), (1023, 1e-9),
                                        (1024, 1e-9), (1025, 0.05), (2500, 0.3), (3, 0.498)])
def test_random_draws_are_one_draw_at_a_time(monkeypatch, count, tol, budget):
    # at tol 0.3 about half the draws are not Generic, so the blocks run short
    # of the count and more rounds follow; at 0.498 seed 0 finds 2 of 3
    if budget is not None:
        monkeypatch.setattr(spectrum, "_BLOCK_POINTS", budget)
    for seed in (0, 7):
        assert (_draws(sweep.random_generic, seed, count, tol)
                == _draws(one_draw_at_a_time_random_generic, seed, count, tol))


def test_random_draws_take_at_most_one_block_at_a_time(monkeypatch):
    sizes = []
    real = spectrum._classified

    def spy(xi, tol):
        sizes.append(len(xi))
        return real(xi, tol)

    monkeypatch.setattr(spectrum, "_classified", spy)
    sweep.random_generic(np.random.default_rng(0), 2500, 1e-9)
    assert sizes == [1024, 1024, 452]


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
                               str(2 * spectrum._BLOCK_POINTS + 1), "--level", "1"])
    sweep.cmd_sweep(args)
    assert calls == {"_classified": 3, "_point": 0, "_columns": 3, "_tables": 3}


def test_the_working_set_does_not_grow_with_the_count():
    peaks = []
    for count in (spectrum._BLOCK_POINTS, 4 * spectrum._BLOCK_POINTS):
        points = np.random.default_rng(5).standard_normal((count, 8))
        tracemalloc.start()
        try:
            for first in range(0, count, spectrum._BLOCK_POINTS):
                sweep._lines(points[first:first + spectrum._BLOCK_POINTS], first, 1, 1e-9)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    # one block's temporaries, about 2.5 KiB per row: the lines are dropped here
    assert peaks[1] <= 1.1 * peaks[0] and peaks[0] <= 3000 * spectrum._BLOCK_POINTS
