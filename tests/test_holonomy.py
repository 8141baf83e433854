import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (gauge_fixed_frames, planar_grid, random_generic_octet,
                     sum_over_states_coeffs, whole_loop_phases, wrap_angle)
from su3holo import DegenerateInput, UnderResolvedPath, holonomy, spectrum
from su3holo.algebra import matrix_to_octet, octet_to_matrix
from su3holo.holonomy import (
    LoopPath,
    SurfacePatch,
    circle_loop,
    flux_sum_rule_check,
    loop_phase,
    phase_sum_rule_check,
    spherical_patch,
    surface_flux,
)
from su3holo.spectrum import generic_mask

rng = np.random.default_rng(8080)

E8 = np.zeros(8)
E8[7] = 1.0
FRAME123 = np.eye(8)[:3]


def rest_point():
    xi = np.zeros(8)
    xi[2], xi[7] = 0.6, 1.3
    return xi


def small_sphere_cap(theta0, radius=1e-3, shape=(201, 201)):
    return spherical_patch(E8, FRAME123, radius, (0.0, theta0), shape)


def test_loop_path_validation():
    with pytest.raises(DegenerateInput):
        LoopPath(np.stack([rest_point(), E8, rest_point()]))
    with pytest.raises(ValueError):
        LoopPath(rest_point()[None])


def test_constant_path_has_zero_phase():
    path = LoopPath(np.tile(rest_point(), (5, 1)))
    for level in (1, 2, 3):
        assert loop_phase(path, level) == 0.0
    phases, total = phase_sum_rule_check(path)
    assert phases == (0.0, 0.0, 0.0) and total == 0.0


def test_torus_plane_loop_has_zero_phase():
    # only components 3 and 8 vary: the eigenbasis is constant along the loop
    e3 = np.eye(8)[2]
    e8 = np.eye(8)[7]
    path = circle_loop(rest_point(), e3, e8, 0.1, 200)
    for level in (1, 2, 3):
        assert abs(loop_phase(path, level)) < 1e-12


def test_spherical_loop_half_solid_angle_law():
    theta0 = 0.9
    n = 2000
    angles = 2 * np.pi * np.arange(n) / n
    pts = np.tile(E8, (n, 1))
    r = 1e-3
    pts[:, 0] = r * np.sin(theta0) * np.cos(angles)
    pts[:, 1] = r * np.sin(theta0) * np.sin(angles)
    pts[:, 2] = r * np.cos(theta0)
    path = LoopPath(pts)
    expected = np.pi * (1 - np.cos(theta0))
    ph1 = loop_phase(path, 1)
    assert abs(abs(ph1) - expected) < 1e-3
    # surface-flux oracle over the cap the loop bounds
    cap = small_sphere_cap(theta0)
    flux = surface_flux(cap, 1)
    assert abs(wrap_angle(loop_phase(cap.boundary(), 1) - flux)) < 1e-3
    assert flux == pytest.approx(expected, abs=1e-4)


def test_loop_reversal_negates_phase():
    path = circle_loop(rest_point(), np.eye(8)[0], np.eye(8)[4], 0.2, 400)
    for level in (1, 2, 3):
        forward = loop_phase(path, level)
        backward = loop_phase(path.reversed(), level)
        assert abs(wrap_angle(forward + backward)) < 1e-14


def test_loop_refinement_convergence():
    center = rest_point()
    phases = {}
    for n in (1000, 2000):
        path = circle_loop(center, np.eye(8)[0], np.eye(8)[5], 0.3, n)
        phases[n] = loop_phase(path, 2)
    assert abs(phases[1000] - phases[2000]) < 1e-4


def test_overlap_guard_trips_on_level_crossing_jump():
    # two points whose level-1 eigenvectors are orthogonal
    a = rest_point()
    h = octet_to_matrix(a)
    perm = np.array([[0, 1, 0], [1, 0, 0], [0, 0, 1]], dtype=complex)
    b = matrix_to_octet(perm @ h @ perm.T)
    path = LoopPath(np.stack([a, b, a, b]))
    with pytest.raises(UnderResolvedPath):
        loop_phase(path, 1)


def random_circle(samples: int) -> LoopPath:
    rng = np.random.default_rng(samples)
    axes, _ = np.linalg.qr(rng.standard_normal((8, 2)))
    return circle_loop(rest_point(), axes[:, 0], axes[:, 1], 0.3, samples)


@pytest.mark.parametrize("samples, budget", [
    (800, 100),  # eight blocks
    (800, 400),  # an exact multiple of the block
    (800, 799),  # a one-sample last block
    (8000, None),  # seven 1024-sample blocks and an 832-sample one
])
def test_blocked_loop_phases_are_the_whole_loop_phases(monkeypatch, samples, budget):
    path = random_circle(samples)
    if budget is not None:
        monkeypatch.setattr(spectrum, "_BLOCK_POINTS", budget)
    want = [phase.hex() for phase in whole_loop_phases(path)]
    assert [loop_phase(path, a).hex() for a in (1, 2, 3)] == want
    assert [phase.hex() for phase in phase_sum_rule_check(path)[0]] == want


def turned(xi: np.ndarray, angle: float) -> np.ndarray:
    # xi with its level-1 and level-2 eigenvectors turned by angle: at a rest
    # point the overlaps of both levels with xi's are cos(angle)
    c, s = np.cos(angle), np.sin(angle)
    rot = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    return matrix_to_octet(rot @ octet_to_matrix(xi) @ rot.T)


@pytest.mark.parametrize("angles, step", [
    ((1.50, 1.52), 649),  # the smaller overlap in the later block
    ((1.52, 1.50), 99),  # in the earlier block, across a block boundary
])
def test_guard_names_the_smallest_overlap_across_blocks(monkeypatch, angles, step):
    # two samples turned past the guard (overlaps 0.071 and 0.051), in
    # different 100-sample blocks: steps 99 and 649 are the first of each pair
    pts = np.tile(rest_point(), (800, 1))
    for k, angle in zip((100, 650), angles):
        pts[k] = turned(pts[k], angle)
    path = LoopPath(pts)
    monkeypatch.setattr(spectrum, "_BLOCK_POINTS", 100)
    for level in (1, 2):
        with pytest.raises(UnderResolvedPath) as want:
            whole_loop_phases(path, (level,))
        assert f"overlap magnitude 0.051 at step {step} " in str(want.value)
        with pytest.raises(UnderResolvedPath) as got:
            loop_phase(path, level)
        assert str(got.value) == str(want.value)
    with pytest.raises(UnderResolvedPath) as got:
        phase_sum_rule_check(path)
    assert str(got.value) == str(want.value)
    assert loop_phase(path, 3) == 0.0


def loop_samples(samples: int) -> np.ndarray:
    angles = 2.0 * np.pi * np.arange(samples) / samples
    return rest_point() + 0.2 * (np.cos(angles)[:, None] * np.eye(8)[0]
                                 + np.sin(angles)[:, None] * np.eye(8)[4])


@pytest.mark.parametrize("samples, run, mib", [
    (80_000, lambda pts, path: LoopPath(pts), 0.25),
    (80_000, lambda pts, path: loop_phase(path, 2), 1.0),
    (80_000, lambda pts, path: phase_sum_rule_check(path), 1.5),
    # stokes' 800-sample boundary loop stays below the one-block flux bound
    (800, lambda pts, path: phase_sum_rule_check(path), 0.55),
], ids=["construction", "loop_phase", "phase_sum_rule_check", "phase_sum_rule_check-800"])
def test_loop_working_set_is_about_one_block(samples, run, mib):
    # the samples array itself is allocated before tracing starts
    pts = loop_samples(samples)
    path = LoopPath(pts)
    tracemalloc.start()
    try:
        run(pts, path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < mib * 2**20


def test_zero_area_patch_has_zero_flux():
    grid = np.tile(rest_point(), (4, 4, 1))
    patch = SurfacePatch(grid)
    for level in (1, 2, 3):
        assert surface_flux(patch, level) == 0.0


def test_patch_validation_and_sampling():
    with pytest.raises(DegenerateInput):
        SurfacePatch(np.tile(E8, (3, 3, 1)))
    base = rest_point()
    d1, d2 = np.eye(8)[0], np.eye(8)[4]

    def mapping(u, v):
        return base + 0.1 * (u * d1 + v * d2)

    patch = SurfacePatch.from_function(mapping, (9, 9))
    # grid point (i, j) samples the map at (u, v) = (i / 8, j / 8)
    for i, j in ((0, 0), (8, 8), (4, 2)):
        np.testing.assert_array_equal(patch.grid[i, j], mapping(i / 8, j / 8))


@pytest.mark.parametrize("origin", [(0.5, 0.5), (199.5 / 200, 0.5 / 200)])
def test_from_function_on_a_planar_map_has_the_broadcast_grid_bits(origin):
    local = np.random.default_rng(4242)
    center = random_generic_octet(local, margin=0.25)
    center /= np.linalg.norm(center)
    basis = np.linalg.qr(local.standard_normal((8, 2)))[0].T
    u0, v0 = origin

    def mapping(u, v):
        return center + 0.05 * ((u - u0) * basis[0] + (v - v0) * basis[1])

    want = SurfacePatch.from_function(mapping, (201, 201)).grid
    got = planar_grid(center, basis, 0.05, (201, 201), origin)
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


def test_closed_surface_flux_vanishes_in_generic_region():
    frame = np.eye(8)[[0, 3, 5]]
    patch = spherical_patch(rest_point(), frame, 0.05, (0.0, np.pi), (101, 201))
    for level in (1, 2, 3):
        assert abs(surface_flux(patch, level)) < 1e-4


def test_closed_surface_flux_quantized_around_degeneracy():
    sphere = spherical_patch(E8, FRAME123, 1e-3, (0.0, np.pi), (201, 201))
    f1 = surface_flux(sphere, 1)
    assert abs(abs(f1) - 2 * np.pi) < 1e-2
    # its boundary is degenerate, so the loop phase is 0 = flux (mod 2 pi)
    assert abs(wrap_angle(f1)) < 1e-2


def test_stokes_consistency_on_random_patches():
    for k in range(6):
        center = random_generic_octet(rng, margin=0.25)
        center /= np.linalg.norm(center)
        basis = np.linalg.qr(rng.standard_normal((8, 2)))[0].T
        patch = SurfacePatch(planar_grid(center, basis, 0.05, (201, 201)))
        level = 1 + (k % 3)
        flux = surface_flux(patch, level)
        phase = loop_phase(patch.boundary(), level)
        assert abs(wrap_angle(phase - flux)) < 1e-3


def test_flux_sum_rule_check_gives_each_surface_flux_and_their_sum():
    # the plain sum of the three fluxes: at most 6.1e-18 measured on 72 such
    # planar patches, 8.9e-13 on the sphere, whose fluxes are +-2 pi
    r = np.random.default_rng(31)
    patches = []
    for _ in range(6):
        center = random_generic_octet(r, margin=0.25)
        center /= np.linalg.norm(center)
        axes = np.linalg.qr(r.standard_normal((8, 2)))[0].T
        patches.append((SurfacePatch(planar_grid(center, axes, 0.05, (101, 101))), 1e-16))
    patches.append((spherical_patch(E8, FRAME123, 1e-3, shape=(64, 128)), 5e-12))
    for patch, bound in patches:
        fluxes, total = flux_sum_rule_check(patch)
        assert flux_bits(fluxes) == flux_bits([surface_flux(patch, a) for a in (1, 2, 3)])
        assert total == sum(fluxes) and abs(total) < bound


def test_phase_sum_rule_on_generic_loop():
    path = circle_loop(rest_point(), np.eye(8)[1], np.eye(8)[6], 0.25, 1200)
    phases, total = phase_sum_rule_check(path)
    assert abs(total) < 1e-3
    assert abs(wrap_angle(sum(phases))) < 1e-3


def test_phase_sum_rule_near_upper_degeneracy():
    theta0 = 1.1
    n = 1500
    angles = 2 * np.pi * np.arange(n) / n
    pts = np.tile(E8, (n, 1))
    r = 1e-3
    pts[:, 0] = r * np.sin(theta0) * np.cos(angles)
    pts[:, 1] = r * np.sin(theta0) * np.sin(angles)
    pts[:, 2] = r * np.cos(theta0)
    phases, total = phase_sum_rule_check(LoopPath(pts))
    assert abs(total) < 1e-3
    assert phases[0] == pytest.approx(-phases[1], abs=1e-3)
    assert abs(phases[2]) < 1e-3


def random_patch(shape):
    center = random_generic_octet(rng, margin=0.25)
    center /= np.linalg.norm(center)
    return SurfacePatch(center + 0.02 * rng.standard_normal(shape + (8,)))


def cell_quadrature(g):
    """Centers and (u, v) Jacobian vectors of every cell of the whole grid."""
    centers = (g[:-1, :-1] + g[1:, :-1] + g[:-1, 1:] + g[1:, 1:]) / 4.0
    du = ((g[1:, :-1] + g[1:, 1:]) - (g[:-1, :-1] + g[:-1, 1:])) / 2.0
    dv = ((g[:-1, 1:] + g[1:, 1:]) - (g[:-1, :-1] + g[1:, :-1])) / 2.0
    return centers, du, dv


def full_patch_flux(patch, level):
    # the whole-patch contraction the blocked quadrature must reproduce
    centers, du, dv = cell_quadrature(patch.grid)
    e, frames = gauge_fixed_frames(centers)
    return float(np.einsum("uvr,uvrs,uvs->", du, sum_over_states_coeffs(e, frames, level), dv))


@pytest.mark.parametrize("shape, budget", [
    ((201, 201), None),
    ((201, 201), 1400),  # 7-row blocks with a 4-row remainder
    ((2, 2), None),
    ((37, 5), None),
    ((37, 5), 10),
    ((3, 900), None),
    ((3, 900), 256),  # one cell row exceeds the budget
    ((3, spectrum._BLOCK_POINTS + 100), None),
])
def test_blocked_flux_matches_whole_patch_contraction(monkeypatch, shape, budget):
    if budget is not None:
        monkeypatch.setattr(spectrum, "_BLOCK_POINTS", budget)
    patch = random_patch(shape)
    for level in (1, 2, 3):
        want = full_patch_flux(patch, level)
        assert surface_flux(patch, level) == pytest.approx(want, rel=1e-12, abs=0.0)


def flux_bits(fluxes) -> list[int]:
    return np.array(fluxes).view(np.uint64).tolist()


@settings(max_examples=30, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), nu=st.integers(2, 24), nv=st.integers(2, 24),
       budget=st.integers(1, 200))
@example(seed=0, nu=9, nv=6, budget=5)  # one cell row per block
@example(seed=1, nu=12, nv=8, budget=3 * 7)  # 3-row blocks over 11 cell rows
@example(seed=2, nu=201, nv=201, budget=spectrum._BLOCK_POINTS)
def test_one_walk_fluxes_are_the_surface_fluxes(seed, nu, nv, budget):
    # one _surface_fluxes walk of a random planar patch gives each level's
    # surface_flux bit for bit, whatever the block budget
    r = np.random.default_rng(seed)
    center = random_generic_octet(r, margin=0.25)
    center /= np.linalg.norm(center)
    axes = np.linalg.qr(r.standard_normal((8, 2)))[0].T
    patch = SurfacePatch(planar_grid(center, axes, 0.05, (nu, nv)))
    with pytest.MonkeyPatch.context() as patched:
        patched.setattr(spectrum, "_BLOCK_POINTS", budget)
        want = [surface_flux(patch, level) for level in (1, 2, 3)]
        assert flux_bits(holonomy._surface_fluxes(patch, (1, 2, 3))) == flux_bits(want)


def test_degenerate_center_in_last_block_raises():
    nu, nv = 201, 201
    u0, v0 = (nu - 1.5) / (nu - 1), 0.5 / (nv - 1)
    # only (u0, v0), the center of the last cell row's first cell, is degenerate
    patch = SurfacePatch(planar_grid(E8, np.eye(8)[:2], 1e-2, (nu, nv), (u0, v0)))
    centers, _, _ = cell_quadrature(patch.grid)
    bad_rows = np.nonzero(~generic_mask(centers))[0]
    rows_per_block = spectrum._BLOCK_POINTS // (nv - 1)
    last_block_start = (nu - 2) // rows_per_block * rows_per_block
    assert bad_rows.tolist() == [nu - 2] and last_block_start > 0
    for level in (1, 2, 3):
        with pytest.raises(DegenerateInput, match="degenerate quadrature point"):
            surface_flux(patch, level)


def test_surface_flux_memory_is_bounded():
    patch = random_patch((201, 201))
    tracemalloc.start()
    try:
        surface_flux(patch, 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_patch_check_memory_is_bounded():
    grid = random_patch((201, 201)).grid
    tracemalloc.start()
    try:
        SurfacePatch(grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_surface_flux_peak_is_about_one_block():
    # 1024-cell blocks: about 0.49 MiB for a 201x201 patch (1.9 MiB at 4096)
    patch = random_patch((201, 201))
    tracemalloc.start()
    try:
        surface_flux(patch, 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * 2**20


def test_surface_flux_peak_is_one_lean_block():
    # One eigenvector column per cell and the resolvent density: about
    # 0.49 MiB, against 0.64 MiB with three columns and (N, 3, 3) tangents.
    patch = random_patch((201, 201))
    tracemalloc.start()
    try:
        surface_flux(patch, 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.55 * 2**20


def test_three_level_walk_peak_is_one_block():
    # Three eigenvector columns per cell and one density per level: about
    # 0.67 MiB, against 0.51 MiB for one level's surface_flux.
    patch = random_patch((201, 201))
    tracemalloc.start()
    try:
        holonomy._surface_fluxes(patch, (1, 2, 3))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.8 * 2**20


def test_patch_check_peak_is_about_one_block():
    grid = random_patch((201, 201)).grid
    tracemalloc.start()
    try:
        SurfacePatch(grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.25 * 2**20


@pytest.mark.parametrize("shape, budget", [
    ((201, 201), None),  # 5-row blocks; the last block is row 200 alone
    ((5, 300), 100),  # one grid row exceeds the budget
])
def test_patch_check_runs_over_row_blocks(monkeypatch, shape, budget):
    if budget is not None:
        monkeypatch.setattr(spectrum, "_BLOCK_POINTS", budget)
    grid = random_patch(shape).grid.copy()
    rows = max(1, spectrum._BLOCK_POINTS // shape[1])
    blocks = []
    real = holonomy._generic_closed_form

    def spy(xi, tol, message):
        blocks.append(len(xi))
        return real(xi, tol, message)

    monkeypatch.setattr(holonomy, "_generic_closed_form", spy)
    SurfacePatch(grid)
    assert blocks == [min(rows, shape[0] - start) for start in range(0, shape[0], rows)]
    assert len(blocks) > 1
    grid[-1, shape[1] // 2] = E8  # the only degenerate point, in the last block
    with pytest.raises(DegenerateInput, match="patch contains a degenerate grid point"):
        SurfacePatch(grid)


def test_from_function_rejects_wrong_value_shape():
    with pytest.raises(ValueError, match="8 components"):
        SurfacePatch.from_function(lambda u, v: np.zeros(3), (3, 3))
    with pytest.raises(ValueError, match="8 components"):
        SurfacePatch.from_function(lambda u, v: np.zeros((1, 8)), (3, 3))
    patch = SurfacePatch.from_function(lambda u, v: list(rest_point()), (2, 3))
    assert patch.grid.shape == (2, 3, 8) and patch.grid.dtype == float


@pytest.mark.parametrize("radius", [np.nan, np.inf, -np.inf, 0.0, -1e-3])
def test_circle_and_sphere_reject_a_bad_radius(radius):
    with pytest.raises(ValueError, match="radius must be positive and finite"):
        circle_loop(rest_point(), np.eye(8)[0], np.eye(8)[1], radius, 100)
    with pytest.raises(ValueError, match="radius must be positive and finite"):
        spherical_patch(E8, FRAME123, radius, (0.0, np.pi), (5, 9))


@pytest.mark.parametrize("samples", [10.5, 100.0, np.float64(100.0), "5", None])
def test_circle_loop_takes_an_integral_sample_count(samples):
    # 10.5 once built 11 unevenly spaced samples, "5" failed with numpy's text
    with pytest.raises(ValueError) as info:
        circle_loop(rest_point(), np.eye(8)[0], np.eye(8)[1], 0.1, samples)
    assert str(info.value) == f"samples must be an integer, got {samples!r}"
    loop = circle_loop(rest_point(), np.eye(8)[0], np.eye(8)[1], 0.1, np.int64(100))
    assert loop.samples.tobytes() == circle_loop(
        rest_point(), np.eye(8)[0], np.eye(8)[1], 0.1, 100).samples.tobytes()


@pytest.mark.parametrize("theta_range", [(0.0, np.nan), (np.nan, 1.0), (-np.inf, 1.0),
                                         (0.0, np.inf)])
def test_spherical_patch_rejects_a_non_finite_theta_range(theta_range):
    with pytest.raises(ValueError, match="theta_range must be finite"):
        spherical_patch(E8, FRAME123, 1e-3, theta_range, (5, 9))


@pytest.mark.parametrize("theta_range", [(0.0, 1e300), (1e300, np.pi), (-1e-3, np.pi),
                                         (np.pi, -1e-3)])
def test_spherical_patch_rejects_a_theta_range_wider_than_pi(theta_range):
    # at 1e300 the patch once wound round the sphere and returned a flux, exit 0
    with pytest.raises(ValueError, match=r"theta_range must span at most pi, got \("):
        spherical_patch(E8, FRAME123, 1e-3, theta_range, (5, 9))


@pytest.mark.parametrize("theta_range", [(0.0, np.pi), (-1e-05, 1.0), (-np.pi / 2, np.pi / 2),
                                         (np.pi, 0.0)])
def test_spherical_patch_takes_a_theta_range_of_at_most_pi(theta_range):
    patch = spherical_patch(E8, FRAME123, 1e-3, theta_range, (5, 9))
    assert patch.grid.shape == (5, 9, 8)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_circle_and_sphere_reject_non_finite_vectors(bad):
    center = rest_point()
    center[0] = bad
    axis = np.eye(8)[1].copy()
    axis[5] = bad
    with pytest.raises(ValueError, match="finite 8-component"):
        circle_loop(center, np.eye(8)[0], np.eye(8)[1], 0.1, 100)
    with pytest.raises(ValueError, match="finite 8-component"):
        circle_loop(rest_point(), np.eye(8)[0], axis, 0.1, 100)
    with pytest.raises(ValueError, match="center and frame must be finite"):
        spherical_patch(center, FRAME123, 1e-3, (0.0, np.pi), (5, 9))
    with pytest.raises(ValueError, match="center and frame must be finite"):
        spherical_patch(E8, np.stack([np.eye(8)[0], axis, np.eye(8)[2]]), 1e-3)


# |xi| about 1.4e78: the squared cross products behind the eigenvectors
# overflowed at this scale; phases and fluxes are of degree 0, so each is that
# of the loop or patch scaled by 2**-256, bit for bit
HUGE = np.array([0, 0, 6e77, 0, 0, 0, 0, 1.3e78])


def test_overflowing_loop_frames_are_a_typed_error():
    path = circle_loop(HUGE, np.eye(8)[0], np.eye(8)[1], 1e76, 50)
    image = circle_loop(np.ldexp(HUGE, -256), np.eye(8)[0], np.eye(8)[1], np.ldexp(1e76, -256), 50)
    assert path.samples.tobytes() == np.ldexp(image.samples, 256).tobytes()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for level in (1, 2, 3):
            assert loop_phase(path, level) == loop_phase(image, level)
        assert phase_sum_rule_check(path) == phase_sum_rule_check(image)


def test_overflowing_patch_frames_are_a_typed_error():
    patch = spherical_patch(HUGE, FRAME123, 1e76, (0.0, np.pi), (9, 17))
    image = spherical_patch(np.ldexp(HUGE, -256), FRAME123, np.ldexp(1e76, -256), (0.0, np.pi),
                            (9, 17))
    assert patch.grid.tobytes() == np.ldexp(image.grid, 256).tobytes()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for level in (1, 2, 3):
            assert surface_flux(patch, level) == surface_flux(image, level)


GRID_RULE = "a patch needs an (nu, nv, 8) grid with nu, nv >= 2"


@pytest.mark.parametrize("shape", [(-3, 5), (1, 5), (5, 1), (0, 0), (2.0, 5), (5,), (2, 3, 4), 7])
def test_a_bad_grid_shape_is_rejected_before_anything_is_built(shape):
    calls = []
    with pytest.raises(ValueError) as info:
        SurfacePatch.from_function(lambda u, v: calls.append((u, v)) or rest_point(), shape)
    assert str(info.value) == GRID_RULE
    assert calls == []
    with pytest.raises(ValueError) as info:
        spherical_patch(E8, FRAME123, 1e-3, (0.0, np.pi), shape)
    assert str(info.value) == GRID_RULE


def test_spherical_patch_rejects_a_center_that_is_not_an_8_vector():
    with pytest.raises(ValueError) as info:
        spherical_patch(np.zeros(7), FRAME123, 1e-3, (0.0, np.pi), (5, 9))
    assert str(info.value) == "center must have 8 components, got shape (7,)"


def test_a_block_past_half_the_float_range_is_quartered_to_the_unit_patch_flux():
    # a block with a coordinate of 2**1022 or more is quartered before its cell
    # centers are summed; the flux, of degree 0, is then the unit patch's
    r = np.random.default_rng(21)
    center = random_generic_octet(r, margin=0.25)
    center *= 1.5 / np.abs(center).max()
    axes = np.linalg.qr(r.standard_normal((8, 2)))[0].T
    grid = planar_grid(center, axes, 0.05, (21, 21))
    image = np.ldexp(grid, 1022)
    assert np.abs(image).max() >= 2.0**1022 and np.isfinite(image).all()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = [surface_flux(SurfacePatch(image), level) for level in (1, 2, 3)]
    assert flux_bits(got) == flux_bits([surface_flux(SurfacePatch(grid), level)
                                        for level in (1, 2, 3)])
