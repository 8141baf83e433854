"""The spectral core: one closed-form evaluation per point, one Generic rule,
and an eigenvector kernel equal bit for bit to the stacked reference."""
import tracemalloc
import warnings

import numpy as np
import pytest

from helpers import (OVERFLOWING, copying_fix_gauge, gauge_fixed_frames_at, random_generic_octet,
                     random_rest_frame, random_special_unitary, stacked_eigenvector_columns)
from su3holo import curvature, holonomy, spectrum, tensors
from su3holo.algebra import adjoint_matrix, octet_to_matrix
from su3holo.spectrum import DegeneracyClass, classify, generic_mask

rng = np.random.default_rng(4242)


@pytest.fixture
def cubic_calls(monkeypatch):
    """Shapes of the arguments of every cubic-invariant evaluation."""
    calls = []
    real = spectrum.cubic_invariant

    def counted(xi):
        calls.append(np.shape(xi))
        return real(xi)

    monkeypatch.setattr(spectrum, "cubic_invariant", counted)
    return calls


@pytest.mark.parametrize("call, evaluations", [
    (lambda xi: spectrum.eigenvalues(xi), 1),
    (lambda xi: spectrum.classify(xi), 1),
    (lambda xi: spectrum.diagonalizer(xi), 1),
    (lambda xi: curvature.curvature_spectral(xi, 2), 1),
    (lambda xi: curvature.curvature_transported(xi, 2), 1),
    (lambda xi: curvature.weighted_sum(xi), 1),
    # xi itself, then its rest-frame representative inside octet_coefficients
    (lambda xi: tensors.curvature_from_parts(xi, 2), 2),
], ids=["eigenvalues", "classify", "diagonalizer", "curvature_spectral",
        "curvature_transported", "weighted_sum", "curvature_from_parts"])
def test_single_point_functions_evaluate_the_closed_form_once(cubic_calls, call,
                                                              evaluations):
    xi = random_generic_octet(rng)
    cubic_calls.clear()
    call(xi)
    assert cubic_calls == [(8,)] * evaluations


def test_surface_flux_evaluates_the_closed_form_once_per_block(cubic_calls, monkeypatch):
    rest = np.zeros(8)
    rest[2], rest[7] = 0.6, 1.3
    frame = np.eye(8)[[0, 1, 3]]
    patch = holonomy.spherical_patch(rest, frame, 0.05, shape=(7, 5))
    monkeypatch.setattr(holonomy, "_FLUX_BLOCK_CELLS", 8)  # 2 of the 6 cell rows
    cubic_calls.clear()  # the patch checked its grid on construction
    holonomy.surface_flux(patch, 1)
    assert cubic_calls == [(2, 4, 8)] * 3


def test_phase_sum_rule_check_evaluates_the_loop_once(cubic_calls):
    loop = holonomy.circle_loop(np.eye(8)[7], np.eye(8)[0], np.eye(8)[1], 1e-3, 400)
    cubic_calls.clear()  # the loop checked its samples on construction
    phases, _ = holonomy.phase_sum_rule_check(loop)
    assert cubic_calls == [(400, 8)]
    # the same phases, bit for bit, as one loop_phase call per level
    assert phases == tuple(holonomy.loop_phase(loop, a) for a in (1, 2, 3))


@pytest.mark.parametrize("budget, blocks", [
    (100, [100] * 8),
    (400, [400, 400]),
    (799, [799, 1]),
])
def test_loops_evaluate_the_closed_form_once_per_block(cubic_calls, monkeypatch, budget, blocks):
    loop = holonomy.circle_loop(np.eye(8)[7], np.eye(8)[0], np.eye(8)[1], 1e-3, 800)
    assert sum(blocks) == len(loop.samples)
    monkeypatch.setattr(holonomy, "_FLUX_BLOCK_CELLS", budget)
    for call in (lambda: holonomy.LoopPath(loop.samples), lambda: holonomy.loop_phase(loop, 2),
                 lambda: holonomy.phase_sum_rule_check(loop)):
        cubic_calls.clear()
        call()
        assert cubic_calls == [(size, 8) for size in blocks]


def _rest(e12: float, e23: float) -> np.ndarray:
    xi = np.zeros(8)
    xi[2], xi[7] = e12, (e12 + 2.0 * e23) / np.sqrt(3.0)
    return xi


def _near_cone(tol: float, factor: float, upper: bool) -> np.ndarray:
    # rest-frame point whose smaller gap is factor * tol * |xi|, the other gap 1
    small = factor * tol
    for _ in range(50):
        xi = _rest(small, 1.0) if upper else _rest(1.0, small)
        small = factor * tol * np.linalg.norm(xi)
    return xi


def _threshold_points(tol: float):
    """Points just below (factor 1 - 1e-6) and just above (1 + 1e-6) one
    threshold of the rule; returns them with two flags per point: above its
    threshold, and near a cone (else ``|xi|`` is near ``tol``)."""
    pts, generic, cone = [], [], []
    for factor in (1.0 - 1e-6, 1.0 + 1e-6):
        for upper in (True, False):
            xi = _near_cone(tol, factor, upper)
            for scale in (None, 0.1, 1.0, 1e3):
                pts.append(xi if scale is None
                           else scale * adjoint_matrix(random_special_unitary(rng)) @ xi)
        for _ in range(4):
            direction = random_generic_octet(rng)
            pts.append(factor * tol * direction / np.linalg.norm(direction))
        generic += [factor > 1.0] * 12
        cone += [True] * 8 + [False] * 4
    return np.array(pts), np.array(generic), np.array(cone)


@pytest.mark.parametrize("tol", [1e-2, 1e-3, spectrum.DEFAULT_CLASSIFY_TOL])
def test_classify_and_generic_mask_share_the_threshold_rule(tol):
    pts, generic, cone = _threshold_points(tol)
    single = np.array([classify(x, tol) is DegeneracyClass.GENERIC for x in pts])
    np.testing.assert_array_equal(single, [bool(generic_mask(x, tol)) for x in pts])
    np.testing.assert_array_equal(single, generic_mask(pts, tol))
    # The points straddle the rule.  Near the cones the closed-form gap
    # resolves 1e-6 of the threshold only for tol >= 1e-3 (it cancels).
    checked = ~cone | (tol >= 1e-3)
    np.testing.assert_array_equal(single[checked], generic[checked])


@pytest.mark.parametrize("scale", [1.0, 1e8], ids=["cubic-finite", "cubic-overflows"])
def test_generic_mask_rejects_a_point_whose_closed_form_is_not_finite(scale):
    pts = np.array([random_generic_octet(np.random.default_rng(5)), scale * OVERFLOWING])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert generic_mask(pts).tolist() == [True, False]
        assert not generic_mask(pts[1])
        with pytest.raises(ValueError, match="the closed form is not finite at"):
            classify(pts[1])


class _FixedDraws:
    """An rng stand-in whose standard-normal draws are the given rows."""

    def __init__(self, rows):
        self.rows = np.asarray(rows)

    def standard_normal(self, shape):
        assert shape[1:] == (8,)
        block, self.rows = self.rows[:shape[0]], self.rows[shape[0]:]
        return block


def test_random_generator_raises_at_a_draw_whose_closed_form_is_not_finite():
    from su3holo.sweep import random_generic

    local = np.random.default_rng(6)  # leaves the module stream to the other tests
    draws = _FixedDraws([random_generic_octet(local), OVERFLOWING, random_generic_octet(local)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="the closed form is not finite at") as exc:
            random_generic(draws, 3, spectrum.DEFAULT_CLASSIFY_TOL)
    assert str(exc.value).endswith(f"|xi| = {np.linalg.norm(OVERFLOWING):.6g}")


def _generic_points() -> np.ndarray:
    xi = rng.standard_normal((10500, 8)) * 10.0 ** rng.uniform(-3.0, 3.0, (10500, 1))
    xi = xi[generic_mask(xi)]
    assert len(xi) >= 10_000
    return xi


def _cone_points() -> np.ndarray:
    # rotated points at both cones, the small gap from about 1e-1 down to 1e-9 |xi|
    pts = [_rest(g, 1.0) if upper else _rest(1.0, g)
           for g in np.logspace(-9.0, -1.0, 60) for upper in (True, False)]
    return np.array([rng.uniform(0.1, 10.0) * adjoint_matrix(random_special_unitary(rng)) @ xi
                     for xi in pts])


def _diagonal_and_axis_points() -> np.ndarray:
    # rest frames (diagonal H) and points on the off-diagonal axes; at xi = e1
    # the top level's row pairs (0, 2) and (1, 2) have equal norms
    rest = [random_rest_frame(rng)[0] for _ in range(100)]
    axes = [s * np.eye(8)[r] for r in (0, 1, 3, 4, 5, 6) for s in (1.0, -2.5, 1e-3)]
    return np.array(rest + axes)


POINT_SETS = {
    "generic": _generic_points,
    "cones": _cone_points,
    "diagonal_and_axes": _diagonal_and_axis_points,
    "single": lambda: random_generic_octet(rng),
    "batch": lambda: rng.standard_normal((4, 5, 8)),
}


@pytest.fixture(params=list(POINT_SETS), scope="module")
def points(request):
    xi = POINT_SETS[request.param]()
    return xi, spectrum._closed_form(xi).levels


def test_eigenvector_kernel_equals_the_stacked_reference(points):
    xi, e = points
    h = octet_to_matrix(xi)
    assert np.array_equal(spectrum._eigenvector_columns(h, e), stacked_eigenvector_columns(h, e))


def test_single_point_kernel_equals_the_stacked_reference_bytes():
    # numpy's in-place complex product rounds differently on one-element
    # arrays, so a kernel that multiplies in place can pass on batches and
    # still move the bits of single points (about 7 % of them)
    draws = np.random.default_rng(77)
    for _ in range(500):
        xi = draws.standard_normal(8) * 10.0 ** draws.uniform(-3.0, 3.0)
        e = spectrum._closed_form(xi).levels
        h = octet_to_matrix(xi)
        got = spectrum._eigenvector_columns(h, e)
        assert got.tobytes() == stacked_eigenvector_columns(h, e).tobytes()


@pytest.mark.parametrize("pivots", [None, (0, 1), (2, 0)])
def test_frames_equal_the_stacked_reference(points, pivots):
    xi, e = points
    with np.errstate(invalid="ignore"):  # a pivot can hit a zero component on an axis
        want = copying_fix_gauge(stacked_eigenvector_columns(octet_to_matrix(xi), e), pivots)
        got = gauge_fixed_frames_at(xi, e, pivots)[1]
    assert got.flags.c_contiguous
    assert np.array_equal(got, want, equal_nan=True)


def test_axis_point_has_tied_candidates():
    xi = np.eye(8)[0]
    m = octet_to_matrix(xi) - spectrum.energy_levels(xi)[0] * np.eye(3)
    norms = [np.linalg.norm(np.cross(m[i], m[j])) for i, j in ((0, 1), (0, 2), (1, 2))]
    assert norms[1] == norms[2] > norms[0]


def test_frames_working_set_per_point():
    xi = rng.standard_normal((4096, 8))
    e = spectrum._closed_form(xi).levels
    tracemalloc.start()
    try:
        gauge_fixed_frames_at(xi, e)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1200 * len(xi)
