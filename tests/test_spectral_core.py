"""The spectral core: one closed-form evaluation per point, one Generic rule."""
import numpy as np
import pytest

from helpers import random_generic_octet, random_special_unitary
from su3holo import curvature, holonomy, spectrum, tensors
from su3holo.algebra import adjoint_matrix
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
