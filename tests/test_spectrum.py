import re
import warnings

import numpy as np
import pytest

from helpers import (gauge_fixed_frames_at, random_generic_octet, random_rest_frame,
                     random_special_unitary)
from su3holo import DegenerateInput
from su3holo.algebra import adjoint_matrix, invariants, octet_to_matrix
from su3holo.spectrum import (
    DegeneracyClass,
    classify,
    diagonalizer,
    eigenvalues,
    energy_gaps,
    energy_levels,
    generic_mask,
    octet_norm,
    phase_angle,
    rest_frame,
)

rng = np.random.default_rng(99)


def e(r):
    out = np.zeros(8)
    out[r - 1] = 1.0
    return out


SIGMA23_DIR = np.sqrt(3) / 2 * e(3) + 0.5 * e(8)  # unit vector with cubic = +1


def test_phase_angle_fixed_values():
    assert phase_angle(e(8)) == pytest.approx(np.pi / 6)
    assert phase_angle(e(3)) == pytest.approx(np.pi / 3)
    assert phase_angle(SIGMA23_DIR) == pytest.approx(np.pi / 2)
    with pytest.raises(ValueError):
        phase_angle(np.zeros(8))


@pytest.mark.parametrize("xi, message", [
    (np.where(e(1) > 0, np.inf, 0.0), "phase_angle requires finite octet components"),  # nan
    (np.where(e(8) > 0, np.nan, 0.0), "phase_angle requires finite octet components"),  # pi/3
    (np.stack([e(8), np.where(e(3) > 0, -np.inf, 0.0)]),
     "phase_angle requires finite octet components"),
    # |xi|^3 overflowed here and warned; phi is of degree 0, that of e(1)
    (1e200 * e(1), None),
], ids=["inf", "nan", "block", "overflow"])
def test_phase_angle_rejects_a_non_finite_input(xi, message):
    if message is None:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert phase_angle(xi) == phase_angle(e(1))
        return
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        phase_angle(xi)


def test_phase_angle_of_a_block_is_each_rows():
    block = np.stack([e(8), e(3), SIGMA23_DIR])
    np.testing.assert_array_equal(phase_angle(block), [phase_angle(xi) for xi in block])


def test_phase_angle_is_adjoint_invariant():
    for _ in range(50):
        xi = rng.standard_normal(8)
        d = adjoint_matrix(random_special_unitary(rng))
        assert abs(phase_angle(d @ xi) - phase_angle(xi)) < 1e-9


def test_eigenvalues_fixed_cases():
    np.testing.assert_allclose(energy_levels(e(3)), [0.5, 0.0, -0.5], atol=1e-15)
    s = eigenvalues(e(8))
    c = 1 / (2 * np.sqrt(3))
    np.testing.assert_allclose([s.e1, s.e2, s.e3], [c, c, -2 * c], atol=1e-15)
    assert s.e12 == pytest.approx(0.0, abs=1e-15)
    z = eigenvalues(np.zeros(8))
    assert (z.e1, z.e2, z.e3) == (0.0, 0.0, 0.0)
    assert np.isnan(z.phi)
    assert z.degeneracy is DegeneracyClass.TRIPLE_DEGENERATE


def test_eigenvalues_match_dense_solver():
    xis = rng.standard_normal((500, 8)) * 10.0 ** rng.uniform(-3, 3, size=(500, 1))
    closed = energy_levels(xis)
    dense = np.linalg.eigvalsh(octet_to_matrix(xis))[..., ::-1]
    scaled = np.abs(closed - dense).max(axis=1) / np.linalg.norm(xis, axis=1)
    assert scaled.max() < 1e-10


def test_spectral_structure_invariants():
    for _ in range(200):
        xi = rng.standard_normal(8)
        s = eigenvalues(xi)
        assert s.e1 >= s.e2 >= s.e3
        assert abs(s.e1 + s.e2 + s.e3) < 1e-12 * max(1.0, octet_norm(xi))
        assert s.e13 == pytest.approx(s.e12 + s.e23, rel=1e-12, abs=1e-15)
        assert np.pi / 6 - 1e-12 <= s.phi <= np.pi / 2 + 1e-12


def test_classify():
    assert classify(e(8)) is DegeneracyClass.UPPER_DEGENERATE
    assert classify(SIGMA23_DIR) is DegeneracyClass.LOWER_DEGENERATE
    assert classify(np.zeros(8)) is DegeneracyClass.TRIPLE_DEGENERATE
    assert classify(e(3) + 3.0 * e(8)) is DegeneracyClass.GENERIC
    with pytest.raises(ValueError):
        classify(e(3), tol=0.0)
    mask = generic_mask(np.stack([e(8), e(3) + 3.0 * e(8), np.zeros(8)]))
    np.testing.assert_array_equal(mask, [False, True, False])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_classify_rejects_non_finite_input(bad):
    xi = e(3) + 3.0 * e(8)
    xi[0] = bad
    with pytest.raises(ValueError, match="finite"):
        classify(xi)
    with pytest.raises(ValueError, match="finite"):
        eigenvalues(xi)
    assert not generic_mask(xi[None])[0]


def test_degeneracy_boundaries_match_cubic_extremes():
    # E12 -> 0 exactly as cubic -> -|xi|^3, and E23 -> 0 as cubic -> +|xi|^3
    for delta in (1e-2, 1e-5, 0.0):
        # the gap loses accuracy like eps/gap near the cone; budget for it
        gap_tol = 1e-12 + 3e-16 / max(delta, 1e-9)
        xi = delta * e(3) + e(8)
        quad, cubic = invariants(xi)
        e12, _, _ = energy_gaps(xi)
        assert e12 == pytest.approx(delta, abs=gap_tol)
        assert cubic + quad**1.5 == pytest.approx(4.5 * delta**2, rel=1e-4, abs=1e-12)
        got = classify(xi)
        want = DegeneracyClass.UPPER_DEGENERATE if delta <= 1e-9 else DegeneracyClass.GENERIC
        assert got is want
        mirror = (np.sqrt(3) / 2 - delta) * e(3) + 0.5 * e(8)
        _, cubic_m = invariants(mirror)
        _, e23, _ = energy_gaps(mirror)
        assert e23 == pytest.approx(delta / 2, abs=gap_tol)
        assert cubic_m < invariants(mirror)[0] ** 1.5 + 1e-15
    d = adjoint_matrix(random_special_unitary(rng))
    assert classify(d @ e(8)) is DegeneracyClass.UPPER_DEGENERATE
    assert classify(d @ SIGMA23_DIR) is DegeneracyClass.LOWER_DEGENERATE


def test_rest_frame_fixed_point_and_examples():
    xi = e(3) + 2.0 * e(8)
    np.testing.assert_allclose(rest_frame(xi), xi, atol=1e-14)
    # e1 and e3 share the spectrum {1/2, 0, -1/2}; both map to the ordered
    # diagonal representative (0,0,1/2,0,...,sqrt(3)/2)
    want = 0.5 * e(3) + np.sqrt(3) / 2 * e(8)
    np.testing.assert_allclose(rest_frame(e(1)), want, atol=1e-14)
    np.testing.assert_allclose(rest_frame(e(3)), want, atol=1e-14)
    np.testing.assert_allclose(rest_frame(np.zeros(8)), np.zeros(8))


def test_rest_frame_preserves_invariants_and_is_idempotent():
    for _ in range(100):
        xi = rng.standard_normal(8)
        rf = rest_frame(xi)
        assert np.abs(rf[[0, 1, 3, 4, 5, 6]]).max() == 0.0
        assert rf[7] >= rf[2] / np.sqrt(3) - 1e-12 >= -1e-12
        q1, c1 = invariants(xi)
        q2, c2 = invariants(rf)
        assert q2 == pytest.approx(q1, rel=1e-10)
        assert c2 == pytest.approx(c1, rel=1e-10, abs=1e-10)
        np.testing.assert_allclose(rest_frame(rf), rf, atol=1e-13)
        s = eigenvalues(xi)
        assert rf[2] == pytest.approx(s.e12, abs=1e-13)
        assert rf[7] == pytest.approx((s.e13 + s.e23) / np.sqrt(3), abs=1e-13)


def test_diagonalizer_identity_on_ordered_rest_frame():
    xi, _, _ = random_rest_frame(rng)
    np.testing.assert_allclose(diagonalizer(xi), np.eye(3), atol=1e-15)


def test_diagonalizer_on_lambda1_direction():
    a = diagonalizer(e(1))
    h = octet_to_matrix(e(1))
    np.testing.assert_allclose(
        a.conj().T @ h @ a, np.diag([0.5, 0.0, -0.5]), atol=1e-14
    )
    s = 1 / np.sqrt(2)
    np.testing.assert_allclose(np.abs(a[:, 0]), [s, s, 0], atol=1e-14)
    np.testing.assert_allclose(np.abs(a[:, 1]), [0, 0, 1], atol=1e-14)
    np.testing.assert_allclose(np.abs(a[:, 2]), [s, s, 0], atol=1e-14)
    assert np.linalg.det(a) == pytest.approx(1.0, abs=1e-12)
    # gauge rule: pivot components real positive in the first two columns
    assert a[0, 0].real > 0 and abs(a[0, 0].imag) < 1e-14
    assert a[2, 1].real > 0 and abs(a[2, 1].imag) < 1e-14


def test_diagonalizer_random_residual_and_determinant():
    for _ in range(100):
        xi = random_generic_octet(rng)
        a = diagonalizer(xi)
        h = octet_to_matrix(xi)
        resid = np.abs(a.conj().T @ h @ a - octet_to_matrix(rest_frame(xi))).max()
        assert resid < 1e-9 * octet_norm(xi)
        assert abs(np.linalg.det(a) - 1.0) < 1e-10
        np.testing.assert_allclose(a.conj().T @ a, np.eye(3), atol=1e-10)


def test_diagonalizer_rejects_degenerate_input():
    for bad in (e(8), SIGMA23_DIR, np.zeros(8)):
        with pytest.raises(DegenerateInput):
            diagonalizer(bad)


@pytest.mark.parametrize("pivots, reason", [
    ((0, 1), "zero"),  # e1's middle eigenvector is e3, whose row 1 is zero
    ((1, 1), "zero"),
    ((0, 5), "row indices"),
    ((-1, 0), "row indices"),
    ((0,), "row indices"),
    ((0, 1, 2), "row indices"),
    ((0.0, 1.0), "row indices"),
])
def test_diagonalizer_rejects_bad_pivots(pivots, reason):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=re.escape(f"pivots {pivots!r}") + ".*" + reason):
            diagonalizer(e(1), pivots=pivots)


def test_diagonalizer_with_valid_pivots_keeps_its_frames():
    a = diagonalizer(e(1), pivots=(1, 2))
    np.testing.assert_allclose(np.abs(a[:, 1]), [0, 0, 1], atol=1e-14)
    for _ in range(50):
        xi = random_generic_octet(rng)
        a = diagonalizer(xi)
        chosen = (int(np.argmax(np.abs(a[:, 0]))), int(np.argmax(np.abs(a[:, 1]))))
        assert np.array_equal(diagonalizer(xi, pivots=chosen), a)
        for pivots in ((0, 1), (2, 0), (np.int64(1), np.int64(2))):
            want = gauge_fixed_frames_at(xi, energy_levels(xi), pivots)[1]
            assert np.array_equal(diagonalizer(xi, pivots=pivots), want)


OVERFLOWING = np.array([1e110, 2e110, 0, 0, 0, 0, 0, 3e110])


@pytest.mark.parametrize("func", [classify, eigenvalues, diagonalizer])
def test_closed_form_overflow_is_a_typed_error(func):
    # |xi|^3 overflows at this scale: unchecked, the record was NaN and read as
    # upper degenerate, then a typed error.  At unit scale the class and the
    # columns are those of OVERFLOWING / 2**366, and the levels and gaps
    # theirs times 2**366
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got, want = func(OVERFLOWING), func(np.ldexp(OVERFLOWING, -366))
    if func is eigenvalues:
        assert (got.phi, got.degeneracy) == (want.phi, DegeneracyClass.GENERIC)
        for name in ("e1", "e2", "e3", "e12", "e23", "e13"):
            assert getattr(got, name) == np.ldexp(getattr(want, name), 366)
    else:
        assert np.array_equal(got, want)


def test_overflow_check_keeps_small_and_finite_points():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert classify(1e-120 * e(1)) is DegeneracyClass.TRIPLE_DEGENERATE
        assert classify(OVERFLOWING, tol=1e111) is DegeneracyClass.TRIPLE_DEGENERATE
        s = eigenvalues(1e-100 * OVERFLOWING)
        assert s.degeneracy is DegeneracyClass.GENERIC
        assert np.allclose(s.energies, 1e10 * energy_levels(1e-110 * OVERFLOWING))
        xi = np.array([1, 0, 0, 0, 0, 0, 0, 0.05])
        s = eigenvalues(5e102 * xi)
        want = 5e102 * np.linalg.eigvalsh(octet_to_matrix(xi))[::-1]
        np.testing.assert_allclose(s.energies, want, rtol=1e-14)
        # |xi|^3 overflows while the cubic invariant stays finite: the closed
        # form gave phi = pi/3 and levels off by 3 % of |xi|, then a typed
        # error; at unit scale the levels are right
        s = eigenvalues(7e102 * xi)
        np.testing.assert_allclose(s.energies, 1.4 * want, rtol=1e-14)


def test_non_finite_input_names_the_caller():
    from su3holo.curvature import curvature_spectral

    xi = [np.nan] + [0.0] * 7
    for name, call in (("classify", classify), ("eigenvalues", eigenvalues),
                       ("curvature_spectral", lambda x: curvature_spectral(x, 1))):
        with pytest.raises(ValueError) as info:
            call(xi)
        assert str(info.value) == f"{name} requires finite octet components"
