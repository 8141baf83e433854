import warnings

import numpy as np
import pytest

from helpers import random_generic_octet, random_rest_frame
from su3holo import DegenerateInput
from su3holo.algebra import gellmann, octet_star
from su3holo.curvature import curvature_rest_frame, curvature_spectral
from su3holo.spectrum import diagonalizer, eigenvalues
from su3holo.tensors import (
    REST_DECOUPLET,
    IrreducibleParts,
    curvature_from_parts,
    decouplet_weight,
    delta_tensors,
    from_tensor_components,
    octet_coefficients,
    octet_components,
    octet_from_coefficients,
    octet_matrix,
    project_irreducible,
    reconstitute,
    to_tensor_components,
)

rng = np.random.default_rng(404)


def e(r):
    out = np.zeros(8)
    out[r - 1] = 1.0
    return out


def random_antisym():
    t = rng.standard_normal((8, 8))
    return t - t.T


def irr_table(e12, e23, level):
    """Rest-frame irreducible values (w123, x3, x8) for the level's curvature."""
    e13 = e12 + e23
    s3 = np.sqrt(3)
    if level == 1:
        return (
            1j * (1 / e13**2 - 1 / e12**2),
            -1 / e12**2 - 1 / (2 * e13**2),
            -s3 / (2 * e13**2),
        )
    if level == 2:
        return (
            1j * (1 / e12**2 - 1 / e23**2),
            1 / e12**2 + 1 / (2 * e23**2),
            -s3 / (2 * e23**2),
        )
    return (
        1j * (1 / e23**2 - 1 / e13**2),
        1 / (2 * e13**2) - 1 / (2 * e23**2),
        s3 / 2 * (1 / e13**2 + 1 / e23**2),
    )


def test_octet_matrix_round_trip():
    np.testing.assert_array_equal(octet_matrix(e(3)), gellmann(3))
    np.testing.assert_array_equal(octet_matrix(np.zeros(8)), np.zeros((3, 3)))
    for _ in range(20):
        x = rng.standard_normal(8)
        np.testing.assert_allclose(octet_components(octet_matrix(x)), x, atol=1e-13)
    with pytest.raises(ValueError):
        octet_components(np.eye(3))


def test_tensor_components_single_block_and_symmetries():
    t = np.zeros((8, 8))
    t[0, 1], t[1, 0] = 1.0, -1.0
    t4 = to_tensor_components(t).tensor
    want = np.einsum("ac,bd->abcd", gellmann(1), gellmann(2)) - np.einsum(
        "ac,bd->abcd", gellmann(2), gellmann(1)
    )
    np.testing.assert_allclose(t4, want, atol=1e-14)
    np.testing.assert_allclose(to_tensor_components(np.zeros((8, 8))).tensor, 0, atol=0)

    t4 = to_tensor_components(random_antisym()).tensor
    np.testing.assert_allclose(t4, np.einsum("abcd->cdab", t4).conj(), atol=1e-12)
    np.testing.assert_allclose(t4, -np.einsum("abcd->badc", t4), atol=1e-12)
    assert np.abs(np.einsum("abad->bd", t4)).max() < 1e-12
    assert np.abs(np.einsum("abcb->ac", t4)).max() < 1e-12

    with pytest.raises(ValueError):
        to_tensor_components(np.eye(8))


def test_tensor_round_trip_on_full_basis():
    worst = 0.0
    for r in range(8):
        for s in range(r + 1, 8):
            t = np.zeros((8, 8))
            t[r, s], t[s, r] = 1.0, -1.0
            back = from_tensor_components(to_tensor_components(t).tensor)
            worst = max(worst, np.abs(back - t).max())
    assert worst < 1e-12


def test_projection_rest_frame_values():
    for level in (1, 2, 3):
        xi, e12, e23 = random_rest_frame(rng)
        v = curvature_rest_frame(eigenvalues(xi), level).coeffs
        parts = project_irreducible(v)
        w123, x3, x8 = irr_table(e12, e23, level)
        assert parts.decouplet[0, 1, 2] == pytest.approx(w123, rel=1e-10)
        assert parts.antidecouplet[0, 1, 2] == pytest.approx(np.conj(w123), rel=1e-10)
        assert parts.octet[2] == pytest.approx(x3, rel=1e-10)
        assert parts.octet[7] == pytest.approx(x8, rel=1e-10)
        # decouplet parts of the rest-frame curvature are pure imaginary
        assert abs(parts.decouplet[0, 1, 2].real) < 1e-12
        # everything off the 123 slot vanishes
        w_copy = parts.decouplet.copy()
        for p in [(0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)]:
            w_copy[p] = 0.0
        assert np.abs(w_copy).max() < 1e-12


def test_projection_of_zero_and_reality():
    zero = project_irreducible(np.zeros((8, 8)))
    assert np.abs(zero.decouplet).max() == 0.0
    assert np.abs(zero.octet).max() == 0.0
    for _ in range(10):
        t = random_antisym()
        parts = project_irreducible(t)
        np.testing.assert_allclose(parts.antidecouplet, parts.decouplet.conj(), atol=1e-12)


def test_octet_shortcut_matches_four_index_route():
    for _ in range(20):
        t = random_antisym()
        parts = project_irreducible(t)
        np.testing.assert_allclose(octet_from_coefficients(t), parts.octet, atol=1e-12)


def test_reconstitution_round_trip():
    worst = 0.0
    for r in range(8):
        for s in range(r + 1, 8):
            t = np.zeros((8, 8))
            t[r, s], t[s, r] = 1.0, -1.0
            back = reconstitute(project_irreducible(t)).coefficients
            worst = max(worst, np.abs(back - t).max())
    assert worst < 1e-12
    for _ in range(10):
        t = random_antisym()
        back = reconstitute(project_irreducible(t)).coefficients
        assert np.abs(back - t).max() < 1e-12 * max(1.0, np.abs(t).max())


def test_pure_octet_parts_have_no_decouplet_projection():
    x = rng.standard_normal(8)
    zero3 = np.zeros((3, 3, 3), complex)
    t = reconstitute(IrreducibleParts(zero3, zero3, x))
    again = project_irreducible(t)
    assert np.abs(again.decouplet).max() < 1e-12
    np.testing.assert_allclose(again.octet, x, atol=1e-12)


def test_reconstitute_rejects_asymmetric_decouplet():
    w = np.zeros((3, 3, 3), complex)
    w[0, 1, 2] = 1.0  # one permutation only: not symmetric
    with pytest.raises(ValueError):
        reconstitute(IrreducibleParts(w, w.conj(), np.zeros(8)))


def test_reconstituted_irreducible_values_give_rest_frame_table():
    xi, e12, e23 = random_rest_frame(rng)
    for level in (1, 2, 3):
        w123, x3, x8 = irr_table(e12, e23, level)
        w = w123 * REST_DECOUPLET.astype(complex)
        x = x3 * e(3) + x8 * e(8)
        t = reconstitute(IrreducibleParts(w, w.conj(), x)).coefficients
        want = curvature_rest_frame(eigenvalues(xi), level).coeffs
        np.testing.assert_allclose(t, want, atol=1e-12 * np.abs(want).max())


def test_octet_coefficients_reproduce_irreducible_values():
    for _ in range(20):
        xi, e12, e23 = random_rest_frame(rng)
        eta = octet_star(xi, xi)
        pref = 1.0 / (xi[2] * (xi[2] ** 2 - 3 * xi[7] ** 2))
        for level in (1, 2, 3):
            lam, mu = octet_coefficients(level, xi)
            _, x3, x8 = irr_table(e12, e23, level)
            # oracle: solve the 2x2 system for the expansion coefficients
            mat = np.array([[xi[2], eta[2]], [xi[7], eta[7]]])
            lam_o, mu_o = np.linalg.solve(mat, np.array([x3, x8]) / pref)
            assert lam == pytest.approx(lam_o, rel=1e-9, abs=1e-9)
            assert mu == pytest.approx(mu_o, rel=1e-9, abs=1e-9)
            got3 = pref * (lam * xi[2] + mu * eta[2])
            got8 = pref * (lam * xi[7] + mu * eta[7])
            assert got3 == pytest.approx(x3, rel=1e-10)
            assert got8 == pytest.approx(x8, rel=1e-10)


def test_octet_coefficient_prefactor_identity_and_level_sums():
    for _ in range(20):
        xi, e12, e23 = random_rest_frame(rng)
        e13 = e12 + e23
        assert xi[2] * (xi[2] ** 2 - 3 * xi[7] ** 2) == pytest.approx(
            -4 * e12 * e13 * e23, rel=1e-11
        )
        lams, mus = zip(*(octet_coefficients(a, xi) for a in (1, 2, 3)))
        scale = max(abs(v) for v in lams + mus)
        assert abs(sum(lams)) < 1e-12 * scale
        assert abs(sum(mus)) < 1e-12 * scale
        assert sum(decouplet_weight(a, e12, e23) for a in (1, 2, 3)) == pytest.approx(
            0.0, abs=1e-12
        )
    with pytest.raises(DegenerateInput):
        octet_coefficients(1, e(8))
    with pytest.raises(ValueError):
        octet_coefficients(1, random_generic_octet(rng))  # not rest-frame form


def test_delta_tensors_rest_frame_and_symmetry():
    xi, _, _ = random_rest_frame(rng)
    field = delta_tensors(xi)
    np.testing.assert_allclose(field.decouplet, REST_DECOUPLET, atol=1e-14)
    np.testing.assert_allclose(field.antidecouplet, REST_DECOUPLET, atol=1e-14)
    gen = random_generic_octet(rng)
    field = delta_tensors(gen)
    for perm in [(0, 2, 1), (1, 0, 2), (2, 1, 0), (1, 2, 0), (2, 0, 1)]:
        np.testing.assert_allclose(field.decouplet, field.decouplet.transpose(perm), atol=1e-13)
    np.testing.assert_allclose(field.antidecouplet, field.decouplet.conj(), atol=1e-13)


def test_delta_tensors_gauge_invariance():
    xi = random_generic_octet(rng)
    base = delta_tensors(xi)
    a = diagonalizer(xi)
    for _ in range(10):
        # residual torus freedom: right-multiply by a det-1 diagonal phase
        alpha, beta = rng.uniform(0, 2 * np.pi, size=2)
        torus = np.diag(np.exp(1j * np.array([alpha, beta, -alpha - beta])))
        a_alt = a @ torus
        alt = np.einsum("ad,be,cf,def->abc", a_alt, a_alt, a_alt,
                        REST_DECOUPLET.astype(complex))
        np.testing.assert_allclose(alt, base.decouplet, atol=1e-12)
    # a different pivot rule only changes the diagonalizer by a torus factor
    alt_a = diagonalizer(xi, pivots=(1, 2))
    alt = np.einsum("ad,be,cf,def->abc", alt_a, alt_a, alt_a,
                    REST_DECOUPLET.astype(complex))
    np.testing.assert_allclose(alt, base.decouplet, atol=1e-12)


def test_curvature_from_parts_matches_other_routes():
    xi, e12, e23 = random_rest_frame(rng)
    for level in (1, 2, 3):
        got = curvature_from_parts(xi, level).coeffs
        want = curvature_rest_frame(eigenvalues(xi), level).coeffs
        np.testing.assert_allclose(got, want, atol=1e-11 * np.abs(want).max())
    for _ in range(20):
        gen = random_generic_octet(rng)
        for level in (1, 2, 3):
            got = curvature_from_parts(gen, level).coeffs
            want = curvature_spectral(gen, level).coeffs
            assert np.abs(got - want).max() < 1e-9 * np.abs(want).max()
    with pytest.raises(DegenerateInput):
        curvature_from_parts(e(8), 1)


@pytest.mark.parametrize("level, e12, e23, message", [
    (2, 0.0, 1.0, "e12 must be positive and finite, got 0.0"),
    (2, 1.0, float("nan"), "e23 must be positive and finite, got nan"),
    (2, 1e200, 1.0, "a squared gap is outside the float range"),  # E12**2 overflows
    (1, 1e-170, 1.0, "a squared gap is outside the float range"),  # E12**2 underflows to 0
    (1, np.array([0.5, 1e-170]), 1.0, "a squared gap is outside the float range"),
], ids=["zero", "nan", "overflow", "underflow", "array-underflow"])
def test_decouplet_weight_raises_a_typed_error(level, e12, e23, message):
    with pytest.raises(ValueError) as info:
        decouplet_weight(level, e12, e23)
    assert type(info.value) is ValueError and str(info.value) == message


def test_decouplet_weight_names_an_overflowing_sum_of_array_gaps():
    # E13 = E12 + E23 overflows: the sum is taken where the pair terms raise
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^a squared gap is outside the float range$"):
            decouplet_weight(1, np.array([1e308]), np.array([1e308]))
