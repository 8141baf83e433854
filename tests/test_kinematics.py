import warnings

import numpy as np
import pytest

from helpers import random_generic_octet, random_hermitian, random_special_unitary
from su3holo.algebra import adjoint_matrix, octet_to_matrix
from su3holo.kinematics import hermitian, orbit_type
from su3holo.spectrum import DegeneracyClass, classify

rng = np.random.default_rng(2024)


def test_hermitian_constructor_symmetrizes_and_rejects():
    h = hermitian([[1.0, 2 + 1j], [2 - 1j, -1.0]])
    np.testing.assert_allclose(h, h.conj().T)
    with pytest.raises(ValueError):
        hermitian([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ValueError):
        hermitian(np.zeros((2, 3)))


def test_hermitian_returns_an_exactly_hermitian_input_unchanged():
    # so that orbit_type classifies the classifier's own inputs as before
    proj = np.zeros((3, 3), complex)
    proj[0, 0] = 1.0
    for m in (octet_to_matrix(random_generic_octet(rng)), random_hermitian(rng, 4), proj,
              2.5 * np.eye(3)):
        assert np.array_equal(hermitian(m), m)


@pytest.mark.parametrize("bad, message", [
    (np.diag([1.0, 1.0, np.inf]), "matrix entries must be finite"),
    (np.diag([1.0, np.nan, 2.0]), "matrix entries must be finite"),
    (np.diag([1.0, complex(0.0, np.nan), 2.0]), "matrix entries must be finite"),
    # eigvalsh would read the lower triangle alone
    ([[1.0, 5.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, -2.0]],
     "matrix is not Hermitian within tolerance"),
    (np.zeros((0, 0)), "expected a nonempty square matrix, got shape (0, 0)"),
    (np.ones((2, 3)), "expected a nonempty square matrix, got shape (2, 3)"),
])
def test_hermitian_and_orbit_type_reject_bad_input(bad, message):
    for check in (hermitian, orbit_type):
        with pytest.raises(ValueError) as info:
            check(bad)
        assert str(info.value) == message


@pytest.mark.parametrize("scale", [1e-3, 1.0, 1e6])
def test_hermitian_tolerance_is_relative_to_the_largest_entry(scale):
    # |M - M^dagger| is the upper-triangle entry; the bound is tol * max(1, |M|_max)
    bound = 1e-12 * max(1.0, 3.0 * scale)
    for deviation, ok in ((0.5 * bound, True), (2.0 * bound, False)):
        m = scale * np.diag([1.0, 2.0, 3.0]).astype(complex)
        m[0, 1] = deviation
        if ok:
            np.testing.assert_array_equal(hermitian(m), (m + m.conj().T) / 2)
        else:
            with pytest.raises(ValueError, match="not Hermitian"):
                hermitian(m)


def test_orbit_type_checks_hermiticity_at_its_own_tol():
    off = np.diag([1.0, 1.0, -2.0]).astype(complex)
    off[0, 1] = 1e-10  # within tol=1e-9 of Hermitian, not within 1e-12
    assert orbit_type(off).multiplicities == (2, 1)
    with pytest.raises(ValueError, match="not Hermitian"):
        orbit_type(off, tol=1e-12)


def test_orbit_type_signatures():
    h = random_hermitian(rng, traceless=True)
    desc = orbit_type(h)
    assert desc.multiplicities == (1, 1, 1)
    assert desc.orbit_dimension == 6
    assert desc.stabilizer == "U(1)xU(1)xU(1)"

    psi = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    psi /= np.linalg.norm(psi)
    proj = np.outer(psi, psi.conj())
    desc = orbit_type(proj)
    assert desc.multiplicities == (2, 1)
    assert desc.orbit_dimension == 4
    assert desc.stabilizer == "U(2)xU(1)"

    desc = orbit_type(1.7 * np.eye(3))
    assert desc.multiplicities == (3,)
    assert desc.orbit_dimension == 0


@pytest.mark.parametrize("h, mults, dim, stabilizer", [
    ([[3.0]], (1,), 0, "U(1)"),
    (np.diag([2.0, -1.0]), (1, 1), 2, "U(1)xU(1)"),
    (np.eye(2), (2,), 0, "U(2)"),
    (np.diag([1.0, 1.0, 0.0, 0.0]), (2, 2), 8, "U(2)xU(2)"),
    (np.diag([0.0, 1.0, 0.0, 0.0]), (3, 1), 6, "U(3)xU(1)"),
    (np.diag([4.0, 3.0, 2.0, 1.0]), (1, 1, 1, 1), 12, "U(1)xU(1)xU(1)xU(1)"),
])
def test_orbit_type_for_one_two_and_four_levels(h, mults, dim, stabilizer):
    assert orbit_type(h) == orbit_type(np.asarray(h) - 0.5 * np.eye(len(h)))
    desc = orbit_type(h)
    assert (desc.multiplicities, desc.orbit_dimension, desc.stabilizer) == (mults, dim, stabilizer)


E8 = np.eye(8)[7]
SPECTRAL_POINTS = {
    "generic": random_generic_octet(np.random.default_rng(7)),
    "lambda3": np.eye(8)[2],
    "upper-cone": E8,
    "lower-cone": -E8,
    "rotated-cone": adjoint_matrix(random_special_unitary(np.random.default_rng(11))) @ E8,
    "origin": np.zeros(8),
}
MULTIPLICITIES = {DegeneracyClass.GENERIC: (1, 1, 1), DegeneracyClass.UPPER_DEGENERATE: (2, 1),
                  DegeneracyClass.LOWER_DEGENERATE: (2, 1),
                  DegeneracyClass.TRIPLE_DEGENERATE: (3,)}


@pytest.mark.parametrize("name", SPECTRAL_POINTS)
def test_orbit_type_agrees_with_the_spectral_class(name):
    # the n-level eigensolver route against the su(3) closed form
    xi = SPECTRAL_POINTS[name]
    assert orbit_type(octet_to_matrix(xi)).multiplicities == MULTIPLICITIES[classify(xi)]


def test_orbit_type_is_conjugation_invariant_at_four_levels():
    psi = np.linalg.qr(random_hermitian(rng, 4))[0]  # a random unitary frame
    h = psi @ np.diag([1.0, 1.0, 0.0, 0.0]) @ psi.conj().T
    assert orbit_type(h).multiplicities == (2, 2)


def test_orbit_type_at_the_float_range_without_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert orbit_type(np.diag([1.5e308, 1.5e308, -1e308])).multiplicities == (2, 1)
        assert orbit_type(np.diag([1.7e308, -1.7e308, 0.0])).multiplicities == (1, 1, 1)


def test_orbit_type_shift_invariance_and_dimension_formula():
    for _ in range(20):
        h = random_hermitian(rng)
        c = rng.standard_normal()
        assert orbit_type(h) == orbit_type(h + c * np.eye(3))
    for mults, dim in [((1, 1, 1), 6), ((2, 1), 4), ((3,), 0)]:
        assert 9 - sum(m * m for m in mults) == dim
