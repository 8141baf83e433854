import warnings

import numpy as np
import pytest

from helpers import random_hermitian, random_special_unitary
from su3holo.algebra import (
    D_CONST,
    F_CONST,
    GELL_MANN,
    CoordinateForm,
    adjoint_matrix,
    cubic_invariant,
    from_coordinates,
    gellmann,
    invariants,
    matrix_to_octet,
    octet_star,
    octet_to_matrix,
    octet_wedge,
    quadratic_invariant,
    structure_constants,
    to_coordinates,
)
from su3holo.tensors import octet_matrix

rng = np.random.default_rng(7)

# independent nonzero structure constants, 1-based indices
F_TABLE = {
    (1, 2, 3): 1.0,
    (4, 5, 8): np.sqrt(3) / 2,
    (6, 7, 8): np.sqrt(3) / 2,
    (1, 4, 7): 0.5, (2, 4, 6): 0.5, (2, 5, 7): 0.5,
    (3, 4, 5): 0.5, (5, 1, 6): 0.5, (6, 3, 7): 0.5,
}
D_TABLE = {
    (1, 1, 8): 3**-0.5, (2, 2, 8): 3**-0.5, (3, 3, 8): 3**-0.5,
    (8, 8, 8): -(3**-0.5),
    (4, 4, 8): -0.5 * 3**-0.5, (5, 5, 8): -0.5 * 3**-0.5,
    (6, 6, 8): -0.5 * 3**-0.5, (7, 7, 8): -0.5 * 3**-0.5,
    (1, 4, 6): 0.5, (1, 5, 7): 0.5, (2, 4, 7): -0.5, (2, 5, 6): 0.5,
    (3, 4, 4): 0.5, (3, 5, 5): 0.5, (3, 6, 6): -0.5, (3, 7, 7): -0.5,
}


def e(r):
    out = np.zeros(8)
    out[r - 1] = 1.0
    return out


def test_gellmann_fixed_entries():
    np.testing.assert_array_equal(gellmann(1), [[0, 1, 0], [1, 0, 0], [0, 0, 0]])
    np.testing.assert_array_equal(gellmann(2), [[0, -1j, 0], [1j, 0, 0], [0, 0, 0]])
    np.testing.assert_allclose(gellmann(8), np.diag([1, 1, -2]) / np.sqrt(3))
    assert np.trace(gellmann(4) @ gellmann(4)).real == pytest.approx(2.0)
    for r in range(1, 9):
        lam = gellmann(r)
        np.testing.assert_allclose(lam, lam.conj().T)
        assert abs(np.trace(lam)) < 1e-15
    for bad in (0, 9):
        with pytest.raises(IndexError):
            gellmann(bad)


def test_structure_constant_tables():
    f, d = structure_constants()
    for (r, s, t), val in F_TABLE.items():
        assert f[r - 1, s - 1, t - 1] == pytest.approx(val, abs=1e-14)
    for (r, s, t), val in D_TABLE.items():
        assert d[r - 1, s - 1, t - 1] == pytest.approx(val, abs=1e-14)
    # full antisymmetry / symmetry
    assert np.abs(f + f.transpose(1, 0, 2)).max() < 1e-14
    assert np.abs(f - np.einsum("rst->str", f)).max() < 1e-14
    assert np.abs(d - d.transpose(1, 0, 2)).max() < 1e-14
    assert np.abs(d - np.einsum("rst->str", d)).max() < 1e-14
    assert f[0, 0, 7] == 0.0


def test_structure_constants_reproduce_products():
    f, d = structure_constants()
    for r in range(8):
        for s in range(8):
            lhs = gellmann(r + 1) @ gellmann(s + 1)
            rhs = (2.0 / 3.0) * (r == s) * np.eye(3) + sum(
                (d[r, s, t] + 1j * f[r, s, t]) * gellmann(t + 1) for t in range(8)
            )
            np.testing.assert_allclose(lhs, rhs, atol=1e-14)


def test_coordinate_chart_fixed_points():
    c = to_coordinates(gellmann(3) / 2)
    assert c.xi0 == pytest.approx(0.0, abs=1e-15)
    np.testing.assert_allclose(c.xi, e(3), atol=1e-15)
    c = to_coordinates(np.eye(3))
    assert c.xi0 == pytest.approx(1.0)
    np.testing.assert_allclose(c.xi, np.zeros(8), atol=1e-15)
    np.testing.assert_allclose(
        from_coordinates(CoordinateForm(0.0, e(8))),
        np.diag([1 / (2 * np.sqrt(3)), 1 / (2 * np.sqrt(3)), -1 / np.sqrt(3)]),
        atol=1e-15,
    )
    np.testing.assert_allclose(from_coordinates(CoordinateForm(1.0, np.zeros(8))), np.eye(3))


def test_coordinate_round_trip():
    for _ in range(50):
        h = random_hermitian(rng)
        np.testing.assert_allclose(from_coordinates(to_coordinates(h)), h, atol=1e-12)
        xi = rng.standard_normal(8)
        assert abs(np.trace(octet_to_matrix(xi))) < 1e-14
        np.testing.assert_allclose(matrix_to_octet(octet_to_matrix(xi)), xi, atol=1e-13)
    with pytest.raises(ValueError):
        to_coordinates(np.eye(2))


def test_the_coordinate_chart_rejects_what_it_cannot_chart():
    # these returned a NaN form, the form of another matrix, and a NaN matrix
    with pytest.raises(ValueError, match="^matrix entries must be finite$"):
        to_coordinates(np.full((3, 3), np.nan))
    with pytest.raises(ValueError, match="^matrix is not Hermitian within tolerance$"):
        to_coordinates([[0, 1, 0], [0, 0, 0], [0, 0, 0]])
    for xi0, xi in [(np.nan, np.zeros(8)), (0.0, np.r_[np.zeros(7), np.inf])]:
        with pytest.raises(ValueError, match="^coordinates must be finite$"):
            from_coordinates(CoordinateForm(xi0, xi))


def test_the_coordinate_chart_reads_an_accepted_matrix_as_it_is():
    # Hermitian within 1e-12: the coordinates are those of the matrix itself
    for _ in range(50):
        h = random_hermitian(rng)
        h[0, 1] += 1e-14
        c = to_coordinates(h)
        assert c.xi.tobytes() == np.einsum("rij,ji->r", GELL_MANN, h).real.tobytes()
        assert c.xi0 == float(np.trace(h).real) / 3.0


def test_octet_wedge_fixed_values_and_matrix_oracle():
    xi = rng.standard_normal(8)
    np.testing.assert_allclose(octet_wedge(xi, xi), np.zeros(8), atol=1e-13)
    # from f_123 = 1: e1 ^ e2 = -(1/2) e3
    np.testing.assert_allclose(octet_wedge(e(1), e(2)), -0.5 * e(3), atol=1e-15)
    for _ in range(50):
        x1, x2 = rng.standard_normal(8), rng.standard_normal(8)
        # H(x1) wedge H(x2) = i[H(x1), H(x2)] = (x1 ^ x2) . lambda at matrix level
        h1, h2 = octet_to_matrix(x1), octet_to_matrix(x2)
        lhs = 1j * (h1 @ h2 - h2 @ h1)
        np.testing.assert_allclose(lhs, octet_matrix(octet_wedge(x1, x2)), atol=1e-12)


def test_octet_star_fixed_values_and_matrix_oracle():
    x3, x8 = 0.8, -0.4
    xi = x3 * e(3) + x8 * e(8)
    want = 2 * x3 * x8 * e(3) + (x3**2 - x8**2) * e(8)
    np.testing.assert_allclose(octet_star(xi, xi), want, atol=1e-14)
    np.testing.assert_allclose(octet_star(e(8), e(8)), -e(8), atol=1e-14)
    for _ in range(50):
        x1, x2 = rng.standard_normal(8), rng.standard_normal(8)
        # traceless part of the symmetrized product carries the star product
        h1, h2 = octet_to_matrix(x1), octet_to_matrix(x2)
        lhs = (h1 @ h2 + h2 @ h1) / 2
        rhs = (x1 @ x2) / 6.0 * np.eye(3) + octet_matrix(octet_star(x1, x2)) / (4 * np.sqrt(3))
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def _raw_products(x1, x2):
    # the contractions at the vectors themselves, with no scaling
    return (-0.5 * np.einsum("rst,...s,...t->...r", F_CONST, x1, x2),
            np.sqrt(3.0) * np.einsum("rst,...s,...t->...r", D_CONST, x1, x2))


def test_octet_products_keep_the_bits_of_the_raw_contraction_where_it_is_normal():
    # each vector is scaled by its own power of two, which is exact
    for _ in range(300):
        x1, x2 = (rng.standard_normal(8) * 10.0 ** rng.uniform(-100, 100) for _ in "12")
        for got, want in zip((octet_wedge(x1, x2), octet_star(x1, x2)), _raw_products(x1, x2)):
            assert got.tobytes() == want.tobytes()
    x1, x2 = (rng.standard_normal((500, 8)) * 10.0 ** rng.uniform(-100, 100, (500, 1))
              for _ in "12")
    for got, want in zip((octet_wedge(x1, x2), octet_star(x1, x2)), _raw_products(x1, x2)):
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("product", [octet_wedge, octet_star])
def test_octet_products_scale_each_point_on_its_own(product):
    # rows 1e-300 and 1e300 apart: each row is the product of that row alone
    x1 = rng.standard_normal((4, 8)) * np.array([[1e-300], [1.0], [1e300], [1e-5]])
    x2 = rng.standard_normal((4, 8)) * np.array([[1e300], [1e-300], [1e-300], [1e5]])
    got = product(x1, x2)
    for i in range(4):
        assert got[i].tobytes() == product(x1[i], x2[i]).tobytes()
    assert product(x1[0], x2).tobytes() == np.stack([product(x1[0], y) for y in x2]).tobytes()


@pytest.mark.parametrize("product, name", [(octet_wedge, "octet wedge product"),
                                           (octet_star, "octet star product")])
def test_octet_products_raise_past_the_float_range_and_on_a_non_finite_component(product, name):
    # these returned inf or NaN, and warned
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"^the {name} is past the float range at these inputs$"):
            product(1e200 * np.ones(8), 1e200 * np.arange(8.0))
        for bad in (np.inf, -np.inf, np.nan):
            x = np.ones((2, 8))
            x[1, 3] = bad
            with pytest.raises(ValueError, match=f"^{product.__name__} requires finite octet components$"):
                product(x, np.ones(8))
        # a zero at unit scale stays zero
        assert not product(1e300 * e(1), 1e300 * e(2) if product is octet_star else 1e300 * e(1)).any()


def test_trace_pairings_on_coordinates():
    worst1, worst3 = 0.0, 0.0
    for _ in range(1000):
        x1, x2, x3v = (rng.standard_normal(8) for _ in range(3))
        h1, h2, h3 = (octet_to_matrix(x) for x in (x1, x2, x3v))
        worst1 = max(worst1, abs(np.trace(h1 @ h2).real - 0.5 * (x1 @ x2)))
        lhs = np.trace((h1 @ h2 + h2 @ h1) / 2 @ h3).real
        rhs = (octet_star(x1, x2) @ x3v) / (4 * np.sqrt(3))
        worst3 = max(worst3, abs(lhs - rhs))
    assert worst1 < 1e-11
    assert worst3 < 1e-11


def test_invariants_fixed_and_oracle():
    assert invariants(e(8)) == pytest.approx((1.0, -1.0))
    assert invariants(e(3)) == pytest.approx((1.0, 0.0), abs=1e-14)
    for _ in range(100):
        xi = rng.standard_normal(8)
        quad, cubic = invariants(xi)
        h = octet_to_matrix(xi)
        assert quad == pytest.approx(2 * np.trace(h @ h).real, rel=1e-12)
        assert cubic == pytest.approx(4 * np.sqrt(3) * np.trace(h @ h @ h).real, rel=1e-11, abs=1e-11)
        norm3 = quad**1.5
        assert -norm3 - 1e-12 <= cubic <= norm3 + 1e-12


def test_determinant_identity():
    # det H(0, xi) = cubic / (12 sqrt 3); a sixth of the commonly quoted value
    worst = 0.0
    for _ in range(1000):
        xi = rng.standard_normal(8)
        det = np.linalg.det(octet_to_matrix(xi)).real
        want = cubic_invariant(xi) / (12 * np.sqrt(3))
        worst = max(worst, abs(det - want) / max(1.0, abs(want)))
    assert worst < 1e-12


def test_adjoint_identity_and_torus_rotations():
    np.testing.assert_allclose(adjoint_matrix(np.eye(3)), np.eye(8), atol=1e-14)
    alpha = 0.37
    d = adjoint_matrix(np.diag(np.exp(1j * alpha * np.array([1.0, -1.0, 0.0]))))
    c2, s2 = np.cos(2 * alpha), np.sin(2 * alpha)
    c1, s1 = np.cos(alpha), np.sin(alpha)
    xi = rng.standard_normal(8)
    out = d @ xi
    assert out[0] == pytest.approx(xi[0] * c2 + xi[1] * s2)
    assert out[1] == pytest.approx(xi[1] * c2 - xi[0] * s2)
    assert out[2] == pytest.approx(xi[2])
    assert out[3] == pytest.approx(xi[3] * c1 + xi[4] * s1)
    assert out[4] == pytest.approx(xi[4] * c1 - xi[3] * s1)
    assert out[5] == pytest.approx(xi[5] * c1 - xi[6] * s1)
    assert out[6] == pytest.approx(xi[6] * c1 + xi[5] * s1)
    assert out[7] == pytest.approx(xi[7])


def test_adjoint_is_orthogonal_homomorphism_implementing_conjugation():
    for _ in range(30):
        a = random_special_unitary(rng)
        b = random_special_unitary(rng)
        da, db = adjoint_matrix(a), adjoint_matrix(b)
        np.testing.assert_allclose(da.T @ da, np.eye(8), atol=1e-10)
        assert np.linalg.det(da) == pytest.approx(1.0, abs=1e-10)
        np.testing.assert_allclose(adjoint_matrix(a @ b), da @ db, atol=1e-10)
        xi = rng.standard_normal(8)
        h = octet_to_matrix(xi)
        np.testing.assert_allclose(matrix_to_octet(a @ h @ a.conj().T), da @ xi, atol=1e-12)
    with pytest.raises(ValueError):
        adjoint_matrix(np.eye(3) * 2.0)


def test_adjoint_invariance_and_equivariance():
    for _ in range(30):
        a = random_special_unitary(rng)
        d = adjoint_matrix(a)
        x1, x2 = rng.standard_normal(8), rng.standard_normal(8)
        assert quadratic_invariant(d @ x1) == pytest.approx(quadratic_invariant(x1), rel=1e-10)
        assert cubic_invariant(d @ x1) == pytest.approx(cubic_invariant(x1), rel=1e-9, abs=1e-10)
        np.testing.assert_allclose(
            d @ octet_star(x1, x2), octet_star(d @ x1, d @ x2), atol=1e-10
        )
        np.testing.assert_allclose(
            d @ octet_wedge(x1, x2), octet_wedge(d @ x1, d @ x2), atol=1e-10
        )
        assert (d @ x1) @ (d @ x2) == pytest.approx(x1 @ x2, rel=1e-10, abs=1e-10)


@pytest.mark.parametrize("bad", [np.full((3, 3), np.nan), np.diag([np.inf, 1.0, 1.0]),
                                 1e300 * np.eye(3)], ids=["nan", "inf", "overflow"])
def test_adjoint_matrix_rejects_a_non_finite_matrix_with_no_warning(bad):
    # det and matmul warned before the ValueError; the suite makes a warning an error
    with pytest.raises(ValueError, match="^a must be special-unitary within tol$"):
        adjoint_matrix(bad)
