import warnings

import mpmath
import numpy as np
import pytest

from helpers import random_generic_octet, random_hermitian, random_special_unitary
from su3holo.algebra import gellmann, octet_to_matrix
from su3holo.kinematics import orbit_type
from su3holo.orbits import (
    orbit_invariants,
    orbit_metric_eval,
    symplectic_eval,
    symplectic_kernel_dim,
)

rng = np.random.default_rng(31)


def e(r):
    out = np.zeros(8)
    out[r - 1] = 1.0
    return out


def diag_traceless(e1, e2):
    return np.diag([e1, e2, -e1 - e2]).astype(complex)


def test_symplectic_kernel_statement():
    h = diag_traceless(1.0, 0.2)
    # anything commuting with H pairs to zero against every direction
    for commuting in (gellmann(3), gellmann(8)):
        for direction in (gellmann(1), gellmann(5), gellmann(6)):
            assert symplectic_eval(h, commuting, direction) == pytest.approx(0.0, abs=1e-14)


def test_symplectic_fixed_value_and_antisymmetry():
    h = diag_traceless(0.9, -0.1)
    got = symplectic_eval(h, gellmann(1), gellmann(2))
    assert got == pytest.approx(2 * (0.9 - (-0.1)))
    a, b = random_hermitian(rng, traceless=True), random_hermitian(rng, traceless=True)
    assert symplectic_eval(h, a, b) == pytest.approx(-symplectic_eval(h, b, a), rel=1e-12)
    with pytest.raises(ValueError):
        symplectic_eval(h, np.eye(3), b)


def test_symplectic_ad_invariance():
    for _ in range(30):
        h = random_hermitian(rng)
        x = random_hermitian(rng, traceless=True)
        y = random_hermitian(rng, traceless=True)
        u = random_special_unitary(rng)
        lhs = symplectic_eval(h, x, y)
        rhs = symplectic_eval(u.conj().T @ h @ u, u.conj().T @ x @ u, u.conj().T @ y @ u)
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-10)


def test_symplectic_kernel_dimensions():
    assert symplectic_kernel_dim(diag_traceless(1.0, 0.3)) == 2
    assert symplectic_kernel_dim(octet_to_matrix(e(8))) == 4
    assert symplectic_kernel_dim(1.3 * np.eye(3)) == 8


def test_kernel_dim_complements_orbit_dimension():
    for _ in range(20):
        h = random_hermitian(rng, traceless=True)
        assert symplectic_kernel_dim(h) + orbit_type(h).orbit_dimension == 8
    assert symplectic_kernel_dim(octet_to_matrix(e(8))) + orbit_type(
        octet_to_matrix(e(8))
    ).orbit_dimension == 8


def test_metric_fixed_values_and_symmetry():
    h = diag_traceless(0.8, 0.1)
    assert orbit_metric_eval(h, gellmann(3), gellmann(1)) == pytest.approx(0.0, abs=1e-14)
    e12 = 0.8 - 0.1
    assert orbit_metric_eval(h, gellmann(1), gellmann(1)) == pytest.approx(2 * e12**2)
    for _ in range(20):
        a = random_hermitian(rng, traceless=True)
        b = random_hermitian(rng, traceless=True)
        assert orbit_metric_eval(h, a, b) == pytest.approx(
            orbit_metric_eval(h, b, a), rel=1e-12, abs=1e-12
        )
        assert orbit_metric_eval(h, a, a) >= -1e-12


def test_metric_nullity_equals_symplectic_nullity():
    for h in (
        diag_traceless(1.0, 0.3),
        octet_to_matrix(e(8)),
        np.zeros((3, 3), complex),
        octet_to_matrix(random_generic_octet(rng)),
    ):
        lams = [gellmann(r) for r in range(1, 9)]
        gram_g = np.array([[orbit_metric_eval(h, a, b) for b in lams] for a in lams])
        sv = np.linalg.svd(gram_g, compute_uv=False)
        top = sv.max()
        nullity_g = 8 if top == 0 else int(np.sum(sv <= 1e-9 * top))
        assert nullity_g == symplectic_kernel_dim(h)


def test_orbit_invariants():
    assert orbit_invariants(e(3)) == pytest.approx((1.0, 0.0, 6.0), abs=1e-14)
    assert orbit_invariants(e(8)) == pytest.approx((1.0, -1.0, 4.0))
    assert orbit_invariants(np.zeros(8)) == (0.0, 0.0, 0)


NON_FINITE = [np.full((3, 3), np.nan), np.diag([np.inf, 0.0, -np.inf]).astype(complex)]


@pytest.mark.parametrize("bad", NON_FINITE, ids=["nan", "inf"])
@pytest.mark.parametrize("pairing", [symplectic_eval, orbit_metric_eval])
def test_pairings_reject_a_non_finite_matrix_naming_it(pairing, bad):
    # these returned nan, or warned from matmul
    h, a, b = diag_traceless(1.0, 0.2), gellmann(1), gellmann(2)
    with pytest.raises(ValueError, match="^h must have finite entries$"):
        pairing(bad, a, b)
    with pytest.raises(ValueError, match="^direction_a must have finite entries$"):
        pairing(h, bad, b)
    with pytest.raises(ValueError, match="^direction_b must have finite entries$"):
        pairing(h, a, bad)


@pytest.mark.parametrize("pairing", [symplectic_eval, orbit_metric_eval])
def test_pairings_name_a_matrix_of_the_wrong_shape(pairing):
    with pytest.raises(ValueError, match=r"^h must be a 3x3 matrix, got shape \(4, 4\)$"):
        pairing(np.eye(4), gellmann(1), gellmann(2))
    with pytest.raises(ValueError, match="^direction_b must be traceless$"):
        pairing(np.eye(3), gellmann(1), np.eye(3))


@pytest.mark.parametrize("bad, message", [
    (NON_FINITE[0], "h must have finite entries"),  # SVD did not converge
    (NON_FINITE[1], "h must have finite entries"),
    (np.eye(4), r"h must be a 3x3 matrix, got shape \(4, 4\)"),  # a numpy broadcast error
], ids=["nan", "inf", "4x4"])
def test_symplectic_kernel_dim_rejects_a_bad_matrix_naming_it(bad, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        symplectic_kernel_dim(bad)


HUGE = 1e300 * np.eye(3)


@pytest.mark.parametrize("pairing, name", [(symplectic_eval, "symplectic pairing"),
                                           (orbit_metric_eval, "orbit metric")])
def test_pairings_name_an_overflow_with_no_warning(pairing, name):
    # finite inputs whose products pass the float range: these warned from
    # matmul and returned inf or nan
    h = diag_traceless(1.0, 0.2)
    cases = [(h, 1e200 * gellmann(1), 1e200 * gellmann(2)),
             (HUGE, 1e300 * gellmann(1), 1e300 * gellmann(4)),
             (1e300 * h, 1e10 * gellmann(1), gellmann(2))]
    # an exact zero at unit scale stays 0: HUGE commutes with everything, and
    # at a diagonal h the metric pairs lambda1 with lambda2 to 0
    zero = (0, 1, 2) if pairing is orbit_metric_eval else (1,)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for i, args in enumerate(cases):
            if i in zero:
                assert pairing(*args) == 0.0
            else:
                with pytest.raises(ValueError, match=f"^the {name} is past the float range at these"):
                    pairing(*args)
        # one huge factor alone is fine where the product is finite
        assert pairing(HUGE, gellmann(1), gellmann(2)) == 0.0


@pytest.mark.parametrize("pairing, args, value", [
    # a @ b is 1e-600 before h scales it up: it read 0.0
    (symplectic_eval, (1e300 * diag_traceless(1.0, 0.2), 1e-300 * gellmann(1), 1e-300 * gellmann(2)),
     1.6e-300),
    # h @ a is 1e-400 before b scales it up: it read 0.0
    (orbit_metric_eval, (1e-200 * diag_traceless(1.0, 0.2), 1e-200 * gellmann(1),
                         1e300 * gellmann(1)), 1.28e-300),
    # h @ a is about 1e-320, below the normal range: it read 1.27983e-180
    (orbit_metric_eval, (1e-160 * diag_traceless(1.0, 0.2), 1e-160 * gellmann(1),
                         1e300 * gellmann(1)), 1.28e-180),
    # directions that commute with h keep their exact zero
    (symplectic_eval, (1e300 * diag_traceless(1.0, 0.2), 1e-300 * gellmann(3), 1e-300 * gellmann(1)),
     0.0),
    (orbit_metric_eval, (1e-200 * diag_traceless(1.0, 0.2), 1e-200 * gellmann(8),
                         1e300 * gellmann(1)), 0.0),
], ids=["symplectic", "metric", "metric-subnormal", "symplectic-commuting", "metric-commuting"])
def test_a_pairing_in_the_float_range_is_returned_where_its_products_underflow(pairing, args, value):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = pairing(*args)
    assert got == pytest.approx(value, rel=1e-15, abs=0.0)


def test_a_pairing_whose_products_stay_normal_keeps_its_bits():
    # the same arithmetic as the direct evaluation, where nothing underflows
    for _ in range(50):
        h, a, b = random_hermitian(rng), *(random_hermitian(rng, traceless=True) for _ in "ab")
        for scale in (1e-150, 1.0, 1e150):
            sh, sa, sb = scale * h, a / scale, b
            assert symplectic_eval(sh, sa, sb) == np.trace(sh @ (sa @ sb - sb @ sa)).imag
            assert orbit_metric_eval(sh, sa, sb) == np.trace(
                (sh @ sa - sa @ sh) @ (sh @ sb - sb @ sh).conj().T).real


@pytest.mark.parametrize("pairing, args, value", [
    # the commutator reaches 1e400 before h scales it down
    (symplectic_eval, (1e-200 * diag_traceless(1.0, 0.2), 1e200 * gellmann(1), 1e200 * gellmann(2)),
     1.6e200),
    # h @ a reaches 1e350 before b scales it down
    (orbit_metric_eval, (1e200 * diag_traceless(1.0, 0.2), 1e150 * gellmann(1),
                         1e-300 * gellmann(1)), 1.28e250),
], ids=["symplectic", "metric"])
def test_a_pairing_in_the_float_range_is_returned_where_its_products_are_not(pairing, args, value):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert pairing(*args) == pytest.approx(value, rel=1e-15)


def test_a_pairing_past_the_float_range_still_overflows():
    # 1.28e450: the same inputs as above with b 1e200 times larger
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^the orbit metric is past the float range"):
            orbit_metric_eval(1e200 * diag_traceless(1.0, 0.2), 1e150 * gellmann(1),
                              1e-100 * gellmann(1))


def _pairing_draws(indices):
    """Draws ``indices`` of 20 000 seeded triples ``(h, a, b)``: Hermitian,
    ``a`` and ``b`` traceless, each scaled by ``10**U(-3, 3)`` on even draws
    and ``10**U(-300, 300)`` on odd ones."""
    gen = np.random.default_rng(7)
    draws = {}
    for i in range(max(indices) + 1):
        spread = 3 if i % 2 == 0 else 300
        triple = []
        for traceless in (False, True, True):
            m = gen.standard_normal((3, 3)) + 1j * gen.standard_normal((3, 3))
            x = (m + m.conj().T) / 2
            if traceless:
                x = x - np.trace(x) / 3 * np.eye(3)
            triple.append(x * 10 ** gen.uniform(-spread, spread))
        if i in indices:
            draws[i] = triple
    return draws


# the pairings of those draws whose value the scale rule changed, with the
# value of the former two-pass evaluation, or None where it raised an overflow
CHANGED_PAIRINGS = [
    (41, orbit_metric_eval, -0.0),
    (397, symplectic_eval, None),
    (1053, symplectic_eval, None),
    (3623, orbit_metric_eval, -0.0),
    (4003, orbit_metric_eval, None),
    (5667, symplectic_eval, None),
    (6363, symplectic_eval, -5.34347516459614e-309),
    (8481, symplectic_eval, None),
    (8711, orbit_metric_eval, None),
    (9837, orbit_metric_eval, -0.0),
    (16335, symplectic_eval, None),
    (17947, symplectic_eval, None),
]


def _mpmath_pairing(pairing, h, a, b):
    mpmath.mp.dps = 60
    hm, am, bm = (mpmath.matrix([[mpmath.mpc(complex(v)) for v in row] for row in x])
                  for x in (h, a, b))
    if pairing is symplectic_eval:
        return mpmath.im(sum((hm * (am * bm - bm * am))[i, i] for i in range(3)))
    x, y = hm * am - am * hm, hm * bm - bm * hm
    return mpmath.re(sum((x * y.transpose_conj())[i, i] for i in range(3)))


def test_the_changed_pairings_are_closer_to_mpmath():
    draws = _pairing_draws([i for i, _, _ in CHANGED_PAIRINGS])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for i, pairing, former in CHANGED_PAIRINGS:
            got = pairing(*draws[i])
            exact = _mpmath_pairing(pairing, *draws[i])
            if former is None:  # a false overflow: the value is in the float range
                assert abs(got - exact) <= 1e-14 * abs(exact)
            else:  # a zero that is a subnormal, or a last-bit error
                assert abs(got - exact) < abs(former - exact)


def test_an_overflowing_trace_reads_as_not_traceless():
    huge = 1e308 * np.diag([1.0, 1.0, -1.0])  # its trace sum overflows
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for pairing in (symplectic_eval, orbit_metric_eval):
            with pytest.raises(ValueError, match="^direction_a must be traceless$"):
                pairing(np.eye(3), huge, gellmann(2))


def test_symplectic_kernel_dim_names_an_overflowing_gram_matrix():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^the symplectic Gram matrix overflows"):
            symplectic_kernel_dim(1e308 * diag_traceless(1.0, -1.0))
        assert symplectic_kernel_dim(HUGE) == 8
