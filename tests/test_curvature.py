import re
import warnings

import numpy as np
import pytest

from helpers import (gauge_fixed_frames, mpmath_curvature, mpmath_flux_density, near_cone_points,
                     per_point_symplectic_two_form_fd, random_generic_octet, random_rest_frame,
                     random_special_unitary, sum_over_states_coeffs)
from su3holo import DegenerateInput
from su3holo.algebra import adjoint_matrix
from su3holo.curvature import (
    CurvatureTwoForm,
    _flux_density,
    _tables,
    curvature_rest_frame,
    curvature_spectral,
    curvature_transported,
    level_sum,
    symplectic_two_form_fd,
    weighted_sum,
)
from su3holo.holonomy import circle_loop, loop_phase
from su3holo.spectrum import _block_frames, diagonalizer, eigenvalues, energy_gaps
from su3holo.tensors import curvature_from_parts

rng = np.random.default_rng(55)


def e(r):
    out = np.zeros(8)
    out[r - 1] = 1.0
    return out


def rest_table(e12, e23, level):
    e13 = e12 + e23
    v = np.zeros((8, 8))
    if level == 1:
        v[0, 1], v[3, 4] = 1 / (2 * e12**2), 1 / (2 * e13**2)
    elif level == 2:
        v[0, 1], v[5, 6] = -1 / (2 * e12**2), 1 / (2 * e23**2)
    else:
        v[3, 4], v[5, 6] = -1 / (2 * e13**2), -1 / (2 * e23**2)
    return v - v.T


def test_two_form_storage_is_antisymmetric():
    form = CurvatureTwoForm(1, rng.standard_normal((8, 8)))
    np.testing.assert_array_equal(form.coeffs, -form.coeffs.T)
    with pytest.raises(ValueError):
        CurvatureTwoForm(4, np.zeros((8, 8)))


def test_rest_frame_table_values():
    xi, e12, e23 = random_rest_frame(rng)
    s = eigenvalues(xi)
    for level in (1, 2, 3):
        got = curvature_rest_frame(s, level).coeffs
        np.testing.assert_allclose(got, rest_table(e12, e23, level), rtol=1e-12)
    # summing the three table rows gives zero at every slot
    total = sum(curvature_rest_frame(s, a).coeffs for a in (1, 2, 3))
    np.testing.assert_allclose(total, np.zeros((8, 8)), atol=1e-12)
    with pytest.raises(DegenerateInput):
        curvature_rest_frame(eigenvalues(e(8)), 1)


def test_rest_frame_table_equal_gaps():
    g = 0.35
    xi = np.zeros(8)
    xi[2], xi[7] = g, 3 * g / np.sqrt(3)
    s = eigenvalues(xi)
    assert (s.e12, s.e23) == (pytest.approx(g), pytest.approx(g))
    v1 = curvature_rest_frame(s, 1).coeffs
    assert v1[0, 1] == pytest.approx(1 / (2 * g**2))
    assert v1[3, 4] == pytest.approx(1 / (8 * g**2))


def test_spectral_reproduces_rest_frame_table():
    for _ in range(20):
        xi, e12, e23 = random_rest_frame(rng)
        for level in (1, 2, 3):
            got = curvature_spectral(xi, level).coeffs
            want = rest_table(e12, e23, level)
            scale = np.abs(want).max()
            assert np.abs(got - want).max() < 1e-10 * scale
            assert np.abs(got[want == 0.0]).max() < 1e-12
            assert abs(got[2, 7]) < 1e-14  # the (3,8) slot vanishes exactly


def test_spectral_gauge_invariance():
    # each level's table reads only that level's column: one phase per column
    xi = random_generic_octet(rng)
    en, frames, k = _block_frames(xi, 1e-9, "degenerate")
    en = np.ldexp(en, k)  # the levels at the scale of xi
    base = _tables(xi, en, frames, np.arange(3))
    for _ in range(10):
        phases = np.exp(1j * rng.uniform(0, 2 * np.pi, size=3))
        rephased = frames * phases
        redone = _tables(xi, en, rephased, np.arange(3))
        np.testing.assert_allclose(redone, base, atol=1e-12)


def test_flux_density_equals_contracted_coefficients():
    local = np.random.default_rng(56)  # leaves the module stream to the other tests
    xis = np.stack([random_generic_octet(local) for _ in range(20)])
    du, dv = local.standard_normal((2, 20, 8))
    e, frames = gauge_fixed_frames(xis)
    for level in (1, 2, 3):
        want = np.einsum("nr,nrs,ns->n", du, sum_over_states_coeffs(e, frames, level), dv)
        column = frames[..., level - 1]
        got = _flux_density(xis, e, column, du, dv, level)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-14 * np.abs(want).max())
        np.testing.assert_allclose(_flux_density(xis, e, column, dv, du, level), -got, rtol=1e-14)


# Twice the worst error, relative to the sum of the magnitudes of the terms,
# of the three-eigenvector kernel (pu_b = <a|M(du)|b> summed over b != a with
# weights 1/E_ab^2) that the resolvent form replaced, on the same points.
NEAR_CONE_BOUNDS = {
    (1e-2, "upper"): (2.08e-12, 2.08e-12, 3.32e-13),
    (1e-2, "lower"): (1.72e-13, 4.42e-12, 4.42e-12),
    (1e-4, "upper"): (2.26e-8, 2.26e-8, 2.04e-9),
    (1e-4, "lower"): (2.10e-9, 3.48e-8, 3.48e-8),
}


@pytest.mark.parametrize("gap, cone", list(NEAR_CONE_BOUNDS))
def test_flux_density_near_the_cones_against_mpmath(gap, cone):
    # Ten unit points at relative gap 1e-2 or 1e-4 on either cone; the
    # closed-form levels carry an error of about eps / gap^2 into both kernels.
    draws = np.random.default_rng([round(-np.log10(gap)), cone == "upper"])
    xi = near_cone_points(draws, gap, cone, 10)
    du, dv = draws.standard_normal((2, 10, 8))
    for level, bound in zip((1, 2, 3), NEAR_CONE_BOUNDS[gap, cone]):
        e, column, k = _block_frames(xi, 1e-9, "degenerate", levels=(level,))
        e = np.ldexp(e, k[:, None])  # the levels at the scale of xi
        got = _flux_density(xi, e, column[..., 0], du, dv, level)
        refs = [mpmath_flux_density(*point, level) for point in zip(xi, du, dv)]
        assert max(abs(g - ref) / scale for g, (ref, scale) in zip(got, refs)) <= bound


@pytest.mark.parametrize("gap", [1e-4, 1e-6, 1e-7])
@pytest.mark.parametrize("cone, level", [("upper", 3), ("lower", 1)])
def test_isolated_level_stays_exact_near_its_cone(gap, cone, level):
    # The level away from the small gap: its resolvent reads only its own
    # column and its two large gaps, so the small gap's error stays out.
    # Worst measured 1.2e-15; the sum over states read 2.7e-9 at gap 1e-4.
    draws = np.random.default_rng([round(-np.log10(gap)), cone == "upper"])
    for xi in near_cone_points(draws, gap, cone, 4):
        want = mpmath_curvature(xi, level, digits=40)
        got = curvature_spectral(xi, level).coeffs
        assert np.abs(got - want).max() <= 4e-15 * np.abs(want).max()


def test_transported_equals_spectral():
    worst = 0.0
    for k in range(1000):
        xi = random_generic_octet(rng)
        level = 1 + (k % 3)
        a = curvature_spectral(xi, level).coeffs
        b = curvature_transported(xi, level).coeffs
        worst = max(worst, float(np.abs(a - b).max() / np.abs(a).max()))
    assert worst < 1e-9


def test_transported_names_a_frame_too_close_to_a_cone():
    # The closed-form frame is unitary only to about 3e-6 at relative gap 1e-6,
    # so adjoint_matrix's 1e-8 check rejects it; that read as a ValueError
    # about an argument ``a`` the caller never gave.
    for xi in near_cone_points(np.random.default_rng(11), 1e-6, "upper", 16):
        with pytest.raises(DegenerateInput, match="^curvature_transported: the frame is not "
                                                  "unitary to 1e-8 this close to a degeneracy$"):
            curvature_transported(xi, 3)
        assert np.isfinite(curvature_spectral(xi, 3).coeffs).all()


def test_transported_fixed_points():
    xi, e12, e23 = random_rest_frame(rng)
    for level in (1, 2, 3):
        np.testing.assert_allclose(
            curvature_transported(xi, level).coeffs, rest_table(e12, e23, level),
            atol=1e-12,
        )
    # torus elements leave the rest-frame table invariant
    alpha = 0.83
    torus = np.diag(np.exp(1j * alpha * np.array([1.0, -1.0, 0.0])))
    d = adjoint_matrix(torus)
    v0 = rest_table(e12, e23, 1)
    np.testing.assert_allclose(d @ v0 @ d.T, v0, atol=1e-12)


def test_curvature_covariance_under_adjoint_action():
    for _ in range(20):
        xi = random_generic_octet(rng)
        d = adjoint_matrix(random_special_unitary(rng))
        for level in (1, 2, 3):
            lhs = curvature_spectral(d @ xi, level).coeffs
            rhs = d @ curvature_spectral(xi, level).coeffs @ d.T
            assert np.abs(lhs - rhs).max() < 1e-9 * np.abs(rhs).max()


def test_level_sum_vanishes():
    for _ in range(30):
        xi = random_generic_octet(rng)
        assert np.abs(level_sum(xi)).max() < 1e-10


def test_weighted_sum_rest_frame_slots():
    for _ in range(20):
        xi, e12, e23 = random_rest_frame(rng)
        w = weighted_sum(xi)
        e13 = e12 + e23
        assert w[0, 1] == pytest.approx(1 / (2 * e12), rel=1e-10)
        assert w[3, 4] == pytest.approx(1 / (2 * e13), rel=1e-10)
        assert w[5, 6] == pytest.approx(1 / (2 * e23), rel=1e-10)
        mask = np.ones((8, 8), bool)
        for i, j in ((0, 1), (1, 0), (3, 4), (4, 3), (5, 6), (6, 5)):
            mask[i, j] = False
        assert np.abs(w[mask]).max() < 1e-12


def test_weighted_sum_matches_finite_difference_symplectic_form():
    for _ in range(5):
        xi = random_generic_octet(rng, margin=0.15)
        w = weighted_sum(xi)
        fd = symplectic_two_form_fd(xi)
        assert np.abs(w - fd).max() < 1e-5 * np.abs(w).max()


def test_symplectic_fd_stencil_block_equals_the_per_point_reference_bytes():
    # the 16 stencil frames are one block: the same bits as one pinned
    # diagonalizer call per stencil point, at |xi| from 1e-3 to 1e3
    draws = np.random.default_rng(58)
    for _ in range(200):
        xi = random_generic_octet(draws) * 10.0 ** draws.uniform(-3.0, 3.0)
        want = per_point_symplectic_two_form_fd(xi)
        assert symplectic_two_form_fd(xi).tobytes() == want.tobytes()
    for step in (1e-3, -2e-4):  # a given step, of either sign
        xi = random_generic_octet(draws)
        got = symplectic_two_form_fd(xi, step=step)
        assert got.tobytes() == per_point_symplectic_two_form_fd(xi, step=step).tobytes()


def test_symplectic_fd_rejects_a_stencil_through_a_cone():
    # xi - step e3 is e8, on the upper cone, while xi itself is Generic
    with pytest.raises(DegenerateInput, match="stencil passes through a degeneracy"):
        symplectic_two_form_fd(1e-3 * e(3) + e(8), step=1e-3)


@pytest.mark.parametrize("step", [0.0, -0.0, np.nan, np.inf, -np.inf])
def test_symplectic_fd_rejects_a_zero_or_non_finite_step(step):
    # unchecked, a zero step gives NaNs and a NaN step reaches the octet check
    xi = random_generic_octet(np.random.default_rng(57))  # leaves the module stream alone
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        message = f"step must be nonzero and finite, got {step!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            symplectic_two_form_fd(xi, step=step)


def test_symplectic_fd_rejects_a_step_that_vanishes_at_unit_scale():
    # a nonzero step of degree -1, scaled with xi = 1e10 x to its unit scale,
    # underflows to zero
    xi = 1e10 * random_generic_octet(np.random.default_rng(58))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        message = "step must be nonzero and finite, got 1e-320 at unit scale"
        with pytest.raises(ValueError, match=re.escape(message)):
            symplectic_two_form_fd(xi, step=1e-320)


def test_singular_scaling_toward_upper_degeneracy():
    # along a ray approaching the upper surface, |V1| * E12^2 stays bounded
    caps = []
    for delta in (1e-2, 1e-4, 1e-6):
        xi = delta * e(3) + e(8)
        v = curvature_spectral(xi, 1).coeffs
        e12 = energy_gaps(xi)[0]
        caps.append(np.abs(v).max() * e12**2)
    assert max(caps) < 1.0
    assert caps[-1] == pytest.approx(0.5, rel=1e-3)


def test_degenerate_inputs_rejected():
    for fn in (curvature_spectral, curvature_transported):
        with pytest.raises(DegenerateInput):
            fn(e(8), 1)
    with pytest.raises(DegenerateInput):
        weighted_sum(np.zeros(8))


# the single-point routes, each with the power of |xi| its value scales with
SINGLE_POINT = {
    "diagonalizer": (diagonalizer, 0),
    "curvature_spectral": (lambda xi: curvature_spectral(xi, 1).coeffs, -2),
    "curvature_transported": (lambda xi: curvature_transported(xi, 2).coeffs, -2),
    "curvature_from_parts": (lambda xi: curvature_from_parts(xi, 3).coeffs, -2),
    "weighted_sum": (weighted_sum, -1),
    "symplectic_two_form_fd": (symplectic_two_form_fd, -1),
    "level_sum": (level_sum, None),
}
DIRECTION = np.array([0.6, -0.3, 0.2, 0.1, -0.5, 0.3, 0.2, 0.3]) / np.sqrt(0.97)


@pytest.mark.parametrize("scale", [1e78, 1e100])
@pytest.mark.parametrize("name", SINGLE_POINT)
def test_overflowing_frames_are_a_typed_error(name, scale):
    # the squared cross products behind the eigenvectors overflowed past about
    # 1e77, and the frames and every curvature read NaN; evaluated at unit
    # scale, each is the value at xi / 2**power scaled back by its degree
    func, degree = SINGLE_POINT[name]
    power = 260 if scale == 1e78 else 333
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got, want = func(scale * DIRECTION), func(np.ldexp(scale * DIRECTION, -power))
    degree = -2 if degree is None else degree  # the level sum vanishes as a -2 form
    if degree:  # the diagonalizer's complex columns are of degree 0
        want = np.ldexp(want, degree * power)
    assert got.tobytes() == want.tobytes()


def test_underflowing_frames_are_a_typed_error():
    # below about 1e-77 the squared cross products behind the eigenvectors
    # were subnormal (and below 1e-81 zero), so the frames lost precision;
    # only a tol below |xi| lets such a point through.  At unit scale each
    # result is that at xi * 2**power, scaled back by its degree
    for scale, power in ((1e-78, 256), (1e-79, 260), (1e-80, 263), (1e-100, 332)):
        xi = scale * DIRECTION
        path = circle_loop(xi, e(1), e(2), 1e-8 * scale, 50, tol=1e-300)
        image = circle_loop(np.ldexp(xi, power), e(1), e(2), np.ldexp(1e-8 * scale, power), 50,
                            tol=1e-300)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = curvature_spectral(xi, 1, tol=1e-300).coeffs
            want = curvature_spectral(np.ldexp(xi, power), 1, tol=1e-300).coeffs
            assert got.tobytes() == np.ldexp(want, 2 * power).tobytes()
            assert np.array_equal(diagonalizer(xi, tol=1e-300),
                                  diagonalizer(np.ldexp(xi, power), tol=1e-300))
            assert loop_phase(path, 1) == loop_phase(image, 1)
    # one decade above, the frames keep full precision
    unit = diagonalizer(DIRECTION)
    np.testing.assert_allclose(diagonalizer(1e-76 * DIRECTION, tol=1e-300), unit,
                               rtol=0, atol=1e-15)


def test_frames_below_the_overflow_are_unchanged():
    xi = 1e76 * DIRECTION
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.array_equal(diagonalizer(xi), gauge_fixed_frames(xi)[1])
        for level in (1, 2, 3):
            e_, column, k = _block_frames(xi, 1e-9, "degenerate", levels=(level,))
            e_ = np.ldexp(e_, k)  # the levels at the scale of xi
            want = CurvatureTwoForm(level, _tables(xi, e_, column[:, 0], level - 1)).coeffs
            assert np.array_equal(curvature_spectral(xi, level).coeffs, want)
        for func, power in SINGLE_POINT.values():
            if power is not None:
                got, unit = func(xi), func(DIRECTION)
                assert np.all(np.isfinite(got))
                np.testing.assert_allclose(got, 1e76**power * unit, rtol=1e-6,
                                           atol=1e-9 * 1e76**power * np.abs(unit).max())
