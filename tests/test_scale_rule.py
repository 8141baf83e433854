"""The scale rule: every point is evaluated at ``xi / 2**k`` and a result of
degree d is scaled back by ``2**(d k)``.  So each result at a power-of-two
image of a point is the ``ldexp`` of the result at the unit-scaled point,
bit for bit, wherever that is a float, and past the float range the rule's
``ValueError``; and at unit scale the closed form and the eigenvector columns
of a finite Generic point are finite.  A multilinear form scales each of its
arguments by its own power of two, and the same holds argument by argument.

The one exception is C ``pow``, which is not exact under powers of two: the
closed form takes the cube ``|xi|^3`` at the scale of ``xi`` where that is
a normal float, to keep the bits of the unscaled closed form, and for about
1 point in 2000 that cube is not ``2**(3 k)`` times the unit one in the last
bit.  Such examples are set aside, by name."""
import re
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import near_cone_points
from su3holo import DegenerateInput
from su3holo.algebra import cubic_invariant, octet_star, octet_wedge, quadratic_invariant
from su3holo.curvature import (curvature_spectral, curvature_transported, level_sum,
                               symplectic_two_form_fd, weighted_sum)
from su3holo.holonomy import SurfacePatch, surface_flux
from su3holo.orbits import orbit_metric_eval, symplectic_eval
from su3holo.spectrum import (_block_frames, _closed_form, classify, energy_gaps, energy_levels,
                              generic_mask)
from su3holo.tensors import curvature_from_parts

TOL = 5e-324  # below every |xi| of a power-of-two image of a normal point


def _unit(seed: int) -> np.ndarray:
    # a standard-normal octet vector scaled so its largest |component| is in [0.5, 1)
    x = np.random.default_rng(seed).standard_normal(8)
    return np.ldexp(x, -np.frexp(np.abs(x).max())[1])


def _image(u: np.ndarray, power: int) -> np.ndarray:
    """``u * 2**power``, where that is exact: every component stays normal."""
    with np.errstate(over="ignore", under="ignore"):
        xi = np.ldexp(u, power)
        assume(np.array_equal(np.ldexp(xi, -power), u) and np.isfinite(xi).all())
    return xi


def _cube_is_exact_under(points: np.ndarray, power: int) -> bool:
    """Whether the cube the closed form takes at each of ``points * 2**power``
    is ``2**(3 power)`` times that at the point, or is not taken there."""
    norm = np.linalg.norm(points, axis=-1)
    with np.errstate(over="ignore", under="ignore"):
        cube = np.float_power(np.ldexp(norm, power), 3)
        exact = cube == np.ldexp(np.float_power(norm, 3), 3 * power)
    return bool(np.all(exact | ~((cube >= np.finfo(float).tiny) & (cube < np.inf))))


def _assert_scaled(call, unit_value, degree: int, power: int, name: str) -> None:
    """``call()`` is ``unit_value * 2**(degree power)`` bit for bit, or, where
    that is past the float range, the rule's error naming ``name``."""
    with np.errstate(over="ignore"):
        want = np.ldexp(unit_value, degree * power)
    if np.isinf(want).any():
        with pytest.raises(ValueError, match=f"^the {name} is past the float range at"):
            call()
    else:
        assert np.asarray(call()).tobytes() == want.tobytes()


@settings(max_examples=300, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), power=st.integers(-1100, 1100),
       level=st.sampled_from([1, 2, 3]))
def test_each_point_result_is_the_ldexp_of_its_unit_scale_value(seed, power, level):
    u = _unit(seed)
    xi = _image(u, power)
    assume(_cube_is_exact_under(u, power))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _assert_scaled(lambda: energy_levels(xi), energy_levels(u), 1, power, "spectrum")
        _assert_scaled(lambda: energy_gaps(xi), energy_gaps(u), 1, power, "spectrum")
        assert classify(xi, TOL) is classify(u, TOL)
        c = _closed_form(xi)
        assert np.isfinite([c.cube, c.cubic, c.phi]).all()
        if generic_mask(u, TOL):
            frames = _block_frames(xi[None], TOL, "degenerate")[1]
            assert frames.tobytes() == _block_frames(u[None], TOL, "degenerate")[1].tobytes()
            _assert_scaled(lambda: curvature_spectral(xi, level, TOL).coeffs,
                           curvature_spectral(u, level, TOL).coeffs, -2, power, "curvature")
            for route in (curvature_transported, curvature_from_parts):
                _assert_covariant(lambda x: route(x, level, TOL).coeffs, u, xi, -2, power,
                                  "curvature")
            _assert_covariant(lambda x: weighted_sum(x, TOL), u, xi, -1, power,
                              "weighted level sum")
            _assert_covariant(lambda x: symplectic_two_form_fd(x, tol=TOL), u, xi, -1, power,
                              "symplectic two-form")
            _assert_covariant(lambda x: level_sum(x, TOL), u, xi, -2, power, "level sum")


def _assert_covariant(call, u, xi, degree: int, power: int, name: str) -> None:
    """``call(xi)`` is as ``_assert_scaled`` says of ``call(u)``, or, where
    ``call(u)`` is too near a degeneracy, the same ``DegenerateInput``."""
    try:
        unit_value = call(u)
    except DegenerateInput as error:
        with pytest.raises(DegenerateInput, match=f"^{re.escape(str(error))}$"):
            call(xi)
        return
    _assert_scaled(lambda: call(xi), unit_value, degree, power, name)


def _unit_hermitian(seed: int, traceless: bool) -> np.ndarray:
    # a Hermitian matrix scaled so its largest real or imaginary part is in [0.5, 1)
    m = np.random.default_rng(seed).standard_normal((3, 6)).view(complex)
    m = (m + m.conj().T) / 2.0
    if traceless:
        m -= np.trace(m) / 3.0 * np.eye(3)
    return m * np.ldexp(1.0, -np.frexp(np.abs(m.view(float)).max())[1])


# each multilinear form of the octet algebra: its error name and its
# arguments as degree and kind (an octet vector, a matrix, a traceless one)
FORMS = {
    symplectic_eval: ("symplectic pairing", ((1, "h"), (1, "a"), (1, "a"))),
    orbit_metric_eval: ("orbit metric", ((2, "h"), (1, "a"), (1, "a"))),
    octet_wedge: ("octet wedge product", ((1, "v"), (1, "v"))),
    octet_star: ("octet star product", ((1, "v"), (1, "v"))),
    quadratic_invariant: ("quadratic invariant", ((2, "v"),)),
    cubic_invariant: ("cubic invariant", ((3, "v"),)),
}


@settings(max_examples=300, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 4), powers=st.tuples(*[st.integers(-1100, 1100)] * 3),
       form=st.sampled_from(list(FORMS)))
def test_each_multilinear_form_is_the_ldexp_of_its_unit_scale_value(seed, powers, form):
    # each argument scaled by its own power of two scales the form by
    # 2**(sum of degree times power), bit for bit, or raises the rule's error
    name, args = FORMS[form]
    units = [_unit(seed + i) if kind == "v" else _unit_hermitian(seed + i, kind == "a")
             for i, (_, kind) in enumerate(args)]
    images = [_image(u, p) if kind == "v" else _image(u.view(float), p).view(complex)
              for u, p, (_, kind) in zip(units, powers, args)]
    power = sum(degree * p for p, (degree, _) in zip(powers, args))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _assert_scaled(lambda: form(*images), form(*units), 1, power, name)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), power=st.integers(-1030, 1030))
def test_the_flux_of_a_scaled_patch_is_the_unit_patch_flux(seed, power):
    # the flux is of degree 0: every cell center and tangent of the image is
    # the unit patch's times 2**power, evaluated at the same unit-scaled point
    rng = np.random.default_rng(seed)
    center = _unit(seed)
    axes = np.linalg.qr(rng.standard_normal((8, 2)))[0].T
    grid = center + 0.05 * (np.linspace(-0.5, 0.5, 5)[:, None, None] * axes[0]
                            + np.linspace(-0.5, 0.5, 7)[None, :, None] * axes[1])
    assume(generic_mask(grid, TOL).all())
    image = _image(grid, power)
    centers = (grid[:-1, :-1] + grid[1:, :-1] + grid[:-1, 1:] + grid[1:, 1:]) / 4.0
    assume(_cube_is_exact_under(centers, power))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        unit = SurfacePatch(grid, TOL)
        assume(generic_mask(centers, TOL).all())
        for level in (1, 2, 3):
            assert surface_flux(SurfacePatch(image, TOL), level) == surface_flux(unit, level)


@pytest.mark.parametrize("cone", ["upper", "lower"])
def test_the_columns_of_a_generic_point_are_finite_at_unit_scale(cone):
    # the check that _columns made on its output is unreachable: near and on
    # the cones, at a tol that lets every nonzero closed-form gap through,
    # every Generic point's columns are finite unit vectors
    rng = np.random.default_rng(["upper", "lower"].index(cone))
    pts = np.concatenate([near_cone_points(rng, gap, cone, 100)
                          for gap in [*10.0 ** -np.arange(8, 17), 0.0]])
    pts = np.concatenate([pts, np.ldexp(pts, 900), np.ldexp(pts, -900)])
    generic = generic_mask(pts, 1e-300)
    assert generic.sum() > len(pts) // 5  # about a third on the upper cone
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        frames = _block_frames(pts[generic], 1e-300, "degenerate")[1]
    assert np.isfinite(frames).all()
    np.testing.assert_allclose(np.linalg.norm(frames, axis=-2), 1.0, rtol=0, atol=1e-12)
