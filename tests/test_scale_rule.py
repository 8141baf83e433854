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
import dataclasses
import re
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from helpers import near_cone_points
from su3holo import DegenerateInput
from su3holo.algebra import (GELL_MANN, cubic_invariant, matrix_to_octet, octet_star,
                             octet_to_matrix, octet_wedge, quadratic_invariant, to_coordinates)
from su3holo.curvature import (curvature_spectral, curvature_transported, level_sum,
                               symplectic_two_form_fd, weighted_sum)
from su3holo.holonomy import SurfacePatch, surface_flux
from su3holo.orbits import orbit_metric_eval, symplectic_eval
from su3holo.spectrum import (_block_frames, _closed_form, classify, energy_gaps, energy_levels,
                              generic_mask)
from su3holo.tensors import (IrreducibleParts, curvature_from_parts, from_tensor_components,
                             octet_coefficients, octet_components, octet_from_coefficients,
                             octet_matrix, project_irreducible, reconstitute, to_tensor_components)

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


def _unit_antisym(seed: int) -> np.ndarray:
    # an antisymmetric 8x8 array scaled so its largest |entry| is in [0.5, 1)
    t = np.random.default_rng(seed).standard_normal((8, 8))
    t -= t.T
    return np.ldexp(t, -np.frexp(np.abs(t).max())[1])


def _unit_parts(seed: int) -> IrreducibleParts:
    # the parts of an antisymmetric array, scaled together so that their
    # largest |real or imaginary part| is in [0.5, 1)
    parts = dataclasses.astuple(project_irreducible(_unit_antisym(seed)))
    top = max(float(np.abs(np.ascontiguousarray(p).view(float)).max()) for p in parts)
    return IrreducibleParts(*(p * np.ldexp(1.0, -np.frexp(top)[1]) for p in parts))


def _times(arg, power: int):
    """``arg * 2**power``, array by array, where that is exact."""
    if isinstance(arg, IrreducibleParts):
        return IrreducibleParts(*(_times(a, power) for a in dataclasses.astuple(arg)))
    if np.iscomplexobj(arg):
        return _image(np.ascontiguousarray(arg).view(float), power).view(complex)
    return _image(arg, power)


# each linear map of the tensor layer and the chart, of degree 1: its unit-scale
# argument from a seed, and its results as arrays
LINEAR_MAPS = {
    "octet_matrix": (_unit, lambda x: [octet_matrix(x)]),
    "octet_components": (lambda seed: octet_matrix(_unit(seed)), lambda m: [octet_components(m)]),
    "matrix_to_octet": (lambda seed: _unit_hermitian(seed, False), lambda m: [matrix_to_octet(m)]),
    "to_coordinates": (lambda seed: _unit_hermitian(seed, False),
                       lambda m: [np.array(to_coordinates(m).xi0), to_coordinates(m).xi]),
    "to_tensor_components": (_unit_antisym, lambda t: [to_tensor_components(t).tensor]),
    "from_tensor_components": (lambda seed: to_tensor_components(_unit_antisym(seed)).tensor,
                               lambda t4: [from_tensor_components(t4)]),
    "project_irreducible": (_unit_antisym,
                            lambda t: list(dataclasses.astuple(project_irreducible(t)))),
    "octet_from_coefficients": (_unit_antisym, lambda t: [octet_from_coefficients(t)]),
    "reconstitute": (_unit_parts, lambda p: list(dataclasses.astuple(reconstitute(p)))),
}


@settings(max_examples=300, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), power=st.integers(-1000, 1100),
       name=st.sampled_from(sorted(LINEAR_MAPS)))
@example(seed=0, power=1024, name="project_irreducible")  # past the range
@example(seed=0, power=1024, name="octet_from_coefficients")
@example(seed=0, power=1024, name="to_coordinates")
@example(seed=0, power=1024, name="reconstitute")  # in it
def test_each_linear_map_is_the_ldexp_of_its_unit_scale_value(seed, power, name):
    # a value in the float range keeps its bits; one past it raises the
    # rule's error: each map is evaluated once at unit scale
    build, call = LINEAR_MAPS[name]
    unit = build(seed)
    image = _times(unit, power)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(over="ignore"):
            want = [np.ldexp(np.ascontiguousarray(v).view(float), power) for v in call(unit)]
        past = any(np.isinf(w).any() for w in want)
        try:
            got = call(image)
        except ValueError as error:
            assert past and str(error).endswith("is past the float range at these inputs")
            return
    assert not past
    assert [np.ascontiguousarray(v).view(float).tobytes() for v in got] == [
        w.tobytes() for w in want]


# values at the edges of the float range, each without a numpy warning
def _edge_antisym() -> np.ndarray:
    t = np.zeros((8, 8))
    t[0, 1], t[1, 0] = 1e308, -1e308
    return t


EDGE_VALUES = [
    ("octet_components", lambda: octet_components(np.diag([1e308, -1e308, 0.0]))[2], 1e308),
    ("to_coordinates", lambda: to_coordinates(1e308 * np.eye(3)).xi0, 1e308),
    # its rest-frame check once took the norm unscaled, with an overflow warning
    ("octet_coefficients", lambda: octet_coefficients(1, [0, 0, 1e200, 0, 0, 0, 0, 3e200]),
     (8.958124547065879, 3.066052256958083e-200)),
]


@pytest.mark.parametrize("call, want", [case[1:] for case in EDGE_VALUES],
                         ids=[case[0] for case in EDGE_VALUES])
def test_values_at_the_edges_of_the_range_are_kept(call, want):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert call() == want


@pytest.mark.parametrize("call", [project_irreducible, octet_from_coefficients],
                         ids=["project_irreducible", "octet_from_coefficients"])
def test_a_tensor_map_past_the_range_raises_the_rule(call):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="is past the float range at these inputs$"):
            call(_edge_antisym())


def test_each_matrix_of_a_batch_keeps_the_bits_of_the_raw_contraction():
    # each matrix is scaled on its own, so one 2**2000 below the batch's
    # largest is not flushed to zero
    h = octet_to_matrix(np.arange(1.0, 9.0))
    batch = np.stack([1e300 * h, 1e-300 * h])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = matrix_to_octet(batch)
    want = np.einsum("...ij,rji->...r", batch, GELL_MANN).real
    assert got.tobytes() == want.tobytes() and got[1, 0] == 1e-300
