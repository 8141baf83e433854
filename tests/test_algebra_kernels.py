"""The sparse cubic invariant and ``octet_to_matrix`` against their dense
einsum references: equal bit for bit on finite input (the cubic invariant
by the scale rule), a point alone equal to its row in a block (also for the
other functions the scale rule takes a point alone through in Python
floats), a pinned behaviour on non-finite input, and no slower for one
point."""
import time

import numpy as np
import pytest

from helpers import (einsum_cubic_invariant, einsum_octet_to_matrix, random_generic_octet,
                     random_rest_frame, random_special_unitary)
from su3holo.algebra import (GELL_MANN, _unit_scaled, adjoint_matrix, cubic_invariant,
                             matrix_to_octet, octet_star, octet_to_matrix, octet_wedge,
                             quadratic_invariant)
from su3holo.spectrum import octet_norm

rng = np.random.default_rng(9009)


def _scaled() -> np.ndarray:
    # 40k points with |xi| over 1e-150..1e150: the cubic invariant underflows
    # at the low end and is past the float range at the high end
    return rng.standard_normal((40_000, 8)) * 10.0 ** rng.uniform(-150.0, 150.0, (40_000, 1))


def _signed_zeros() -> np.ndarray:
    xi = rng.standard_normal((40_000, 8))
    u = rng.random(xi.shape)
    xi[u < 0.25] = 0.0
    xi[(u >= 0.25) & (u < 0.5)] = -0.0
    return xi


def _axes() -> np.ndarray:
    return np.array([s * np.eye(8)[r] for r in range(8) for s in (1.0, -1.0, 2.5, -1e-3, -0.0)])


def _rest_frames() -> np.ndarray:
    return np.array([s * random_rest_frame(rng)[0] for _ in range(100) for s in (1.0, -1.0)])


def _near_cones() -> np.ndarray:
    # rotated points at both cones, the small gap from about 1e-1 down to 1e-9 |xi|
    pts = []
    for g in np.logspace(-9.0, -1.0, 60):
        for e12, e23 in ((g, 1.0), (1.0, g)):
            rest = np.zeros(8)
            rest[2], rest[7] = e12, (e12 + 2.0 * e23) / np.sqrt(3.0)
            pts.append(rng.uniform(0.1, 10.0) * adjoint_matrix(random_special_unitary(rng)) @ rest)
    return np.array(pts)


POINT_SETS = {
    "scaled": _scaled,
    "signed_zeros": _signed_zeros,
    "axes": _axes,
    "rest_frames": _rest_frames,
    "near_cones": _near_cones,
    "single": lambda: random_generic_octet(rng),
    "batch_4x5": lambda: rng.standard_normal((4, 5, 8)),
}


@pytest.fixture(params=list(POINT_SETS), scope="module")
def points(request):
    return POINT_SETS[request.param]()


def _references(points):
    """The einsum reference by the scale rule, at the unit-scaled points and
    scaled back by ``2**(3 k)``; the einsum at the points themselves; and
    where each of its products is a normal float, so that the two agree."""
    u, k = _unit_scaled(points)
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        rule = np.ldexp(einsum_cubic_invariant(u), 3 * np.asarray(k))
        direct = einsum_cubic_invariant(points)
        least = np.where(points != 0.0, np.abs(points), np.inf).min(axis=-1)
        normal = (least**3 >= 8.0 * np.finfo(float).tiny) & np.isfinite(direct)
    return rule, direct, normal


def test_cubic_invariant_equals_the_einsum_reference(points):
    # the einsum's own bits wherever its products are normal floats, and
    # past the float range (the "scaled" points above about 1e102) the
    # rule's error, raised for the first such point
    rule, direct, normal = _references(points)
    past = np.isinf(rule)
    if past.any():
        with pytest.raises(ValueError, match="^the cubic invariant is past the float range"):
            cubic_invariant(points)
        points, rule, direct, normal = points[~past], rule[~past], direct[~past], normal[~past]
    got = cubic_invariant(points)
    assert type(got) is type(direct)
    assert np.shape(got) == points.shape[:-1]
    assert np.asarray(got).tobytes() == np.asarray(rule).tobytes()
    assert np.asarray(got)[normal].tobytes() == np.asarray(direct)[normal].tobytes()


def test_octet_to_matrix_equals_the_einsum_reference(points):
    got = octet_to_matrix(points)
    assert got.shape == points.shape[:-1] + (3, 3) and got.flags.c_contiguous
    assert got.tobytes() == einsum_octet_to_matrix(points).tobytes()


def test_single_points_equal_the_einsum_reference():
    pts = np.concatenate([_scaled()[:400], _signed_zeros()[:400], _axes(), _near_cones()[:40]])
    for xi in pts:
        rule, direct, normal = _references(xi)
        if np.isinf(rule):
            with pytest.raises(ValueError, match="^the cubic invariant is past the float range"):
                cubic_invariant(xi)
        else:
            got = cubic_invariant(xi)
            assert type(got) is float
            assert np.float64(got).tobytes() == np.float64(rule).tobytes()
            assert not normal or np.float64(got).tobytes() == np.float64(direct).tobytes()
        assert octet_to_matrix(xi).tobytes() == einsum_octet_to_matrix(xi).tobytes()


@pytest.mark.parametrize("shape", [(2,), (63,), (64,), (65,), (1024,), (1025,), (2, 3)])
def test_a_point_alone_gives_the_cubic_invariant_of_its_row_in_a_block(shape):
    # the one sum runs over Python floats for a point and over arrays for a
    # block, across numpy's vector-width boundaries and over leading axes
    gen = np.random.default_rng(sum(shape))
    block = gen.standard_normal(shape + (8,)) * 10.0 ** gen.uniform(-30.0, 30.0, shape + (1,))
    block[gen.random(block.shape) < 0.1] = -0.0
    alone = [cubic_invariant(xi) for xi in block.reshape(-1, 8)]
    assert np.array(alone).tobytes() == cubic_invariant(block).tobytes()


# the other functions of octet vectors or matrices that unit-scale a point
# alone in Python floats and a block in arrays, as calls of a block of points
# and of a second block
ROW_FUNCTIONS = {
    "quadratic_invariant": lambda x, y: quadratic_invariant(x),
    "octet_norm": lambda x, y: octet_norm(x),
    "octet_star": octet_star,
    "octet_wedge": octet_wedge,
    "matrix_to_octet": lambda x, y: matrix_to_octet(octet_to_matrix(x)),
}


@pytest.mark.parametrize("scale", [1.0, 1e-200, 1e100])
@pytest.mark.parametrize("name", list(ROW_FUNCTIONS))
def test_a_point_alone_gives_the_bytes_of_its_row_in_a_block(name, scale):
    gen = np.random.default_rng(len(name))
    # rows spread over 340 decades: a block scaled as a whole would lose the
    # smallest rows' bits below the float range
    x, y = gen.standard_normal((2, 500, 8)) * scale * 10.0 ** gen.uniform(-320.0, 20.0, (2, 500, 1))
    x[gen.random(x.shape) < 0.1] = -0.0
    call = ROW_FUNCTIONS[name]
    alone = [np.asarray(call(a, b)) for a, b in zip(x, y)]
    assert np.array(alone).tobytes() == np.asarray(call(x, y)).tobytes()


@pytest.mark.parametrize("shape", [(0,), (2, 0)])
def test_matrix_to_octet_of_an_empty_batch_is_empty(shape):
    # as octet_to_matrix is: the scale rule's grouping sizes its axis for no rows too
    assert matrix_to_octet(np.zeros(shape + (3, 3))).shape == shape + (8,)
    assert matrix_to_octet(np.zeros(shape + (3, 3), complex)).shape == shape + (8,)
    assert octet_to_matrix(np.zeros(shape + (8,))).shape == shape + (3, 3)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
@pytest.mark.parametrize("r", range(8))
def test_a_non_finite_component_reaches_only_its_gell_mann_entries(r, bad):
    # The einsum multiplies every component by every coefficient, so its
    # 0 * inf puts NaN in all nine entries; the sparse sums never form it.
    xi = rng.standard_normal(8)
    xi[r] = bad
    finite = xi.copy()
    finite[r] = 0.0
    own = GELL_MANN[r] != 0
    with np.errstate(invalid="ignore"):
        assert np.isnan(einsum_octet_to_matrix(xi)).all()
        for got, rest in ((octet_to_matrix(xi), octet_to_matrix(finite)),
                          (octet_to_matrix(xi[None])[0], octet_to_matrix(finite[None])[0])):
            assert not np.isfinite(got[own]).any()
            assert got[~own].tobytes() == rest[~own].tobytes()


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
@pytest.mark.parametrize("r", range(8))
def test_a_non_finite_component_gives_a_non_finite_cubic_invariant(r, bad):
    # every component enters a nonzero d_rst term; the einsum gives NaN, the
    # sparse sum NaN or inf
    xi = rng.standard_normal(8)
    xi[r] = bad
    with np.errstate(over="ignore", invalid="ignore"):
        assert np.isnan(einsum_cubic_invariant(xi))
        assert not np.isfinite(cubic_invariant(xi))
        assert not np.isfinite(cubic_invariant(xi[None])).any()


@pytest.mark.parametrize("kernel, reference", [
    (cubic_invariant, einsum_cubic_invariant),
    (octet_to_matrix, einsum_octet_to_matrix),
])
def test_one_point_is_no_slower_than_the_einsum(kernel, reference):
    # best of 30 interleaved rounds of 100 calls, with a 20 % margin for noise
    xi = random_generic_octet(rng)
    best = {kernel: np.inf, reference: np.inf}
    for _ in range(30):
        for f in best:
            t0 = time.perf_counter()
            for _ in range(100):
                f(xi)
            best[f] = min(best[f], time.perf_counter() - t0)
    assert best[kernel] <= 1.2 * best[reference]
