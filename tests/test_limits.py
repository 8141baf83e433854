import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest

from helpers import random_special_unitary
from su3holo import DegenerateInput, UnderResolvedPath, holonomy, limits
from su3holo.algebra import adjoint_matrix, matrix_to_octet, octet_to_matrix
from su3holo.curvature import curvature_spectral
from su3holo.limits import gap_asymptotic, monopole_flux, singular_expansion
from su3holo.spectrum import energy_gaps
from su3holo.tensors import (
    IrreducibleParts,
    project_irreducible,
    reconstitute,
)

rng = np.random.default_rng(616)
TWO_PI = 2 * np.pi


def e(r):
    out = np.zeros(8)
    out[r - 1] = 1.0
    return out


def test_gap_asymptotic_near_upper_surface():
    delta = 1e-3
    xi = delta * e(3) + e(8)
    predicted, actual = gap_asymptotic(xi)
    assert actual == pytest.approx(delta, rel=1e-9)
    assert abs(predicted - actual) / actual < 0.01


def test_gap_asymptotic_on_surface_and_mirror():
    predicted, actual = gap_asymptotic(e(8))
    assert predicted == 0.0 and actual == 0.0
    delta = 1e-3
    mirror = (np.sqrt(3) / 2 - delta) * e(3) + 0.5 * e(8)
    predicted, actual = gap_asymptotic(mirror)
    assert actual == pytest.approx(delta / 2, rel=1e-9)
    assert abs(predicted - actual) / actual < 0.01
    with pytest.raises(ValueError):
        gap_asymptotic(0.4 * e(3) + e(8))  # comfortably generic, near neither


def test_gap_asymptotic_error_vanishes_on_approach():
    errs = []
    for delta in (1e-2, 1e-3, 1e-4):
        predicted, actual = gap_asymptotic(delta * e(3) + e(8))
        errs.append(abs(predicted - actual) / actual)
    assert errs[0] > errs[1] > errs[2]


def test_gap_asymptotic_is_exactly_covariant_under_powers_of_two():
    # both values scale as |xi|: over the whole float range ldexp(xi, k) gives
    # ldexp of each, bit for bit, with no warning.  At |xi| of 1e120 and above
    # numpy once warned of overflow, and at 1e-120 and below the angle was NaN.
    r = np.random.default_rng(12)
    points = []
    for x in (1e-3 * e(3) + e(8), (np.sqrt(3) / 2 - 1e-3) * e(3) + 0.5 * e(8)):
        u = np.linalg.qr(r.standard_normal((3, 3)) + 1j * r.standard_normal((3, 3)))[0]
        points += [x, matrix_to_octet(u @ octet_to_matrix(x) @ u.conj().T)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for x in points:
            want = gap_asymptotic(x)
            for k in range(-1000, 1021, 5):
                got = gap_asymptotic(np.ldexp(x, k))
                assert [v.hex() for v in got] == [math.ldexp(v, k).hex() for v in want]


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_gap_asymptotic_rejects_a_non_finite_component(bad):
    xi = 1e-3 * e(3) + e(8)
    xi[4] = bad
    with pytest.raises(ValueError) as info:
        gap_asymptotic(xi)
    assert str(info.value) == "gap_asymptotic requires finite octet components"


def test_singular_expansion_tables():
    eps, e13 = 1e-3, 1.0
    lead = 1.0 / eps**2
    for level, sign in ((1, 1.0), (2, -1.0)):
        exp = singular_expansion(eps, e13, level)
        assert exp.octet[(1, 2)] == pytest.approx(sign * lead / 3)
        assert exp.decouplet[(1, 2)] == pytest.approx(sign * lead / 6)
        assert exp.total[(1, 2)] == pytest.approx(sign * lead / 2)
        assert exp.total[(4, 5)] == 0.0
        assert exp.total[(6, 7)] == 0.0
    exp3 = singular_expansion(eps, e13, 3)
    assert all(v == 0.0 for part in (exp3.octet, exp3.decouplet, exp3.total)
               for v in part.values())
    with pytest.raises(ValueError):
        singular_expansion(-1e-3, e13, 1)
    with pytest.raises(ValueError):
        singular_expansion(0.5, e13, 1)


@pytest.mark.parametrize("epsilon, e13", [(np.nan, 1.0), (np.inf, 1.0), (1e-3, np.nan),
                                          (1e-3, np.inf), (1e-3, -np.inf)])
def test_singular_expansion_rejects_non_finite_input(epsilon, e13):
    # unchecked, a NaN gives a table of NaNs and an infinite e13 a finite table
    with pytest.raises(ValueError, match="epsilon and e13 must be finite"):
        singular_expansion(epsilon, e13, 1)


@pytest.mark.parametrize("epsilon", [1e-155, 1e-170])
def test_singular_expansion_past_the_float_range_is_the_rule_error(epsilon):
    # 1/epsilon**2 is past the float range: unchecked, 1e-155 gave -inf and
    # NaN coefficients and 1e-170 a ZeroDivisionError.  Level 3 has none.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for level in (1, 2):
            with pytest.raises(ValueError, match="^the leading coefficient is past the float "
                                                 f"range at [|]xi[|] = {epsilon:.6g}$"):
                singular_expansion(epsilon, 1.0, level)
        exp3 = singular_expansion(epsilon, 1.0, 3)
    assert all(v == 0.0 for part in (exp3.octet, exp3.decouplet, exp3.total)
               for v in part.values())


@pytest.mark.parametrize("epsilon", [1e160, 1e200])
def test_singular_expansion_below_the_float_range_rounds(epsilon):
    # 1/epsilon**2 below the float range rounds to a subnormal (1e-320) or to
    # zero (1e-400): unchecked, epsilon**2 raised OverflowError
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        exp = singular_expansion(epsilon, 1e302, 1)
    m, k = math.frexp(epsilon)
    lead = math.ldexp(1.0 / m**2, -2 * k)  # 1/epsilon**2 rounded once, as IEEE does
    assert lead == (0.0 if epsilon == 1e200 else pytest.approx(1e-320, rel=1e-3))
    assert (exp.octet[(1, 2)], exp.decouplet[(1, 2)]) == (lead / 3.0, lead / 6.0)
    assert all(math.isfinite(v) for part in (exp.octet, exp.decouplet, exp.total)
               for v in part.values())


def test_singular_expansion_matches_exact_parts():
    # split the exact rest-frame curvature into octet and decouplet pieces
    # and compare their slot-(1,2) values with the leading coefficients
    eps = 1e-4
    xi = eps * e(3) + e(8)
    e13 = energy_gaps(xi)[2]
    v = curvature_spectral(xi, 1).coeffs
    parts = project_irreducible(v)
    zero3 = np.zeros((3, 3, 3), complex)
    octet_part = reconstitute(IrreducibleParts(zero3, zero3, parts.octet)).coefficients
    decouplet_part = v - octet_part
    exp = singular_expansion(eps, e13, 1)
    assert octet_part[0, 1] == pytest.approx(exp.octet[(1, 2)], rel=2e-3)
    assert decouplet_part[0, 1] == pytest.approx(exp.decouplet[(1, 2)], rel=2e-3)
    assert v[0, 1] == pytest.approx(exp.total[(1, 2)], rel=1e-3)
    # the singular parts at slots (4,5)/(6,7) cancel: totals stay bounded
    assert abs(v[3, 4]) * eps**2 < 1e-3
    assert abs(v[5, 6]) * eps**2 < 1e-3


def test_monopole_approach_law():
    delta = 1e-3
    xi = delta * e(3) + e(8)
    v1 = curvature_spectral(xi, 1).coeffs
    assert 0.495 <= v1[0, 1] * delta**2 <= 0.505
    assert abs(v1[3, 4]) * delta**2 < 1e-3
    assert abs(v1[5, 6]) * delta**2 < 1e-3


def test_monopole_flux_quantization_at_rest_direction():
    f1 = monopole_flux(e(8), 1e-3, 1)
    f2 = monopole_flux(e(8), 1e-3, 2)
    f3 = monopole_flux(e(8), 1e-3, 3)
    assert abs(abs(f1) - TWO_PI) < 0.01 * TWO_PI
    assert abs(abs(f2) - TWO_PI) < 0.01 * TWO_PI
    assert f1 == pytest.approx(-f2, rel=1e-6)
    assert abs(f3) < 1e-3


def test_monopole_flux_on_transported_directions():
    for _ in range(3):
        d = adjoint_matrix(random_special_unitary(rng))
        direction = d @ e(8)
        f1 = monopole_flux(direction, 1e-3, 1)
        assert abs(abs(f1) - TWO_PI) < 0.01 * TWO_PI
        assert abs(monopole_flux(direction, 1e-3, 3)) < 1e-3


def test_monopole_flux_zero_when_sphere_misses_the_ray():
    f = monopole_flux(e(8), 1e-3, 1, center_offset=[0.0, 0.0, 1e-2])
    assert abs(f) < 1e-3


def test_monopole_flux_input_validation():
    with pytest.raises(ValueError):
        monopole_flux(e(3), 1e-3, 1)  # generic direction, not on the cone
    with pytest.raises(ValueError):
        monopole_flux(2.0 * e(8), 1e-3, 1)  # not unit
    with pytest.raises(ValueError):
        monopole_flux(e(8), 0.5, 1)  # sphere reaches the lower degeneracy
    with pytest.raises(ValueError):
        monopole_flux(e(8), -1e-3, 1)


@pytest.mark.parametrize("rel_tol", [0.0, -1e-4, np.nan, np.inf])
def test_monopole_flux_rejects_bad_rel_tol(rel_tol):
    with pytest.raises(ValueError, match="rel_tol"):
        monopole_flux(e(8), 1e-3, 1, rel_tol=rel_tol)


def test_monopole_flux_raises_when_orders_never_agree(monkeypatch):
    # A flux density that grows with every quadrature order never settles.
    # The stubs skip the real nodes and spectra so the order-384 blocks stay
    # cheap; the stub weights sum to pi in theta and 2 pi in phi, like the
    # real ones.  Each order is visited in blocks of whole theta rows, and
    # the density is constant over an order, so the flux of the k-th order
    # is k * pi * 2 pi.
    orders, rows = [], []

    def drifting_density(xi, e, a, du, dv, level):
        order = du.shape[1] // 2
        if not orders or orders[-1] != order:
            orders.append(order)
            rows.append(0)
        rows[-1] += du.shape[0]
        return np.full(du.shape[:2], float(len(orders)))

    def flat_quadrature(order):
        theta = (np.arange(order) + 0.5) * np.pi / order
        phi = (np.arange(2 * order) + 0.5) * np.pi / order
        return theta, np.full(order, np.pi / order), phi, np.full(2 * order, np.pi / order)

    # the block density of monopole_flux is holonomy's, shared with surface_flux
    monkeypatch.setattr(holonomy, "_flux_density", drifting_density)
    monkeypatch.setattr(limits, "_sphere_quadrature", flat_quadrature)
    monkeypatch.setattr(holonomy, "_block_frames",
                        lambda xi, tol, message, levels: (None, np.zeros(xi.shape[:-1] + (3, 1)),
                                                          np.zeros(xi.shape[:-1], int)))
    with pytest.raises(UnderResolvedPath, match="order 384") as exc:
        monopole_flux(e(8), 1e-3, 1)
    assert isinstance(exc.value, ValueError)
    assert orders == [12, 24, 48, 96, 192, 384]
    assert rows == orders  # every theta row once per order
    # the message states the last two values and the tolerance
    message = str(exc.value)
    assert "orders 192 and 384" in message
    values = [float(v) for v in re.findall(r"gave (\S+) and (\S+),", message)[0]]
    assert values == pytest.approx([5 * np.pi * TWO_PI, 6 * np.pi * TWO_PI], rel=1e-12)
    assert message.endswith(f"= {1e-4 * TWO_PI:.3g}")


def test_flux_quantization_across_random_directions():
    # |flux| is 0 or 2 pi within 1% across 10 transported spheres
    for k in range(10):
        d = adjoint_matrix(random_special_unitary(rng))
        direction = d @ e(8)
        level = 1 + (k % 2)
        f = abs(monopole_flux(direction, 1e-3, level))
        assert abs(f - TWO_PI) < 0.01 * TWO_PI
        if k % 3 == 0:
            off = monopole_flux(direction, 1e-3, 1, center_offset=[1e-2, 0.0, 0.0])
            assert abs(off) < 1e-3


def test_sphere_quadrature_is_computed_once_per_order(monkeypatch):
    real = limits._gauss_legendre
    calls = []

    def counted(n):
        calls.append(n)
        return real(n)

    monkeypatch.setattr(limits, "_gauss_legendre", counted)
    limits._sphere_quadrature.cache_clear()
    real.cache_clear()
    first = monopole_flux(e(8), 1e-3, 1)
    computed = list(calls)
    assert monopole_flux(e(8), 1e-3, 1) == first
    assert calls == computed  # the second call asked for no nodes
    # order k takes the node sets of k and 2 k, each order once, doubling from 12
    orders = computed[0::2]
    assert orders == [12 * 2**i for i in range(len(orders))]
    assert computed[1::2] == [2 * n for n in orders]
    # and each n (12, 24, 48, ...) was computed exactly once
    sizes = sorted(set(computed))
    assert sizes == [12 * 2**i for i in range(len(orders) + 1)]
    assert real.cache_info().misses == len(sizes)
    for nodes in limits._sphere_quadrature(12):
        assert not nodes.flags.writeable


def _legendre_reference(n: int, digits: int = 40) -> tuple[list, list]:
    """Gauss-Legendre nodes (ascending) and weights at ``digits`` digits:
    Newton on the three-term recurrence from the cosine of each root's
    asymptotic angle, independently of the routine under test."""
    with mpmath.workdps(digits):
        def legendre(x):  # P_n(x) and P_n'(x)
            p0, p1 = mpmath.mpf(1), x
            for k in range(1, n):
                p0, p1 = p1, ((2 * k + 1) * x * p1 - k * p0) / (k + 1)
            return p1, n * (x * p1 - p0) / (x * x - 1)

        nodes, weights = [], []
        for k in range(1, n + 1):
            x = mpmath.cos(mpmath.pi * (4 * k - 1) / (4 * n + 2))
            for _ in range(100):
                p, dp = legendre(x)
                x -= p / dp
                if abs(p / dp) < mpmath.mpf(10) ** (5 - digits):
                    break
            dp = legendre(x)[1]
            nodes.append(x)
            weights.append(2 / ((1 - x * x) * dp * dp))
        return nodes[::-1], weights[::-1]


@pytest.mark.parametrize("n", [12, 24, 48, 96])
def test_gauss_legendre_matches_a_40_digit_reference(n):
    x, w = limits._gauss_legendre(n)
    ref_x, ref_w = _legendre_reference(n)
    # correctly rounded nodes are within half a unit in the last place of 1
    assert max(abs(mpmath.mpf(float(a)) - b) for a, b in zip(x, ref_x)) < 1.1e-16
    assert max(abs(mpmath.mpf(float(a)) / b - 1) for a, b in zip(w, ref_w)) < 1e-13


@pytest.mark.parametrize("n", [12, 24, 48, 96])
def test_gauss_legendre_sums_to_2_and_is_exact_to_degree_2n_minus_1(n):
    x, w = limits._gauss_legendre(n)
    np.testing.assert_array_equal(x, -x[::-1])
    np.testing.assert_array_equal(w, w[::-1])
    assert abs(w.sum() - 2.0) <= 4e-16
    # the highest even degree the rule integrates exactly
    assert np.sum(w * x ** (2 * n - 2)) == pytest.approx(2.0 / (2 * n - 1), rel=1e-14, abs=0)


def test_gauss_legendre_node_sets_are_mirrored_and_cached():
    for n in range(1, 101):
        x, w = limits._gauss_legendre(n)
        assert x.shape == w.shape == (n,)
        assert np.all(np.diff(x) > 0) and np.all(w > 0)
        np.testing.assert_array_equal(x, -x[::-1])  # an odd n has the node 0
        np.testing.assert_array_equal(w, w[::-1])
        assert abs(w.sum() - 2.0) <= 3 * np.spacing(1.0)  # 6.7e-16
        assert not (x.flags.writeable or w.flags.writeable)
        assert limits._gauss_legendre(n)[0] is x


def test_monopole_flux_working_set_is_one_block():
    # Offset 0.9 radius from the ray, the flux climbs to quadrature order 192
    # (192 x 384 points); the blocks keep the peak near 0.5 MiB.
    tracemalloc.start()
    try:
        monopole_flux(e(8), 1e-3, 1, center_offset=[9e-4, 0.0, 0.0])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


def test_monopole_flux_working_set_is_a_lean_block():
    # The order-192 case above peaked at 1.35 MiB with gauge-fixed frames and
    # points and tangents pushed through the adjoint matrix; the bound is 59 %.
    tracemalloc.start()
    try:
        monopole_flux(e(8), 1e-3, 1, center_offset=[9e-4, 0.0, 0.0])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.8 * 2**20


def test_monopole_flux_sphere_through_the_ray_is_degenerate():
    # put the first order-12 quadrature node exactly on the degenerate ray
    theta, _, phi, _ = limits._sphere_quadrature(12)
    radius = 1e-3
    node = radius * np.array([np.sin(theta[5]) * np.cos(phi[7]),
                              np.sin(theta[5]) * np.sin(phi[7]), np.cos(theta[5])])
    with pytest.raises(DegenerateInput, match="sphere passes through a degeneracy"):
        monopole_flux(e(8), radius, 1, center_offset=-node)


def test_monopole_flux_does_not_load_numpy_polynomial():
    # A fresh interpreter: pytest itself may have loaded numpy.polynomial.
    src = Path(__file__).resolve().parent.parent / "src"
    code = ("import sys\nfrom su3holo.limits import monopole_flux\n"
            "monopole_flux([0, 0, 0, 0, 0, 0, 0, 1], 1e-3, 1)\n"
            "print('numpy.polynomial' in sys.modules)")
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "False"


@pytest.mark.parametrize("radius", [np.nan, np.inf, 0.0])
def test_monopole_flux_rejects_a_bad_radius(radius):
    with pytest.raises(ValueError, match="radius must be positive and finite"):
        monopole_flux(e(8), radius, 1)


def test_monopole_flux_rejects_non_finite_vectors():
    with pytest.raises(ValueError, match="direction must be a unit octet vector"):
        monopole_flux(np.where(e(8) > 0, 1.0, np.nan), 1e-3, 1)
    with pytest.raises(ValueError, match="center_offset must have 3 finite components"):
        monopole_flux(e(8), 1e-3, 1, center_offset=[np.nan, 0.0, 0.0])


@pytest.mark.parametrize("d", [0.0, 1e-10])
def test_monopole_flux_sphere_grazing_the_degenerate_point_is_degenerate(d):
    # Here the quadrature agreed with itself on flux/2pi 0.5000012 (d = 0) and
    # 0.49998 (d = 1e-10), half the flux of either side.
    with pytest.raises(DegenerateInput, match="sphere passes through a degeneracy"):
        monopole_flux(e(8), 1e-3, 1, center_offset=[0.0, 0.0, 1e-3 + d])


@pytest.mark.parametrize("d, winding", [(1e-5, 0.0), (-1e-5, 1.0)])
def test_monopole_flux_just_off_the_degenerate_point(d, winding):
    flux = monopole_flux(e(8), 1e-3, 1, center_offset=[0.0, 0.0, 1e-3 + d])
    assert flux / TWO_PI == pytest.approx(winding, abs=1e-5)


@pytest.mark.parametrize("shape", [(2, 8), (7,), (9,)])
def test_monopole_flux_rejects_a_direction_that_is_not_an_8_vector(shape):
    with pytest.raises(ValueError) as info:
        monopole_flux(np.zeros(shape), 1e-3, 1)
    assert str(info.value) == f"direction must have 8 components, got shape {shape}"
