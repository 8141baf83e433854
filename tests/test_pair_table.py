"""The per-level closed forms summed over the level pairs equal the forms
written out level by level (``helpers.ladder_*``) bit for bit: the
rest-frame curvature table, the decouplet weight, the octet coefficients
(at the unit-scaled vector they are evaluated at) and the singular
expansion."""
import dataclasses
import math
import warnings

import numpy as np
import pytest

from helpers import (
    ladder_decouplet_weight,
    ladder_octet_coefficients,
    ladder_rest_frame,
    ladder_singular_expansion,
)
from su3holo.algebra import _unit_scaled
from su3holo.curvature import curvature_rest_frame
from su3holo.limits import singular_expansion
from su3holo.spectrum import DegeneracyClass, SpectralData, eigenvalues
from su3holo.tensors import decouplet_weight, octet_coefficients

COUNT = 10_000


def _bits(values) -> tuple:
    return tuple(float(x).hex() for x in values)


def _antisymmetrized(v: np.ndarray) -> np.ndarray:
    return (v - v.T) / 2.0  # as CurvatureTwoForm stores its coefficients


@pytest.fixture(scope="module")
def rest_frames():
    """``COUNT`` seeded rest-frame vectors, each gap ``10**U(-4, 3)``."""
    e12, e23 = 10.0 ** np.random.default_rng(19).uniform(-4.0, 3.0, size=(2, COUNT))
    pts = np.zeros((COUNT, 8))
    pts[:, 2] = e12
    pts[:, 7] = (e12 + 2.0 * e23) / np.sqrt(3.0)
    return pts


@pytest.mark.parametrize("level", [1, 2, 3])
def test_rest_table_and_weights_match_the_ladders(rest_frames, level):
    for xi in rest_frames:
        s = eigenvalues(xi)
        assert s.degeneracy is DegeneracyClass.GENERIC
        got = curvature_rest_frame(s, level).coeffs
        assert got.tobytes() == _antisymmetrized(ladder_rest_frame(s, level)).tobytes()
        assert _bits([decouplet_weight(level, s.e12, s.e23)]) == _bits(
            [ladder_decouplet_weight(level, s.e12, s.e23)])
        # octet_coefficients evaluates at the unit-scaled vector, mu of degree -1,
        # with the gaps of xi scaled down alike
        u, k = _unit_scaled(xi)
        unit = dataclasses.replace(s, **{name: math.ldexp(getattr(s, name), -k)
                                         for name in ("e12", "e23", "e13")})
        lam, mu = ladder_octet_coefficients(level, u, unit)
        assert _bits(octet_coefficients(level, xi)) == _bits([lam, math.ldexp(mu, -k)])


@pytest.mark.parametrize("level", [1, 2, 3])
def test_decouplet_weight_matches_the_ladder_on_arrays(rest_frames, level):
    e12, e23 = rest_frames[:, 2], (np.sqrt(3.0) * rest_frames[:, 7] - rest_frames[:, 2]) / 2.0
    assert decouplet_weight(level, e12, e23).tobytes() == ladder_decouplet_weight(
        level, e12, e23).tobytes()


def test_the_pair_without_the_level_is_not_divided_by_its_gap():
    # E23**2 underflows to 0.0: level 1 never reads E23, as the ladder does not
    assert decouplet_weight(1, 1.0, 1e-170) == ladder_decouplet_weight(1, 1.0, 1e-170) == 0.0
    s = SpectralData(2.0 / 3.0, -1.0 / 3.0, -1.0 / 3.0, 0.5, 1.0, 1e-170, 1.0,
                     DegeneracyClass.GENERIC)
    got = curvature_rest_frame(s, 1).coeffs
    assert np.all(np.isfinite(got))
    assert got.tobytes() == _antisymmetrized(ladder_rest_frame(s, 1)).tobytes()


@pytest.mark.parametrize("e12, e23, level", [
    (1e200, 1e200, 2), (1e200, 1e200, 3),  # a squared gap overflows: OverflowError
    (1e-200, 1.0, 1), (1e-200, 1.0, 2),  # E12**2 is 0.0: ZeroDivisionError
    (1.0, 1e-170, 2), (1.0, 1e-170, 3),  # E23**2 is 0.0: ZeroDivisionError
    (1e-160, 1.0, 1),  # E12**2 is subnormal, its reciprocal past the range: inf
], ids=["over-2", "over-3", "e12-under-1", "e12-under-2", "e23-under-2", "e23-under-3",
        "subnormal-1"])
def test_the_rest_table_and_the_decouplet_weight_share_one_gap_rule(e12, e23, level):
    s = SpectralData(0.0, 0.0, 0.0, 0.5, e12, e23, e12 + e23, DegeneracyClass.GENERIC)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in (lambda: curvature_rest_frame(s, level), lambda: decouplet_weight(level, e12, e23)):
            with pytest.raises(ValueError, match="^a squared gap is outside the float range$"):
                call()


@pytest.mark.parametrize("level", [1, 2, 3])
def test_singular_expansion_matches_the_ladder(level):
    rng = np.random.default_rng(level)
    for epsilon, e13 in zip(10.0 ** rng.uniform(-8.0, -2.0, 200), rng.uniform(0.5, 2.0, 200)):
        got = singular_expansion(epsilon, e13, level)
        for part, want in zip((got.octet, got.decouplet, got.total),
                              ladder_singular_expansion(epsilon, level)):
            assert list(part) == list(want)
            assert _bits(part.values()) == _bits(want.values())
