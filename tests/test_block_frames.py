"""The batched block evaluator behind loop phases, patch fluxes and monopole
spheres: its frames are not gauge fixed, every quantity read off them is
gauge invariant, its working set is bounded, and its input checks raise
typed errors in a fixed order."""
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from helpers import OVERFLOWING, gauge_fixed_frames, random_generic_octet, wrap_angle
from su3holo import DegenerateInput, holonomy, spectrum
from su3holo.curvature import _flux_density
from su3holo.holonomy import LoopPath, SurfacePatch, circle_loop, phase_sum_rule_check
from su3holo.spectrum import _block_frames

SAMPLES = 64
CELLS = (6, 7)
TOL = spectrum.DEFAULT_CLASSIFY_TOL

seeds = st.integers(0, 2**32 - 1)


def _true_scale_frames(xi, levels=(1, 2, 3)):
    # _block_frames with its unit-scale levels scaled back to the scale of xi
    e, frames, k = _block_frames(xi, TOL, "degenerate", levels)
    return np.ldexp(e, np.expand_dims(k, -1)), frames


def unit_phases(shape):
    return arrays(np.float64, shape, elements=st.floats(-np.pi, np.pi)).map(
        lambda t: np.exp(1j * t))


def random_loop(seed: int) -> LoopPath:
    rng = np.random.default_rng(seed)
    center = random_generic_octet(rng, margin=0.2)
    axes, _ = np.linalg.qr(rng.standard_normal((8, 2)))
    return circle_loop(center, axes[:, 0], axes[:, 1], 0.05 * np.linalg.norm(center), SAMPLES)


def random_block(seed: int):
    """Generic points near a random center, with two random tangents each."""
    rng = np.random.default_rng(seed)
    center = random_generic_octet(rng, margin=0.2)
    xi = center + 0.02 * np.linalg.norm(center) * rng.standard_normal(CELLS + (8,))
    du, dv = rng.standard_normal((2,) + CELLS + (8,))
    return xi, du, dv


@settings(max_examples=40, deadline=None)
@given(seed=seeds, phases=unit_phases((SAMPLES, 3)))
def test_loop_phases_do_not_depend_on_the_column_phases(seed, phases):
    # the loop transport reads its columns from _block_frames: re-phase them there
    loop = random_loop(seed)
    real = holonomy._block_frames

    def rephased(xi, tol, message, levels):
        e, frames, k = real(xi, tol, message, levels)
        return e, frames * phases[:, None, :], k

    want = phase_sum_rule_check(loop)[0]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(holonomy, "_block_frames", rephased)
        got = phase_sum_rule_check(loop)[0]
    for a in range(3):
        diff = got[a] - want[a]
        assert abs(wrap_angle(diff)) <= 1e-13


@settings(max_examples=40, deadline=None)
@given(seed=seeds, phase=unit_phases(CELLS), level=st.sampled_from([1, 2, 3]))
def test_flux_density_does_not_depend_on_the_column_phases(seed, phase, level):
    xi, du, dv = random_block(seed)
    e, column = _true_scale_frames(xi, levels=(level,))
    want = _flux_density(xi, e, column[..., 0], du, dv, level)
    got = _flux_density(xi, e, column[..., 0] * phase[..., None], du, dv, level)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-13)


@pytest.mark.parametrize("count", [1, 1024])
def test_one_level_columns_are_the_three_level_columns_bytes(count):
    # blocks of 64 points and more take the levels one at a time, smaller
    # ones all at once; either way a column does not depend on the others
    xi = np.random.default_rng(count).standard_normal((count, 8))
    e, frames, k = _block_frames(xi, TOL, "degenerate")
    for level in (1, 2, 3):
        e_one, column, k_one = _block_frames(xi, TOL, "degenerate", levels=(level,))
        assert column.shape == (count, 3, 1)
        assert e_one.tobytes() == e.tobytes() and k_one.tobytes() == k.tobytes()
        assert column[..., 0].tobytes() == frames[..., level - 1].tobytes()


@settings(max_examples=40, deadline=None)
@given(seed=seeds)
def test_block_frames_are_the_gauge_fixed_frames_up_to_a_phase_per_column(seed):
    xi, _, _ = random_block(seed)
    e, frames = _true_scale_frames(xi)
    e_fixed, fixed = gauge_fixed_frames(xi)
    assert np.array_equal(e, e_fixed)
    # one unit phase per column: frames[:, k] = fixed[:, k] * <fixed_k|frames_k>
    phase = np.einsum("...ik,...ik->...k", fixed.conj(), frames)
    np.testing.assert_allclose(np.abs(phase), 1.0, rtol=0, atol=1e-14)
    np.testing.assert_allclose(frames, fixed * phase[..., None, :], rtol=0, atol=1e-14)


def test_block_frames_working_set_per_point():
    # 1010 B per point with the gauge fix and the four-buffer kernel
    xi = np.random.default_rng(12).standard_normal((1024, 8))
    tracemalloc.start()
    try:
        _block_frames(xi, TOL, "degenerate")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 600 * len(xi)


def test_one_level_block_frames_working_set_per_point():
    # 512 B per point for three columns, 398 B for one: the output and the
    # candidate buffers hold one column instead of three
    xi = np.random.default_rng(12).standard_normal((1024, 8))
    tracemalloc.start()
    try:
        _block_frames(xi, TOL, "degenerate", levels=(2,))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 400 * len(xi)


@pytest.mark.parametrize("build", [
    lambda pts: LoopPath(pts),
    lambda pts: SurfacePatch(pts.reshape(3, 2, 8)),
    lambda pts: _block_frames(pts, TOL, "degenerate"),
], ids=["loop", "patch", "block"])
@pytest.mark.parametrize("scale", [1.0, 1e8], ids=["cubic-finite", "cubic-overflows"])
def test_closed_form_overflow_is_checked_before_the_generic_rule(build, scale):
    # a degenerate point first, then one whose closed form overflowed and was
    # reported first; at unit scale that point is Generic, so the Generic rule
    # reports the degenerate one, and without it the block evaluates
    pts = np.array([np.eye(8)[7], scale * OVERFLOWING, *np.eye(8)[[0, 1, 3, 4]]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DegenerateInput):
            build(pts)
        e, frames, k = _block_frames(pts[1:], TOL, "degenerate")
    assert np.isfinite(e).all() and np.isfinite(frames).all()
    image = np.ldexp(pts[1:2], -k[0])  # the same unit-scaled point
    assert e[0].tobytes() == _block_frames(image, TOL, "degenerate")[0][0].tobytes()


@pytest.mark.parametrize("build, sample", [
    (LoopPath, "a loop sample"),
    (lambda pts: SurfacePatch(pts.reshape(2, 2, 8)), "a patch grid point"),
], ids=["loop", "patch"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_a_non_finite_sample_is_not_reported_as_a_degeneracy(build, sample, bad):
    pts = np.array([random_generic_octet(np.random.default_rng(1))] * 4)
    pts[2, 5] = bad
    with pytest.raises(ValueError, match=f"{sample} has a non-finite component") as exc:
        build(pts)
    assert not isinstance(exc.value, DegenerateInput)
