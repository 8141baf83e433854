"""Shared test utilities: random matrix factories, angle wrapping, the
dense reference kernels, the gauge-fixed frames and the sum-over-states
curvature, the whole-loop transport, mpmath flux-density and curvature
references and a point whose closed form overflows."""
import mpmath
import numpy as np

from su3holo import UnderResolvedPath, spectrum
from su3holo.holonomy import OVERLAP_GUARD
from su3holo.algebra import D_CONST, GELL_MANN, adjoint_matrix, octet_to_matrix
from su3holo.spectrum import energy_gaps, octet_norm

# Past |xi| of about 5.6e102, |xi|^3 overflows: along this direction the cubic
# invariant stays finite, so phi reads pi/3 and the Generic rule alone passes
# the point; scaled by 1e8 the cubic invariant overflows too.
_DIRECTION = np.random.default_rng(3).standard_normal(8)
OVERFLOWING = 6e102 * _DIRECTION / np.linalg.norm(_DIRECTION)


def wrap_angle(x: float) -> float:
    """Wrap to (-pi, pi]."""
    return float(np.angle(np.exp(1j * x)))


def random_hermitian(rng, n: int = 3, traceless: bool = False) -> np.ndarray:
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    h = (m + m.conj().T) / 2
    if traceless:
        h -= np.trace(h) / n * np.eye(n)
    return h


def _exp_i(h: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(h)
    return (v * np.exp(1j * w)) @ v.conj().T


def random_unitary(rng, n: int = 3) -> np.ndarray:
    return _exp_i(random_hermitian(rng, n))


def random_special_unitary(rng) -> np.ndarray:
    # det exp(iH) = exp(i Tr H) = 1 for traceless H
    return _exp_i(random_hermitian(rng, 3, traceless=True))


def random_generic_octet(rng, margin: float = 0.05, scale: float = 1.0) -> np.ndarray:
    while True:
        xi = scale * rng.standard_normal(8)
        gaps = energy_gaps(xi)
        if min(gaps[0], gaps[1]) > margin * octet_norm(xi):
            return xi


def random_rest_frame(rng, lo: float = 0.3, hi: float = 1.5):
    """Random generic rest-frame vector; returns (xi, e12, e23)."""
    e12 = rng.uniform(lo, hi)
    e23 = rng.uniform(lo, hi)
    xi = np.zeros(8)
    xi[2] = e12
    xi[7] = (e12 + 2.0 * e23) / np.sqrt(3.0)
    return xi, e12, e23


def stacked_eigenvector_columns(h: np.ndarray, e: np.ndarray) -> np.ndarray:
    """Reference null-space kernel: every candidate cross product stacked
    into (..., level, pair, 3) arrays.  The library's kernel must equal it
    bit for bit."""
    m = h[..., None, :, :] - e[..., :, None, None] * np.eye(3)  # (..., level, 3, 3)
    cands = np.stack(
        [
            np.cross(m[..., 0, :], m[..., 1, :]),
            np.cross(m[..., 0, :], m[..., 2, :]),
            np.cross(m[..., 1, :], m[..., 2, :]),
        ],
        axis=-2,
    )  # (..., level, pair, 3)
    norms = np.linalg.norm(cands, axis=-1)
    best = np.argmax(norms, axis=-1)
    vecs = np.take_along_axis(cands, best[..., None, None], axis=-2)[..., 0, :]
    vecs = vecs / np.linalg.norm(vecs, axis=-1)[..., None]
    return np.swapaxes(vecs, -1, -2)  # columns indexed by level


def copying_fix_gauge(a: np.ndarray, pivots=None) -> np.ndarray:
    """Reference gauge fix that works on a copy of ``a``."""
    a = a.copy()
    for k in range(2):
        col = a[..., :, k]
        if pivots is None:
            idx = np.argmax(np.abs(col), axis=-1)
        else:
            idx = np.broadcast_to(pivots[k], col.shape[:-1]).copy()
        piv = np.take_along_axis(col, idx[..., None], axis=-1)[..., 0]
        phase = piv / np.abs(piv)
        a[..., :, k] = col * np.conj(phase)[..., None]
    det = np.linalg.det(a)
    a[..., :, 2] = a[..., :, 2] * (np.conj(det) / np.abs(det))[..., None]
    return a


def gauge_fixed_frames_at(xi: np.ndarray, e: np.ndarray,
                          pivots=None) -> tuple[np.ndarray, np.ndarray]:
    """Reference frames: the levels ``e`` (..., 3) of octet vectors (..., 8)
    and their eigenvector matrices (..., 3, 3) from the library's kernel,
    gauge fixed as in ``diagonalizer``.  No degeneracy guard."""
    a = spectrum._eigenvector_columns(octet_to_matrix(xi), e)
    return e, spectrum._fix_gauge(a, pivots)


def gauge_fixed_frames(xi, pivots=None) -> tuple[np.ndarray, np.ndarray]:
    """``gauge_fixed_frames_at`` with the closed-form levels of ``xi``."""
    xi = np.asarray(xi, dtype=float)
    return gauge_fixed_frames_at(xi, spectrum._closed_form(xi).levels, pivots)


def whole_loop_phase(vecs: np.ndarray) -> float:
    """Reference loop phase of one level's (N, 3) eigenvector samples, the
    whole loop at once: minus the argument of the cyclic product of
    consecutive overlaps, each renormalized in step order, or
    ``UnderResolvedPath`` naming the smallest overlap (the first on a tie)
    and its step if any is at or below the guard.  The library's blocked
    transport must equal it bit for bit."""
    overlaps = np.einsum("ki,ki->k", vecs.conj(), np.roll(vecs, -1, axis=0))
    mags = np.abs(overlaps)
    if np.any(mags <= OVERLAP_GUARD):
        k = int(np.argmin(mags))
        raise UnderResolvedPath(f"overlap magnitude {mags[k]:.3f} at step {k} is below the guard")
    prod = complex(1.0, 0.0)
    for z in overlaps:
        prod *= z / abs(z)
    return float(-np.angle(prod))


def whole_loop_phases(path, levels=(1, 2, 3)) -> list:
    """``whole_loop_phase`` of each of ``levels`` from one evaluation of the
    whole loop's frames."""
    frames = spectrum._block_frames(path.samples, path.tol, "loop passes through a degeneracy")[1]
    return [whole_loop_phase(frames[..., a - 1]) for a in levels]


def sum_over_states_coeffs(e: np.ndarray, a_mat: np.ndarray, level: int) -> np.ndarray:
    """Reference curvature coefficients (..., 8, 8) of one level from the
    levels (..., 3) and eigenvector matrices (..., 3, 3), summed over the
    other states: ``(1/2) Im sum_{b != a} <a|l_r|b><b|l_s|a> / E_ab^2``."""
    idx = level - 1
    bra = np.einsum("...i,rij->...rj", a_mat[..., :, idx].conj(), GELL_MANN)
    g = bra @ a_mat  # g[..., r, b] = <a|lam_r|b>
    with np.errstate(divide="ignore"):
        w = np.where(np.arange(3) == idx, 0.0, 1.0 / (e[..., idx, None] - e) ** 2)
    return ((g * w[..., None, :]) @ np.swapaxes(g.conj(), -1, -2)).imag / 2.0


def einsum_cubic_invariant(xi):
    """Reference cubic invariant: the dense einsum over all 512 ``d_rst``.
    The library's sparse sum must equal it bit for bit on finite input."""
    xi = np.asarray(xi, dtype=float)
    out = np.sqrt(3.0) * np.einsum("rst,...r,...s,...t->...", D_CONST, xi, xi, xi)
    return float(out) if out.ndim == 0 else out


def einsum_octet_to_matrix(xi) -> np.ndarray:
    """Reference ``(1/2) xi . lambda``: the dense einsum over all 8 Gell-Mann
    matrices.  The library's entry-by-entry sums must equal it bit for bit
    on finite input."""
    return 0.5 * np.einsum("...r,rij->...ij", np.asarray(xi, dtype=float), GELL_MANN)


def near_cone_points(rng, gap: float, cone: str, count: int) -> np.ndarray:
    """``count`` unit octet vectors whose small gap is ``gap``: ``E12`` on
    the upper cone, ``E23`` on the lower; each is a rest-frame vector turned
    by the adjoint image of a random special-unitary matrix."""
    big = (np.sqrt(3.0 * (1.0 - gap**2)) - gap) / 2.0  # the other gap of a unit vector
    e12, e23 = (gap, big) if cone == "upper" else (big, gap)
    rest = np.zeros(8)
    rest[2], rest[7] = e12, (e12 + 2.0 * e23) / np.sqrt(3.0)
    return np.stack([adjoint_matrix(random_special_unitary(rng)) @ rest for _ in range(count)])


def _mpmath_overlaps(xi, tangents, level: int) -> list:
    """For each level ``b`` other than ``level``, the weight ``2 / E_ab^2``
    and the elements ``<a|M(t)|b>`` of each tangent ``t``, from the mpmath
    ``eighe`` spectrum of the double-precision input at the working
    precision."""
    def matrix(x):
        return mpmath.matrix([[sum(mpmath.mpf(float(x[r])) * mpmath.mpc(complex(GELL_MANN[r, i, j]))
                                   for r in range(8)) / 2 for j in range(3)] for i in range(3)])

    levels, vecs = mpmath.eighe(matrix(xi))
    order = sorted(range(3), key=lambda k: -levels[k])
    a = order[level - 1]
    mats = [matrix(t) for t in tangents]
    return [(2 / (levels[a] - levels[b]) ** 2, [(vecs[:, a].H * m * vecs[:, b])[0] for m in mats])
            for b in order if b != a]


def mpmath_flux_density(xi, du, dv, level: int, digits: int = 50) -> tuple[float, float]:
    """Reference ``du_r V_rs dv_s`` of one level from the mpmath ``eighe``
    spectrum of the double-precision input at ``digits`` digits:
    ``2 Im sum_{b != a} <a|M(du)|b><b|M(dv)|a> / E_ab^2``, with the sum of
    the magnitudes of its terms as a scale for relative errors."""
    with mpmath.workdps(digits):
        density = scale = mpmath.mpf(0)
        for weight, (pu, pv) in _mpmath_overlaps(xi, (du, dv), level):
            density += weight * mpmath.im(pu * mpmath.conj(pv))
            scale += weight * abs(pu * pv)
        return float(density), float(scale)


def mpmath_curvature(xi, level: int, digits: int = 50) -> np.ndarray:
    """Reference 8 x 8 curvature table ``V_rs`` of one level: the density
    of ``mpmath_flux_density`` over each pair of unit tangents, from one
    mpmath spectrum."""
    with mpmath.workdps(digits):
        terms = _mpmath_overlaps(xi, np.eye(8), level)
        return np.array([[float(sum(weight * mpmath.im(p[r] * mpmath.conj(p[s]))
                                    for weight, p in terms))
                          for s in range(8)] for r in range(8)])
