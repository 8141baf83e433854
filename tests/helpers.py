"""Shared test utilities: random matrix factories, planar patch grids, angle
wrapping, the dense reference kernels, the gauge-fixed frames and the
sum-over-states curvature, the whole-loop transport, mpmath flux-density and
curvature references, a point whose unscaled closed form overflows, the per-level
closed forms written out level by level, the sweep's rows and random draws
one point at a time and the finite-difference symplectic form one stencil
point at a time."""
import math

import mpmath
import numpy as np

from su3holo import UnderResolvedPath, algebra, curvature, spectrum
from su3holo.holonomy import OVERLAP_GUARD
from su3holo.algebra import D_CONST, GELL_MANN, adjoint_matrix, octet_star, octet_to_matrix
from su3holo.spectrum import energy_gaps, octet_norm

# Past |xi| of about 5.6e102, |xi|^3 overflows at this scale: along this
# direction the cubic invariant stays finite, so an unscaled closed form reads
# phi = pi/3; scaled by 1e8 the cubic invariant overflows too.  At unit scale
# the point is an ordinary Generic one.
_DIRECTION = np.random.default_rng(3).standard_normal(8)
OVERFLOWING = 6e102 * _DIRECTION / np.linalg.norm(_DIRECTION)


def planar_grid(center, axes, size: float, shape, origin=(0.5, 0.5)) -> np.ndarray:
    """The (nu, nv, 8) grid of the planar map ``center + size * ((u - u0) *
    axes[0] + (v - v0) * axes[1])``, ``(u0, v0) = origin``, on the (u, v)
    grid of ``SurfacePatch.from_function``, built by broadcasting: the same
    bits as ``from_function`` on that map, with no call per grid point."""
    su = np.linspace(0.0, 1.0, shape[0]) - origin[0]
    sv = np.linspace(0.0, 1.0, shape[1]) - origin[1]
    return center + size * (su[:, None, None] * axes[0] + sv[None, :, None] * axes[1])


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
    return gauge_fixed_frames_at(xi, spectrum.energy_levels(xi), pivots)


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


# The per-level closed forms, one branch per level.  The library sums each
# over the level pairs instead and must equal these bit for bit.

def ladder_rest_frame(spectral, level: int) -> np.ndarray:
    """Reference rest-frame curvature table ``v - v.T`` (8, 8), before the
    antisymmetrization of ``CurvatureTwoForm``."""
    e12, e23, e13 = spectral.e12, spectral.e23, spectral.e13
    v = np.zeros((8, 8))
    if level == 1:
        v[0, 1] = 1.0 / (2.0 * e12**2)
        v[3, 4] = 1.0 / (2.0 * e13**2)
    elif level == 2:
        v[0, 1] = -1.0 / (2.0 * e12**2)
        v[5, 6] = 1.0 / (2.0 * e23**2)
    else:
        v[3, 4] = -1.0 / (2.0 * e13**2)
        v[5, 6] = -1.0 / (2.0 * e23**2)
    return v - v.T


def ladder_decouplet_weight(level: int, e12, e23):
    """Reference decouplet weight of one level."""
    e13 = e12 + e23
    if level == 1:
        return 1.0 / e13**2 - 1.0 / e12**2
    if level == 2:
        return 1.0 / e12**2 - 1.0 / e23**2
    return 1.0 / e23**2 - 1.0 / e13**2


def ladder_octet_coefficients(level: int, xi: np.ndarray, s) -> tuple[float, float]:
    """Reference octet coefficients (lambda, mu) of one level at the
    rest-frame vector ``xi`` with spectral record ``s``."""
    e12, e23, e13 = s.e12, s.e23, s.e13
    x3, x8 = xi[2], xi[7]
    eta = octet_star(xi, xi)
    eta3, eta8 = eta[2], eta[7]
    s3 = np.sqrt(3.0)
    if level == 1:
        lam = (s3 * eta3 - eta8) / (2.0 * e13**2) - eta8 / e12**2
        mu = x8 / e12**2 + (x8 - s3 * x3) / (2.0 * e13**2)
    elif level == 2:
        lam = (s3 * eta3 + eta8) / (2.0 * e23**2) + eta8 / e12**2
        mu = -x8 / e12**2 - (x8 + s3 * x3) / (2.0 * e23**2)
    else:
        lam = (eta8 - s3 * eta3) / (2.0 * e13**2) - (eta8 + s3 * eta3) / (2.0 * e23**2)
        mu = (s3 * x3 - x8) / (2.0 * e13**2) + (s3 * x3 + x8) / (2.0 * e23**2)
    return float(lam), float(mu)


def ladder_singular_expansion(epsilon: float, level: int) -> tuple[dict, dict, dict]:
    """Reference octet, decouplet and total singular coefficients."""
    lead = 1.0 / epsilon**2
    slots = ((1, 2), (4, 5), (6, 7))
    if level == 3:
        zero = {slot: 0.0 for slot in slots}
        return dict(zero), dict(zero), dict(zero)
    sign = 1.0 if level == 1 else -1.0
    octet = {
        (1, 2): sign * lead / 3.0,
        (4, 5): sign * lead / 6.0,
        (6, 7): -sign * lead / 6.0,
    }
    decouplet = {
        (1, 2): sign * lead / 6.0,
        (4, 5): -sign * lead / 6.0,
        (6, 7): sign * lead / 6.0,
    }
    total = {slot: octet[slot] + decouplet[slot] for slot in slots}
    return octet, decouplet, total


def per_row_sweep_lines(points: np.ndarray, level, tol: float) -> list[str]:
    """Reference sweep rows: one CSV line per point, its fields in column
    order, each point through the single-point API on its own.  The
    batched sweep must equal it byte for byte, its errors included."""
    lines = []
    for index, xi in enumerate(points):
        s = spectrum.eigenvalues(xi, tol)
        quad, cubic = algebra.invariants(xi)
        fields = [str(index), *[repr(float(v)) for v in xi],
                  repr(float(spectrum.octet_norm(xi))),
                  "" if math.isnan(s.phi) else repr(s.phi), s.degeneracy.value,
                  repr(s.e12), repr(s.e23), repr(s.e13), repr(quad), repr(cubic)]
        if level is not None:
            if s.degeneracy is spectrum.DegeneracyClass.GENERIC:
                v = curvature.curvature_spectral(xi, level, tol).coeffs
                fields += [repr(float(v[slot])) for _, slot in curvature._PAIRS]
                fields += [repr(float(v[2, 7])), repr(float(np.abs(v).max()))]
            else:
                fields += ["nan"] * 5
        lines.append(",".join(fields))
    return lines


def one_draw_at_a_time_random_generic(rng, count: int, tol: float, scale: float = 1.0):
    """Reference for ``sweep.random_generic``: ``scale`` times one
    standard-normal octet vector at a time, kept where ``classify`` finds it
    Generic, until ``count`` are kept or ``100 * count`` are drawn.  The
    blocked generator must keep the same points and leave ``rng`` in the same
    state."""
    kept, tries = [], 0
    while len(kept) < count and tries < 100 * count:
        xi = scale * rng.standard_normal(8)
        tries += 1
        if spectrum.classify(xi, tol) is spectrum.DegeneracyClass.GENERIC:
            kept.append(xi)
    if len(kept) < count:
        raise ValueError(f"random generator found {len(kept)} of {count} generic points")
    return np.array(kept).reshape(-1, 8)


def per_point_symplectic_two_form_fd(xi, step=None, tol: float = 1e-9) -> np.ndarray:
    """Reference ``curvature.symplectic_two_form_fd``: the 16 stencil frames
    from one pinned ``diagonalizer`` call each.  The batched stencil must
    equal it byte for byte."""
    xi = np.asarray(xi, dtype=float)
    a0 = spectrum.diagonalizer(xi, tol)
    if step is None:
        step = 1e-5 * octet_norm(xi)
    h0 = np.diag(spectrum.eigenvalues(xi, tol).energies)
    pivots = (int(np.argmax(np.abs(a0[:, 0]))), int(np.argmax(np.abs(a0[:, 1]))))
    thetas = np.empty((8, 3, 3), dtype=complex)
    for r in range(8):
        offset = np.zeros(8)
        offset[r] = step
        a_plus = spectrum.diagonalizer(xi + offset, tol, pivots)
        a_minus = spectrum.diagonalizer(xi - offset, tol, pivots)
        thetas[r] = a0.conj().T @ ((a_plus - a_minus) / (2.0 * step))
    prod = np.einsum("rij,sjk->rsik", thetas, thetas)
    comm = prod - prod.transpose(1, 0, 2, 3)
    return -np.einsum("ij,rsji->rs", h0, comm).imag
