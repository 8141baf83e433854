"""Behaviour near the double-degeneracy surfaces.

Near the upper surface (small gap ``eps = E12`` at fixed ``E13 ~ E23``) the
octet and decouplet pieces of the curvature are separately singular like
``1/eps^2`` but cancel at slots (4,5) and (6,7); the only surviving singular
terms are ``V_12^(1) = -V_12^(2) = 1/(2 eps^2)``, which is exactly the field
of a three-dimensional magnetic monopole of strength 1/2 in the local
(xi1, xi2, xi3) unfolding subspace.  This module provides the asymptotic gap
law, the table of leading singular coefficients, and a numerical flux
integral over small transported spheres that exhibits the quantized
``+-2 pi`` monopole flux.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .algebra import adjoint_matrix, invariants, octet_to_matrix
from .errors import DegenerateInput, UnderResolvedPath, check_level, check_positive
from .holonomy import _block_density, _row_blocks
from .spectrum import DEFAULT_CLASSIFY_TOL, energy_gaps, octet_norm, phase_angle

__all__ = [
    "GapAsymptotic",
    "SingularExpansion",
    "gap_asymptotic",
    "singular_expansion",
    "monopole_flux",
]

_SLOTS = ((1, 2), (4, 5), (6, 7))
_WINDOW = 0.1


class GapAsymptotic(NamedTuple):
    predicted: float
    actual: float


@dataclass(frozen=True)
class SingularExpansion:
    """Leading singular coefficients of the curvature near the upper
    degeneracy, per slot, for the octet piece, the decouplet piece and
    their total.  Slots are keyed (1,2), (4,5), (6,7); entries are the
    coefficient of the leading ``1/eps^2`` term evaluated at ``eps``.
    ``ValueError`` if the level is not 1, 2 or 3 (``errors.check_level``)."""

    level: int
    epsilon: float
    e13: float
    octet: dict
    decouplet: dict
    total: dict

    def __post_init__(self):
        object.__setattr__(self, "level", check_level(self.level))


def gap_asymptotic(xi) -> GapAsymptotic:
    """Asymptotic small gap near a double degeneracy, next to the exact one.

    Near the upper surface (``phi`` within 0.1 of pi/6):

        ``E12 ~ (sqrt(2)/3) (|xi|^3 + cubic)^(1/2) / |xi|^(1/2)``

    and the mirror law with a minus sign for ``E23`` near the lower surface
    (``phi`` within 0.1 of pi/2).  The relative error vanishes as the
    surface is approached.

    Raises
    ------
    ValueError
        If ``xi`` is not near either degeneracy surface.
    """
    xi = np.asarray(xi, dtype=float)
    norm = octet_norm(xi)
    phi = phase_angle(xi)
    _, cubic = invariants(xi)
    e12, e23, _ = energy_gaps(xi)
    if abs(phi - np.pi / 6.0) <= _WINDOW:
        predicted = (np.sqrt(2.0) / 3.0) * np.sqrt(max(norm**3 + cubic, 0.0) / norm)
        return GapAsymptotic(float(predicted), float(e12))
    if abs(phi - np.pi / 2.0) <= _WINDOW:
        predicted = (np.sqrt(2.0) / 3.0) * np.sqrt(max(norm**3 - cubic, 0.0) / norm)
        return GapAsymptotic(float(predicted), float(e23))
    raise ValueError(
        f"input is not near either degeneracy surface (phi = {phi:.6f})"
    )


def singular_expansion(epsilon: float, e13: float, level: int) -> SingularExpansion:
    """Leading ``1/eps^2`` coefficients near the upper degeneracy.

    For level 1 the octet piece contributes ``1/(3 eps^2)`` at slot (1,2)
    and ``+-1/(6 eps^2)`` at (4,5)/(6,7), the decouplet piece
    ``1/(6 eps^2)`` and ``-+1/(6 eps^2)``; the totals are ``1/(2 eps^2)``
    at (1,2) and exact cancellation elsewhere.  Level 2 is the negative of
    level 1; level 3 has no singular terms at all.

    ``ValueError`` if ``level`` is not 1, 2 or 3 (checked first), or if
    ``epsilon`` is not positive, finite and below ``e13 / 10``.
    """
    level = check_level(level)
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if not (np.isfinite(epsilon) and np.isfinite(e13)):
        raise ValueError(f"epsilon and e13 must be finite, got {epsilon!r} and {e13!r}")
    if epsilon > e13 / 10.0:
        raise ValueError("epsilon must be small relative to the fixed gap e13")
    lead = 1.0 / epsilon**2
    if level == 3:
        zero = {slot: 0.0 for slot in _SLOTS}
        return SingularExpansion(level, epsilon, e13, dict(zero), dict(zero), dict(zero))
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
    total = {slot: octet[slot] + decouplet[slot] for slot in _SLOTS}
    return SingularExpansion(level, epsilon, e13, octet, decouplet, total)


# Newton steps of _gauss_legendre: from its starting angles the roots converge
# in three steps (checked for every n from 2 to 1024), so the cap is a guard.
_NEWTON_STEPS = 10


@functools.lru_cache(maxsize=None)
def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes (ascending) and weights of ``n`` points on
    [-1, 1], as read-only arrays cached per ``n``.

    Newton's method runs on ``P_n(cos t)`` in the angle ``t`` for the
    roots in [0, 1) (Hale & Townsend, SIAM J. Sci. Comput. 35 (2013)
    A652), and one last step in ``x`` rounds them to full precision; the
    other half is their mirror image, so the nodes and weights are exactly
    symmetric.  The weights are ``2 / (dP_n/dt)^2``, rescaled to sum to 2
    as in ``numpy.polynomial.legendre.leggauss``."""
    # Tricomi's estimate of the roots t_1 < t_2 < ... up to pi/2
    base = np.pi * (4.0 * np.arange(1, (n + 1) // 2 + 1) - 1.0) / (4 * n + 2)
    t = base + (1.0 - 1.0 / n) / (8.0 * n * n) / np.tan(base)
    for _ in range(_NEWTON_STEPS):
        p, dp = _legendre_in_angle(n, t)
        step = p / dp
        t -= step
        if np.abs(step).max() < 1e-12:  # the error is now below ~n * 1e-24
            break
    # Near pi/2 the spacing of t is coarser than that of x = cos t, so one
    # Newton step in x, where dP_n/dx = -(dP_n/dt) / sin t, polishes the roots.
    dp = _legendre_in_angle(n, t)[1]
    x = np.cos(t)
    p0, p1 = np.ones_like(x), x
    for k in range(1, n):
        p0, p1 = p1, ((2 * k + 1) * x * p1 - k * p0) / (k + 1)
    x = x + np.sin(t) * p1 / dp
    if n % 2:
        x[-1] = 0.0  # the middle root
    w = 2.0 / dp**2
    half = n // 2
    nodes = np.concatenate([-x[:half], x[::-1]])
    weights = np.concatenate([w[:half], w[::-1]])
    weights *= 2.0 / weights.sum()
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def _legendre_in_angle(n: int, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # P_n(cos t) and its t-derivative for t in (0, pi/2].  The three-term
    # recurrence runs on P_k and d_k = P_k - P_(k-1) with s = 1 - cos t formed
    # from t, so near t = 0 no precision is lost to cos t rounding towards 1:
    # d_(k+1) = (k d_k - (2k + 1) s P_k) / (k + 1).
    s = 2.0 * np.sin(t / 2.0) ** 2
    d = -s
    p = 1.0 + d
    for k in range(1, n):
        d = (k * d - (2 * k + 1) * s * p) / (k + 1)
        p = p + d
    # dP_n/dt = n (x P_n - P_(n-1)) / sin t, and x P_n - P_(n-1) = d_n - s P_n
    return p, n * (d - s * p) / np.sin(t)


@functools.lru_cache(maxsize=None)
def _sphere_quadrature(order: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    # Product rule on the sphere: order nodes in theta, 2 order in phi.
    # Cached per order, so the arrays are read-only; the node sets come from
    # the _gauss_legendre cache, which the doubling orders share.
    xs, ws = _gauss_legendre(order)
    xs2, ws2 = _gauss_legendre(2 * order)
    theta = np.pi * (xs + 1.0) / 2.0
    w_theta = ws * np.pi / 2.0
    phi = np.pi * (xs2 + 1.0)
    w_phi = ws2 * np.pi
    for a in (theta, w_theta, phi, w_phi):
        a.flags.writeable = False
    return theta, w_theta, phi, w_phi


def monopole_flux(direction, radius: float, level: int,
                  center_offset=None, rel_tol: float = 1e-4,
                  tol: float = DEFAULT_CLASSIFY_TOL) -> float:
    """Flux of ``V^(level)`` through a small 2-sphere enclosing the upper
    degeneracy ray along ``direction``.

    The sphere lives in the three-dimensional subspace that unfolds the
    degeneracy: the rest-frame (xi1, xi2, xi3) block around the degenerate
    point, transported to the given direction by the adjoint image of an
    eigenbasis of ``H(direction)``.  Returns ``+-2 pi`` (a strength-1/2
    monopole seen with outward orientation) for levels 1 and 2, and ~0 for
    level 3.  ``center_offset`` (a 3-vector in the unfolding subspace)
    displaces the sphere center away from the degenerate point.

    Quadrature is product Gauss-Legendre in (theta, phi), doubling the
    order from 12 up to at most 384 until two refinements agree within
    ``rel_tol * 2 pi``.  The nodes are built in (Newton's method in the
    angle) and computed once per node count per process, so
    ``numpy.polynomial`` is never loaded.  Each order walks theta rows in
    ``surface_flux``'s blocks and density, with points and tangents built
    from the three transported unfolding directions, so the working set is
    one block (about 0.5 MiB) whatever the order.

    Raises
    ------
    ValueError
        If ``radius``, ``rel_tol`` or ``tol`` is not positive and finite or
        ``level`` is not 1, 2 or 3 (checked first, in that order of the
        signature), if ``direction`` is not a unit vector on the upper
        degeneracy cone (cubic invariant -1) within 1e-9, or if the sphere
        is large enough to reach the lower degeneracy.
    DegenerateInput
        If the sphere passes within ``tol`` of the degenerate point:
        ``abs(norm(center_offset) - radius) <= tol``.
    UnderResolvedPath
        If no two refinements up to order 384 agree within the tolerance.
    """
    radius = check_positive("radius", radius)
    level = check_level(level)
    rel_tol = check_positive("rel_tol", rel_tol)
    tol = check_positive("tol", tol)
    direction = np.asarray(direction, dtype=float)
    quad, cubic = invariants(direction)
    if not (abs(quad - 1.0) <= 1e-9 and abs(cubic + 1.0) <= 1e-9):
        raise ValueError(
            "direction must be a unit octet vector on the upper degeneracy cone"
        )
    offset = np.zeros(3) if center_offset is None else np.asarray(center_offset, float)
    if offset.shape != (3,) or not np.isfinite(offset).all():
        raise ValueError("center_offset must have 3 finite components")
    _, e23_dir, _ = energy_gaps(direction)
    if np.linalg.norm(offset) + radius > 0.25 * e23_dir:
        raise ValueError("sphere too large: it approaches the lower degeneracy")
    # E12 is the distance from the degenerate point (a unit direction): nearer
    # than the Generic rule's scale, the flux would look converged but be wrong
    if abs(np.linalg.norm(offset) - radius) <= tol:
        raise DegenerateInput("sphere passes through a degeneracy")

    # Eigenbasis of the degenerate point; the U(2) block freedom only rotates
    # the transported sphere around the degenerate ray, leaving the flux alone.
    _, vecs = np.linalg.eigh(octet_to_matrix(direction))
    a = vecs[:, ::-1]
    det = np.linalg.det(a)
    a[:, 2] *= np.conj(det) / abs(det)
    d_adj = adjoint_matrix(a)
    # The transported unfolding directions, and the sphere's center: the
    # transported degenerate point (rest frame xi8 = 1) moved by the offset.
    d1, d2, d3 = d_adj[:, 0], d_adj[:, 1], d_adj[:, 2]
    center = d_adj[:, 7] + offset[0] * d1 + offset[1] * d2 + offset[2] * d3

    def flux_at(order: int) -> float:
        # The point at (theta, phi) is center + r cos(theta) d3 + r sin(theta) ring(phi).
        theta, w_t, phi, w_p = _sphere_quadrature(order)
        cos_p, sin_p = np.cos(phi)[:, None], np.sin(phi)[:, None]
        ring = cos_p * d1 + sin_p * d2  # (2 order, 8)
        ring_dphi = cos_p * d2 - sin_p * d1
        total = 0.0
        for rows in _row_blocks(order, 2 * order):
            r_sin = radius * np.sin(theta[rows])[:, None, None]
            r_cos = radius * np.cos(theta[rows])[:, None, None]
            pts = r_sin * ring
            pts += center + r_cos * d3
            density = _block_density(pts, tol, "sphere passes through a degeneracy", level,
                                     lambda: (r_cos * ring - r_sin * d3, r_sin * ring_dphi))
            total += float(np.einsum("i,j,ij->", w_t[rows], w_p, density))
        return total

    bound = rel_tol * 2.0 * np.pi
    order, cur = 12, flux_at(12)
    while order <= 192:
        order *= 2
        prev, cur = cur, flux_at(order)
        if abs(cur - prev) < bound:
            return cur
    raise UnderResolvedPath(
        f"monopole flux did not converge by quadrature order {order}: orders "
        f"{order // 2} and {order} gave {prev!r} and {cur!r}, which differ by "
        f"more than rel_tol * 2 pi = {bound:.3g}"
    )
