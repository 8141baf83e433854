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
from .curvature import _flux_density
from .errors import DegenerateInput, UnderResolvedPath
from .spectrum import (
    DEFAULT_CLASSIFY_TOL,
    _frames,
    energy_gaps,
    generic_mask,
    octet_norm,
    phase_angle,
)

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
    coefficient of the leading ``1/eps^2`` term evaluated at ``eps``."""

    level: int
    epsilon: float
    e13: float
    octet: dict
    decouplet: dict
    total: dict


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
    """
    if level not in (1, 2, 3):
        raise ValueError(f"level must be 1, 2 or 3, got {level}")
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
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


@functools.lru_cache(maxsize=None)
def _sphere_quadrature(order: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    # Cached per order, so the arrays are read-only.  Only monopole_flux
    # needs numpy.polynomial, which costs milliseconds to import.
    from numpy.polynomial.legendre import leggauss

    xs, ws = leggauss(order)
    theta = np.pi * (xs + 1.0) / 2.0
    w_theta = ws * np.pi / 2.0
    xs2, ws2 = leggauss(2 * order)
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
    ``rel_tol * 2 pi``.

    Raises
    ------
    ValueError
        If ``direction`` is not a unit vector on the upper degeneracy cone
        (cubic invariant -1) within 1e-9, ``radius`` is not positive and
        finite, the sphere is large enough to reach the lower degeneracy, or
        ``rel_tol`` is not positive and finite.
    UnderResolvedPath
        If no two refinements up to order 384 agree within the tolerance.
    """
    direction = np.asarray(direction, dtype=float)
    quad, cubic = invariants(direction)
    if not (abs(quad - 1.0) <= 1e-9 and abs(cubic + 1.0) <= 1e-9):
        raise ValueError(
            "direction must be a unit octet vector on the upper degeneracy cone"
        )
    if level not in (1, 2, 3):
        raise ValueError(f"level must be 1, 2 or 3, got {level}")
    if not (np.isfinite(rel_tol) and rel_tol > 0):
        raise ValueError(f"rel_tol must be positive and finite, got {rel_tol!r}")
    offset = np.zeros(3) if center_offset is None else np.asarray(center_offset, float)
    if offset.shape != (3,) or not np.isfinite(offset).all():
        raise ValueError("center_offset must have 3 finite components")
    _, e23_dir, _ = energy_gaps(direction)
    if not (np.isfinite(radius) and radius > 0):
        raise ValueError(f"radius must be positive and finite, got {radius}")
    if np.linalg.norm(offset) + radius > 0.25 * e23_dir:
        raise ValueError("sphere too large: it approaches the lower degeneracy")

    # Eigenbasis of the degenerate point; the U(2) block freedom only rotates
    # the transported sphere around the degenerate ray, leaving the flux alone.
    _, vecs = np.linalg.eigh(octet_to_matrix(direction))
    a = vecs[:, ::-1]
    det = np.linalg.det(a)
    a[:, 2] *= np.conj(det) / abs(det)
    d_adj = adjoint_matrix(a)

    def flux_at(order: int) -> float:
        theta, w_t, phi, w_p = _sphere_quadrature(order)
        th = theta[:, None]
        ph = phi[None, :]
        pts = np.zeros((order, 2 * order, 8))
        d_th = np.zeros_like(pts)
        d_ph = np.zeros_like(pts)
        pts[..., 0] = offset[0] + radius * np.sin(th) * np.cos(ph)
        pts[..., 1] = offset[1] + radius * np.sin(th) * np.sin(ph)
        pts[..., 2] = offset[2] + radius * np.cos(th)
        pts[..., 7] = 1.0
        d_th[..., 0] = radius * np.cos(th) * np.cos(ph)
        d_th[..., 1] = radius * np.cos(th) * np.sin(ph)
        d_th[..., 2] = -radius * np.sin(th)
        d_ph[..., 0] = -radius * np.sin(th) * np.sin(ph)
        d_ph[..., 1] = radius * np.sin(th) * np.cos(ph)
        xi = pts @ d_adj.T
        if not np.all(generic_mask(xi, tol)):
            raise DegenerateInput("sphere passes through a degeneracy")
        e, frames = _frames(xi)
        integrand = _flux_density(e, frames, d_th @ d_adj.T, d_ph @ d_adj.T, level)
        return float(np.einsum("i,j,ij->", w_t, w_p, integrand))

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
