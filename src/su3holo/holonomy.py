"""Geometric phases along closed loops and curvature fluxes through
parameterized two-surfaces in octet space.

Loop phases are computed as discrete parallel-transport products: the phase
of level ``a`` around a closed sample sequence is the negative argument of
the cyclic product of consecutive eigenvector overlaps.  Each eigenvector
enters once as a bra and once as a ket, so the result is manifestly
independent of the eigenvector gauge, and it converges to the adiabatic
geometric phase as the sampling is refined.  The surface flux integrates the
reduced-resolvent density ``2 Im <S_a M(du) a | S_a M(dv) a>``, with
``S_a = (1 - P_a)(H + 2 E_a) / (E_ab E_ac)`` (``curvature._flux_density``),
which reads the one eigenvector ``|a>`` once as a bra and once as a ket.
Both therefore take from ``spectrum._block_frames``, block by block
(``_row_blocks``, about 1024 points each), only the unit null-space column
of the level they integrate, with no gauge fixing; ``phase_sum_rule_check``
takes all three columns from one evaluation per block.

Orientation convention (fixed once by the Stokes consistency requirement
and used throughout): ``SurfacePatch.boundary()`` traverses the patch edge
negatively with respect to the (u, v) parameterization, which makes

    ``loop_phase(patch.boundary(), a)  ==  surface_flux(patch, a)  (mod 2 pi)``.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .curvature import _flux_density
from .errors import UnderResolvedPath, check_level, check_positive
from .spectrum import DEFAULT_CLASSIFY_TOL, _block_frames, _generic_closed_form

__all__ = [
    "LoopPath",
    "SurfacePatch",
    "circle_loop",
    "spherical_patch",
    "loop_phase",
    "surface_flux",
    "phase_sum_rule_check",
]

OVERLAP_GUARD = 0.1

# Point budget of one _row_blocks block.  At 1024 one 201x201 flux peaks at
# about 0.49 MiB of temporaries, against 1.9 MiB at 4096 and 0.23 MiB at
# 512; smaller blocks cost time, from the kernels' fixed cost per call.
_FLUX_BLOCK_CELLS = 1024


def _row_blocks(rows: int, width: int):
    """Slices of ``range(rows)`` in order, each of whole rows of ``width``
    points: about ``_FLUX_BLOCK_CELLS`` points, and at least one row."""
    step = max(1, _FLUX_BLOCK_CELLS // width)
    for start in range(0, rows, step):
        yield slice(start, start + step)


@dataclass
class LoopPath:
    """Closed loop given by N octet-vector samples (the last connects back
    to the first).  Every sample must be generic and have a finite closed
    form (``ValueError`` otherwise, checked first within each block of about
    1024 samples, as ``SurfacePatch`` checks its grid), and ``tol`` must be
    positive and finite (``ValueError`` before any sample is evaluated)."""

    samples: np.ndarray = field(repr=False)
    tol: float = DEFAULT_CLASSIFY_TOL

    def __post_init__(self):
        pts = np.asarray(self.samples, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 8 or pts.shape[0] < 3:
            raise ValueError("a loop needs at least 3 samples of 8 components")
        for rows in _row_blocks(len(pts), 1):
            _generic_closed_form(pts[rows], self.tol, "loop passes through a degeneracy")
        self.samples = pts

    def reversed(self) -> "LoopPath":
        return LoopPath(self.samples[::-1].copy(), self.tol)


@dataclass
class SurfacePatch:
    """Two-surface sampled on a (u, v) grid over [0, 1]^2 with bilinear
    interpolation between grid points.  Every grid point must be generic
    and have a finite closed form (``ValueError`` otherwise, checked
    first); the check runs over blocks of whole grid rows (about 1024
    points, at least one row), like the ``surface_flux`` quadrature, so its
    working set is bounded whatever the grid size.  ``tol`` must be positive
    and finite (``ValueError`` before any grid point is evaluated)."""

    grid: np.ndarray = field(repr=False)
    tol: float = DEFAULT_CLASSIFY_TOL

    def __post_init__(self):
        g = np.asarray(self.grid, dtype=float)
        if g.ndim != 3 or g.shape[2] != 8 or g.shape[0] < 2 or g.shape[1] < 2:
            raise ValueError("a patch needs an (nu, nv, 8) grid with nu, nv >= 2")
        for rows in _row_blocks(*g.shape[:2]):
            _generic_closed_form(g[rows], self.tol, "patch contains a degenerate grid point")
        self.grid = g

    @classmethod
    def from_function(cls, fn, shape: tuple[int, int],
                      tol: float = DEFAULT_CLASSIFY_TOL) -> "SurfacePatch":
        """Sample a map ``fn(u, v) -> octet vector`` on a regular grid.

        Raises
        ------
        ValueError
            If a sampled value does not have shape (8,), or ``tol`` is not
            positive and finite (checked before ``fn`` is called).
        """
        tol = check_positive("tol", tol)
        nu, nv = shape
        us = np.linspace(0.0, 1.0, nu)
        vs = np.linspace(0.0, 1.0, nv)
        grid = np.empty((nu, nv, 8))
        for i, u in enumerate(us):
            for j, v in enumerate(vs):
                value = np.asarray(fn(u, v), dtype=float)
                if value.shape != (8,):
                    raise ValueError(
                        f"fn(u, v) must return 8 components, got shape {value.shape}"
                    )
                grid[i, j] = value
        return cls(grid, tol)

    def value(self, u: float, v: float) -> np.ndarray:
        """Bilinear interpolation at (u, v) in [0, 1]^2."""
        nu, nv = self.grid.shape[:2]
        fu = np.clip(u, 0.0, 1.0) * (nu - 1)
        fv = np.clip(v, 0.0, 1.0) * (nv - 1)
        i = min(int(fu), nu - 2)
        j = min(int(fv), nv - 2)
        s, t = fu - i, fv - j
        g = self.grid
        return ((1 - s) * (1 - t) * g[i, j] + s * (1 - t) * g[i + 1, j]
                + (1 - s) * t * g[i, j + 1] + s * t * g[i + 1, j + 1])

    def boundary(self) -> LoopPath:
        """Boundary loop in the orientation for which the discrete phase
        equals the surface flux (negative with respect to (u, v))."""
        g = self.grid
        ccw = np.concatenate(
            [g[:-1, 0], g[-1, :-1], g[-1:0:-1, -1], g[0, -1:0:-1]]
        )
        return LoopPath(ccw[::-1].copy(), self.tol)


def circle_loop(center, axis_a, axis_b, radius: float, samples: int,
                tol: float = DEFAULT_CLASSIFY_TOL) -> LoopPath:
    """Circle of the given radius around ``center`` in the plane spanned by
    two orthonormal octet directions.

    Raises
    ------
    ValueError
        If ``radius`` or ``tol`` is not positive and finite, a vector does
        not have 8 finite components, or the axes are not orthonormal.
    """
    radius = check_positive("radius", radius)
    center = np.asarray(center, dtype=float)
    ea = np.asarray(axis_a, dtype=float)
    eb = np.asarray(axis_b, dtype=float)
    for v in (center, ea, eb):
        if v.shape != (8,) or not np.isfinite(v).all():
            raise ValueError("circle descriptors take finite 8-component vectors")
    if abs(ea @ eb) > 1e-9 or abs(ea @ ea - 1) > 1e-9 or abs(eb @ eb - 1) > 1e-9:
        raise ValueError("circle axes must be orthonormal")
    angles = 2.0 * np.pi * np.arange(samples) / samples
    pts = center + radius * (np.cos(angles)[:, None] * ea + np.sin(angles)[:, None] * eb)
    return LoopPath(pts, tol)


def spherical_patch(center, frame, radius: float,
                    theta_range: tuple[float, float] = (0.0, np.pi),
                    shape: tuple[int, int] = (64, 128),
                    tol: float = DEFAULT_CLASSIFY_TOL) -> SurfacePatch:
    """Spherical patch ``center + radius * (sin t cos p, sin t sin p, cos t)``
    mapped through three orthonormal octet directions ``frame``; ``u`` runs
    over theta in ``theta_range``, ``v`` over phi in [0, 2 pi].

    Raises
    ------
    ValueError
        If ``radius`` or ``tol`` is not positive and finite,
        ``theta_range``, ``center`` or ``frame`` is not finite, or ``frame``
        is not three orthonormal 8-vectors.
    """
    radius = check_positive("radius", radius)
    t0, t1 = theta_range
    if not (np.isfinite(t0) and np.isfinite(t1)):
        raise ValueError(f"theta_range must be finite, got ({t0}, {t1})")
    center = np.asarray(center, dtype=float)
    frame = np.asarray(frame, dtype=float)
    if frame.shape != (3, 8):
        raise ValueError("frame must hold three 8-component vectors")
    if not (np.isfinite(center).all() and np.isfinite(frame).all()):
        raise ValueError("center and frame must be finite")
    if np.abs(frame @ frame.T - np.eye(3)).max() > 1e-9:
        raise ValueError("frame vectors must be orthonormal")
    nu, nv = shape
    thetas = np.linspace(t0, t1, nu)
    phis = np.linspace(0.0, 2.0 * np.pi, nv)
    th = thetas[:, None, None]
    ph = phis[None, :, None]
    local = np.concatenate(
        [np.sin(th) * np.cos(ph), np.sin(th) * np.sin(ph),
         np.broadcast_to(np.cos(th), (nu, nv, 1))], axis=-1
    )
    grid = center + radius * np.einsum("uvk,kr->uvr", local, frame)
    return SurfacePatch(grid, tol)


def loop_phase(path: LoopPath, level: int) -> float:
    """Discrete geometric phase of one level around a closed loop, in
    ``(-pi, pi]``: minus the argument of the cyclic product of consecutive
    eigenvector overlaps.  The running product is renormalized each step,
    so no unwrapping heuristic is involved, and runs over blocks of about
    1024 samples, so the working set is one block's at any loop length.

    Raises
    ------
    UnderResolvedPath
        If any consecutive overlap magnitude drops to ``0.1`` or below
        (under-resolved sampling or a level crossing en route).
    ValueError
        If ``level`` is not 1, 2 or 3, checked first, or the eigenvector
        frames overflow or underflow (|xi| above about 1e77 or below 1e-77).
    """
    return _loop_phases(path, (check_level(level),))[0]


def _loop_phases(path: LoopPath, levels: tuple[int, ...]) -> list[float]:
    # loop_phase of each of levels, evaluating each sample once.  A block's
    # overlaps start from the previous block's last column; the first column
    # closes the loop.  Each level keeps one running product, which stops once
    # its smallest overlap (the first on a tie) trips the guard.
    prods = [complex(1.0, 0.0)] * len(levels)
    least = [(np.inf, 0)] * len(levels)  # (overlap magnitude, step)
    n = len(path.samples)
    tail = head = np.empty((0, 3, len(levels)), dtype=complex)
    for rows in _row_blocks(n, 1):
        cols = _block_frames(path.samples[rows], path.tol, "loop passes through a degeneracy",
                             levels)[1]
        head = head if len(head) else cols[:1].copy()
        chain = np.concatenate([tail, cols] + ([head] if rows.stop >= n else []))
        for a in range(len(levels)):
            overlaps = np.einsum("ki,ki->k", chain[:-1, :, a].conj(), chain[1:, :, a])
            mags = np.abs(overlaps)
            k = int(np.argmin(mags))
            if mags[k] < least[a][0]:
                least[a] = (mags[k], rows.start - len(tail) + k)
            if least[a][0] > OVERLAP_GUARD:
                for z in overlaps:
                    prods[a] *= z / abs(z)
        tail = cols[-1:].copy()
    for mag, step in least:
        if mag <= OVERLAP_GUARD:
            raise UnderResolvedPath(
                f"overlap magnitude {mag:.3f} at step {step} is below the guard")
    return [float(-np.angle(prod)) for prod in prods]


def _block_density(pts, tol: float, message: str, level: int, tangents) -> np.ndarray:
    # The level's flux density at a block of points along tangents(), formed
    # after the eigenvector column, so the two peaks do not add.
    e, column = _block_frames(pts, tol, message, levels=(level,))
    return _flux_density(pts, e, column[..., 0], *tangents(), level)


def surface_flux(patch: SurfacePatch, level: int) -> float:
    """Flux ``integral of (1/2) V_rs dxi_r ^ dxi_s`` of one level's curvature
    through the patch: per-cell midpoint quadrature of the bilinear grid,
    contracting the curvature with the (u, v) Jacobian two-vectors.

    The cells are visited in ``_row_blocks`` of whole cell rows.  Each block
    contracts the level's eigenvector column alone with the two Jacobians
    through the reduced resolvent of the module docstring, entry by entry,
    so no per-cell matrix or curvature array is formed and the working set
    stays bounded whatever the patch size: about 0.49 MiB for a 201x201 patch.

    Raises
    ------
    DegenerateInput
        If a cell center is not Generic.
    ValueError
        If ``level`` is not 1, 2 or 3, checked first, or the eigenvector
        frames overflow or underflow (|xi| above about 1e77 or below 1e-77)."""
    level = check_level(level)
    g = patch.grid
    total = 0.0
    for rows in _row_blocks(g.shape[0] - 1, g.shape[1] - 1):
        b = g[rows.start:rows.stop + 1]
        centers = (b[:-1, :-1] + b[1:, :-1] + b[:-1, 1:] + b[1:, 1:]) / 4.0
        total += float(np.sum(_block_density(
            centers, patch.tol, "patch contains a degenerate quadrature point", level,
            lambda: (((b[1:, :-1] + b[1:, 1:]) - (b[:-1, :-1] + b[:-1, 1:])) / 2.0,
                     ((b[:-1, 1:] + b[1:, 1:]) - (b[:-1, :-1] + b[1:, :-1])) / 2.0))))
    return total


def phase_sum_rule_check(path: LoopPath) -> tuple[tuple[float, float, float], float]:
    """Loop phases of all three levels, from one walk over the loop's blocks
    as in ``loop_phase``, and their sum wrapped to ``(-pi, pi]``.  The sum
    vanishes (mod 2 pi): the three curvature forms add to zero, equivalently
    the product of the three transport holonomies is the determinant phase
    of a special-unitary transport."""
    phases = tuple(_loop_phases(path, (1, 2, 3)))
    total = float(np.angle(np.exp(1j * sum(phases))))
    return phases, total
