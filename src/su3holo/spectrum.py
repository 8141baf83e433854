"""Closed-form spectral data for traceless 3 x 3 Hermitian matrices.

The spectrum of ``H(xi) = (1/2) xi . lambda`` is obtained without any
iterative eigensolver.  Writing the cubic invariant as

    ``(xi * xi) . xi = -|xi|^3 sin(3 phi)``,  ``phi in [pi/6, pi/2]``,

the angle ``phi`` is uniquely determined (and adjoint-invariant), and the
eigenvalues are

    ``E_a = (|xi| / sqrt(3)) sin(phi + 2 pi (a - 1) / 3)``,  a = 1, 2, 3,

which for ``phi`` in the allowed range are automatically nonincreasing and
sum to zero.  The gaps take the closed forms ``E12 = |xi| sin(phi - pi/6)``
and ``E23 = |xi| cos(phi)``; the upper/lower double degeneracies sit at the
interval endpoints ``phi = pi/6`` / ``phi = pi/2`` (equivalently where the
cubic invariant reaches -|xi|^3 / +|xi|^3), and the triple degeneracy only
at ``xi = 0``.

The functions here are thin wrappers over one private core, which evaluates
norm, cubic invariant and ``phi`` once per call and the levels and gaps from
them, and over one rule for Generic points: ``|xi| > tol``,
``E12 > tol |xi|``, ``E23 > tol |xi|``.

Eigenvectors are likewise computed from the closed-form eigenvalues, by
null-space extraction on ``H - E_a I`` (cross product of the two most
independent rows), not by a generic eigensolver.  Single points and
batches alike get the unit columns as they are, only those of the levels
they read, since every quantity read off them is gauge invariant; only
``diagonalizer`` and the routes that conjugate by it fix their phases.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .algebra import _octet, cubic_invariant, octet_to_matrix
from .errors import DegenerateInput, check_positive

__all__ = [
    "DEFAULT_CLASSIFY_TOL",
    "DegeneracyClass",
    "SpectralData",
    "octet_norm",
    "phase_angle",
    "energy_levels",
    "energy_gaps",
    "eigenvalues",
    "classify",
    "generic_mask",
    "rest_frame",
    "diagonalizer",
]

DEFAULT_CLASSIFY_TOL = 1e-9

_SHIFTS = 2.0 * np.pi * np.arange(3) / 3.0


class DegeneracyClass(enum.Enum):
    """Degeneracy pattern of a three-level spectrum."""

    GENERIC = "generic"
    UPPER_DEGENERATE = "upper_degenerate"
    LOWER_DEGENERATE = "lower_degenerate"
    TRIPLE_DEGENERATE = "triple_degenerate"


@dataclass(frozen=True)
class SpectralData:
    """Ordered eigenvalues, invariant angle, gaps and degeneracy class.

    ``e1 >= e2 >= e3`` with ``e1 + e2 + e3 = 0``; ``e13 = e12 + e23``.
    ``phi`` is NaN for the zero vector, where the angle is undefined.
    """

    e1: float
    e2: float
    e3: float
    phi: float
    e12: float
    e23: float
    e13: float
    degeneracy: DegeneracyClass

    @property
    def energies(self) -> np.ndarray:
        return np.array([self.e1, self.e2, self.e3])


def octet_norm(xi) -> float | np.ndarray:
    """Euclidean norm of (batches of) octet vectors."""
    out = np.linalg.norm(_octet(xi), axis=-1)
    return float(out) if out.ndim == 0 else out


class _ClosedForm(NamedTuple):
    """Norm and angle of octet vectors (..., 8).  The levels and gaps are
    computed from them on each access (callers that need only one of the
    two never allocate the other), so read each at most once."""

    norm: np.ndarray
    phi: np.ndarray

    @property
    def levels(self) -> np.ndarray:  # (..., 3), descending
        return (self.norm[..., None] / np.sqrt(3.0)) * np.sin(self.phi[..., None] + _SHIFTS)

    @property
    def gaps(self) -> np.ndarray:  # (..., 3): E12, E23, E13
        e12 = np.clip(self.norm * np.sin(self.phi - np.pi / 6.0), 0.0, None)
        e23 = np.clip(self.norm * np.cos(self.phi), 0.0, None)
        return np.stack([e12, e23, e12 + e23], axis=-1)


def _closed_form(xi: np.ndarray) -> _ClosedForm:
    """The closed form of octet vectors (..., 8).  The zero vector gets
    ``phi = pi/3`` and zero levels and gaps.  A single point stays scalar:
    ``norm**3`` can differ in the last bit between a scalar and an array."""
    norm = np.linalg.norm(xi, axis=-1)
    # sin(3 phi) = -cubic / |xi|^3 with 3 phi in [pi/2, 3 pi/2], where the
    # sine is monotone, so phi = (pi - arcsin(.)) / 3 is the unique solution.
    with np.errstate(divide="ignore", invalid="ignore"):
        s3 = np.where(norm > 0.0, -cubic_invariant(xi) / norm**3, 0.0)
    return _ClosedForm(norm, (np.pi - np.arcsin(np.clip(s3, -1.0, 1.0))) / 3.0)


def _checked_closed_form(xi: np.ndarray) -> tuple[_ClosedForm, np.ndarray, np.ndarray]:
    """The closed form of octet vectors, its gaps, and where it is finite,
    with no warning.  Above about |xi| = 5.6e102 ``|xi|**3`` overflows, and
    ``phi`` is NaN or, where the cubic invariant stays finite, wrongly
    ``pi/3``; a non-finite component makes it NaN."""
    with np.errstate(over="ignore", invalid="ignore"):
        c = _closed_form(xi)
        gaps = c.gaps
        finite = np.isfinite(c.norm**3) & np.isfinite(c.phi)
    return c, gaps, finite


def _resolved(norm: np.ndarray, gaps: np.ndarray, tol: float):
    """The Generic rule at relative tolerance ``tol``, one flag per condition:
    ``|xi| > tol``, ``E12 > tol |xi|``, ``E23 > tol |xi|``."""
    scale = tol * norm
    return norm > tol, gaps[..., 0] > scale, gaps[..., 1] > scale


def _point(xi, tol: float, caller: str) -> tuple[np.ndarray, SpectralData]:
    """Validate a single octet vector and return it with its spectral record,
    from one closed-form evaluation.  A point with ``|xi| > tol`` whose
    closed form is not finite raises ``ValueError``, as does a ``tol`` that
    is not positive and finite (``check_positive``), before anything else."""
    tol = check_positive("tol", tol)
    xi = _octet(xi)
    if xi.ndim != 1:
        raise ValueError(f"{caller} takes a single octet vector")
    if not np.all(np.isfinite(xi)):
        raise ValueError("classify requires finite octet components")
    c, gaps, finite = _checked_closed_form(xi)
    nonzero, upper, lower = _resolved(c.norm, gaps, tol)
    if nonzero and not finite:
        raise ValueError(f"the closed form is not finite at |xi| = {math.hypot(*xi):.6g}")
    klass = (DegeneracyClass.TRIPLE_DEGENERATE if not nonzero
             else DegeneracyClass.UPPER_DEGENERATE if not upper
             else DegeneracyClass.LOWER_DEGENERATE if not lower
             else DegeneracyClass.GENERIC)
    phi = float(c.phi) if c.norm > 0.0 else float("nan")
    return xi, SpectralData(*map(float, c.levels), phi, *map(float, gaps), klass)


def phase_angle(xi) -> float | np.ndarray:
    """Adjoint-invariant spectral angle ``phi`` in ``[pi/6, pi/2]``.

    Raises
    ------
    ValueError
        For the zero vector, where the angle is undefined.
    """
    c = _closed_form(_octet(xi))
    if np.any(c.norm == 0.0):
        raise ValueError("phase angle is undefined for the zero vector")
    return float(c.phi) if c.phi.ndim == 0 else c.phi


def energy_levels(xi) -> np.ndarray:
    """Closed-form eigenvalues of ``H(xi)``, shape (..., 3), descending.

    The zero vector yields ``(0, 0, 0)``.
    """
    return _closed_form(_octet(xi)).levels


def energy_gaps(xi) -> np.ndarray:
    """Gaps ``(E12, E23, E13)`` in closed form, shape (..., 3), all >= 0."""
    return _closed_form(_octet(xi)).gaps


def classify(xi, tol: float = DEFAULT_CLASSIFY_TOL) -> DegeneracyClass:
    """Degeneracy class of a single octet vector at relative tolerance ``tol``.

    Triple-degenerate if ``|xi| <= tol``; otherwise upper/lower degenerate
    when the corresponding gap falls below ``tol * |xi|``.

    Raises
    ------
    ValueError
        If ``tol`` is not positive and finite, ``xi`` has a NaN or infinite
        component, or ``|xi| > tol`` and the closed form overflows.
    """
    return _point(xi, tol, "classify")[1].degeneracy


def generic_mask(xis, tol: float = DEFAULT_CLASSIFY_TOL) -> np.ndarray:
    """Boolean mask over a batch of octet vectors: True where Generic.  A
    point whose closed form is not finite, where ``classify`` raises, is
    False, and no warning is raised.  ``ValueError`` if ``tol`` is not
    positive and finite."""
    tol = check_positive("tol", tol)
    c, gaps, mask = _checked_closed_form(_octet(xis))
    for flag in _resolved(c.norm, gaps, tol):
        mask &= flag  # in place: the mask starts as the finiteness flags
    return mask


def eigenvalues(xi, tol: float = DEFAULT_CLASSIFY_TOL) -> SpectralData:
    """Full closed-form spectral record for a single octet vector; raises
    ``ValueError`` where ``classify`` does."""
    return _point(xi, tol, "eigenvalues")[1]


def rest_frame(xi) -> np.ndarray:
    """Rest-frame representative of the adjoint orbit through ``xi``.

    Only components 3 and 8 are nonzero: ``xi3 = E12`` and
    ``xi8 = -sqrt(3) E3 = (E13 + E23)/sqrt(3)``, so that the rebuilt matrix
    is diagonal with nonincreasing entries and ``xi8 >= xi3/sqrt(3) >= 0``.
    Broadcasts over leading axes; idempotent; preserves both invariants.
    """
    return _rest_from_levels(energy_levels(xi))


def _rest_from_levels(e: np.ndarray) -> np.ndarray:
    out = np.zeros(e.shape[:-1] + (8,))
    out[..., 2] = e[..., 0] - e[..., 1]
    out[..., 7] = -np.sqrt(3.0) * e[..., 2]
    return out


# Batches of at least this many points take the eigenvector kernel's levels
# one at a time, which holds a third of the candidate buffers; smaller ones
# take all three at once, in a third of the numpy calls.
_LEVELWISE_POINTS = 64

# The least cross-product norm whose squared components are normal numbers.
_SQRT_TINY = math.sqrt(np.finfo(float).tiny)


def _eigenvector_columns(h: np.ndarray, e: np.ndarray) -> np.ndarray:
    """Unit eigenvectors of (batches of) 3 x 3 Hermitian ``h`` for the given
    eigenvalues ``e`` (..., k), as columns (..., 3, k) ordered like ``e``.
    The output and the candidate buffers hold only the ``k`` columns asked
    for, and each column is the same, bit for bit, whichever others are
    computed with it.

    Each null space of ``h - e_a I`` is spanned by the largest of the three
    row-pair cross products (the first one on a tie, as ``argmax`` picks).
    The rows are lists of (..., level) entries: the diagonal ``h_ii - e_a``
    and the level-independent off-diagonal ``h_ij``.  The first candidate
    is formed in the output columns, the other two in one buffer that
    replaces it where larger, so the working set per point is the output
    and a few (..., level) arrays, never a stack of all candidates; large
    batches take one level at a time.  The arithmetic is that of
    ``np.cross`` and ``np.linalg.norm``, operation for operation and on
    arrays throughout (numpy's scalar arithmetic rounds complex products
    differently), so the columns equal the stacked computation's bit for
    bit.
    """
    k = e.shape[-1]
    out = np.empty(e.shape[:-1] + (3, k), dtype=complex)  # (..., row, level)
    cols = np.moveaxis(out, -2, 0)  # (row, ..., level)
    step = 1 if e[..., 0].size >= _LEVELWISE_POINTS else k
    c = np.empty((3,) + e.shape[:-1] + (step,), dtype=complex)
    for lo in range(0, k, step):
        levels = slice(lo, lo + step)
        rows = [[h[..., i, j, None] - e[..., levels] if i == j else h[..., i, j, None]
                 for j in range(3)] for i in range(3)]
        best = _cross(rows[0], rows[1], cols[..., levels])
        nbest = _norm(best)
        for i, j in ((0, 2), (1, 2)):
            n = _norm(_cross(rows[i], rows[j], c))
            take = ~((n <= nbest) | np.isnan(nbest))  # argmax: first max, first NaN
            np.copyto(best, c, where=take)
            np.copyto(nbest, n, where=take)
        # below sqrt(tiny) the squares summed in _norm are subnormal and the
        # norm has lost precision silently: such a column becomes non-finite
        # like one whose norm underflows to zero, and _columns reports it
        np.copyto(nbest, 0.0, where=nbest < _SQRT_TINY)
        np.divide(best, nbest, out=best)
    return out


def _cross(a: list, b: list, c: np.ndarray) -> np.ndarray:
    # np.cross(a, b) into c, operation for operation, components on c's first axis
    for k, (i, j) in enumerate(((1, 2), (2, 0), (0, 1))):
        np.multiply(a[i], b[j], out=c[k])
        c[k] -= a[j] * b[i]
    return c


def _norm(c: np.ndarray) -> np.ndarray:
    # np.linalg.norm over the first axis, sqrt(s[0] + s[1] + s[2]) with
    # s = (x.conj() * x).real.  Large arrays form s one component at a time,
    # a third of the temporaries; small ones at once, in fewer numpy calls.
    # No product is taken in place: on one-element arrays numpy's in-place
    # complex product rounds differently.
    if c[0].size < _LEVELWISE_POINTS:
        s = (c.conj() * c).real
        return np.sqrt(s[0] + s[1] + s[2])
    total = (c[0].conj() * c[0]).real.copy()
    for x in c[1:]:
        total += (x.conj() * x).real
    return np.sqrt(total, out=total)


def _fix_gauge(a: np.ndarray, pivots=None) -> np.ndarray:
    """Fix eigenvector phases of the fresh array ``a`` in place: for the
    first two columns rotate the phase so the pivot component (largest
    magnitude unless given) is real positive, then phase the third column so
    det = 1."""
    for k in range(2):
        col = a[..., :, k]
        if pivots is None:
            idx = np.argmax(np.abs(col), axis=-1)
        else:
            idx = np.broadcast_to(pivots[k], col.shape[:-1]).copy()
        piv = np.take_along_axis(col, idx[..., None], axis=-1)[..., 0]
        phase = piv / np.abs(piv)
        col *= np.conj(phase)[..., None]
    det = np.linalg.det(a)
    a[..., :, 2] *= (np.conj(det) / np.abs(det))[..., None]
    return a


def _columns(xi: np.ndarray, e: np.ndarray, levels: tuple[int, ...]) -> np.ndarray:
    """The unit eigenvector columns (..., 3, len(levels)) of octet vectors
    (..., 8) with levels ``e`` (..., 3), for ``levels``, a run of consecutive
    level numbers; ``ValueError`` if a column is not finite or is zero
    (|xi| above about 1e77 or below about 1e-77).  Only the requested columns are
    computed, each the same bit for bit as in the three-level call."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        a = _eigenvector_columns(octet_to_matrix(xi), e[..., levels[0] - 1:levels[-1]])
    # Past about |xi| = 1e77 the squared cross products in _norm overflow, and
    # below about 1e-77 they are subnormal: the columns come out non-finite.  Unit
    # columns put 1 per column and point into the sum of all squared
    # magnitudes, which a zero or NaN column breaks; that sum costs a few
    # microseconds per block, a per-column test 40 times as much.
    if not abs(np.vdot(a, a).real - a.size // 3) < 0.5:
        ok = np.isfinite(a).all(axis=(-2, -1)) & (a != 0).any(axis=-2).all(axis=-1)
        raise ValueError("the eigenvector frames are not finite at "
                         f"|xi| = {math.hypot(*xi[~ok][0]):.6g}")
    return a


def _generic_columns(xi, tol: float, caller: str,
                     levels=(1, 2, 3)) -> tuple[np.ndarray, SpectralData, np.ndarray]:
    """``_point(xi, tol, caller)`` and the point's unit eigenvector columns
    (3, len(levels)) of ``levels``, as ``_columns`` gives them, not gauge
    fixed: ``DegenerateInput`` naming ``caller`` if the point is not
    Generic."""
    xi, s = _point(xi, tol, caller)
    if s.degeneracy is not DegeneracyClass.GENERIC:
        raise DegenerateInput(f"{caller} requires a generic spectrum, got {s.degeneracy.value}")
    return xi, s, _columns(xi, s.energies, levels)


def _generic_frames(xi, tol: float, caller: str,
                    pivots=None) -> tuple[np.ndarray, SpectralData, np.ndarray]:
    """``_generic_columns(xi, tol, caller)`` with the eigenvector matrix
    gauge fixed as in ``diagonalizer``; ``ValueError`` if ``pivots`` is
    invalid."""
    xi, s, a = _generic_columns(xi, tol, caller)
    if pivots is not None:
        if not (len(pivots) == 2 and all(isinstance(p, (int, np.integer)) and 0 <= p < 3
                                         for p in pivots)):
            raise ValueError(f"pivots {tuple(pivots)!r}: expected two row indices in 0..2")
        if any(a[p, k] == 0 for k, p in enumerate(pivots)):
            raise ValueError(f"pivots {tuple(pivots)!r}: a pivot component of the "
                             "eigenvectors is zero at this point")
    return xi, s, _fix_gauge(a, pivots)


def _generic_closed_form(xi: np.ndarray, tol: float, message: str) -> _ClosedForm:
    """The closed form of a block of octet vectors (..., 8), checked as
    ``_point`` checks one point, with no warning: ``ValueError`` if a point
    not within ``tol`` of zero has a closed form that is not finite (above
    about |xi| = 5.6e102, or a non-finite component), then
    ``DegenerateInput(message)`` if a point is not Generic at ``tol``.  A
    ``tol`` that is not positive and finite is a ``ValueError`` first."""
    tol = check_positive("tol", tol)
    c, gaps, finite = _checked_closed_form(xi)
    bad = ~finite & ~(c.norm <= tol)
    if bad.any():
        raise ValueError(f"the closed form is not finite at |xi| = {math.hypot(*xi[bad][0]):.6g}")
    if not np.all(_resolved(c.norm, gaps, tol)):
        raise DegenerateInput(message)
    return c


def _block_frames(xi: np.ndarray, tol: float, message: str,
                  levels: tuple[int, ...] = (1, 2, 3)) -> tuple[np.ndarray, np.ndarray]:
    """All three levels (..., 3) of a block of octet vectors (..., 8) and
    the unit eigenvector columns (..., 3, len(levels)) of ``levels``, as
    ``_columns`` gives them, from one closed-form evaluation that also
    serves the checks of ``_generic_closed_form``.

    The columns are not gauge fixed: every caller contracts each eigenvector
    once as a bra and once as a ket, so its phase drops out."""
    e = _generic_closed_form(xi, tol, message).levels
    return e, _columns(xi, e, levels)


def diagonalizer(xi, tol: float = DEFAULT_CLASSIFY_TOL, pivots=None) -> np.ndarray:
    """Special-unitary matrix ``A(xi)`` whose columns are the eigenvectors of
    ``H(xi)`` in descending eigenvalue order, so that
    ``A^dagger H(xi) A = H(rest_frame(xi))``.

    The residual right ambiguity is fixed deterministically: the first two
    columns are phased so their largest-magnitude component is real positive
    (ties broken by lowest row index), and the third column's phase forces
    ``det A = 1``.  ``pivots``, when given as two row indices, overrides the
    largest-component rule so the gauge can be held fixed across a
    neighborhood (used by finite-difference checks).

    Raises
    ------
    DegenerateInput
        If ``classify(xi, tol)`` is not Generic; eigenvector phases and
        mixing are not determined on the degeneracy surfaces.
    ValueError
        If ``pivots`` is not two row indices in 0..2, or names a zero
        component of its column, whose phase is then undefined; if ``tol``
        is not positive and finite; or if the eigenvectors overflow or
        underflow (|xi| above about 1e77 or below about 1e-77).
    """
    return _generic_frames(xi, tol, "diagonalizer", pivots)[2]
