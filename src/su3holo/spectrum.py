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

Single points and blocks alike take one closed-form evaluation per call,
the same bits for a point alone as in a block, and one Generic rule,
``|xi| > tol``, ``E12 > tol |xi|``, ``E23 > tol |xi|``, whose first failing
condition names the class; one rule, ``_reject``, words their rejections.

One scale rule covers the float range: every point is evaluated at
``xi / 2**k`` (``algebra._unit_scaled``), its largest |component| in [0.5, 1),
and a result of degree ``d`` (1: norm, levels, gaps, rest frame; 0: ``phi``,
class, columns) is scaled back by ``2**(d k)``, exactly (``_scale_back``).

Eigenvectors are likewise computed from the closed-form eigenvalues, by
null-space extraction on ``H - E_a I`` (cross product of the two most
independent rows), not by a generic eigensolver.  One kernel,
``_columns``, gives the unit columns of a point and of a block, only those
of the levels read, since every quantity read off them is gauge invariant;
only ``diagonalizer`` and the routes that conjugate by it fix their phases.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .algebra import _cubic, _multilinear, _octet, _scale_back, _unit_scaled, octet_to_matrix
from .errors import DEFAULT_CLASSIFY_TOL, DegenerateInput, check_positive

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
    return _multilinear("norm", lambda u: np.linalg.norm(u, axis=-1), (_octet(xi), 1))


class _ClosedForm(NamedTuple):
    """The unit-scaled octet vectors ``u, k = algebra._unit_scaled(xi)`` and
    the norm, its cube, cubic invariant and angle of ``u``.  The levels and
    gaps of ``u`` are computed on each access, so read each once."""

    u: np.ndarray
    k: np.ndarray
    norm: np.ndarray
    cube: np.ndarray
    cubic: np.ndarray
    phi: np.ndarray

    @property
    def unit_levels(self) -> np.ndarray:  # (..., 3), descending
        return (self.norm[..., None] / np.sqrt(3.0)) * np.sin(self.phi[..., None] + _SHIFTS)

    @property
    def unit_gaps(self) -> np.ndarray:  # (..., 3): E12, E23, E13
        e12 = np.clip(self.norm * np.sin(self.phi - np.pi / 6.0), 0.0, None)
        e23 = np.clip(self.norm * np.cos(self.phi), 0.0, None)
        return np.stack([e12, e23, e12 + e23], axis=-1)

    def scaled(self, *quantities, caller: str | None = None) -> list:
        return _scale_back(self.k, *quantities, at=(self.u, self.k), caller=caller)


def _closed_form(xi: np.ndarray) -> _ClosedForm:
    """The closed form of octet vectors (..., 8), the same bits for a point
    alone or as a row of a block: ``np.float_power`` cubes a 0-d and an n-d
    norm alike, where ``**`` on an array can differ in the last bit from
    ``**`` on a scalar.  The zero vector gets ``phi = pi/3``, zero levels.

    C ``pow`` is not exact under powers of two (in the last bit, for about 1
    point in 2000), so the cube is taken at the scale of ``xi`` where that is
    a normal float, keeping the bits of the unscaled closed form."""
    u, k = _unit_scaled(xi)
    norm = np.linalg.norm(u, axis=-1)
    with np.errstate(over="ignore", under="ignore"):
        cube = np.float_power(np.ldexp(norm, k), 3)  # inf or not normal: at unit scale
        normal = (cube >= np.finfo(float).tiny) & (cube < np.inf)
        cube = np.where(normal, np.ldexp(cube, -3 * np.asarray(k)), np.float_power(norm, 3))
    # sin(3 phi) = -cubic / |xi|^3 with 3 phi in [pi/2, 3 pi/2], where the
    # sine is monotone, so phi = (pi - arcsin(.)) / 3 is the unique solution.
    with np.errstate(divide="ignore", invalid="ignore"):
        cubic = _cubic(u)
        s3 = np.where(norm > 0.0, -cubic / cube, 0.0)
    return _ClosedForm(u, k, norm, cube, cubic, (np.pi - np.arcsin(np.clip(s3, -1.0, 1.0))) / 3.0)


# The classes by rank: the number of the Generic rule's conditions, ``|xi| > tol``,
# ``E12 > tol |xi|``, ``E23 > tol |xi|``, that hold before the first that fails.
_LADDER = (DegeneracyClass.TRIPLE_DEGENERATE, DegeneracyClass.UPPER_DEGENERATE,
           DegeneracyClass.LOWER_DEGENERATE, DegeneracyClass.GENERIC)
_GENERIC = _LADDER.index(DegeneracyClass.GENERIC)


def _classified(xi: np.ndarray, tol: float):
    """The closed form of octet vectors (..., 8), its unit-scale gaps and each
    point's rank on ``_LADDER`` at tolerance ``tol``, with no warning: the
    triple test is on the true norm, the gap tests, scale-free, at unit
    scale.  A ``tol`` that is not positive and finite is a ``ValueError``."""
    tol = check_positive("tol", tol)
    with np.errstate(over="ignore", invalid="ignore"):
        c = _closed_form(xi)
        gaps = c.unit_gaps
        nonzero = np.ldexp(c.norm, c.k) > tol  # inf past the float range
        scale = tol * c.norm  # inf for a huge tol: no gap exceeds it
    upper, lower = gaps[..., 0] > scale, gaps[..., 1] > scale
    return c, gaps, nonzero * (1 + upper * (np.uint8(1) + lower))


def _reject(xi: np.ndarray, ranks=None, caller=None, message=None) -> None:
    """The one rule that words a rejection of octet vectors (..., 8): given
    ``caller``, ``ValueError`` for a non-finite component, then, given ``ranks``,
    ``DegenerateInput`` unless all are Generic: ``message``, or the first one's class."""
    if caller is not None and not np.isfinite(xi).all():
        raise ValueError(f"{caller} requires finite octet components")
    if ranks is not None and not np.all(ranks == _GENERIC):
        got = _LADDER[np.extract(ranks != _GENERIC, ranks)[0]].value
        raise DegenerateInput(message or f"{caller} requires a generic spectrum, got {got}")


def _point(xi, tol: float, caller: str, levels: tuple[int, ...] = ()):
    """Validate a single octet vector and return its closed form ``c``, its
    spectral record at ``c.u`` and, checked Generic, the columns of ``levels``
    (None for none), from one evaluation; results are scaled back by
    ``c.scaled``.  ``ValueError`` naming ``caller`` unless ``xi`` is finite."""
    xi = _octet(xi)
    if xi.ndim != 1:
        raise ValueError(f"{caller} takes a single octet vector")
    c, gaps, rank = _classified(xi, tol)
    _reject(xi, rank if levels else None, caller)
    phi = float(c.phi) if c.norm > 0.0 else float("nan")
    s = SpectralData(*map(float, c.unit_levels), phi, *map(float, gaps), _LADDER[rank])
    return c, s, _columns(xi, c.k, s.energies, levels) if levels else None


def phase_angle(xi) -> float | np.ndarray:
    """Adjoint-invariant spectral angle ``phi`` in ``[pi/6, pi/2]``;
    ``ValueError`` for a non-finite component and for the zero vector, where
    the angle is undefined."""
    xi = _octet(xi)
    _reject(xi, caller="phase_angle")
    c = _closed_form(xi)
    if np.any(c.norm == 0.0):
        raise ValueError("phase angle is undefined for the zero vector")
    return float(c.phi) if c.phi.ndim == 0 else c.phi


def energy_levels(xi) -> np.ndarray:
    """Closed-form eigenvalues of ``H(xi)``, shape (..., 3), descending; the
    zero vector yields ``(0, 0, 0)``."""
    c = _closed_form(_octet(xi))
    return c.scaled(("spectrum", c.unit_levels, 1))[0]


def energy_gaps(xi) -> np.ndarray:
    """Gaps ``(E12, E23, E13)`` in closed form, shape (..., 3), all >= 0."""
    c = _closed_form(_octet(xi))
    return c.scaled(("spectrum", c.unit_gaps, 1))[0]


def classify(xi, tol: float = DEFAULT_CLASSIFY_TOL) -> DegeneracyClass:
    """Degeneracy class of a single octet vector at relative tolerance ``tol``:
    triple-degenerate if ``|xi| <= tol``, otherwise upper/lower degenerate
    when the corresponding gap falls below ``tol * |xi|``.  ``ValueError`` if
    ``tol`` is not positive and finite or ``xi`` has a NaN or infinite
    component."""
    return _point(xi, tol, "classify")[1].degeneracy


def generic_mask(xis, tol: float = DEFAULT_CLASSIFY_TOL) -> np.ndarray:
    """Boolean mask over a batch of octet vectors: True where Generic.  A
    point with a non-finite component is False, and no warning is raised.
    ``ValueError`` if ``tol`` is not positive and finite."""
    return _classified(_octet(xis), tol)[2] == _GENERIC


def eigenvalues(xi, tol: float = DEFAULT_CLASSIFY_TOL) -> SpectralData:
    """Full closed-form spectral record for a single octet vector; raises
    ``ValueError`` where ``classify`` does."""
    c, s, _ = _point(xi, tol, "eigenvalues")
    e = c.scaled(("spectrum", [s.e1, s.e2, s.e3, s.e12, s.e23, s.e13], 1))[0].tolist()
    return SpectralData(*e[:3], s.phi, *e[3:], s.degeneracy)


def rest_frame(xi) -> np.ndarray:
    """Rest-frame representative of the adjoint orbit through ``xi``.

    Only components 3 and 8 are nonzero: ``xi3 = E12`` and
    ``xi8 = -sqrt(3) E3 = (E13 + E23)/sqrt(3)``, so that the rebuilt matrix
    is diagonal with nonincreasing entries and ``xi8 >= xi3/sqrt(3) >= 0``.
    Broadcasts over leading axes; idempotent; preserves both invariants.
    """
    c = _closed_form(_octet(xi))
    return c.scaled(("rest frame", _rest_from_levels(c.unit_levels), 1))[0]


def _rest_from_levels(e: np.ndarray) -> np.ndarray:
    out = np.zeros(e.shape[:-1] + (8,))
    out[..., 2] = e[..., 0] - e[..., 1]
    out[..., 7] = -np.sqrt(3.0) * e[..., 2]
    return out


# Batches of at least this many points take the eigenvector kernel's levels
# one at a time, which holds a third of the candidate buffers; smaller ones
# take all three at once, in a third of the numpy calls.  Both paths stay:
# with every batch levelwise the median benchmark `routes` task, whose batches
# are single points and small stencils, rose from 5.8 to 8.9 ms (7 of 7
# alternating pairs of 5 s runs, 2-CPU host), and with every batch at once a
# 1024-point three-level block held 943 B per point against 500 B (tracemalloc).
_LEVELWISE_POINTS = 64


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


def _pin_gauge(a: np.ndarray, pivots) -> np.ndarray:
    # _fix_gauge(a, pivots), refusing a pivot component that is zero anywhere in a
    if pivots is not None and any(np.any(a[..., p, k] == 0) for k, p in enumerate(pivots)):
        raise ValueError(f"pivots {tuple(pivots)!r}: a pivot component of the "
                         "eigenvectors is zero at this point")
    return _fix_gauge(a, pivots)


def _columns(xi: np.ndarray, k, e: np.ndarray, levels: tuple[int, ...]) -> np.ndarray:
    """The unit eigenvector columns (..., 3, len(levels)) of octet vectors
    (..., 8) at ``xi / 2**k``, with levels ``e`` (..., 3) there, for ``levels``,
    consecutive level numbers, each the same bit for bit as in the three-level
    call.  At unit scale the squared cross products in ``_norm`` are normal:
    a nonzero closed-form gap is at least about 1e-17."""
    return _eigenvector_columns(octet_to_matrix(np.ldexp(xi, -np.expand_dims(k, -1))),
                                e[..., levels[0] - 1:levels[-1]])


# Point budget of one _row_blocks block, for every walk.  At 1024 a 201x201 flux peaks
# at 0.49 MiB of temporaries (1.9 MiB at 4096, 0.23 at 512); smaller blocks cost time.
_BLOCK_POINTS = 1024


def _row_blocks(rows: int, width: int):
    """Slices of ``range(rows)`` in order, each of whole rows of ``width``
    points: about ``_BLOCK_POINTS`` points, and at least one row."""
    step = max(1, _BLOCK_POINTS // width)
    for start in range(0, rows, step):
        yield slice(start, start + step)


def _generic_closed_form(xi: np.ndarray, tol: float, message: str) -> _ClosedForm:
    """The closed form of a block of octet vectors (..., 8), with no warning;
    ``DegenerateInput(message)`` unless every point is Generic."""
    c, _, ranks = _classified(xi, tol)
    _reject(xi, ranks, message=message)
    return c


def _block_frames(xi: np.ndarray, tol: float, message: str,
                  levels: tuple[int, ...] = (1, 2, 3)) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The unit-scale levels, the ``_columns`` of ``levels`` and ``k`` of a
    block of octet vectors (..., 8), from the closed form
    ``_generic_closed_form`` checks.  The columns are not gauge fixed: every
    caller contracts each eigenvector once as a bra and once as a ket."""
    c = _generic_closed_form(xi, tol, message)
    e, k = c.unit_levels, c.k
    del c  # only the levels and k are held through the kernel
    return e, _columns(xi, k, e, levels), k


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
        is not positive and finite, or ``xi`` has a non-finite component.
    """
    if pivots is not None and not (np.iterable(pivots) and len(pivots) == 2 and all(
            isinstance(p, (int, np.integer)) and 0 <= p < 3 for p in pivots)):
        raise ValueError(f"pivots {pivots!r}: expected two row indices in 0..2")
    return _pin_gauge(_point(xi, tol, "diagonalizer", (1, 2, 3))[2], pivots)
