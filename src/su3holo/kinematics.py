"""Hermitian check and orbit-type classification of an n x n Hermitian matrix.

The conjugation orbit of a Hermitian matrix is fixed by its eigenvalues;
its type, the stabilizer and the orbit dimension, by their multiplicities.
The ``su(3)`` products, basis and orbit invariants live in ``algebra`` and
``orbits``.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import check_positive, check_within

__all__ = ["OrbitDescriptor", "hermitian", "orbit_type"]


def hermitian(matrix, tol: float = 1e-12) -> np.ndarray:
    """Validate a square array as Hermitian and return its exact Hermitian part.

    Parameters
    ----------
    matrix : array_like
        Square complex matrix with finite entries.
    tol : float
        Largest tolerated elementwise deviation ``|M - M^dagger|``, relative
        to ``max(1, |M|_max)``.

    Returns
    -------
    ndarray
        ``(M + M^dagger)/2``, exactly Hermitian.

    Raises
    ------
    ValueError
        If ``tol`` is not positive and finite (checked first), the array is
        not a nonempty square matrix, an entry is not finite, or it is not
        Hermitian within ``tol``.
    """
    tol = check_positive("tol", tol)
    m = np.asarray(matrix, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.size == 0:
        raise ValueError(f"expected a nonempty square matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError("matrix entries must be finite")
    half = m / 2  # halved first, so that no finite entry overflows
    check_within("matrix is not Hermitian within tolerance",
                 float(np.abs(half - half.conj().T).max()), float(np.abs(half).max()), tol, 1)
    return half + half.conj().T


@dataclass(frozen=True)
class OrbitDescriptor:
    """Conjugation-orbit type of a Hermitian matrix.

    Attributes
    ----------
    multiplicities : tuple of int
        Eigenvalue multiplicity signature, largest group first.
    orbit_dimension : int
        ``n^2 - sum(m_i^2)``.
    stabilizer : str
        Product of unitary factors fixing the matrix, e.g. ``U(2)xU(1)``.
    """

    multiplicities: tuple[int, ...]
    orbit_dimension: int
    stabilizer: str


def orbit_type(h, tol: float = 1e-9) -> OrbitDescriptor:
    """Classify the conjugation orbit of a Hermitian matrix.

    Eigenvalues with relative gap below ``tol * max(1, spectral radius)``
    are clustered into one multiplicity group.  The result is invariant
    under ``H -> H + c I``.  ``ValueError`` if ``tol`` is not positive and
    finite (checked first), then as ``hermitian(h, tol)`` raises.
    """
    tol = check_positive("tol", tol)
    m = hermitian(h, tol)
    n = m.shape[0]
    evals = np.linalg.eigvalsh(m)[::-1].tolist()  # floats: a gap past the range is inf
    thresh = tol * max(1.0, *map(abs, evals))
    mults = [1]
    for k in range(1, n):
        if evals[k - 1] - evals[k] <= thresh:
            mults[-1] += 1
        else:
            mults.append(1)
    mults = tuple(sorted(mults, reverse=True))
    dim = n * n - sum(mm * mm for mm in mults)
    stabilizer = "x".join(f"U({mm})" for mm in mults)
    return OrbitDescriptor(mults, dim, stabilizer)
