"""Generic n-level machinery on Hermitian matrices.

Basis construction for the space of n x n Hermitian matrices, the two
bilinear products (symmetrized and commutator-type) that make that space a
Jordan/Lie algebra pair, trace-recursion characteristic polynomials, and
classification of conjugation orbits by eigenvalue multiplicities.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import check_positive

__all__ = [
    "OrbitDescriptor",
    "hermitian",
    "hermitian_basis",
    "jordan_product",
    "lie_wedge",
    "trace_inner",
    "char_poly_coeffs",
    "orbit_type",
    "same_orbit",
]


def hermitian(matrix, tol: float = 1e-12) -> np.ndarray:
    """Validate a square array as Hermitian and return its exact Hermitian part.

    Parameters
    ----------
    matrix : array_like
        Square complex matrix.
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
        not square, or it is not Hermitian within ``tol``.
    """
    tol = check_positive("tol", tol)
    m = np.asarray(matrix, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    scale = max(1.0, float(np.abs(m).max(initial=0.0)))
    if np.abs(m - m.conj().T).max(initial=0.0) > tol * scale:
        raise ValueError("matrix is not Hermitian within tolerance")
    return (m + m.conj().T) / 2


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


def hermitian_basis(n: int) -> list[np.ndarray]:
    """Return the standard basis of the n^2-dimensional real space of
    Hermitian n x n matrices.

    Ordering is deterministic: the n diagonal projectors ``E_aa`` first
    (a ascending), then the symmetric off-diagonal ``E_ab`` (a < b,
    lexicographic), then the antisymmetric ``E'_ab = i(|a><b| - |b><a|)``.
    """
    if n < 1:
        raise ValueError("dimension must be a positive integer")
    basis = []
    for a in range(n):
        e = np.zeros((n, n), dtype=complex)
        e[a, a] = 1.0
        basis.append(e)
    for a in range(n):
        for b in range(a + 1, n):
            e = np.zeros((n, n), dtype=complex)
            e[a, b] = e[b, a] = 1.0
            basis.append(e)
    for a in range(n):
        for b in range(a + 1, n):
            e = np.zeros((n, n), dtype=complex)
            e[a, b] = 1j
            e[b, a] = -1j
            basis.append(e)
    return basis


def _pair(h1, h2) -> tuple[np.ndarray, np.ndarray]:
    a = np.asarray(h1, dtype=complex)
    b = np.asarray(h2, dtype=complex)
    if a.shape != b.shape or a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return a, b


def jordan_product(h1, h2) -> np.ndarray:
    """Symmetrized product ``(H1 H2 + H2 H1)/2``; commutative, Hermitian."""
    a, b = _pair(h1, h2)
    return (a @ b + b @ a) / 2


def lie_wedge(h1, h2) -> np.ndarray:
    """Commutator product ``i(H1 H2 - H2 H1)``; Hermitian, antisymmetric."""
    a, b = _pair(h1, h2)
    return 1j * (a @ b - b @ a)


def trace_inner(h1, h2) -> float:
    """Trace pairing ``Tr(H1 H2)``, real for Hermitian inputs and invariant
    under simultaneous unitary conjugation."""
    a, b = _pair(h1, h2)
    return float(np.trace(a @ b).real)


def char_poly_coeffs(h) -> np.ndarray:
    """Coefficients ``(c_1, ..., c_n)`` of ``P(x) = x^n + c_1 x^(n-1) + ... + c_n``.

    Computed by the Newton trace recursion

        ``k c_k = -(p_k + c_1 p_(k-1) + ... + c_(k-1) p_1)``,  ``p_j = Tr(H^j)``,

    so that ``P(x) = (-1)^n det(H - x I)``.
    """
    m = np.asarray(h, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    n = m.shape[0]
    powers = [np.eye(n, dtype=complex)]
    for _ in range(n):
        powers.append(powers[-1] @ m)
    p = np.array([np.trace(powers[k]).real for k in range(n + 1)])
    c = np.zeros(n)
    for k in range(1, n + 1):
        acc = p[k] + sum(c[i - 1] * p[k - i] for i in range(1, k))
        c[k - 1] = -acc / k
    return c


def orbit_type(h, tol: float = 1e-9) -> OrbitDescriptor:
    """Classify the conjugation orbit of a Hermitian matrix.

    Eigenvalues with relative gap below ``tol * max(1, spectral radius)``
    are clustered into one multiplicity group.  The result is invariant
    under ``H -> H + c I``.  ``ValueError`` if ``tol`` is not positive and
    finite.
    """
    tol = check_positive("tol", tol)
    m = np.asarray(h, dtype=complex)
    n = m.shape[0]
    evals = np.linalg.eigvalsh(m)[::-1]
    thresh = tol * max(1.0, float(np.abs(evals).max(initial=0.0)))
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


def same_orbit(h1, h2, tol: float = 1e-9) -> bool:
    """True iff the two matrices lie on the same conjugation orbit, i.e.
    all characteristic-polynomial coefficients agree within ``tol`` scaled
    by coefficient magnitude.  ``ValueError`` if ``tol`` is not positive
    and finite (checked first) or the matrices are not a Hermitian pair."""
    tol = check_positive("tol", tol)
    a, b = _pair(h1, h2)
    ca, cb = char_poly_coeffs(a), char_poly_coeffs(b)
    scale = np.maximum(1.0, np.maximum(np.abs(ca), np.abs(cb)))
    return bool(np.all(np.abs(ca - cb) <= tol * scale))
