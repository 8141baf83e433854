"""Symplectic and metric pairings on adjoint orbits, and orbit invariants.

The orbit through a Hermitian ``H`` carries the two-form
``omega_H(A, B) = Im Tr(H [A, B])`` on left-invariant directions ``A, B``
(traceless Hermitian); its kernel is the commutant of ``H``, so the rank
deficiency of the 8 x 8 Gram matrix over the Gell-Mann directions recovers
the orbit codimension.  A compatible metric is
``g_H(A, B) = Re Tr([H, A] [H, B]^dagger)``, positive semidefinite with the
same kernel.
"""
from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .algebra import F_CONST, GELL_MANN, invariants
from .errors import check_positive
from .spectrum import DEFAULT_CLASSIFY_TOL, DegeneracyClass, classify

__all__ = [
    "OrbitInvariants",
    "symplectic_eval",
    "symplectic_kernel_dim",
    "orbit_metric_eval",
    "orbit_invariants",
]

_ORBIT_DIMS = {
    DegeneracyClass.GENERIC: 6,
    DegeneracyClass.UPPER_DEGENERATE: 4,
    DegeneracyClass.LOWER_DEGENERATE: 4,
    DegeneracyClass.TRIPLE_DEGENERATE: 0,
}


class OrbitInvariants(NamedTuple):
    quadratic: float
    cubic: float
    dimension: int


def _check_direction(m) -> np.ndarray:
    d = np.asarray(m, dtype=complex)
    if d.shape != (3, 3):
        raise ValueError(f"tangent directions must be 3x3, got shape {d.shape}")
    scale = max(1.0, float(np.abs(d).max(initial=0.0)))
    if abs(np.trace(d)) > 1e-10 * scale:
        raise ValueError("tangent directions must be traceless")
    return d


def symplectic_eval(h, direction_a, direction_b) -> float:
    """Orbit symplectic pairing ``Im Tr(H [A, B])``.

    ``Tr(H [A, B])`` is purely imaginary for Hermitian inputs (the
    commutator of Hermitians is anti-Hermitian), so the imaginary part is
    the only usable real pairing; it is antisymmetric in (A, B) and
    vanishes whenever either direction commutes with ``H``.
    """
    hm = np.asarray(h, dtype=complex)
    if hm.shape != (3, 3):
        raise ValueError(f"expected a 3x3 matrix, got shape {hm.shape}")
    a = _check_direction(direction_a)
    b = _check_direction(direction_b)
    return float(np.trace(hm @ (a @ b - b @ a)).imag)


def symplectic_kernel_dim(h, tol: float = 1e-9) -> int:
    """Dimension of the kernel of the symplectic pairing at ``H``, i.e.
    the rank deficiency of ``M_uv = Im Tr(H [lambda_u, lambda_v])`` at
    relative threshold ``tol``.  Equals ``8 - (orbit dimension)`` for
    traceless ``H``.  ``ValueError`` if ``tol`` is not positive and finite."""
    tol = check_positive("tol", tol)
    hm = np.asarray(h, dtype=complex)
    # [lambda_u, lambda_v] = 2i f_uvt lambda_t, so M_uv = 2 f_uvt Re Tr(H lambda_t)
    gram = 2.0 * F_CONST @ np.einsum("ij,tji->t", hm, GELL_MANN).real
    svals = np.linalg.svd(gram, compute_uv=False)
    top = svals.max(initial=0.0)
    if top == 0.0:
        return 8
    return int(np.sum(svals <= tol * max(1.0, top)))


def orbit_metric_eval(h, direction_a, direction_b) -> float:
    """Orbit metric ``Re Tr([H, A] [H, B]^dagger)``: symmetric, positive
    semidefinite, with kernel equal to the commutant of ``H``."""
    hm = np.asarray(h, dtype=complex)
    if hm.shape != (3, 3):
        raise ValueError(f"expected a 3x3 matrix, got shape {hm.shape}")
    a = _check_direction(direction_a)
    b = _check_direction(direction_b)
    ka = hm @ a - a @ hm
    kb = hm @ b - b @ hm
    return float(np.trace(ka @ kb.conj().T).real)


def orbit_invariants(xi, tol: float = DEFAULT_CLASSIFY_TOL) -> OrbitInvariants:
    """The orbit-defining data of an octet vector: quadratic and cubic
    invariants plus the orbit dimension (6 generic, 4 doubly degenerate,
    0 at the origin).  Two vectors with equal invariants lie on the same
    adjoint orbit.  Raises ``ValueError`` where ``spectrum.classify`` does,
    before the invariants are evaluated."""
    dimension = _ORBIT_DIMS[classify(xi, tol)]
    quad, cubic = invariants(xi)
    return OrbitInvariants(quad, cubic, dimension)
