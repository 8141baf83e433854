"""Symplectic and metric pairings on adjoint orbits, and orbit invariants.

The orbit through a Hermitian ``H`` carries the two-form
``omega_H(A, B) = Im Tr(H [A, B])`` on left-invariant directions ``A, B``
(traceless Hermitian); its kernel is the commutant of ``H``, so the rank
deficiency of the 8 x 8 Gram matrix over the Gell-Mann directions recovers
the orbit codimension.  A compatible metric is
``g_H(A, B) = Re Tr([H, A] [H, B]^dagger)``, positive semidefinite with the
same kernel.

Both pairings follow the scale rule of ``algebra._multilinear``, each matrix
scaled by its own power of two: every value in the float range is returned.
"""
from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .algebra import F_CONST, GELL_MANN, _multilinear, invariants
from .errors import check_positive, check_within
from .spectrum import _LADDER, DEFAULT_CLASSIFY_TOL, _point

__all__ = [
    "OrbitInvariants",
    "symplectic_eval",
    "symplectic_kernel_dim",
    "orbit_metric_eval",
    "orbit_invariants",
]

# the orbit dimension of each class: triple, upper, lower degenerate, generic
_ORBIT_DIMS = dict(zip(_LADDER, (0, 4, 4, 6)))


class OrbitInvariants(NamedTuple):
    quadratic: float
    cubic: float
    dimension: int


def _check_matrix(m, name: str, traceless: bool = False) -> np.ndarray:
    """``m`` as a complex array; ``ValueError`` naming the argument ``name``
    unless it is a 3x3 matrix with finite entries, and traceless if asked."""
    d = np.asarray(m, dtype=complex)
    if d.shape != (3, 3):
        raise ValueError(f"{name} must be a 3x3 matrix, got shape {d.shape}")
    if not np.isfinite(d).all():
        raise ValueError(f"{name} must have finite entries")
    if traceless:
        quarter = d / 4.0  # its trace and the moduli of its entries are in the float range
        check_within(f"{name} must be traceless", float(abs(np.trace(quarter))),
                     float(np.abs(quarter).max()), 1e-10, 2)
    return d


def _pairing(name: str, degree: int, form, h, a, b) -> float:
    # form(h, a, b), of degree ``degree`` in h and 1 in each direction, after the checks
    return float(_multilinear(name, form, (_check_matrix(h, "h"), degree),
                              (_check_matrix(a, "direction_a", True), 1),
                              (_check_matrix(b, "direction_b", True), 1)))


def symplectic_eval(h, direction_a, direction_b) -> float:
    """Orbit symplectic pairing ``Im Tr(H [A, B])``.

    ``Tr(H [A, B])`` is purely imaginary for Hermitian inputs (the
    commutator of Hermitians is anti-Hermitian), so the imaginary part is
    the only usable real pairing; it is antisymmetric in (A, B) and
    vanishes whenever either direction commutes with ``H``.  Of degree 1
    in each argument.  ``ValueError`` naming the argument unless each is a
    3x3 matrix with finite entries and the directions are traceless; and
    where the pairing is past the float range.
    """
    return _pairing("symplectic pairing", 1, lambda h, a, b: np.trace(h @ (a @ b - b @ a)).imag,
                    h, direction_a, direction_b)


def symplectic_kernel_dim(h, tol: float = 1e-9) -> int:
    """Dimension of the kernel of the symplectic pairing at ``H``, i.e.
    the rank deficiency of ``M_uv = Im Tr(H [lambda_u, lambda_v])`` at
    relative threshold ``tol``.  Equals ``8 - (orbit dimension)`` for
    traceless ``H``.  ``ValueError`` if ``tol`` is not positive and finite,
    ``h`` is not a 3x3 matrix with finite entries, or the Gram matrix
    overflows the float range."""
    tol = check_positive("tol", tol)
    hm = _check_matrix(h, "h")
    # [lambda_u, lambda_v] = 2i f_uvt lambda_t, so M_uv = 2 f_uvt Re Tr(H lambda_t)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow reads inf or nan
        gram = 2.0 * F_CONST @ np.einsum("ij,tji->t", hm, GELL_MANN).real
    if not np.isfinite(gram).all():
        raise ValueError("the symplectic Gram matrix overflows the float range at these inputs")
    svals = np.linalg.svd(gram, compute_uv=False)
    top = svals.max(initial=0.0)
    if top == 0.0:
        return 8
    return int(np.sum(svals <= tol * max(1.0, top)))


def orbit_metric_eval(h, direction_a, direction_b) -> float:
    """Orbit metric ``Re Tr([H, A] [H, B]^dagger)``: symmetric, positive
    semidefinite, with kernel equal to the commutant of ``H``.  Of degree 2
    in ``h`` and 1 in each direction; it raises as ``symplectic_eval``."""
    return _pairing("orbit metric", 2,
                    lambda h, a, b: np.trace((h @ a - a @ h) @ (h @ b - b @ h).conj().T).real,
                    h, direction_a, direction_b)


def orbit_invariants(xi, tol: float = DEFAULT_CLASSIFY_TOL) -> OrbitInvariants:
    """The orbit-defining data of an octet vector: quadratic and cubic
    invariants plus the orbit dimension (6 generic, 4 doubly degenerate,
    0 at the origin).  Two vectors with equal invariants lie on the same
    adjoint orbit.  Raises ``ValueError`` where ``spectrum.classify`` does,
    before the invariants are evaluated."""
    dimension = _ORBIT_DIMS[_point(xi, tol, "orbit_invariants")[1].degeneracy]
    quad, cubic = invariants(xi)
    return OrbitInvariants(quad, cubic, dimension)
