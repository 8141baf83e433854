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
from .spectrum import _LADDER, DEFAULT_CLASSIFY_TOL, classify

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


def _check_matrix(m, name: str) -> np.ndarray:
    """``m`` as a complex array; ``ValueError`` naming the argument ``name``
    unless it is a 3x3 matrix with finite entries."""
    d = np.asarray(m, dtype=complex)
    if d.shape != (3, 3):
        raise ValueError(f"{name} must be a 3x3 matrix, got shape {d.shape}")
    if not np.isfinite(d).all():
        raise ValueError(f"{name} must have finite entries")
    return d


def _check_direction(m, name: str) -> np.ndarray:
    d = _check_matrix(m, name)
    scale = max(1.0, float(np.abs(d).max(initial=0.0)))
    with np.errstate(over="ignore"):  # an overflowing trace reads inf: not traceless
        trace = np.trace(d)
    if abs(trace) > 1e-10 * scale:
        raise ValueError(f"{name} must be traceless")
    return d


def _finite(name: str, compute):
    """``compute()``, with no numpy warning; ``ValueError`` naming ``name``
    where its products overflow the float range."""
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow reads inf or nan
        value = compute()
    if not np.isfinite(value).all():
        raise ValueError(f"the {name} overflows the float range at these inputs")
    return value


def _unit_scaled(m: np.ndarray, e: int) -> np.ndarray:
    """``m`` times ``2**-e``: a power of two scales exactly."""
    out = np.empty_like(m)
    out.real, out.imag = np.ldexp(m.real, -e), np.ldexp(m.imag, -e)
    return out


def _pairing(name: str, degree: int, h, a, b, form) -> float:
    """``form(h, a, b)``, of degree ``degree`` in ``h`` and 1 in each
    direction, with no numpy warning.  Where its products overflow, or a
    product of the inputs' scales is below the normal range, it is evaluated
    again on unit-scaled inputs and scaled back by the power of two
    ``2**(degree eh + ea + eb)``, exactly, so that a value in the float range
    is returned.  ``ValueError`` naming ``name`` where the value, or that
    scale, overflows: past the float range even a cancellation's zero is
    known to no float precision."""
    # each input's largest real or imaginary part is in [2**(e - 1), 2**e)
    eh, ea, eb = np.frexp(np.abs(np.array((h, a, b)).view(float)).max(axis=(1, 2)))[1].tolist()
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow reads inf or nan
        value = form(h, a, b)
    # 2**-1022 is the least normal float
    if not np.isfinite(value) or degree * min(eh - 1, 0) + min(ea - 1, 0) + min(eb - 1, 0) < -1022:
        h, a, b = _unit_scaled(h, eh), _unit_scaled(a, ea), _unit_scaled(b, eb)
        value = _finite(name, lambda: form(h, a, b) * np.ldexp(1.0, degree * eh + ea + eb))
    return float(value)


def symplectic_eval(h, direction_a, direction_b) -> float:
    """Orbit symplectic pairing ``Im Tr(H [A, B])``.

    ``Tr(H [A, B])`` is purely imaginary for Hermitian inputs (the
    commutator of Hermitians is anti-Hermitian), so the imaginary part is
    the only usable real pairing; it is antisymmetric in (A, B) and
    vanishes whenever either direction commutes with ``H``.  ``ValueError``
    naming the argument unless each is a 3x3 matrix with finite entries and
    the directions are traceless; and if the pairing is past the float
    range, or its products overflow where the product of the inputs'
    largest entries is past it too.
    """
    return _pairing("symplectic pairing", 1, _check_matrix(h, "h"),
                    _check_direction(direction_a, "direction_a"),
                    _check_direction(direction_b, "direction_b"),
                    lambda h, a, b: np.trace(h @ (a @ b - b @ a)).imag)


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
    gram = _finite("symplectic Gram matrix",
                   lambda: 2.0 * F_CONST @ np.einsum("ij,tji->t", hm, GELL_MANN).real)
    svals = np.linalg.svd(gram, compute_uv=False)
    top = svals.max(initial=0.0)
    if top == 0.0:
        return 8
    return int(np.sum(svals <= tol * max(1.0, top)))


def orbit_metric_eval(h, direction_a, direction_b) -> float:
    """Orbit metric ``Re Tr([H, A] [H, B]^dagger)``: symmetric, positive
    semidefinite, with kernel equal to the commutant of ``H``.  Its inputs
    are checked, and an overflow raised, as in ``symplectic_eval``."""
    return _pairing("orbit metric", 2, _check_matrix(h, "h"),
                    _check_direction(direction_a, "direction_a"),
                    _check_direction(direction_b, "direction_b"),
                    lambda h, a, b: np.trace((h @ a - a @ h) @ (h @ b - b @ h).conj().T).real)


def orbit_invariants(xi, tol: float = DEFAULT_CLASSIFY_TOL) -> OrbitInvariants:
    """The orbit-defining data of an octet vector: quadratic and cubic
    invariants plus the orbit dimension (6 generic, 4 doubly degenerate,
    0 at the origin).  Two vectors with equal invariants lie on the same
    adjoint orbit.  Raises ``ValueError`` where ``spectrum.classify`` does,
    before the invariants are evaluated."""
    dimension = _ORBIT_DIMS[classify(xi, tol)]
    quad, cubic = invariants(xi)
    return OrbitInvariants(quad, cubic, dimension)
