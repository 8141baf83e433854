"""The su(3) layer: Gell-Mann matrices, structure constants, the octet
coordinate chart, octet-vector products, invariants, and the adjoint
(octet) representation.

Conventions
-----------
A 3 x 3 Hermitian matrix is written ``H = xi0 I + (1/2) xi . lambda`` with
``xi0 = Tr(H)/3`` and ``xi`` a real 8-vector (the octet vector).  Conjugation
``H -> A H A^dagger`` by ``A`` in SU(3) acts on octet vectors as the real
orthogonal matrix ``D(A)`` with ``D_rs = Tr(lambda_r A lambda_s A^dagger)/2``,
i.e. ``octet(A H A^dagger) = D(A) octet(H)``.

The constant tables (Gell-Mann matrices and the antisymmetric ``f`` and
symmetric ``d`` structure constants, computed from the matrices) are built
once at import and frozen read-only.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import check_positive

__all__ = [
    "GELL_MANN",
    "CoordinateForm",
    "gellmann",
    "structure_constants",
    "to_coordinates",
    "from_coordinates",
    "octet_to_matrix",
    "matrix_to_octet",
    "octet_wedge",
    "octet_star",
    "quadratic_invariant",
    "cubic_invariant",
    "invariants",
    "is_special_unitary",
    "adjoint_matrix",
]


def _build_gellmann() -> np.ndarray:
    s3 = np.sqrt(3.0)
    lam = np.zeros((8, 3, 3), dtype=complex)
    lam[0] = [[0, 1, 0], [1, 0, 0], [0, 0, 0]]
    lam[1] = [[0, -1j, 0], [1j, 0, 0], [0, 0, 0]]
    lam[2] = [[1, 0, 0], [0, -1, 0], [0, 0, 0]]
    lam[3] = [[0, 0, 1], [0, 0, 0], [1, 0, 0]]
    lam[4] = [[0, 0, -1j], [0, 0, 0], [1j, 0, 0]]
    lam[5] = [[0, 0, 0], [0, 0, 1], [0, 1, 0]]
    lam[6] = [[0, 0, 0], [0, 0, -1j], [0, 1j, 0]]
    lam[7] = np.diag([1, 1, -2]) / s3
    lam.flags.writeable = False
    return lam


GELL_MANN = _build_gellmann()


def _build_structure_constants() -> tuple[np.ndarray, np.ndarray]:
    # f_rst = Tr([l_r, l_s] l_t) / 4i,  d_rst = Tr({l_r, l_s} l_t) / 4
    prod = np.einsum("rij,sjk->rsik", GELL_MANN, GELL_MANN)
    comm = prod - prod.transpose(1, 0, 2, 3)
    anti = prod + prod.transpose(1, 0, 2, 3)
    f = np.einsum("rsik,tki->rst", comm, GELL_MANN).imag / 4.0
    d = np.einsum("rsik,tki->rst", anti, GELL_MANN).real / 4.0
    f.flags.writeable = False
    d.flags.writeable = False
    return f, d


F_CONST, D_CONST = _build_structure_constants()

# the nonzero d_rst in C order, for cubic_invariant
_CUBIC_TERMS = tuple((float(D_CONST[r, s, t]), int(r), int(s), int(t))
                     for r, s, t in zip(*np.nonzero(D_CONST)))


def _group_cubic_terms() -> tuple:
    # the terms grouped by r, for batches: each group holds the distinct d of
    # its r (22 in all, at most 3 per r) and its terms as (index of d, s, t)
    groups = []
    for r in range(8):
        terms = [(d, s, t) for d, r_, s, t in _CUBIC_TERMS if r_ == r]
        ds = tuple(dict.fromkeys(d for d, _, _ in terms))
        groups.append((r, ds, tuple((ds.index(d), s, t) for d, s, t in terms)))
    return tuple(groups)


_CUBIC_GROUPS = _group_cubic_terms()
# lambda_8's diagonal entries 1/sqrt(3) and -2/sqrt(3), for octet_to_matrix
_L8_11, _L8_33 = float(GELL_MANN[7, 0, 0].real), float(GELL_MANN[7, 2, 2].real)

_IDENT3 = np.eye(3, dtype=complex)


def gellmann(r: int) -> np.ndarray:
    """Return a copy of the r-th Gell-Mann matrix, r in 1..8."""
    if not 1 <= r <= 8:
        raise IndexError(f"Gell-Mann index must be in 1..8, got {r}")
    return GELL_MANN[r - 1].copy()


def structure_constants() -> tuple[np.ndarray, np.ndarray]:
    """Return the read-only (f, d) tables of shape (8, 8, 8), computed from
    the Gell-Mann matrices at import time."""
    return F_CONST, D_CONST


@dataclass(frozen=True)
class CoordinateForm:
    """Trace part and octet part of a 3 x 3 Hermitian matrix."""

    xi0: float
    xi: np.ndarray = field(repr=False)

    def __post_init__(self):
        xi = np.asarray(self.xi, dtype=float)
        if xi.shape != (8,):
            raise ValueError(f"octet part must have shape (8,), got {xi.shape}")
        object.__setattr__(self, "xi", xi)


def _octet(xi) -> np.ndarray:
    xi = np.asarray(xi, dtype=float)
    if xi.shape[-1] != 8:
        raise ValueError(f"octet vectors have 8 components, got shape {xi.shape}")
    return xi


def to_coordinates(h) -> CoordinateForm:
    """Coordinates (xi0, xi) of a 3 x 3 Hermitian matrix:
    ``xi0 = Tr(H)/3`` and ``xi_r = Tr(H lambda_r)``."""
    m = np.asarray(h, dtype=complex)
    if m.shape != (3, 3):
        raise ValueError(f"expected a 3x3 matrix, got shape {m.shape}")
    xi0 = float(np.trace(m).real) / 3.0
    xi = np.einsum("rij,ji->r", GELL_MANN, m).real
    return CoordinateForm(xi0, xi)


def from_coordinates(form: CoordinateForm) -> np.ndarray:
    """Rebuild ``xi0 I + (1/2) xi . lambda`` from coordinates."""
    return form.xi0 * _IDENT3 + octet_to_matrix(form.xi)


def octet_to_matrix(xi) -> np.ndarray:
    """Traceless Hermitian matrix ``(1/2) xi . lambda``.  Broadcasts over
    leading axes: shape (..., 8) -> (..., 3, 3).

    Each entry is ``0.5 * (0j + sum_r xi_r lambda_r[i, j])`` over its nonzero
    Gell-Mann entries only, in r order: on finite input that is the sum
    ``0.5 * einsum("...r,rij->...ij", xi, GELL_MANN)`` forms, bit for bit,
    without its zero terms (a real Gell-Mann entry multiplies as a real
    number, and the leading ``0j`` is the einsum's zero accumulator).  A
    non-finite component reaches only the entries of its own Gell-Mann
    matrix, where the einsum's ``0 * inf`` makes every entry NaN."""
    xi = _octet(xi)
    # components and entries on the first axis of the transposed views;
    # a single point is computed in Python floats
    x1, x2, x3, x4, x5, x6, x7, x8 = xi.tolist() if xi.ndim == 1 else xi.T
    out = np.empty(xi.shape[:-1] + (9,), dtype=complex)
    h = out.T  # h[3 i + j] is entry (i, j)
    h[0] = 0.5 * (0j + x3 + x8 * _L8_11)
    h[1] = 0.5 * (0j + x1 + x2 * -1j)
    h[2] = 0.5 * (0j + x4 + x5 * -1j)
    h[3] = 0.5 * (0j + x1 + x2 * 1j)
    h[4] = 0.5 * (0j - x3 + x8 * _L8_11)
    h[5] = 0.5 * (0j + x6 + x7 * -1j)
    h[6] = 0.5 * (0j + x4 + x5 * 1j)
    h[7] = 0.5 * (0j + x6 + x7 * 1j)
    h[8] = 0.5 * (0j + x8 * _L8_33)
    return out.reshape(xi.shape[:-1] + (3, 3))


def matrix_to_octet(h) -> np.ndarray:
    """Octet components ``xi_r = Tr(H lambda_r)`` of (batches of) 3 x 3
    matrices; the trace part is discarded."""
    m = np.asarray(h, dtype=complex)
    return np.einsum("...ij,rji->...r", m, GELL_MANN).real


def octet_wedge(xi1, xi2) -> np.ndarray:
    """Antisymmetric octet product ``(xi1 ^ xi2)_r = -(1/2) f_rst xi1_s xi2_t``."""
    return -0.5 * np.einsum("rst,...s,...t->...r", F_CONST, _octet(xi1), _octet(xi2))


def octet_star(xi1, xi2) -> np.ndarray:
    """Symmetric octet product ``(xi1 * xi2)_r = sqrt(3) d_rst xi1_s xi2_t``."""
    return np.sqrt(3.0) * np.einsum(
        "rst,...s,...t->...r", D_CONST, _octet(xi1), _octet(xi2)
    )


def quadratic_invariant(xi) -> float | np.ndarray:
    """``xi . xi``, invariant under the adjoint action."""
    xi = _octet(xi)
    out = np.einsum("...r,...r->...", xi, xi)
    return float(out) if out.ndim == 0 else out


def cubic_invariant(xi) -> float | np.ndarray:
    """``(xi * xi) . xi = sqrt(3) d_rst xi_r xi_s xi_t``, invariant under the
    adjoint action and bounded by ``|xi|^3`` in magnitude.

    The sum runs over the 58 nonzero ``d_rst`` only, in C order, each term
    multiplied left to right: on finite input that is the sum
    ``einsum("rst,...r,...s,...t->...", D_CONST, xi, xi, xi)`` forms, bit
    for bit, without its zero terms.  A batch forms each of the 22 distinct
    ``d * xi_r`` once and every term in preallocated buffers."""
    xi = _octet(xi)
    if xi.ndim == 1:
        x = xi.tolist()
        acc = 0.0
        for d, r, s, t in _CUBIC_TERMS:
            acc += d * x[r] * x[s] * x[t]
        return float(np.sqrt(3.0) * acc)
    x = np.moveaxis(xi, -1, 0).copy()  # contiguous components
    acc = np.zeros(xi.shape[:-1])  # += from 0.0, as the einsum's accumulator
    term = np.empty_like(acc)
    scaled = np.empty((3,) + acc.shape)
    for r, ds, terms in _CUBIC_GROUPS:
        for d, buf in zip(ds, scaled):
            np.multiply(d, x[r], out=buf)
        for k, s, t in terms:
            np.multiply(scaled[k], x[s], out=term)
            term *= x[t]
            acc += term
    acc *= np.sqrt(3.0)
    return acc


def invariants(xi) -> tuple[float, float]:
    """The pair (quadratic, cubic) of adjoint invariants of an octet vector."""
    return quadratic_invariant(xi), cubic_invariant(xi)


def is_special_unitary(a, tol: float = 1e-8) -> bool:
    """Check ``A^dagger A = I`` and ``det A = 1`` within tolerance;
    ``ValueError`` if ``tol`` is not positive and finite."""
    tol = check_positive("tol", tol)
    m = np.asarray(a, dtype=complex)
    if m.shape != (3, 3):
        return False
    unitary = np.abs(m.conj().T @ m - _IDENT3).max() <= tol
    special = abs(np.linalg.det(m) - 1.0) <= tol
    return bool(unitary and special)


def adjoint_matrix(a, tol: float = 1e-8) -> np.ndarray:
    """Adjoint (octet) image ``D(A)`` of a special-unitary 3 x 3 matrix.

    ``D_rs = Tr(lambda_r A lambda_s A^dagger)/2`` is real orthogonal with
    unit determinant, satisfies ``D(A'A) = D(A') D(A)``, and implements
    conjugation on coordinates: ``octet(A H A^dagger) = D(A) octet(H)``.

    Raises
    ------
    ValueError
        If the input fails the unitarity/determinant check beyond ``tol``,
        or ``tol`` is not positive and finite.
    """
    m = np.asarray(a, dtype=complex)
    if not is_special_unitary(m, tol):
        raise ValueError("input is not special-unitary within tolerance")
    return 0.5 * np.einsum(
        "rij,jk,skl,li->rs", GELL_MANN, m, GELL_MANN, m.conj().T
    ).real
