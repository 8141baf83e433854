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

The scale rule lives here: ``_scaled`` for a quantity at a point, and
``_multilinear`` for a form that scales each of its arguments on its own,
and ``_unit_whole`` with ``_scale_back`` for a linear map of arrays taken as
a whole.
"""
from __future__ import annotations

import math
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
    """Trace part and octet part of a 3 x 3 Hermitian matrix, all finite."""

    xi0: float
    xi: np.ndarray = field(repr=False)

    def __post_init__(self):
        xi = np.asarray(self.xi, dtype=float)
        if xi.shape != (8,):
            raise ValueError(f"octet part must have shape (8,), got {xi.shape}")
        if not (np.isfinite(self.xi0) and np.isfinite(xi).all()):
            raise ValueError("coordinates must be finite")
        object.__setattr__(self, "xi", xi)


def _octet(xi) -> np.ndarray:
    xi = np.asarray(xi, dtype=float)
    if xi.shape[-1:] != (8,):  # a 0-d argument too
        raise ValueError(f"octet vectors have 8 components, got shape {xi.shape}")
    return xi


def to_coordinates(h) -> CoordinateForm:
    """Coordinates (xi0, xi) of a 3 x 3 Hermitian matrix:
    ``xi0 = Tr(H)/3`` and ``xi_r = Tr(H lambda_r)``, by the scale rule
    (``_unit_whole``): of degree 1.  ``ValueError`` as
    ``kinematics.hermitian`` raises, unless ``h`` is 3x3, or past the range."""
    m = np.asarray(h, dtype=complex)
    if m.shape != (3, 3):
        raise ValueError(f"expected a 3x3 matrix, got shape {m.shape}")
    from .kinematics import hermitian  # loaded here alone, as no other algebra name needs it
    hermitian(m)  # the check alone: the coordinates are read from m itself
    (u,), k = _unit_whole("to_coordinates", m)
    xi0, xi = _scale_back("octet vector", k, np.trace(u).real / 3.0,
                          np.einsum("rij,ji->r", GELL_MANN, u).real)
    return CoordinateForm(float(xi0), xi)


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
    matrices; the trace part is discarded.  By the scale rule as
    ``to_coordinates``, each matrix of a batch on its own; ``ValueError`` for
    a non-finite entry or past the float range."""
    m = np.asarray(h, dtype=complex)
    if not np.isfinite(m).all():
        raise ValueError("matrix_to_octet requires finite entries")
    u, k = _unit_matrix(m)
    return _scale_back("octet vector", k, np.einsum("...ij,rji->...r", u, GELL_MANN).real)[0]


def octet_wedge(xi1, xi2) -> np.ndarray:
    """Antisymmetric octet product ``(xi1 ^ xi2)_r = -(1/2) f_rst xi1_s xi2_t``,
    broadcast over leading axes, by the scale rule (``_multilinear``): of degree
    1 in each vector.  ``ValueError`` for a non-finite component or past the range."""
    return _multilinear("octet wedge product",
                        lambda u1, u2: -0.5 * np.einsum("rst,...s,...t->...r", F_CONST, u1, u2),
                        (_octet(xi1), 1), (_octet(xi2), 1), caller="octet_wedge")


def octet_star(xi1, xi2) -> np.ndarray:
    """Symmetric octet product ``(xi1 * xi2)_r = sqrt(3) d_rst xi1_s xi2_t``,
    by the scale rule as ``octet_wedge``."""
    return _multilinear("octet star product", _star, (_octet(xi1), 1), (_octet(xi2), 1),
                        caller="octet_star")


def _star(xi1: np.ndarray, xi2: np.ndarray) -> np.ndarray:
    # octet_star's contraction at the vectors themselves, for unit-scaled callers
    return np.sqrt(3.0) * np.einsum("rst,...s,...t->...r", D_CONST, xi1, xi2)


def _unit_scaled(xi: np.ndarray):
    """Octet vectors (..., 8) as ``(xi / 2**k, k)``, exactly: ``k``, an int for
    one vector (in Python floats, faster) and an array (...) for more, takes
    the largest |component| into [0.5, 1), and is 0 where that is 0 or inf."""
    if xi.ndim == 1:
        k = math.frexp(max(map(abs, xi.tolist())))[1]
        return np.ldexp(xi, -k), k
    k = np.frexp(np.abs(xi).max(axis=-1))[1]
    return np.ldexp(xi, -k[..., None]), k


def _scaled(u: np.ndarray, k, *quantities, caller: str | None = None) -> list:
    """The scale rule: each ``(name, value, degree)``, of degree ``degree`` in
    the octet vector and evaluated at ``u, k = _unit_scaled(xi)``, times
    ``2**(degree k)``: exact, or rounded below the float range as IEEE does;
    past it, ``ValueError`` at the first such vector and quantity.  Given
    ``caller``, a vector with a non-finite component fails in its turn."""
    out, past_any = [], False
    for _, value, degree in quantities:
        if isinstance(value, float):  # one vector's number: math.ldexp raises past the range
            try:
                out.append(math.ldexp(value, degree * k))
            except OverflowError:
                out.append(math.inf)
                past_any = True
            continue
        trailing = k if isinstance(k, int) else k.reshape(k.shape + (1,) * (value.ndim - k.ndim))
        with np.errstate(over="ignore"):
            out.append(np.ldexp(value, degree * trailing))
        past_any = past_any or bool(np.isinf(out[-1]).any())
    if past_any or caller is not None:
        finite = np.isfinite(u).all(axis=-1).ravel()
        past = [np.isinf(x).reshape(finite.shape + (-1,)).any(axis=-1) & finite for x in out]
        failed = np.logical_or.reduce(past + ([~finite] if caller else []))
        if failed.any():
            i = int(np.argmax(failed))
            if not finite[i]:
                raise ValueError(f"{caller} requires finite octet components")
            name = next(q[0] for q, p in zip(quantities, past) if p[i])
            with np.errstate(over="ignore"):  # inf where |xi| itself is past the range
                size = np.ldexp(math.hypot(*u.reshape(-1, 8)[i].tolist()), np.ravel(k)[i])
            raise ValueError(f"the {name} is past the float range at |xi| = {size:.6g}")
    return out


def _unit_matrix(m: np.ndarray):
    # complex matrices (..., 3, 3), each by _unit_scaled of its real and imaginary parts
    u, k = _unit_scaled(np.ascontiguousarray(m).view(float).reshape(m.shape[:-2] + (18,)))
    return u.view(complex).reshape(m.shape), k


def _unit_whole(caller: str, *arrays) -> tuple[list, int]:
    """Float or complex arrays as ``(units, k)``: each divided by one ``2**k``,
    exactly, that takes their largest |real or imaginary part| into [0.5, 1),
    and ``k`` is 0 where that is 0; ``ValueError(f"{caller} requires finite
    entries")`` first for a non-finite one."""
    tops = [float(np.abs(np.ascontiguousarray(a).view(float)).max(initial=0.0)) for a in arrays]
    if not all(map(math.isfinite, tops)):  # a NaN or inf entry makes its array's max NaN or inf
        raise ValueError(f"{caller} requires finite entries")
    k = math.frexp(max(tops))[1]
    return [_ldexp(a, -k) for a in arrays], k


def _ldexp(x, e):
    # x * 2**e, float or complex, exact where that is a normal float; inf past the range
    if not np.iscomplexobj(x):
        return np.ldexp(x, e)
    return np.ldexp(np.ascontiguousarray(x).view(float), e).view(complex).reshape(np.shape(x))


def _scale_back(name: str, e, *values) -> list:
    """Each value times ``2**e``, ``e`` an int or an array over its leading
    axes; ``ValueError(f"the {name} is past the float range at these
    inputs")``, with no numpy warning, where one is past the range."""
    with np.errstate(over="ignore"):  # inf past the range, named below
        out = [_ldexp(v, e if isinstance(e, int) else e.reshape(e.shape + (1,) * (v.ndim - e.ndim)))
               for v in values]
    if any(np.isinf(o).any() for o in out):
        raise ValueError(f"the {name} is past the float range at these inputs")
    return out


def _multilinear(name: str, form, *args, caller: str | None = None):
    """The scale rule for a form of degree ``d`` in each ``(x, d)`` of ``args``,
    each octet vector (..., 8) unit-scaled per vector and each complex matrix
    as a whole: ``form`` at the unit-scaled arguments times ``2**(sum d k)``,
    so a zero stays zero.  Past the float range ``ValueError``, as ``_scaled``
    words it for one argument and ``_scale_back`` for more.  Given ``caller``,
    a non-finite component fails."""
    if len(args) == 1:
        ((x, degree),) = args
        u, k = _unit_scaled(x)
        out = _scaled(u, k, (name, form(u), degree), caller=caller)[0]
        return out if isinstance(out, float) or out.ndim else float(out)
    if caller is not None and not all(np.isfinite(x).all() for x, _ in args):
        raise ValueError(f"{caller} requires finite octet components")
    units = [_unit_matrix(x) if np.iscomplexobj(x) else _unit_scaled(x) for x, _ in args]
    e = sum(degree * k for (_, degree), (_, k) in zip(args, units))
    return _scale_back(name, e, form(*(u for u, _ in units)))[0]


def quadratic_invariant(xi) -> float | np.ndarray:
    """``xi . xi``, invariant under the adjoint action, of degree 2."""
    return _multilinear("quadratic invariant", lambda u: np.einsum("...r,...r->...", u, u),
                        (_octet(xi), 2))


def cubic_invariant(xi) -> float | np.ndarray:
    """``(xi * xi) . xi = sqrt(3) d_rst xi_r xi_s xi_t``, invariant under the
    adjoint action, of degree 3 and bounded by ``|xi|^3`` in magnitude.

    The sum runs over the 58 nonzero ``d_rst`` only, in C order, each term
    multiplied left to right: on finite input that is the sum
    ``einsum("rst,...r,...s,...t->...", D_CONST, xi, xi, xi)`` forms, bit
    for bit, without its zero terms."""
    return _multilinear("cubic invariant", _cubic, (_octet(xi), 3))


def _cubic(xi: np.ndarray):
    # cubic_invariant's sum at xi itself: a float for one vector; a block's components
    # are copied contiguous, as strided views take about twice as long at 40k points
    x = xi.tolist() if xi.ndim == 1 else list(np.moveaxis(xi, -1, 0).copy())
    acc = 0.0  # += from 0.0, as the einsum's accumulator
    for d, r, s, t in _CUBIC_TERMS:
        acc += d * x[r] * x[s] * x[t]
    return np.sqrt(3.0) * acc


def invariants(xi) -> tuple[float, float]:
    """The pair (quadratic, cubic) of adjoint invariants of an octet vector."""
    return quadratic_invariant(xi), cubic_invariant(xi)


def is_special_unitary(a, tol: float = 1e-8) -> bool:
    """Check ``A^dagger A = I`` and ``det A = 1`` within tolerance;
    ``ValueError`` if ``tol`` is not positive and finite.  A matrix with a
    non-finite entry, or one whose products overflow, is not special-unitary."""
    tol = check_positive("tol", tol)
    m = np.asarray(a, dtype=complex)
    if m.shape != (3, 3):
        return False
    with np.errstate(over="ignore", invalid="ignore"):  # inf or NaN: not within tol
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
        If ``a`` fails the unitarity/determinant check beyond ``tol`` (a
        non-finite entry fails it), or ``tol`` is not positive and finite.
    """
    m = np.asarray(a, dtype=complex)
    if not is_special_unitary(m, tol):
        raise ValueError("a must be special-unitary within tol")
    return 0.5 * np.einsum(
        "rij,jk,skl,li->rs", GELL_MANN, m, GELL_MANN, m.conj().T
    ).real
