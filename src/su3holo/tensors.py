"""Irreducible tensor analysis of antisymmetric second-rank octet tensors.

A real antisymmetric ``T_rs`` (28 independent components) is carried to its
4-index form ``T^{ab}_{cd} = (l_r)_{ac} (l_s)_{bd} T_rs`` and split into a
complex symmetric decouplet ``W^{abc}``, its conjugate antidecouplet
``Wbar_{abc}`` and a real octet ``X_r``, which reassemble exactly:

    ``T^{ab}_{cd} = (1/6) eps_{cde} W^{abe} + (1/6) eps^{abe} Wbar_{cde}
                    + (i/3) (delta^a_d X^b_c - delta^b_c X^a_d)``.

The octet coefficient here is ``i/3``: it is the unique value for which
projection followed by reassembly is the identity on all 28 components
(and the only one consistent with the octet part of the curvature being
``-(1/3) f_rst X_t``).

Index conventions: octet matrices use ``X^a_b = X_r (l_r)_{ab}`` with
inverse ``X_r = Tr(X l_r)/2`` (note: no factor 1/2 in the forward map,
unlike the coordinate chart for Hamiltonians).
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .algebra import F_CONST, GELL_MANN, _star
from .curvature import CurvatureTwoForm, _form, _pair_terms
from .errors import DegenerateInput, check_level, check_positive
from .spectrum import (
    DEFAULT_CLASSIFY_TOL,
    DegeneracyClass,
    _fix_gauge,
    _point,
    _rest_from_levels,
    diagonalizer,
)

__all__ = [
    "LEVI_CIVITA",
    "REST_DECOUPLET",
    "AntisymTensor",
    "IrreducibleParts",
    "DecoupletField",
    "octet_matrix",
    "octet_components",
    "to_tensor_components",
    "from_tensor_components",
    "project_irreducible",
    "octet_from_coefficients",
    "reconstitute",
    "octet_coefficients",
    "decouplet_weight",
    "delta_tensors",
    "curvature_from_parts",
]


def _levi_civita() -> np.ndarray:
    eps = np.zeros((3, 3, 3))
    for a, b, c in [(0, 1, 2), (1, 2, 0), (2, 0, 1)]:
        eps[a, b, c] = 1.0
    for a, b, c in [(0, 2, 1), (2, 1, 0), (1, 0, 2)]:
        eps[a, b, c] = -1.0
    eps.flags.writeable = False
    return eps


def _rest_decouplet() -> np.ndarray:
    # 1 at every permutation of (1,2,3): the unique torus-invariant decouplet.
    delta = np.abs(_levi_civita()).copy()
    delta.flags.writeable = False
    return delta


LEVI_CIVITA = _levi_civita()
REST_DECOUPLET = _rest_decouplet()

_IMAG_RESIDUE_TOL = 1e-10


@dataclass
class AntisymTensor:
    """An antisymmetric second-rank octet tensor in both index pictures."""

    coefficients: np.ndarray = field(repr=False)  # (8, 8) real, antisymmetric
    tensor: np.ndarray = field(repr=False)        # (3, 3, 3, 3) complex, T^{ab}_{cd}


@dataclass
class IrreducibleParts:
    """Decouplet / antidecouplet / octet pieces of an AntisymTensor."""

    decouplet: np.ndarray = field(repr=False)      # W^{abc}, complex symmetric
    antidecouplet: np.ndarray = field(repr=False)  # Wbar_{abc}, complex symmetric
    octet: np.ndarray = field(repr=False)          # X_r, real 8-vector


@dataclass
class DecoupletField:
    """The transported rest-frame decouplet and its conjugate at a point."""

    decouplet: np.ndarray = field(repr=False)
    antidecouplet: np.ndarray = field(repr=False)


def octet_matrix(x) -> np.ndarray:
    """Tensor form ``X^a_b = X_r (l_r)_{ab}`` of an octet vector."""
    x = np.asarray(x, dtype=float)
    if x.shape != (8,):
        raise ValueError(f"octet vectors have 8 components, got shape {x.shape}")
    return np.einsum("r,rab->ab", x, GELL_MANN)


def octet_components(m, tol: float = 1e-10) -> np.ndarray:
    """Inverse of ``octet_matrix``: ``X_r = Tr(X l_r)/2``.

    Rejects input whose trace exceeds ``tol`` (relative) with ``ValueError``,
    as it does a ``tol`` that is not positive and finite."""
    tol = check_positive("tol", tol)
    mat = np.asarray(m, dtype=complex)
    if mat.shape != (3, 3):
        raise ValueError(f"expected a 3x3 matrix, got shape {mat.shape}")
    scale = max(1.0, float(np.abs(mat).max(initial=0.0)))
    if abs(np.trace(mat)) > tol * scale:
        raise ValueError("octet matrices must be traceless")
    x = np.einsum("ab,rba->r", mat, GELL_MANN) / 2.0
    if np.abs(x.imag).max() > _IMAG_RESIDUE_TOL * scale:
        raise ValueError("octet components carry a nonreal residue")
    return x.real


def to_tensor_components(t_rs) -> AntisymTensor:
    """4-index tensor components of an antisymmetric coefficient array:
    ``T^{ab}_{cd} = (l_r)_{ac} (l_s)_{bd} T_rs``."""
    t = np.asarray(t_rs, dtype=float)
    if t.shape != (8, 8):
        raise ValueError(f"coefficient arrays must be 8x8, got shape {t.shape}")
    scale = max(1.0, float(np.abs(t).max(initial=0.0)))
    if np.abs(t + t.T).max() > 1e-10 * scale:
        raise ValueError("coefficient array must be antisymmetric")
    t4 = np.einsum("rac,sbd,rs->abcd", GELL_MANN, GELL_MANN, t.astype(complex))
    return AntisymTensor(t, t4)


def from_tensor_components(t4) -> np.ndarray:
    """Inverse conversion ``T_rs = (1/4) (l_r)_{ca} (l_s)_{db} T^{ab}_{cd}``.

    An imaginary residue above 1e-10 (relative) in the result signals an
    inconsistent tensor and raises."""
    t4 = np.asarray(t4, dtype=complex)
    if t4.shape != (3, 3, 3, 3):
        raise ValueError(f"tensor components must be 3x3x3x3, got shape {t4.shape}")
    t = np.einsum("rca,sdb,abcd->rs", GELL_MANN, GELL_MANN, t4) / 4.0
    scale = max(1.0, float(np.abs(t.real).max(initial=0.0)))
    if np.abs(t.imag).max() > _IMAG_RESIDUE_TOL * scale:
        raise ValueError("coefficient array carries a nonreal residue")
    return t.real


def _as_tensor(t) -> AntisymTensor:
    if isinstance(t, AntisymTensor):
        return t
    t = np.asarray(t)
    if t.shape == (8, 8):
        return to_tensor_components(t)
    raise ValueError("expected an AntisymTensor or an 8x8 coefficient array")


def project_irreducible(t) -> IrreducibleParts:
    """Split an antisymmetric tensor into its irreducible pieces:

    ``W^{abc} = eps^{ade} T^{bc}_{de} + eps^{bde} T^{ca}_{de} + eps^{cde} T^{ab}_{de}``
    (fully symmetric), the conjugate form for ``Wbar``, and the octet
    ``X^a_b = i T^{ac}_{cb}`` returned in components ``X_r = Tr(X l_r)/2``.
    """
    t4 = _as_tensor(t).tensor
    w = (
        np.einsum("ade,bcde->abc", LEVI_CIVITA, t4)
        + np.einsum("bde,cade->abc", LEVI_CIVITA, t4)
        + np.einsum("cde,abde->abc", LEVI_CIVITA, t4)
    )
    wbar = (
        np.einsum("ade,debc->abc", LEVI_CIVITA, t4)
        + np.einsum("bde,deca->abc", LEVI_CIVITA, t4)
        + np.einsum("cde,deab->abc", LEVI_CIVITA, t4)
    )
    x_mat = 1j * np.einsum("accb->ab", t4)
    return IrreducibleParts(w, wbar, octet_components(x_mat))


def octet_from_coefficients(t_rs) -> np.ndarray:
    """Shortcut for the octet piece straight from the coefficient array:
    ``X_r = -f_rst T_st``.  Agrees with the 4-index route."""
    t = np.asarray(t_rs, dtype=float)
    return -np.einsum("rst,st->r", F_CONST, t)


def _require_symmetric3(w: np.ndarray, name: str) -> None:
    scale = max(1.0, float(np.abs(w).max(initial=0.0)))
    for perm in [(0, 2, 1), (1, 0, 2), (2, 1, 0)]:
        if np.abs(w - w.transpose(perm)).max() > 1e-10 * scale:
            raise ValueError(f"{name} must be fully symmetric in its indices")


def reconstitute(parts: IrreducibleParts) -> AntisymTensor:
    """Reassemble the tensor from its irreducible pieces (see module
    docstring for the formula); inverse of ``project_irreducible``."""
    w = np.asarray(parts.decouplet, dtype=complex)
    wbar = np.asarray(parts.antidecouplet, dtype=complex)
    _require_symmetric3(w, "decouplet")
    _require_symmetric3(wbar, "antidecouplet")
    x_mat = octet_matrix(parts.octet).astype(complex)
    ident = np.eye(3)
    t4 = (
        np.einsum("cde,abe->abcd", LEVI_CIVITA, w) / 6.0
        + np.einsum("abe,cde->abcd", LEVI_CIVITA, wbar) / 6.0
        + (1j / 3.0)
        * (
            np.einsum("ad,bc->abcd", ident, x_mat)
            - np.einsum("bc,ad->abcd", ident, x_mat)
        )
    )
    return AntisymTensor(from_tensor_components(t4), t4)


def _require_rest_frame(xi) -> np.ndarray:
    xi = np.asarray(xi, dtype=float)
    if xi.shape != (8,):
        raise ValueError(f"octet vectors have 8 components, got shape {xi.shape}")
    scale = max(1.0, float(np.linalg.norm(xi)))
    off = np.abs(xi[[0, 1, 3, 4, 5, 6]]).max()
    if off > 1e-12 * scale:
        raise ValueError("rest-frame vectors have only components 3 and 8 nonzero")
    slack = 1e-12 * scale
    if not (xi[7] >= xi[2] / np.sqrt(3.0) - slack and xi[2] >= -slack):
        raise ValueError("rest-frame vectors must satisfy xi8 >= xi3/sqrt(3) >= 0")
    return xi


def _pair_sum(level: int, gaps: tuple, numerators: tuple, factors=(1.0, 1.0, 1.0)) -> float:
    """``sum_bc w_bc n_bc / (f_bc E_bc^2)`` over the level's two pairs of nonzero weight."""
    (_, first), (_, second) = _pair_terms(level, gaps, numerators, factors)
    return first + second


def decouplet_weight(level: int, e12, e23):
    """Scalar weight ``w13/E13^2 - w12/E12^2 - w23/E23^2`` of the decouplet
    piece of the level-``a`` curvature, ``w_bc = p_b - p_c`` its pair weights:
    ``v1 = 1/E13^2 - 1/E12^2``, ``v2 = 1/E12^2 - 1/E23^2``,
    ``v3 = 1/E23^2 - 1/E13^2``; they sum to zero.  Takes gaps or arrays of
    them.  ``ValueError`` if ``level`` is not 1, 2 or 3, checked first, if a
    gap is not positive and finite, or if a squared gap that the level reads
    overflows or underflows to zero, or a term is past the float range."""
    level = check_level(level)
    for name, gaps in (("e12", e12), ("e23", e23)):
        for gap in np.ravel(gaps).tolist():
            check_positive(name, gap)
    try:  # arithmetic errors of floats and, raised here, of numpy
        with np.errstate(over="raise", divide="raise"):
            return _pair_sum(level, (e12, e12 + e23, e23), (-1.0, 1.0, -1.0))
    except ArithmeticError:
        raise ValueError("a squared gap is outside the float range") from None


def octet_coefficients(level: int, rest_xi,
                       tol: float = DEFAULT_CLASSIFY_TOL) -> tuple[float, float]:
    """Coefficients (lambda, mu) expanding the curvature's octet piece over
    the rest-frame pair ``{xi, eta = xi * xi}``:

        ``X^(a) = [xi3 (xi3^2 - 3 xi8^2)]^(-1) (lambda^(a) xi + mu^(a) eta)``

    with the prefactor identically equal to ``-1/(4 E12 E13 E23)``, each a
    pair sum as in ``decouplet_weight``.  The expansion is frame-covariant,
    so the same scalars apply to a general ``xi`` with ``eta = xi * xi``.

    ``lambda`` is of degree 0 in ``rest_xi``, ``mu`` of degree -1.

    Raises
    ------
    ValueError
        If ``level`` is not 1, 2 or 3 (checked first), ``rest_xi`` is not a
        rest-frame vector, or ``tol`` is not positive and finite.
    DegenerateInput
        When the spectrum is not generic (the prefactor is singular).
    """
    level = check_level(level)
    c, s, _ = _point(_require_rest_frame(rest_xi), tol, "octet_coefficients")
    if s.degeneracy is not DegeneracyClass.GENERIC:
        raise DegenerateInput("octet coefficients are singular at degeneracies")
    x3, x8 = c.u[2], c.u[7]
    eta = _star(c.u, c.u)
    eta3, eta8 = eta[2], eta[7]
    s3 = np.sqrt(3.0)
    gaps, factors = (s.e12, s.e13, s.e23), (1.0, 2.0, 2.0)
    lam = _pair_sum(level, gaps, (-eta8, s3 * eta3 - eta8, s3 * eta3 + eta8), factors)
    mu = _pair_sum(level, gaps, (x8, x8 - s3 * x3, -(x8 + s3 * x3)), factors)
    return float(lam), float(c.scaled(("octet coefficient mu", mu, -1))[0])


def delta_tensors(xi, tol: float = DEFAULT_CLASSIFY_TOL) -> DecoupletField:
    """Transport the rest-frame decouplet to the frame of ``xi``:
    ``Delta^{abc} = A^a_d A^b_e A^c_f delta^{def}`` with ``A`` the
    diagonalizer, and the conjugate transport for the antidecouplet.

    Independent of the residual torus gauge: a right torus factor multiplies
    each term by a unit phase of total charge zero.  Raises as
    ``spectrum.diagonalizer`` does.
    """
    return _decouplet_field(diagonalizer(xi, tol))


def _decouplet_field(a: np.ndarray) -> DecoupletField:
    rest = REST_DECOUPLET.astype(complex)
    dec = np.einsum("ad,be,cf,def->abc", a, a, a, rest)
    bar = np.einsum("ad,be,cf,def->abc", a.conj(), a.conj(), a.conj(), rest)
    return DecoupletField(dec, bar)


def curvature_from_parts(xi, level: int, tol: float = DEFAULT_CLASSIFY_TOL) -> CurvatureTwoForm:
    """Assemble the level-``a`` curvature from its irreducible pieces.

    The octet piece is evaluated in closed form,
    ``X^(a)(xi) = -(lambda^(a) xi + mu^(a) eta) / (4 E12 E13 E23)``, the
    decouplet pieces are ``i v^(a) Delta(xi)`` and its conjugate, and the
    pieces are reassembled and converted back to coefficients.  Agrees with
    the spectral and transported routes.  Raises as
    ``curvature.curvature_spectral`` does.
    """
    level = check_level(level)
    c, s, a = _point(xi, tol, "curvature_from_parts", (1, 2, 3))
    xi, a_mat = c.u, _fix_gauge(a)
    e12, e23, e13 = s.e12, s.e23, s.e13
    lam, mu = octet_coefficients(level, _rest_from_levels(s.energies), tol)
    prefactor = -1.0 / (4.0 * e12 * e13 * e23)
    x = prefactor * (lam * xi + mu * _star(xi, xi))
    v = decouplet_weight(level, e12, e23)
    field_ = _decouplet_field(a_mat)
    parts = IrreducibleParts(
        1j * v * field_.decouplet, -1j * v * field_.antidecouplet, x
    )
    return _form(c, level, reconstitute(parts).coefficients)
