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

The maps of arrays, ``octet_matrix``, ``octet_components``,
``to_tensor_components``, ``from_tensor_components``, ``project_irreducible``,
``octet_from_coefficients`` and ``reconstitute`` (its pieces together), are
of degree 1 in the scale rule: evaluated once at their argument over one
power of two (``algebra._unit_whole``) and scaled back
(``algebra._scale_back``); past the float range ``ValueError``, and a
non-finite entry fails first, naming the function.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import spectrum
from .algebra import F_CONST, GELL_MANN, _scale_back, _star, _unit_whole
from .curvature import CurvatureTwoForm, _block, _form, _pair_terms
from .errors import DegenerateInput, check_level, check_positive, check_within
from .spectrum import (
    DEFAULT_CLASSIFY_TOL,
    DegeneracyClass,
    _fix_gauge,
    _point,
    _rest_from_levels,
    octet_norm,
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
    (u,), k = _unit_whole("octet_matrix", x)
    return _scale_back(k, ("octet matrix", np.einsum("r,rab->ab", u, GELL_MANN), 1))[0]


def octet_components(m, tol: float = 1e-10) -> np.ndarray:
    """Inverse of ``octet_matrix``: ``X_r = Tr(X l_r)/2``.

    Rejects input whose trace exceeds ``tol`` (relative) with ``ValueError``,
    as it does a ``tol`` that is not positive and finite."""
    tol = check_positive("tol", tol)
    mat = np.asarray(m, dtype=complex)
    if mat.shape != (3, 3):
        raise ValueError(f"expected a 3x3 matrix, got shape {mat.shape}")
    (u,), k = _unit_whole("octet_components", mat)
    return _scale_back(k, ("octet vector", _octet_part(u, k, tol), 1))[0]


def _octet_part(u: np.ndarray, k: int, tol: float = 1e-10) -> np.ndarray:
    # octet_components of a matrix given at 2**-k times its scale
    size = float(np.abs(u).max())
    check_within("octet matrices must be traceless", abs(np.trace(u)), size, tol, k)
    x = np.einsum("ab,rba->r", u, GELL_MANN) / 2.0
    check_within("octet components carry a nonreal residue", float(np.abs(x.imag).max()), size,
                 _IMAG_RESIDUE_TOL, k)
    return x.real


def to_tensor_components(t_rs) -> AntisymTensor:
    """4-index tensor components of an antisymmetric coefficient array:
    ``T^{ab}_{cd} = (l_r)_{ac} (l_s)_{bd} T_rs``."""
    t = np.asarray(t_rs, dtype=float)
    if t.shape != (8, 8):
        raise ValueError(f"coefficient arrays must be 8x8, got shape {t.shape}")
    (u,), k = _unit_whole("to_tensor_components", t)
    return AntisymTensor(t, _scale_back(k, ("tensor", _tensor(u, k), 1))[0])


def _tensor(u: np.ndarray, k: int) -> np.ndarray:
    # to_tensor_components of an array given at 2**-k times its scale
    check_within("coefficient array must be antisymmetric", float(np.abs(u + u.T).max()),
                 float(np.abs(u).max()), 1e-10, k)
    return np.einsum("rac,sbd,rs->abcd", GELL_MANN, GELL_MANN, u.astype(complex))


def from_tensor_components(t4) -> np.ndarray:
    """Inverse conversion ``T_rs = (1/4) (l_r)_{ca} (l_s)_{db} T^{ab}_{cd}``.

    An imaginary residue above 1e-10 (relative) in the result signals an
    inconsistent tensor and raises."""
    t4 = np.asarray(t4, dtype=complex)
    if t4.shape != (3, 3, 3, 3):
        raise ValueError(f"tensor components must be 3x3x3x3, got shape {t4.shape}")
    (u,), k = _unit_whole("from_tensor_components", t4)
    return _scale_back(k, ("coefficient array", _coefficients(u, k), 1))[0]


def _coefficients(u: np.ndarray, k: int) -> np.ndarray:
    # from_tensor_components of tensors (..., 3, 3, 3, 3) at 2**-k times their scale
    t = np.einsum("rca,sdb,...abcd->...rs", GELL_MANN, GELL_MANN, u) / 4.0
    devs, sizes = (np.abs(p).max(axis=-1).max(axis=-1).ravel().tolist() for p in (t.imag, t.real))
    for dev, size in zip(devs, sizes):  # each tensor on its own
        check_within("coefficient array carries a nonreal residue", dev, size, _IMAG_RESIDUE_TOL, k)
    return t.real


def project_irreducible(t) -> IrreducibleParts:
    """Split an antisymmetric tensor into its irreducible pieces:

    ``W^{abc} = eps^{ade} T^{bc}_{de} + eps^{bde} T^{ca}_{de} + eps^{cde} T^{ab}_{de}``
    (fully symmetric), the conjugate form for ``Wbar``, and the octet
    ``X^a_b = i T^{ac}_{cb}`` returned in components ``X_r = Tr(X l_r)/2``.
    """
    if isinstance(t, AntisymTensor):
        (t4,), k = _unit_whole("project_irreducible", np.asarray(t.tensor, dtype=complex))
    elif np.shape(t) == (8, 8):
        (u,), k = _unit_whole("project_irreducible", np.asarray(t, dtype=float))
        t4 = _tensor(u, k)
    else:
        raise ValueError("expected an AntisymTensor or an 8x8 coefficient array")
    eps = LEVI_CIVITA
    w = (np.einsum("ade,bcde->abc", eps, t4) + np.einsum("bde,cade->abc", eps, t4)
         + np.einsum("cde,abde->abc", eps, t4))
    wbar = (np.einsum("ade,debc->abc", eps, t4) + np.einsum("bde,deca->abc", eps, t4)
            + np.einsum("cde,deab->abc", eps, t4))
    x = _octet_part(1j * np.einsum("accb->ab", t4), k)
    return IrreducibleParts(*_scale_back(k, *(("decomposition", p, 1) for p in (w, wbar, x))))


def octet_from_coefficients(t_rs) -> np.ndarray:
    """Shortcut for the octet piece straight from the coefficient array:
    ``X_r = -f_rst T_st``.  Agrees with the 4-index route."""
    (u,), k = _unit_whole("octet_from_coefficients", np.asarray(t_rs, dtype=float))
    return _scale_back(k, ("octet vector", -np.einsum("rst,st->r", F_CONST, u), 1))[0]


def reconstitute(parts: IrreducibleParts) -> AntisymTensor:
    """Reassemble the tensor from its irreducible pieces (see module
    docstring for the formula); inverse of ``project_irreducible``.  The
    pieces are scaled together, by one power of two."""
    x = np.asarray(parts.octet, dtype=float)
    if x.shape != (8,):
        raise ValueError(f"octet vectors have 8 components, got shape {x.shape}")
    (w, wbar, x), k = _unit_whole("reconstitute", np.asarray(parts.decouplet, dtype=complex),
                                  np.asarray(parts.antidecouplet, dtype=complex), x)
    for piece, name in ((w, "decouplet"), (wbar, "antidecouplet")):
        swaps = [piece - piece.transpose(perm) for perm in [(0, 2, 1), (1, 0, 2), (2, 1, 0)]]
        check_within(f"{name} must be fully symmetric in its indices",
                     float(np.abs(swaps).max()), float(np.abs(piece).max()), 1e-10, k)
    t4 = _assemble(w, wbar, x)
    return AntisymTensor(*_scale_back(k, ("tensor", _coefficients(t4, k), 1), ("tensor", t4, 1)))


def _assemble(w: np.ndarray, wbar: np.ndarray, x: np.ndarray) -> np.ndarray:
    # the module docstring's T^{ab}_{cd} (...), linear in the three pieces (...) together
    x_mat, ident = np.einsum("...r,rab->...ab", x, GELL_MANN), np.eye(3)
    return (np.einsum("cde,...abe->...abcd", LEVI_CIVITA, w) / 6.0
            + np.einsum("abe,...cde->...abcd", LEVI_CIVITA, wbar) / 6.0
            + (1j / 3.0) * (np.einsum("ad,...bc->...abcd", ident, x_mat)
                            - np.einsum("bc,...ad->...abcd", ident, x_mat)))


def _require_rest_frame(xi) -> None:
    # a single octet vector, checked as such by _point
    quarter = np.asarray(xi, dtype=float) / 4.0  # whose norm is in the float range
    size, (x3, x8) = octet_norm(quarter), quarter[[2, 7]].tolist()
    check_within("rest-frame vectors have only components 3 and 8 nonzero",
                 max(map(abs, quarter[[0, 1, 3, 4, 5, 6]].tolist())), size, 1e-12, 2)
    check_within("rest-frame vectors must satisfy xi8 >= xi3/sqrt(3) >= 0",
                 max(x3 / math.sqrt(3.0) - x8, -x3), size, 1e-12, 2)


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
    overflows or underflows to zero, or a term is past the float range
    (``curvature._pair_terms``)."""
    level = check_level(level)
    for name, gaps in (("e12", e12), ("e23", e23)):
        for gap in np.ravel(gaps).tolist():
            check_positive(name, gap)
    with np.errstate(over="ignore"):  # inf past the range, where E12^2 and E23^2 are past it too
        e13 = e12 + e23
    return _pair_sum(level, (e12, e13, e23), (-1.0, 1.0, -1.0))


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
    c, s, _ = _point(rest_xi, tol, "octet_coefficients")
    _require_rest_frame(rest_xi)
    if s.degeneracy is not DegeneracyClass.GENERIC:
        raise DegenerateInput("octet coefficients are singular at degeneracies")
    return tuple(map(float, _octet_sums(level, c, (s.e12, s.e13, s.e23))))


def _octet_sums(level: int, c, gaps: tuple) -> tuple:
    # octet_coefficients' (lambda, mu) of the closed form c of rest-frame vectors (..., 8)
    x3, x8 = c.u[..., 2], c.u[..., 7]
    eta = _star(c.u, c.u)
    eta3, eta8 = eta[..., 2], eta[..., 7]
    s3, factors = np.sqrt(3.0), (1.0, 2.0, 2.0)
    mu = _pair_sum(level, gaps, (x8, x8 - s3 * x3, -(x8 + s3 * x3)), factors)
    return (_pair_sum(level, gaps, (-eta8, s3 * eta3 - eta8, s3 * eta3 + eta8), factors),
            c.scaled(("octet coefficient mu", mu, -1))[0])


def delta_tensors(xi, tol: float = DEFAULT_CLASSIFY_TOL) -> DecoupletField:
    """Transport the rest-frame decouplet to the frame of ``xi``:
    ``Delta^{abc} = A^a_d A^b_e A^c_f delta^{def}`` with ``A`` the
    diagonalizer, and the conjugate transport for the antidecouplet.

    Independent of the residual torus gauge: a right torus factor multiplies
    each term by a unit phase of total charge zero.  Raises as
    ``spectrum.diagonalizer`` does.
    """
    return _decouplet_field(_fix_gauge(_point(xi, tol, "delta_tensors", (1, 2, 3))[2]))


def _decouplet_field(a: np.ndarray) -> DecoupletField:
    rest = REST_DECOUPLET.astype(complex)
    dec = np.einsum("...ad,...be,...cf,def->...abc", a, a, a, rest)
    bar = np.einsum("...ad,...be,...cf,def->...abc", a.conj(), a.conj(), a.conj(), rest)
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
    return _form(c, level, _parts(level, c.u, s.energies, (s.e12, s.e13, s.e23), a, tol))


def _parts(level: int, u: np.ndarray, e: np.ndarray, gaps: tuple, a: np.ndarray, tol: float):
    """``curvature_from_parts``' coefficients (..., 8, 8) at unit-scaled points ``u`` from
    their levels, gaps and columns ``a`` (..., 3, 3), and from one ``_classified`` call
    on the rest-frame vectors: raises as ``octet_coefficients`` and ``_coefficients``."""
    r, rest_gaps, ranks = spectrum._classified(rest := _rest_from_levels(e), tol)
    spectrum._reject(rest, ranks, message="octet coefficients are singular at degeneracies")
    lam, mu = _octet_sums(level, r, (rest_gaps[..., 0], rest_gaps[..., 2], rest_gaps[..., 1]))
    lam, mu, prefactor = (np.asarray(f)[..., None] for f in
                          (lam, mu, -1.0 / (4.0 * gaps[0] * gaps[1] * gaps[2])))
    x = prefactor * (lam * u + mu * _star(u, u))
    v = np.asarray(_pair_sum(level, gaps, (-1.0, 1.0, -1.0)))[..., None, None, None]
    field_ = _decouplet_field(_fix_gauge(a))
    t4 = _assemble(1j * v * field_.decouplet, -1j * v * field_.antidecouplet, x)
    return _coefficients(t4, 0)


def _parts_batch(xis, level: int, tol: float = DEFAULT_CLASSIFY_TOL) -> np.ndarray:
    return _block(xis, level, tol, "curvature_from_parts",
                  lambda n, u, e, g, a: _parts(n, u, e, g, a, tol))
