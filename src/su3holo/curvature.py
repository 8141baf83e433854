"""The three geometric-phase curvature two-forms V^(a) on octet space.

Three independent evaluation routes are provided and must agree:

* ``curvature_spectral`` applies the level's reduced resolvent to the
  images of the unit tangents, from that level's eigenvector alone,
* ``curvature_transported`` fills the closed-form rest-frame table and
  conjugates it with the adjoint image of the diagonalizer,
* ``tensors.curvature_from_parts`` reassembles the form from its
  irreducible octet/decouplet pieces.

All routes are gauge-independent: re-phasing eigenvectors changes nothing.
Each is evaluated at the unit-scaled point, by the scale rule
(``algebra._scaled``): the curvature is of degree -2.
The weighted level sum equals the orbit symplectic two-form (checked here by
central finite differences of the gauge-pinned diagonalizer), and the
unweighted level sum vanishes identically.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .algebra import _L8_11, _L8_33, GELL_MANN, adjoint_matrix
from .errors import DegenerateInput, check_level
from .spectrum import (
    DEFAULT_CLASSIFY_TOL,
    DegeneracyClass,
    SpectralData,
    _block_frames,
    _ClosedForm,
    _fix_gauge,
    _pin_gauge,
    _point,
)

__all__ = [
    "CurvatureTwoForm",
    "curvature_spectral",
    "curvature_rest_frame",
    "curvature_transported",
    "weighted_sum",
    "level_sum",
    "symplectic_two_form_fd",
]


@dataclass
class CurvatureTwoForm:
    """Level label plus the real antisymmetric coefficient array ``V_rs``;
    ``ValueError`` if the level is not 1, 2 or 3 (``errors.check_level``)
    or the array is not 8 x 8 with finite entries."""

    level: int
    coeffs: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.level = check_level(self.level)
        c = np.asarray(self.coeffs, dtype=float)
        if c.shape != (8, 8):
            raise ValueError(f"coefficients must be 8x8, got shape {c.shape}")
        if not np.isfinite(c).all():
            raise ValueError("CurvatureTwoForm requires finite coefficients")
        self.coeffs = (c - c.T) / 2.0  # exactly antisymmetric


# The level pairs (b, c) in gap order E12, E13, E23 with their rest-frame slots:
# every per-level closed form sums over them, weighted by p_b - p_c (p_a = 1).
_PAIRS = (((0, 1), (0, 1)), ((0, 2), (3, 4)), ((1, 2), (5, 6)))


def _pair_weights(level: int) -> tuple[float, float, float]:
    """The level's pair weights ``p_b - p_c`` in gap order: +1, 0 or -1."""
    return tuple(float((b == level - 1) - (c == level - 1)) for (b, c), _ in _PAIRS)


def _pair_terms(level: int, gaps: tuple, numerators=(1.0, 1.0, 1.0), factors=(1.0, 1.0, 1.0)):
    """The level's terms ``(slot, w_bc n_bc / (f_bc E_bc^2))`` over its two pairs
    of nonzero weight, from the gaps ``(E12, E13, E23)`` or arrays of them;
    ``ValueError`` where a squared gap they read overflows or underflows to
    zero, or a term is past the float range."""
    try:
        with np.errstate(over="raise", divide="raise"):  # arrays raise as floats do
            terms = [(slot, w * n / (f * e**2)) for w, (_, slot), e, n, f
                     in zip(_pair_weights(level), _PAIRS, gaps, numerators, factors) if w]
        # a float divided by a subnormal square reads inf
        if all(isinstance(term, np.ndarray) or math.isfinite(term) for _, term in terms):
            return terms
    except ArithmeticError:
        pass
    raise ValueError("a squared gap is outside the float range")


def _resolvent(xi, e: np.ndarray, idx) -> tuple:
    """``1 / (E_ab E_ac)`` and ``2 (H + 2 E_a)`` as ``_doubled_entries``
    for level index ``idx``, or for an array of them on a trailing axis."""
    ea = e[..., idx]
    scale = 1.0 / ((ea - e[..., (idx + 1) % 3]) * (ea - e[..., (idx + 2) % 3]))
    return scale, _doubled_entries(xi, 4.0 * ea)


def _image(ma: list, a: list, shifted: tuple) -> list:
    """``4 E_ab E_ac S_a M(t) a`` from the components ``ma`` of ``2 M(t) a``,
    which it overwrites, the level's unit eigenvector ``a`` and ``shifted``
    from ``_resolvent``, each as three components of the broadcast shape.

    ``S_a = (1 - P_a)(H + 2 E_a) / (E_ab E_ac)`` is the reduced resolvent
    (``M = octet_to_matrix``): the levels sum to zero, so it maps each other
    eigenvector ``|b>`` to ``|b> / E_ab``, and
    ``du_r V_rs dv_s = 2 Im <S_a M(du) a | S_a M(dv) a>`` (Mukunda & Simon,
    Ann. Phys. 228, 205 (1993)).  No matrix array is formed."""
    overlap = a[0].conj() * ma[0]
    overlap += a[1].conj() * ma[1]
    overlap += a[2].conj() * ma[2]
    for xk, ak in zip(ma, a):
        xk -= ak * overlap
    return _apply(shifted, ma)


def _flux_density(xi: np.ndarray, e: np.ndarray, a: np.ndarray, du: np.ndarray,
                  dv: np.ndarray, level: int) -> np.ndarray:
    """``du_r V_rs dv_s`` of one level from octet vectors (..., 8), their
    levels (..., 3), the level's unit eigenvector ``a`` (..., 3) and
    tangents (..., 8), shape (...): ``M(t) a`` summed entry by entry from
    the tangents' components, the images contracted, scaled by
    ``1 / (E_ab E_ac)`` twice and divided by 16 (each image carries 4)."""
    a = [a[..., i] for i in range(3)]
    scale, shifted = _resolvent(xi, e, level - 1)
    u = _image(_apply(_doubled_entries(du), a), a, shifted)
    v = _image(_apply(_doubled_entries(dv), a), a, shifted)
    im = (u[0].conj() * v[0]).imag
    im += (u[1].conj() * v[1]).imag
    im += (u[2].conj() * v[2]).imag
    im *= scale  # scaled in two steps, so neither overflows where the result does not
    im *= scale
    im /= 8.0
    return im


def _tables(xi: np.ndarray, e: np.ndarray, a: np.ndarray, idx) -> np.ndarray:
    """``V_rs`` at one octet vector with levels ``e`` (3,), from the images
    of the unit tangents (``2 M(e_r)`` is ``lambda_r``), for level index
    ``idx`` and its eigenvector ``a`` (3,), shape (8, 8).  In one pass, for
    an array of level indices and their columns ``a`` (3, k), (k, 8, 8); or
    for points (n, 8) with levels (n, 3) and columns ``a`` (3, n), (n, 8, 8),
    each table the same bit for bit as the point's own."""
    scale, shifted = _resolvent(xi, e, idx)
    images = _image(list(np.swapaxes(GELL_MANN @ a, 0, 1)), list(a), shifted)
    # ([level or point,] tangent, component), each image scaled once by 1 / (E_ab E_ac)
    g = np.array(images).T * np.asarray(scale)[..., None, None]
    return (g.conj() @ np.swapaxes(g, -1, -2)).imag / 8.0


def _doubled_entries(x: np.ndarray, shift=0.0) -> tuple:
    # 2 octet_to_matrix(x) + shift for octet vectors x (..., 8), as its
    # diagonal and its lower entries (1,0), (2,0), (2,1), each of shape (...).
    # The lower entries x1 + i x2, x4 + i x5, x6 + i x7 are views of x, each
    # pair of components read as one complex number.
    x = np.ascontiguousarray(x, dtype=float)
    x3, x8 = x[..., 2], x[..., 7]
    d8 = x8 * _L8_11 + shift
    lower = tuple(x[..., k:k + 2].view(complex)[..., 0] for k in (0, 3, 5))
    return (d8 + x3, d8 - x3, x8 * _L8_33 + shift), lower


def _apply(entries: tuple, v: list) -> list:
    # the Hermitian matrix given by its diagonal and lower entries, applied
    # to the vector v, as three components
    (d0, d1, d2), (l10, l20, l21) = entries
    y0 = d0 * v[0]
    y0 += l10.conj() * v[1]
    y0 += l20.conj() * v[2]
    y1 = l10 * v[0]
    y1 += d1 * v[1]
    y1 += l21.conj() * v[2]
    y2 = l20 * v[0]
    y2 += l21 * v[1]
    y2 += d2 * v[2]
    return [y0, y1, y2]


def curvature_spectral(xi, level: int, tol: float = DEFAULT_CLASSIFY_TOL) -> CurvatureTwoForm:
    """Spectral-route curvature

        ``V_rs = (1/4) Im sum_{b != a} [<a|l_r|b><b|l_s|a> - (r <-> s)] / E_ab^2``

    evaluated through the reduced resolvent from the level's closed-form
    eigenvector alone (``_tables``).  The value is independent of the
    eigenvector gauge.

    Raises
    ------
    ValueError
        If ``level`` is not 1, 2 or 3 or ``tol`` is not positive and finite,
        checked first, or ``xi`` has a non-finite component.
    DegenerateInput
        If ``xi`` is not Generic at ``tol``."""
    return _spectral(xi, level, tol)[2]


def _spectral(xi, level: int, tol: float) -> tuple[_ClosedForm, SpectralData, CurvatureTwoForm]:
    # curvature_spectral with the point's closed form and unit-scale record
    level = check_level(level)
    c, s, a = _point(xi, tol, "curvature_spectral", (level,))
    return c, s, _form(c, level, _tables(c.u, s.energies, a[:, 0], level - 1))


def _form(c: _ClosedForm, level: int, coeffs: np.ndarray) -> CurvatureTwoForm:
    # the two-form of coefficients at the unit-scaled point, scaled back
    form = CurvatureTwoForm(level, coeffs)
    form.coeffs = c.scaled(("curvature", form.coeffs, -2))[0]
    return form


def curvature_rest_frame(spectral: SpectralData, level: int) -> CurvatureTwoForm:
    """Closed-form rest-frame curvature table.

    The only independent nonvanishing entries sit at slots (1,2), (4,5),
    (6,7); the slots (3,8) allowed by torus invariance are identically zero.

    ========  ============   ============   ============
    level     V_12           V_45           V_67
    ========  ============   ============   ============
    1          1/(2 E12^2)    1/(2 E13^2)   0
    2         -1/(2 E12^2)   0               1/(2 E23^2)
    3         0              -1/(2 E13^2)   -1/(2 E23^2)
    ========  ============   ============   ============

    ``ValueError`` if ``level`` is not 1, 2 or 3, checked first;
    ``DegenerateInput`` if the spectrum is not Generic; ``ValueError`` as
    ``tensors.decouplet_weight`` raises for a gap outside the float range.
    """
    level = check_level(level)
    if spectral.degeneracy is not DegeneracyClass.GENERIC:
        raise DegenerateInput(
            f"rest-frame table requires nonzero gaps, got {spectral.degeneracy.value}"
        )
    v = np.zeros((8, 8))
    for slot, term in _pair_terms(level, (spectral.e12, spectral.e13, spectral.e23),
                                  factors=(2.0, 2.0, 2.0)):
        v[slot] = term
    return CurvatureTwoForm(level, v - v.T)


def curvature_transported(xi, level: int, tol: float = DEFAULT_CLASSIFY_TOL) -> CurvatureTwoForm:
    """Adjoint transport of the rest-frame table:
    ``V(xi) = D(A(xi)) V(rest) D(A(xi))^T``.

    Well defined despite the residual torus gauge freedom of the
    diagonalizer (the rest-frame table is torus-invariant), and equal to
    the spectral route.  Raises as ``curvature_spectral`` does, and
    ``DegenerateInput`` where the frame is too near a degeneracy to be unitary to 1e-8."""
    level = check_level(level)
    c, s, a = _point(xi, tol, "curvature_transported", (1, 2, 3))
    v0 = curvature_rest_frame(s, level)
    try:
        d = adjoint_matrix(_fix_gauge(a))
    except ValueError:
        raise DegenerateInput("curvature_transported: the frame is not unitary to 1e-8 "
                              "this close to a degeneracy") from None
    return _form(c, level, d @ v0.coeffs @ d.T)


def _all_levels(xi, tol: float, caller: str) -> tuple[_ClosedForm, SpectralData, np.ndarray]:
    c, s, a = _point(xi, tol, caller, (1, 2, 3))
    return c, s, _tables(c.u, s.energies, a, np.arange(3))


def weighted_sum(xi, tol: float = DEFAULT_CLASSIFY_TOL) -> np.ndarray:
    """Energy-weighted level sum ``sum_a E_a V^(a)(xi)`` as an 8 x 8 array.

    In the rest frame its independent nonzero entries are ``1/(2 E12)``,
    ``1/(2 E13)``, ``1/(2 E23)`` at slots (1,2), (4,5), (6,7); in general
    it equals the orbit symplectic two-form (see
    ``symplectic_two_form_fd``).  Evaluated as ``sum_a (E_a - E_2) V^(a)``
    (the ``V^(a)`` sum to zero): near a cone only one of the two forms that
    carry the small gap's error then enters, weighted by the small gap.
    Of degree -1.  ``ValueError`` if ``tol`` is not positive and finite,
    ``DegenerateInput`` if ``xi`` is not Generic."""
    c, s, stack = _all_levels(xi, tol, "weighted_sum")
    return c.scaled(("weighted level sum", s.e12 * stack[0] - s.e23 * stack[2], -1))[0]


def level_sum(xi, tol: float = DEFAULT_CLASSIFY_TOL) -> np.ndarray:
    """Unweighted level sum ``sum_a V^(a)(xi)``; vanishes identically.
    Raises as ``weighted_sum`` does."""
    c, _, stack = _all_levels(xi, tol, "level_sum")
    return c.scaled(("level sum", stack.sum(axis=0), -2))[0]


def symplectic_two_form_fd(xi, step: float | None = None,
                           tol: float = DEFAULT_CLASSIFY_TOL) -> np.ndarray:
    """Coefficients of the orbit symplectic two-form at ``xi``, evaluated by
    central finite differences of the diagonalizer:

        ``S_rs = -Im Tr(H0 [theta_r, theta_s])``,
        ``theta_r = A(xi)^dagger d A / d xi_r``,  ``H0 = diag(E1, E2, E3)``.

    The sign convention is fixed so that ``S`` matches ``weighted_sum``
    (both give ``+1/(2 E12)`` at rest-frame slot (1,2)).  The diagonalizer
    gauge is pinned to the center point's pivot rows so the rule stays
    smooth across the stencil, one block of 16 points at unit scale, the
    step scaled too; of degree -1.  Default step: ``1e-5 * |xi|``; a given
    step must be nonzero and finite, also at unit scale, and ``tol``
    positive and finite (``ValueError`` otherwise).
    """
    if step is not None and not (np.isfinite(step) and step != 0):
        raise ValueError(f"step must be nonzero and finite, got {step!r}")
    c, s, a0 = _point(xi, tol, "symplectic_two_form_fd", (1, 2, 3))
    a0 = _fix_gauge(a0)
    unit_step = 1e-5 * float(c.norm) if step is None else float(c.scaled(("step", step, -1))[0])
    if unit_step == 0.0:
        raise ValueError(f"step must be nonzero and finite, got {step!r} at unit scale")
    pivots = (int(np.argmax(np.abs(a0[:, 0]))), int(np.argmax(np.abs(a0[:, 1]))))
    offsets = np.diag(np.full(8, unit_step))
    stencil = np.stack([c.u + offsets, c.u - offsets], axis=1)  # (r, +/-, 8)
    a = _pin_gauge(_block_frames(stencil, tol, "stencil passes through a degeneracy")[1], pivots)
    thetas = a0.conj().T @ ((a[:, 0] - a[:, 1]) / (2.0 * unit_step))
    prod = np.einsum("rij,sjk->rsik", thetas, thetas)
    comm = prod - prod.transpose(1, 0, 2, 3)
    form = -np.einsum("ij,rsji->rs", np.diag(s.energies), comm).imag
    return c.scaled(("symplectic two-form", form, -1))[0]
