"""Built-in invariant suite behind the ``selfcheck`` CLI subcommand.

Each check exercises one of the package's cross-validation properties
(closed forms against dense linear algebra, route equivalence, sum rules,
degeneracy limits) on seeded random data and reports pass/fail with a
one-line detail.  Two checks demonstrate numerical identities that differ
from commonly printed coefficient values and are therefore pinned here
explicitly: ``det H(0, xi) = cubic / (12 sqrt(3))`` and the rest-frame
component ``xi8 = (E13 + E23) / sqrt(3)``.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import algebra, curvature, holonomy, kinematics, limits, spectrum, tensors
from .sweep import random_generic, rest_frame_points

__all__ = ["CheckResult", "run_all"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


# Independent nonzero structure constants, 1-based indices.
F_TABLE = {
    (1, 2, 3): 1.0,
    (4, 5, 8): np.sqrt(3.0) / 2.0,
    (6, 7, 8): np.sqrt(3.0) / 2.0,
    (1, 4, 7): 0.5,
    (2, 4, 6): 0.5,
    (2, 5, 7): 0.5,
    (3, 4, 5): 0.5,
    (5, 1, 6): 0.5,
    (6, 3, 7): 0.5,
}
D_TABLE = {
    (1, 1, 8): 1.0 / np.sqrt(3.0),
    (2, 2, 8): 1.0 / np.sqrt(3.0),
    (3, 3, 8): 1.0 / np.sqrt(3.0),
    (8, 8, 8): -1.0 / np.sqrt(3.0),
    (4, 4, 8): -0.5 / np.sqrt(3.0),
    (5, 5, 8): -0.5 / np.sqrt(3.0),
    (6, 6, 8): -0.5 / np.sqrt(3.0),
    (7, 7, 8): -0.5 / np.sqrt(3.0),
    (1, 4, 6): 0.5,
    (1, 5, 7): 0.5,
    (2, 4, 7): -0.5,
    (2, 5, 6): 0.5,
    (3, 4, 4): 0.5,
    (3, 5, 5): 0.5,
    (3, 6, 6): -0.5,
    (3, 7, 7): -0.5,
}

# random points are Generic at tolerance _MARGIN; rest-frame gaps lie in _GAPS
_MARGIN = 0.05
_GAPS = (0.3, 1.5)


def _check_structure_constants() -> CheckResult:
    f, d = algebra.structure_constants()
    worst = 0.0
    for (r, s, t), val in F_TABLE.items():
        worst = max(worst, abs(f[r - 1, s - 1, t - 1] - val))
    for (r, s, t), val in D_TABLE.items():
        worst = max(worst, abs(d[r - 1, s - 1, t - 1] - val))
    worst = max(worst, float(np.abs(f + f.transpose(1, 0, 2)).max()))
    worst = max(worst, float(np.abs(d - d.transpose(0, 2, 1)).max()))
    gram = np.einsum("rij,sji->rs", algebra.GELL_MANN, algebra.GELL_MANN).real
    worst = max(worst, float(np.abs(gram - 2.0 * np.eye(8)).max()))
    return CheckResult("structure_constants", worst <= 1e-14, f"max deviation {worst:.2e}")


def _check_spectral_closed_form(rng) -> CheckResult:
    n = 2000
    scales = 10.0 ** rng.uniform(-3, 3, size=n)
    xis = rng.standard_normal((n, 8)) * scales[:, None]
    closed = spectrum.energy_levels(xis)
    dense = np.linalg.eigvalsh(algebra.octet_to_matrix(xis))[..., ::-1]
    err = np.abs(closed - dense).max(axis=1) / np.linalg.norm(xis, axis=1)
    worst = float(err.max())
    return CheckResult("spectral_closed_form", worst < 1e-10, f"max scaled error {worst:.2e}")


def _check_determinant_identity(rng) -> CheckResult:
    xis = rng.standard_normal((1000, 8))
    dets = np.linalg.det(algebra.octet_to_matrix(xis)).real
    cubic = algebra.cubic_invariant(xis)
    expected = cubic / (12.0 * np.sqrt(3.0))
    worst = float(np.abs(dets - expected).max() / max(np.abs(expected).max(), 1e-30))
    return CheckResult(
        "determinant_identity", worst < 1e-10,
        f"det H(0,xi) = cubic/(12 sqrt 3), max rel dev {worst:.2e}",
    )


def _check_rest_frame_identity(rng) -> CheckResult:
    worst = 0.0
    for xi in random_generic(rng, 200, _MARGIN):
        s = spectrum.eigenvalues(xi)
        rf = spectrum.rest_frame(xi)
        worst = max(worst, abs(rf[2] - s.e12))
        worst = max(worst, abs(rf[7] - (s.e13 + s.e23) / np.sqrt(3.0)))
        q1, c1 = algebra.invariants(xi)
        q2, c2 = algebra.invariants(rf)
        worst = max(worst, abs(q1 - q2) / max(1.0, abs(q1)))
        worst = max(worst, abs(c1 - c2) / max(1.0, abs(c1)))
    return CheckResult(
        "rest_frame_identity", worst < 1e-10,
        f"xi3 = E12, xi8 = (E13+E23)/sqrt 3, invariants kept; max dev {worst:.2e}",
    )


def _check_rest_frame_table(rng) -> CheckResult:
    worst_rel, worst_zero = 0.0, 0.0
    for xi in rest_frame_points(rng, 100, _GAPS):
        s = spectrum.eigenvalues(xi)
        for level in (1, 2, 3):
            got = curvature.curvature_spectral(xi, level).coeffs
            want = curvature.curvature_rest_frame(s, level).coeffs
            scale = np.abs(want).max()
            mask = want != 0.0
            worst_rel = max(worst_rel, float(np.abs((got - want)[mask]).max() / scale))
            worst_zero = max(worst_zero, float(np.abs(got[~mask]).max()))
    ok = worst_rel < 1e-10 and worst_zero < 1e-12
    return CheckResult(
        "rest_frame_curvature_table", ok,
        f"max rel dev {worst_rel:.2e}, max listed zero {worst_zero:.2e}",
    )


def _check_route_equivalence(rng) -> CheckResult:
    worst = 0.0
    for xi in random_generic(rng, 100, _MARGIN):
        for level in (1, 2, 3):
            a = curvature.curvature_spectral(xi, level).coeffs
            b = curvature.curvature_transported(xi, level).coeffs
            c = tensors.curvature_from_parts(xi, level).coeffs
            scale = np.abs(a).max()
            worst = max(worst, float(np.abs(a - b).max() / scale),
                        float(np.abs(a - c).max() / scale))
    return CheckResult("curvature_route_equivalence", worst < 1e-9,
                       f"max rel route deviation {worst:.2e}")


def _check_decomposition_round_trip() -> CheckResult:
    worst = 0.0
    for r in range(8):
        for s in range(r + 1, 8):
            t = np.zeros((8, 8))
            t[r, s], t[s, r] = 1.0, -1.0
            parts = tensors.project_irreducible(t)
            back = tensors.reconstitute(parts).coefficients
            worst = max(worst, float(np.abs(back - t).max()))
            shortcut = tensors.octet_from_coefficients(t)
            worst = max(worst, float(np.abs(shortcut - parts.octet).max()))
    return CheckResult("decomposition_round_trip", worst < 1e-12,
                       f"28-basis round trip, max dev {worst:.2e}")


def _check_sum_rules(rng) -> CheckResult:
    worst_zero, worst_slot, worst_fd = 0.0, 0.0, 0.0
    for xi in random_generic(rng, 20, _MARGIN):
        worst_zero = max(worst_zero, float(np.abs(curvature.level_sum(xi)).max()))
    for xi in rest_frame_points(rng, 20, _GAPS):
        s = spectrum.eigenvalues(xi)
        w = curvature.weighted_sum(xi)
        for slot, want in (((0, 1), 1 / (2 * s.e12)), ((3, 4), 1 / (2 * s.e13)),
                           ((5, 6), 1 / (2 * s.e23))):
            worst_slot = max(worst_slot, abs(w[slot] - want) / abs(want))
    for xi in random_generic(rng, 5, _MARGIN):
        w = curvature.weighted_sum(xi)
        fd = curvature.symplectic_two_form_fd(xi)
        worst_fd = max(worst_fd, float(np.abs(w - fd).max() / np.abs(w).max()))
    ok = worst_zero < 1e-10 and worst_slot < 1e-10 and worst_fd < 1e-5
    return CheckResult(
        "sum_rules", ok,
        f"level sum {worst_zero:.2e}, slots {worst_slot:.2e}, fd {worst_fd:.2e}",
    )


def _check_monopole_approach() -> CheckResult:
    delta = 1e-3
    xi = np.zeros(8)
    xi[2], xi[7] = delta, 1.0
    v1 = curvature.curvature_spectral(xi, 1).coeffs
    slot12 = v1[0, 1] * delta**2
    slot45 = abs(v1[3, 4]) * delta**2
    ok = 0.495 <= slot12 <= 0.505 and slot45 < 1e-3
    return CheckResult("monopole_approach", ok,
                       f"V12*d^2 = {slot12:.6f}, |V45|*d^2 = {slot45:.2e}")


def _check_flux_quantization() -> CheckResult:
    e8 = np.zeros(8)
    e8[7] = 1.0
    f1 = limits.monopole_flux(e8, 1e-3, 1)
    f2 = limits.monopole_flux(e8, 1e-3, 2)
    f3 = limits.monopole_flux(e8, 1e-3, 3)
    two_pi = 2.0 * np.pi
    ok = (abs(abs(f1) - two_pi) < 0.01 * two_pi
          and abs(abs(f2) - two_pi) < 0.01 * two_pi and abs(f3) < 1e-3)
    return CheckResult(
        "flux_quantization", ok,
        f"|flux|/2pi = {abs(f1)/two_pi:.4f}, {abs(f2)/two_pi:.4f}, level3 {abs(f3):.1e}",
    )


def _check_stokes(rng) -> CheckResult:
    worst, worst_sum = 0.0, 0.0
    for _ in range(5):
        center = random_generic(rng, 1, 0.25)[0]
        center /= spectrum.octet_norm(center)
        basis = np.linalg.qr(rng.standard_normal((8, 2)))[0].T
        size = 0.05

        def mapping(u, v):
            return center + size * ((u - 0.5) * basis[0] + (v - 0.5) * basis[1])

        patch = holonomy.SurfacePatch.from_function(mapping, (201, 201))
        # the three loop phases from one walk of the boundary, each equal to
        # its loop_phase bit for bit
        phases, total = holonomy.phase_sum_rule_check(patch.boundary())
        for level, phase in zip((1, 2, 3), phases):
            flux = holonomy.surface_flux(patch, level)
            worst = max(worst, abs(np.angle(np.exp(1j * (phase - flux)))))
        worst_sum = max(worst_sum, abs(total))
    ok = worst < 1e-3 and worst_sum < 1e-3
    return CheckResult("stokes_consistency", ok,
                       f"max |phase - flux| {worst:.2e}, level sum {worst_sum:.2e}")


def _check_gap_asymptotics() -> CheckResult:
    delta = 1e-3
    upper = np.zeros(8)
    upper[2], upper[7] = delta, 1.0
    pred, actual = limits.gap_asymptotic(upper)
    err_u = abs(pred - actual) / actual
    lower = np.zeros(8)
    lower[2], lower[7] = np.sqrt(3.0) / 2.0 - delta, 0.5
    pred, actual = limits.gap_asymptotic(lower)
    err_l = abs(pred - actual) / actual
    ok = err_u < 0.01 and err_l < 0.01
    return CheckResult("gap_asymptotics", ok,
                       f"rel err near upper {err_u:.2e}, near lower {err_l:.2e}")


def _check_orbit_classification(rng) -> CheckResult:
    ok = True
    generic = kinematics.orbit_type(algebra.octet_to_matrix(random_generic(rng, 1, _MARGIN)[0]))
    ok &= generic.multiplicities == (1, 1, 1) and generic.orbit_dimension == 6
    proj = np.zeros((3, 3), complex)
    proj[0, 0] = 1.0
    pure = kinematics.orbit_type(proj)
    ok &= pure.multiplicities == (2, 1) and pure.orbit_dimension == 4
    scalar = kinematics.orbit_type(2.5 * np.eye(3))
    ok &= scalar.multiplicities == (3,) and scalar.orbit_dimension == 0
    return CheckResult("orbit_classification", bool(ok),
                       "signatures (1,1,1)/(2,1)/(3,) give dims 6/4/0")


def run_all(seed: int = 0) -> list[CheckResult]:
    """Run the full invariant suite; deterministic for a given seed."""
    rng = np.random.default_rng(seed)
    return [
        _check_structure_constants(),
        _check_spectral_closed_form(rng),
        _check_determinant_identity(rng),
        _check_rest_frame_identity(rng),
        _check_rest_frame_table(rng),
        _check_route_equivalence(rng),
        _check_decomposition_round_trip(),
        _check_sum_rules(rng),
        _check_monopole_approach(),
        _check_flux_quantization(),
        _check_stokes(rng),
        _check_gap_asymptotics(),
        _check_orbit_classification(rng),
    ]


def cmd_selfcheck(args) -> dict:
    """Run the suite for ``su3holo selfcheck``: print one line per check and
    a summary, and return the JSON payload that ``--output`` writes."""
    results = run_all(args.seed)
    passed = sum(r.passed for r in results)
    for r in results:
        print(f"{'PASS' if r.passed else 'FAIL'} {r.name}: {r.detail}")
    print(f"{passed}/{len(results)} checks passed")
    return {"passed": passed, "total": len(results),
            "checks": [{"name": r.name, "passed": r.passed, "detail": r.detail}
                       for r in results]}
