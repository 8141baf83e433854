"""Acceptance suite: one test per criterion, each printing a pass/fail line
(run with ``pytest tests/test_acceptance.py -v -s``)."""
import time
from pathlib import Path

import numpy as np

from helpers import planar_grid, random_generic_octet, wrap_angle
from su3holo import selfcheck
from su3holo.algebra import octet_to_matrix, structure_constants
from su3holo.curvature import (
    curvature_spectral,
    curvature_transported,
    level_sum,
    symplectic_two_form_fd,
    weighted_sum,
)
from su3holo.holonomy import LoopPath, SurfacePatch, loop_phase, phase_sum_rule_check, spherical_patch, surface_flux
from su3holo.limits import gap_asymptotic, monopole_flux
from su3holo.spectrum import energy_levels
from su3holo.tensors import curvature_from_parts, project_irreducible, reconstitute

rng = np.random.default_rng(20240817)
TWO_PI = 2 * np.pi


def _report(criterion: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def _random_rest_frames(count):
    e12 = rng.uniform(0.3, 1.5, size=count)
    e23 = rng.uniform(0.3, 1.5, size=count)
    xis = np.zeros((count, 8))
    xis[:, 2] = e12
    xis[:, 7] = (e12 + 2 * e23) / np.sqrt(3)
    return xis, e12, e23


def _rest_table(e12, e23, level):
    e13 = e12 + e23
    v = np.zeros((8, 8))
    if level == 1:
        v[0, 1], v[3, 4] = 1 / (2 * e12**2), 1 / (2 * e13**2)
    elif level == 2:
        v[0, 1], v[5, 6] = -1 / (2 * e12**2), 1 / (2 * e23**2)
    else:
        v[3, 4], v[5, 6] = -1 / (2 * e13**2), -1 / (2 * e23**2)
    return v - v.T


def test_criterion_01_structure_constant_fidelity():
    start = time.perf_counter()
    f, d = structure_constants()
    f_table = {(1, 2, 3): 1.0, (4, 5, 8): np.sqrt(3) / 2, (6, 7, 8): np.sqrt(3) / 2,
               (1, 4, 7): 0.5, (2, 4, 6): 0.5, (2, 5, 7): 0.5, (3, 4, 5): 0.5,
               (5, 1, 6): 0.5, (6, 3, 7): 0.5}
    d_table = {(1, 1, 8): 3**-0.5, (2, 2, 8): 3**-0.5, (3, 3, 8): 3**-0.5,
               (8, 8, 8): -(3**-0.5), (4, 4, 8): -0.5 * 3**-0.5,
               (5, 5, 8): -0.5 * 3**-0.5, (6, 6, 8): -0.5 * 3**-0.5,
               (7, 7, 8): -0.5 * 3**-0.5, (1, 4, 6): 0.5, (1, 5, 7): 0.5,
               (2, 4, 7): -0.5, (2, 5, 6): 0.5, (3, 4, 4): 0.5, (3, 5, 5): 0.5,
               (3, 6, 6): -0.5, (3, 7, 7): -0.5}
    worst = max(
        max(abs(f[k[0] - 1, k[1] - 1, k[2] - 1] - v) for k, v in f_table.items()),
        max(abs(d[k[0] - 1, k[1] - 1, k[2] - 1] - v) for k, v in d_table.items()),
    )
    elapsed = time.perf_counter() - start
    _report(
        "criterion 1 (structure-constant fidelity)",
        worst <= 1e-14 and elapsed < 1.0,
        f"max table deviation {worst:.2e}, {elapsed:.3f}s",
    )


def test_criterion_02_spectral_closed_form():
    start = time.perf_counter()
    n = 10_000
    scales = 10.0 ** rng.uniform(-3, 3, size=n)
    xis = rng.standard_normal((n, 8)) * scales[:, None]
    closed = energy_levels(xis)
    dense = np.linalg.eigvalsh(octet_to_matrix(xis))[..., ::-1]
    worst = float((np.abs(closed - dense).max(axis=1) / np.linalg.norm(xis, axis=1)).max())
    elapsed = time.perf_counter() - start
    _report(
        "criterion 2 (spectral closed form)",
        worst < 1e-10 and elapsed < 10.0,
        f"10^4 points over |xi| in [1e-3, 1e3], max scaled error {worst:.2e}, {elapsed:.2f}s",
    )


def test_criterion_03_rest_frame_curvature_table():
    xis, e12s, e23s = _random_rest_frames(100)
    worst_rel, worst_zero = 0.0, 0.0
    for xi, e12, e23 in zip(xis, e12s, e23s):
        for level in (1, 2, 3):
            got = curvature_spectral(xi, level).coeffs
            want = _rest_table(e12, e23, level)
            mask = want != 0.0
            worst_rel = max(worst_rel, float(np.abs((got - want)[mask]).max() / np.abs(want).max()))
            worst_zero = max(worst_zero, float(np.abs(got[~mask]).max()))
    _report(
        "criterion 3 (rest-frame curvature table)",
        worst_rel < 1e-10 and worst_zero < 1e-12,
        f"100 rest-frame points: max rel dev {worst_rel:.2e}, max listed zero {worst_zero:.2e}",
    )


def test_criterion_04_three_route_equivalence():
    start = time.perf_counter()
    worst = 0.0
    for _ in range(500):
        xi = random_generic_octet(rng)
        for level in (1, 2, 3):
            a = curvature_spectral(xi, level).coeffs
            b = curvature_transported(xi, level).coeffs
            c = curvature_from_parts(xi, level).coeffs
            scale = np.abs(a).max()
            worst = max(worst, float(np.abs(a - b).max() / scale),
                        float(np.abs(a - c).max() / scale))
    elapsed = time.perf_counter() - start
    _report(
        "criterion 4 (three-route equivalence)",
        worst < 1e-9 and elapsed < 60.0,
        f"500 points x 3 levels: max rel deviation {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_05_decomposition_round_trip():
    worst_rt = 0.0
    for r in range(8):
        for s in range(r + 1, 8):
            t = np.zeros((8, 8))
            t[r, s], t[s, r] = 1.0, -1.0
            back = reconstitute(project_irreducible(t)).coefficients
            worst_rt = max(worst_rt, float(np.abs(back - t).max()))
    xis, e12s, e23s = _random_rest_frames(50)
    worst_irr = 0.0
    for xi, e12, e23 in zip(xis, e12s, e23s):
        e13 = e12 + e23
        expected = {
            1: (1j * (1 / e13**2 - 1 / e12**2), -1 / e12**2 - 1 / (2 * e13**2),
                -np.sqrt(3) / (2 * e13**2)),
            2: (1j * (1 / e12**2 - 1 / e23**2), 1 / e12**2 + 1 / (2 * e23**2),
                -np.sqrt(3) / (2 * e23**2)),
            3: (1j * (1 / e23**2 - 1 / e13**2), 1 / (2 * e13**2) - 1 / (2 * e23**2),
                np.sqrt(3) / 2 * (1 / e13**2 + 1 / e23**2)),
        }
        for level in (1, 2, 3):
            parts = project_irreducible(curvature_spectral(xi, level).coeffs)
            w123, x3, x8 = expected[level]
            scale = max(abs(w123), abs(x3), abs(x8))
            worst_irr = max(
                worst_irr,
                abs(parts.decouplet[0, 1, 2] - w123) / scale,
                abs(parts.octet[2] - x3) / scale,
                abs(parts.octet[7] - x8) / scale,
            )
    _report(
        "criterion 5 (decomposition round trip)",
        worst_rt < 1e-12 and worst_irr < 1e-10,
        f"28-basis round trip {worst_rt:.2e}, rest-frame irreducible values {worst_irr:.2e}",
    )


def test_criterion_06_sum_rules():
    worst_zero = 0.0
    for _ in range(50):
        xi = random_generic_octet(rng)
        worst_zero = max(worst_zero, float(np.abs(level_sum(xi)).max()))
    xis, e12s, e23s = _random_rest_frames(50)
    worst_slot = 0.0
    for xi, e12, e23 in zip(xis, e12s, e23s):
        w = weighted_sum(xi)
        for slot, want in (((0, 1), 1 / (2 * e12)), ((3, 4), 1 / (2 * (e12 + e23))),
                           ((5, 6), 1 / (2 * e23))):
            worst_slot = max(worst_slot, abs(w[slot] - want) / abs(want))
    worst_fd = 0.0
    for _ in range(10):
        xi = random_generic_octet(rng, margin=0.15)
        w = weighted_sum(xi)
        fd = symplectic_two_form_fd(xi)
        worst_fd = max(worst_fd, float(np.abs(w - fd).max() / np.abs(w).max()))
    _report(
        "criterion 6 (sum rules)",
        worst_zero < 1e-10 and worst_slot < 1e-10 and worst_fd < 1e-5,
        f"level sum {worst_zero:.2e}, rest slots {worst_slot:.2e}, "
        f"finite-difference symplectic {worst_fd:.2e}",
    )


def test_criterion_07_monopole_limit():
    delta = 1e-3
    xi = np.zeros(8)
    xi[2], xi[7] = delta, 1.0
    v1 = curvature_spectral(xi, 1).coeffs
    slot12 = float(v1[0, 1]) * delta**2
    slot45 = abs(float(v1[3, 4])) * delta**2
    slot67 = abs(float(v1[5, 6])) * delta**2
    _report(
        "criterion 7 (monopole limit)",
        0.495 <= slot12 <= 0.505 and slot45 < 1e-3 and slot67 < 1e-3,
        f"V12*d^2 = {slot12:.6f}, |V45|*d^2 = {slot45:.2e}, |V67|*d^2 = {slot67:.2e}",
    )


def test_criterion_08_flux_quantization():
    e8 = np.zeros(8)
    e8[7] = 1.0
    f1 = monopole_flux(e8, 1e-3, 1)
    f2 = monopole_flux(e8, 1e-3, 2)
    f3 = monopole_flux(e8, 1e-3, 3)
    center = random_generic_octet(rng, margin=0.25)
    center /= np.linalg.norm(center)
    closed = spherical_patch(center, np.eye(8)[[0, 3, 5]], 0.02, (0.0, np.pi), (101, 201))
    generic_flux = max(abs(surface_flux(closed, a)) for a in (1, 2, 3))
    ok = (abs(abs(f1) - TWO_PI) < 0.01 * TWO_PI
          and abs(abs(f2) - TWO_PI) < 0.01 * TWO_PI
          and abs(f3) < 1e-3 and generic_flux < 1e-4)
    _report(
        "criterion 8 (flux quantization)",
        ok,
        f"|flux|/2pi = {abs(f1)/TWO_PI:.5f}, {abs(f2)/TWO_PI:.5f}; "
        f"level 3 {abs(f3):.1e}; closed generic surface {generic_flux:.1e}",
    )


def test_criterion_09_stokes_and_holonomy():
    worst_stokes, worst_sum = 0.0, 0.0
    for k in range(50):
        center = random_generic_octet(rng, margin=0.25)
        center /= np.linalg.norm(center)
        basis = np.linalg.qr(rng.standard_normal((8, 2)))[0].T
        patch = SurfacePatch(planar_grid(center, basis, 0.05, (201, 201)))
        level = 1 + (k % 3)
        flux = surface_flux(patch, level)
        phase = loop_phase(patch.boundary(), level)
        worst_stokes = max(worst_stokes, abs(wrap_angle(phase - flux)))
        if k % 10 == 0:
            _, total = phase_sum_rule_check(patch.boundary())
            worst_sum = max(worst_sum, abs(total))
    theta0 = 0.8
    n = 2000
    angles = 2 * np.pi * np.arange(n) / n
    pts = np.zeros((n, 8))
    pts[:, 7] = 1.0
    pts[:, 0] = 1e-3 * np.sin(theta0) * np.cos(angles)
    pts[:, 1] = 1e-3 * np.sin(theta0) * np.sin(angles)
    pts[:, 2] = 1e-3 * np.cos(theta0)
    solid = abs(abs(loop_phase(LoopPath(pts), 1)) - np.pi * (1 - np.cos(theta0)))
    _report(
        "criterion 9 (Stokes/holonomy consistency)",
        worst_stokes < 1e-3 and worst_sum < 1e-3 and solid < 1e-3,
        f"50 patches: max |phase - flux| {worst_stokes:.2e}; level sum {worst_sum:.2e}; "
        f"half-solid-angle deviation {solid:.2e}",
    )


def test_criterion_10_gap_asymptotics():
    delta = 1e-3
    upper = np.zeros(8)
    upper[2], upper[7] = delta, 1.0
    pred_u, act_u = gap_asymptotic(upper)
    err_u = abs(pred_u - act_u) / act_u
    lower = np.zeros(8)
    lower[2], lower[7] = np.sqrt(3) / 2 - delta, 0.5
    pred_l, act_l = gap_asymptotic(lower)
    err_l = abs(pred_l - act_l) / act_l
    _report(
        "criterion 10 (gap asymptotics)",
        err_u < 0.01 and err_l < 0.01,
        f"relative error {err_u:.2e} near the upper surface, {err_l:.2e} near the lower",
    )


def test_criterion_11_pinned_identity_selfcheck():
    results = selfcheck.run_all(seed=3)
    by_name = {r.name: r for r in results}
    identity_checks = ("determinant_identity", "rest_frame_identity")
    identities_ok = all(by_name[name].passed for name in identity_checks)
    all_ok = all(r.passed for r in results)
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    documented = "12 sqrt(3)" in readme and "(E13 + E23)/sqrt(3)" in readme
    _report(
        "criterion 11 (pinned-identity selfcheck)",
        identities_ok and all_ok and documented,
        f"{sum(r.passed for r in results)}/{len(results)} selfchecks passed; "
        f"identities {'documented' if documented else 'NOT documented'} in README",
    )
