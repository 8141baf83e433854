"""The four benchmark workloads and the oracle that checks their outputs.

A workload turns the benchmark seed into task inputs (``make``), hands those
inputs to su3holo (``run``, the only timed call), and checks the result
against an independent oracle (``check``).  The oracle uses its own
Gell-Mann basis and dense LAPACK (``numpy.linalg.eigh``), never su3holo.
Tolerances are the ones the repository's selfcheck and acceptance suite use.

Workloads and why they were chosen:

* ``sweep``    -- the row-at-a-time CLI path with its default thread pool;
  per-call overhead in cli/spectrum/curvature dominates.
* ``stokes``   -- one 201x201 planar patch per task; the batched kernels
  see 40k cell centers per call.
* ``routes``   -- the paper's cross-validation at one point per task; the
  only workload where tensors, the transported route, orbits and
  kinematics do most of the work.
* ``monopole`` -- monopole fluxes on a random cone direction; the only
  workload for limits, driving the kernels at small adaptive batch sizes.
"""
from __future__ import annotations

import csv
import io
import os
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from su3holo import algebra, cli, curvature, holonomy, kinematics, limits, orbits, tensors

TWO_PI = 2.0 * np.pi

# Bounds taken from su3holo.selfcheck and tests/test_acceptance.py.
GAP_TOL = 1e-10          # sweep gaps against eigvalsh, times |xi|
ROUTE_TOL = 1e-9         # curvature routes and the dense oracle, relative
LEVEL_SUM_TOL = 1e-10    # unweighted level sum, absolute
FD_TOL = 1e-5            # weighted sum against finite differences, relative
STOKES_TOL = 1e-3        # |phase - flux| and the three-phase sum
FLUX_REL_TOL = 0.01      # |flux| against 2 pi for levels 1 and 2
FLUX3_TOL = 1e-3         # |flux| for level 3


class CheckFailed(Exception):
    """A task's output disagrees with the oracle."""


# --------------------------------------------------------------------------
# Independent oracle: own Gell-Mann basis, dense Hermitian eigensolver.

def _gell_mann() -> np.ndarray:
    lam = np.zeros((8, 3, 3), dtype=complex)
    for k, (i, j) in enumerate([(0, 1), (0, 2), (1, 2)]):
        sym, asym = (0, 3, 5)[k], (1, 4, 6)[k]
        lam[sym, i, j] = lam[sym, j, i] = 1.0
        lam[asym, i, j], lam[asym, j, i] = -1j, 1j
    lam[2] = np.diag([1.0, -1.0, 0.0])
    lam[7] = np.diag([1.0, 1.0, -2.0]) / np.sqrt(3.0)
    return lam


GELL_MANN = _gell_mann()
# f_rst = -(i/4) Tr(l_r [l_s, l_t])
_COMM = np.einsum("sij,tjk->stik", GELL_MANN, GELL_MANN)
F_CONST = (-0.25j * np.einsum("rki,stik->rst", GELL_MANN, _COMM - _COMM.swapaxes(0, 1))).real


def to_matrix(xis) -> np.ndarray:
    """``H = (1/2) xi . lambda`` for (..., 8) octets."""
    return 0.5 * np.einsum("...r,rij->...ij", np.asarray(xis, dtype=float), GELL_MANN)


def to_octet(h) -> np.ndarray:
    """``xi_r = Tr(H lambda_r)``."""
    return np.einsum("...ij,rji->...r", h, GELL_MANN).real


def dense_frames(xis) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (descending) and eigenvector columns from LAPACK."""
    w, u = np.linalg.eigh(to_matrix(xis))
    return w[..., ::-1], u[..., :, ::-1]


def dense_gaps(xis) -> np.ndarray:
    """``(E12, E23, E13)`` from eigvalsh."""
    e = np.linalg.eigvalsh(to_matrix(xis))[..., ::-1]
    return np.stack([e[..., 0] - e[..., 1], e[..., 1] - e[..., 2], e[..., 0] - e[..., 2]], -1)


def dense_curvature(xis, level: int) -> np.ndarray:
    """``V_rs = (1/2) Im sum_{b != a} <a|l_r|b><b|l_s|a> / E_ab^2`` from eigh."""
    e, u = dense_frames(xis)
    a = level - 1
    g = np.einsum("...i,rij,...jb->...rb", u[..., :, a].conj(), GELL_MANN, u)
    gaps = e[..., a, None] - e
    w = np.where(np.arange(3) == a, 0.0, 1.0 / np.where(gaps == 0.0, 1.0, gaps) ** 2)
    return np.einsum("...rb,...b,...sb->...rs", g, w, g.conj()).imag / 2.0


def random_generic(rng, margin: float) -> np.ndarray:
    """Standard-normal octet whose gaps both exceed ``margin * |xi|``."""
    while True:
        xi = rng.standard_normal(8)
        gaps = dense_gaps(xi)
        if min(gaps[0], gaps[1]) > margin * np.linalg.norm(xi):
            return xi


def random_su3(rng) -> np.ndarray:
    """``exp(iH)`` for a random traceless Hermitian ``H`` (det 1)."""
    m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    h = (m + m.conj().T) / 2.0
    h -= np.trace(h) / 3.0 * np.eye(3)
    w, v = np.linalg.eigh(h)
    return (v * np.exp(1j * w)) @ v.conj().T


def _wrap(x: float) -> float:
    return float(np.angle(np.exp(1j * x)))


def _require(ok, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def _rel_dev(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.abs(a - b).max() / np.abs(b).max())


# --------------------------------------------------------------------------
# Workloads.

@dataclass(frozen=True)
class Workload:
    """``make(rng, index)`` builds one task's inputs from the benchmark
    seed; ``run(inputs)`` is the timed call into su3holo; ``check(inputs,
    result)`` raises CheckFailed on a wrong output; ``points(inputs)``
    counts the octet vectors the task hands in."""

    name: str
    make: Callable
    run: Callable
    check: Callable
    points: Callable
    trace_tasks: int


@dataclass(frozen=True)
class SweepTask:
    argv: list
    path: str
    level: int
    count: int


def sweep_workload(workdir: str, count: int = 1000) -> Workload:
    path = os.path.join(workdir, "sweep.csv")

    def make(rng, index):
        level = 1 + index % 3
        seed = int(rng.integers(2**31))
        argv = ["sweep", "--generator", "random", "--count", str(count),
                "--level", str(level), "--seed", str(seed), "--output", path]
        return SweepTask(argv, path, level, count)

    def run(task):
        code = cli.main(list(task.argv))
        with open(task.path, encoding="utf-8") as fh:
            return code, fh.read()

    return Workload("sweep", make, run, check_sweep, lambda task: task.count, 6)


def check_sweep(task: SweepTask, result) -> None:
    code, text = result
    _require(code == 0, f"sweep exit code {code}")
    rows = list(csv.DictReader(io.StringIO(text)))
    _require(len(rows) == task.count, f"{len(rows)} rows, expected {task.count}")
    _require([int(r["index"]) for r in rows] == list(range(task.count)), "row indices")
    _require(all(r["class"] == "generic" for r in rows), "non-generic row")
    xis = np.array([[float(r[f"xi{k}"]) for k in range(1, 9)] for r in rows])
    norms = np.linalg.norm(xis, axis=1)
    got = np.array([[float(r[c]) for c in ("e12", "e23", "e13")] for r in rows])
    gap_dev = np.abs(got - dense_gaps(xis)).max(axis=1) / norms
    _require(np.all(gap_dev <= GAP_TOL), f"gap deviation {gap_dev.max():.2e} x |xi|")
    v = dense_curvature(xis, task.level)
    scale = np.abs(v).max(axis=(1, 2))
    for col, (r, s) in (("v12", (0, 1)), ("v45", (3, 4)), ("v67", (5, 6))):
        emitted = np.array([float(row[col]) for row in rows])
        dev = np.abs(emitted - v[:, r, s]) / scale
        _require(np.all(dev <= ROUTE_TOL), f"{col} deviation {dev.max():.2e} relative")


@dataclass(frozen=True)
class StokesTask:
    center: np.ndarray
    basis: np.ndarray
    shape: tuple


def stokes_workload(grid: int = 201) -> Workload:
    size = 0.05

    def make(rng, index):
        center = random_generic(rng, margin=0.25)
        center /= np.linalg.norm(center)
        basis = np.linalg.qr(rng.standard_normal((8, 2)))[0].T
        return StokesTask(center, basis, (grid, grid))

    def run(task):
        center, b0, b1 = task.center, task.basis[0], task.basis[1]

        def mapping(u, v):
            return center + size * ((u - 0.5) * b0 + (v - 0.5) * b1)

        patch = holonomy.SurfacePatch.from_function(mapping, task.shape)
        fluxes = [holonomy.surface_flux(patch, level) for level in (1, 2, 3)]
        phases, total = holonomy.phase_sum_rule_check(patch.boundary())
        return fluxes, phases, total

    return Workload("stokes", make, run, check_stokes,
                    lambda task: task.shape[0] * task.shape[1], 4)


def check_stokes(task: StokesTask, result) -> None:
    fluxes, phases, total = result
    _require(len(fluxes) == 3 and len(phases) == 3, "three levels expected")
    for level, (flux, phase) in enumerate(zip(fluxes, phases), start=1):
        dev = abs(_wrap(phase - flux))
        _require(dev < STOKES_TOL, f"level {level}: |phase - flux| = {dev:.2e}")
    _require(abs(total) < STOKES_TOL, f"three-phase sum {total:.2e}")


def routes_workload() -> Workload:
    def make(rng, index):
        return random_generic(rng, margin=0.05)

    def run(xi):
        spectral = [curvature.curvature_spectral(xi, a).coeffs for a in (1, 2, 3)]
        transported = [curvature.curvature_transported(xi, a).coeffs for a in (1, 2, 3)]
        parts = [tensors.curvature_from_parts(xi, a).coeffs for a in (1, 2, 3)]
        return {
            "spectral": spectral,
            "transported": transported,
            "parts": parts,
            "irreducible": tensors.project_irreducible(spectral[0]),
            "weighted": curvature.weighted_sum(xi),
            "level_sum": curvature.level_sum(xi),
            "fd": curvature.symplectic_two_form_fd(xi),
            "invariants": orbits.orbit_invariants(xi),
            "orbit_type": kinematics.orbit_type(algebra.octet_to_matrix(xi)),
        }

    return Workload("routes", make, run, check_routes, lambda xi: 1, 100)


def check_routes(xi: np.ndarray, out: dict) -> None:
    dense = np.stack([dense_curvature(xi, a) for a in (1, 2, 3)])
    for a in (1, 2, 3):
        for route in ("spectral", "transported", "parts"):
            dev = _rel_dev(out[route][a - 1], dense[a - 1])
            _require(dev < ROUTE_TOL, f"level {a} {route} route deviation {dev:.2e}")
    octet = -np.einsum("rst,st->r", F_CONST, out["spectral"][0])
    dev = float(np.abs(out["irreducible"].octet - octet).max() / np.abs(octet).max())
    _require(dev < ROUTE_TOL, f"octet projection deviation {dev:.2e}")
    level_sum = float(np.abs(out["level_sum"]).max())
    _require(level_sum < LEVEL_SUM_TOL, f"level sum {level_sum:.2e}")
    dev = _rel_dev(out["fd"], out["weighted"])
    _require(dev < FD_TOL, f"weighted sum vs finite differences {dev:.2e}")
    want = np.einsum("a,ars->rs", dense_frames(xi)[0], dense)
    dev = _rel_dev(out["weighted"], want)
    _require(dev < ROUTE_TOL, f"weighted sum deviation {dev:.2e}")
    quad, cubic, dim = out["invariants"]
    h = to_matrix(xi)
    _require(abs(quad - xi @ xi) <= 1e-12 * (xi @ xi), "quadratic invariant")
    det = np.linalg.det(h).real
    _require(abs(cubic - 12.0 * np.sqrt(3.0) * det) <= 1e-10 * np.linalg.norm(xi) ** 3,
             "cubic invariant")
    _require(dim == 6, f"orbit dimension {dim}")
    kind = out["orbit_type"]
    _require(kind.multiplicities == (1, 1, 1) and kind.orbit_dimension == 6,
             f"orbit type {kind.multiplicities}")


@dataclass(frozen=True)
class MonopoleTask:
    direction: np.ndarray
    offset: np.ndarray


def monopole_workload() -> Workload:
    radius = 1e-3
    e8 = np.zeros(8)
    e8[7] = 1.0

    def make(rng, index):
        u = random_su3(rng)
        direction = to_octet(u @ to_matrix(e8) @ u.conj().T)
        offset = rng.standard_normal(3)
        offset *= rng.uniform(0.0, 1e-4) / np.linalg.norm(offset)
        return MonopoleTask(direction, offset)

    def run(task):
        return [limits.monopole_flux(task.direction, radius, level, center_offset=task.offset)
                for level in (1, 2, 3)]

    return Workload("monopole", make, run, check_monopole, lambda task: 1, 20)


def check_monopole(task: MonopoleTask, fluxes) -> None:
    f1, f2, f3 = fluxes
    for level, flux in ((1, f1), (2, f2)):
        dev = abs(abs(flux) - TWO_PI) / TWO_PI
        _require(dev < FLUX_REL_TOL, f"level {level}: |flux|/2pi - 1 = {dev:.2e}")
    _require(abs(f3) < FLUX3_TOL, f"level 3 flux {f3:.2e}")


def make_workload(name: str, workdir: str, small: bool = False) -> Workload:
    """The named workload; ``small`` shrinks the sweep, the patch and the
    traced task list for smoke tests."""
    if name == "sweep":
        return sweep_workload(workdir, count=20 if small else 1000)
    if name == "stokes":
        return stokes_workload(grid=41 if small else 201)
    if name == "routes":
        workload = routes_workload()
    elif name == "monopole":
        workload = monopole_workload()
    else:
        raise ValueError(f"unknown workload {name!r}")
    return replace(workload, trace_tasks=3) if small else workload

