"""su3holo: closed-form spectra, adjoint-orbit geometry and geometric-phase
curvature for three-level Hamiltonians on the eight-dimensional octet
parameter space.

Importing the package loads none of its submodules.  The names below, and
the submodules themselves (``su3holo.spectrum`` and so on), resolve on
first attribute access: the home module is imported then and the value is
kept in the package namespace, so each submodule is loaded only when used."""

from importlib import import_module as _import_module

__version__ = "0.1.0"
SCHEMA = "su3holo/1"  # the JSON schema tag of CLI output and job descriptors

# home submodule -> the public names the package re-exports from it
_EXPORTS = {
    "algebra": "GELL_MANN CoordinateForm adjoint_matrix cubic_invariant from_coordinates "
               "gellmann invariants matrix_to_octet octet_star octet_to_matrix octet_wedge "
               "quadratic_invariant structure_constants to_coordinates",
    "curvature": "CurvatureTwoForm curvature_rest_frame curvature_spectral curvature_transported "
                 "level_sum symplectic_two_form_fd weighted_sum",
    "errors": "DegenerateInput UnderResolvedPath",
    "holonomy": "LoopPath SurfacePatch circle_loop loop_phase phase_sum_rule_check "
                "spherical_patch surface_flux",
    "kinematics": "OrbitDescriptor hermitian orbit_type",
    "limits": "GapAsymptotic SingularExpansion gap_asymptotic monopole_flux singular_expansion",
    "orbits": "OrbitInvariants orbit_invariants orbit_metric_eval symplectic_eval "
              "symplectic_kernel_dim",
    "spectrum": "DEFAULT_CLASSIFY_TOL DegeneracyClass SpectralData classify diagonalizer "
                "eigenvalues energy_gaps energy_levels octet_norm phase_angle rest_frame",
    "tensors": "AntisymTensor DecoupletField IrreducibleParts curvature_from_parts "
               "decouplet_weight delta_tensors from_tensor_components octet_coefficients "
               "octet_components octet_from_coefficients octet_matrix project_irreducible "
               "reconstitute to_tensor_components",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted([*_EXPORTS, *_HOME])


def __getattr__(name):
    if name in _EXPORTS:
        # importing a submodule binds it in this namespace
        return _import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
