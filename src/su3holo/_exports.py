"""The package's public-name table, loaded by ``su3holo.__getattr__`` when first it needs it."""
from importlib import import_module

# home submodule -> the public names the package re-exports from it
_EXPORTS = {
    "algebra": "GELL_MANN CoordinateForm adjoint_matrix cubic_invariant from_coordinates "
               "gellmann invariants matrix_to_octet octet_star octet_to_matrix octet_wedge "
               "quadratic_invariant structure_constants to_coordinates",
    "curvature": "CurvatureTwoForm curvature_rest_frame curvature_spectral curvature_transported "
                 "level_sum symplectic_two_form_fd weighted_sum",
    "errors": "DegenerateInput UnderResolvedPath",
    "holonomy": "LoopPath SurfacePatch circle_loop flux_sum_rule_check loop_phase "
                "phase_sum_rule_check spherical_patch surface_flux",
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


def resolve(name: str, namespace: dict):
    """The public or table name ``name``, then kept in the package ``namespace``."""
    if name in _HOME:
        namespace[name] = getattr(import_module(f"{__package__}.{_HOME[name]}"), name)
    elif name in ("_EXPORTS", "_HOME", "__all__"):
        namespace[name] = globals()[name]
    else:
        raise AttributeError(f"module {__package__!r} has no attribute {name!r}")
    return namespace[name]
