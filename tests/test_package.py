"""The package root: its public names, and that they load on first use."""
import importlib

import pytest

import su3holo

# The public names of the package, by home submodule.
PUBLIC = {
    "algebra": ["GELL_MANN", "CoordinateForm", "adjoint_matrix", "cubic_invariant",
                "from_coordinates", "gellmann", "invariants", "matrix_to_octet",
                "octet_star", "octet_to_matrix", "octet_wedge", "quadratic_invariant",
                "structure_constants", "to_coordinates"],
    "curvature": ["CurvatureTwoForm", "curvature_batch", "curvature_rest_frame",
                  "curvature_spectral", "curvature_transported", "level_sum",
                  "symplectic_two_form_fd", "weighted_sum"],
    "errors": ["DegenerateInput", "UnderResolvedPath"],
    "holonomy": ["LoopPath", "SurfacePatch", "circle_loop", "flux_sum_rule_check",
                 "loop_phase", "phase_sum_rule_check", "spherical_patch", "surface_flux"],
    "kinematics": ["OrbitDescriptor", "hermitian", "orbit_type"],
    "limits": ["GapAsymptotic", "SingularExpansion", "gap_asymptotic", "monopole_flux",
               "singular_expansion"],
    "orbits": ["OrbitInvariants", "orbit_invariants", "orbit_metric_eval",
               "symplectic_eval", "symplectic_kernel_dim"],
    "spectrum": ["DEFAULT_CLASSIFY_TOL", "DegeneracyClass", "SpectralData", "classify",
                 "diagonalizer", "eigenvalues", "energy_gaps", "energy_levels",
                 "octet_norm", "phase_angle", "rest_frame"],
    "tensors": ["AntisymTensor", "DecoupletField", "IrreducibleParts",
                "curvature_from_parts", "decouplet_weight", "delta_tensors",
                "from_tensor_components", "octet_coefficients", "octet_components",
                "octet_from_coefficients", "octet_matrix", "project_irreducible",
                "reconstitute", "to_tensor_components"],
}
HOME = {name: module for module, names in PUBLIC.items() for name in [module, *names]}


def test_all_lists_the_public_names_and_submodules():
    assert len(HOME) == 79
    assert su3holo.__all__ == sorted(HOME)


@pytest.mark.parametrize("module", sorted(PUBLIC))
def test_names_are_the_objects_of_their_home_module(module):
    home = importlib.import_module(f"su3holo.{module}")
    assert getattr(su3holo, module) is home
    for name in PUBLIC[module]:
        assert getattr(su3holo, name) is getattr(home, name)
        assert vars(su3holo)[name] is getattr(home, name)  # kept after first access


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from su3holo import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == su3holo.__all__
    for name, value in namespace.items():
        assert value is getattr(su3holo, name)


def test_dir_lists_the_public_names():
    assert set(su3holo.__all__) <= set(dir(su3holo))


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        su3holo.no_such_name
    assert not hasattr(su3holo, "no_such_name")


@pytest.mark.parametrize("module", sorted(su3holo._EXPORTS))
def test_every_table_entry_exists_in_its_module(module):
    home = importlib.import_module(f"su3holo.{module}")
    missing = [n for n in su3holo._EXPORTS[module].split() if not hasattr(home, n)]
    assert missing == []
