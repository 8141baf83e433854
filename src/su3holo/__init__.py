"""su3holo: closed-form spectra, adjoint-orbit geometry and geometric-phase
curvature for three-level Hamiltonians on the eight-dimensional octet
parameter space.

``import su3holo`` runs this file alone.  A submodule (``su3holo.spectrum`` and
so on) loads on first attribute access, as does ``su3holo._exports``, the table
of the other public names: each is then taken from its home module and kept here."""

from importlib import import_module as _import_module

__version__ = "0.1.0"
SCHEMA = "su3holo/1"  # the JSON schema tag of CLI output and job descriptors
_SUBMODULES = "algebra curvature errors holonomy kinematics limits orbits spectrum tensors"


def __getattr__(name):
    if name in _SUBMODULES.split():  # importing a submodule binds it in this namespace
        return _import_module(f"{__name__}.{name}")
    return _import_module(f"{__name__}._exports").resolve(name, globals())


def __dir__():
    return sorted({*globals(), *__getattr__("__all__")})
