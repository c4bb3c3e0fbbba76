"""Separable-state overlap and phase structure of the Dicke model.

Library layout.  A layer marked "no numpy" never imports numpy, except in
the functions named after the mark:

* ``core``      -- parameters, critical coupling/temperature, order parameter,
                   quadrature settings, bisection and golden-section
                   search (no numpy)
* ``separable`` -- the symmetry-determined product reference state (no
                   numpy but ``nearest_a``)
* ``numerics``  -- batched log-space trapezoid quadrature, eigensolvers
* ``zerotemp``  -- effective quadratic Hamiltonians, their exact Gaussian
                   ground state, overlap, purity, scaling fit, moments;
                   the truncated-Fock ground state as the tests' reference
                   (no numpy but that reference and ``scaling_fit``)
* ``thermal``   -- partition-function quadrature, thermal overlap and moments
* ``witness``   -- spin-squeezing entanglement inequalities (no numpy)
* ``oracle``    -- brute-force exact diagonalization for validation
* ``cli``       -- sweep/compare/fit commands writing CSV; ``critical``,
                   ``sweep-zero-t`` and the zero-T ``witness`` load no numpy
"""

import importlib

# Public names by home module.  They load on first access (PEP 562), so
# ``import dicke_overlap`` imports no numpy: ``cli`` sets its BLAS thread
# default before numpy loads, and a library user's environment is left alone.
_HOMES = {
    "core": (
        "ModelParams",
        "PhaseLabel",
        "QuadratureSpec",
        "critical_coupling",
        "critical_temperature",
        "critical_temperature_tanh_form",
        "order_parameter_zero_t",
        "phase_finite_t",
        "phase_zero_t",
        "reduced_critical_temperature",
    ),
    "separable": ("SeparableState", "from_jz", "log_weight", "nearest_a"),
    "thermal": (
        "ThermalPoint",
        "log_partition",
        "matched_a",
        "overlap_finite_t",
        "thermal_jz",
        "thermal_moments",
    ),
    "witness": ("MomentSet", "WitnessReport", "evaluate", "evaluate_finite_n"),
    "zerotemp": (
        "GaussianState",
        "PolaritonFrequencies",
        "TwoModeState",
        "atom_diagonal_probabilities",
        "closed_form_overlap_normal",
        "collective_moments_zero_t",
        "effective_ground_state",
        "effective_hamiltonian",
        "gaussian_ground_state",
        "matched_separable_state",
        "overlap_for_params",
        "overlap_zero_t",
        "polariton_frequencies",
        "reduced_atom_purity",
        "scaling_fit",
    ),
}
_EXPORTS = {name: module for module, names in _HOMES.items() for name in names}
__all__ = list(_EXPORTS)
# submodules that resolve as attributes too; ``cli`` is left to an explicit
# import, since importing it sets the process's BLAS thread default
_SUBMODULES = ("core", "errors", "numerics", "oracle", "separable", "thermal", "witness", "zerotemp")

__version__ = "0.1.0"


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
