"""Separable-state overlap and phase structure of the Dicke model.

Library layout:

* ``core``      -- parameters, critical coupling/temperature, order parameter
* ``separable`` -- the symmetry-determined product reference state
* ``numerics``  -- windowed log-space quadrature, root finding, eigensolvers
* ``zerotemp``  -- effective quadratic Hamiltonians, their exact Gaussian
                   ground state, overlap, purity, scaling fit, moments;
                   the truncated-Fock ground state as the tests' reference
* ``thermal``   -- partition-function quadrature, thermal overlap and moments
* ``witness``   -- spin-squeezing entanglement inequalities
* ``oracle``    -- brute-force exact diagonalization for validation
* ``cli``       -- sweep/compare/fit commands writing CSV
"""

from .core import (
    ModelParams,
    PhaseLabel,
    critical_coupling,
    critical_temperature,
    critical_temperature_tanh_form,
    order_parameter_zero_t,
    phase_finite_t,
    phase_zero_t,
    reduced_critical_temperature,
)
from .numerics import QuadratureSpec
from .separable import SeparableState, from_jz, log_weight, nearest_a
from .thermal import (
    ThermalPoint,
    log_partition,
    matched_a,
    overlap_finite_t,
    thermal_jz,
    thermal_moments,
)
from .witness import MomentSet, WitnessReport, evaluate, evaluate_finite_n
from .zerotemp import (
    GaussianState,
    PolaritonFrequencies,
    TwoModeState,
    atom_diagonal_probabilities,
    closed_form_overlap_normal,
    collective_moments_zero_t,
    effective_ground_state,
    effective_hamiltonian,
    gaussian_ground_state,
    matched_separable_state,
    overlap_for_params,
    overlap_zero_t,
    polariton_frequencies,
    reduced_atom_purity,
    scaling_fit,
)

__version__ = "0.1.0"
