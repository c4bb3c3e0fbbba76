"""Ground-state sector: effective quadratic Hamiltonians, overlap, moments.

After the Holstein-Primakoff mapping J_z = b'b - N/2, J+ = b' sqrt(N - b'b)
the low-excitation physics of the Dicke model reduces to two coupled
oscillator Hamiltonians, one per phase:

    lambda < lambda_c:
        H = omega a'a + omega0 b'b + lambda (a'+a)(b'+b) - N omega0 / 2

    lambda > lambda_c  (in the displaced frame; mu = (lambda_c/lambda)^2):
        H = omega a'a + [omega0 + 2(lambda^2 - lambda_c^2)/omega] b'b
            + (lambda^2-lambda_c^2)(3 lambda^2+lambda_c^2)
              / (2 omega (lambda^2+lambda_c^2)) * (b+b')^2
            + sqrt(2) lambda_c^2 / sqrt(lambda^2+lambda_c^2) * (a'+a)(b'+b)
            - N (lambda^2/omega + omega omega0^2 / (16 lambda^2))

In the superradiant phase mode b is the *displaced* atomic mode: the
physical spin-excitation number carries a mean-field shift
beta_disp = N (1 - mu) / 2, fixed so that <J_z>/N reproduces the order
parameter -mu/2 as N -> infinity.  All diagonal quantities in the
physical J_z basis (overlap weights, HP moments) are obtained by
conjugating the reduced atomic state with the corresponding displacement
operator, evaluated exactly in a truncated Fock space.

Ground states come from the truncated matrices: a dense LAPACK subset
solve for small dimensions, shift-inverted Lanczos on the sparse matrix
(started from the analytic Bogoliubov ground energy, a guaranteed lower
bound) for the large cutoffs needed near the critical point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.sparse as sparse

from .core import ModelParams, PhaseLabel, order_parameter_zero_t, phase_zero_t
from .errors import (
    CutoffError,
    DomainError,
    InsufficientDataError,
    InvalidParameterError,
    NumericalError,
)
from .numerics import lowest_eigenpair
from .separable import SeparableState, from_jz
from .witness import MomentSet

_TAIL_FRACTION = 0.1
_TAIL_TOL = 1e-8
_DENSE_DIM_LIMIT = 6000
DEFAULT_PLOT_CUTOFF = 60
MAX_DEFAULT_CUTOFF = 360  # shift-invert LU fill ~ cutoff^3 * 16 bytes


@dataclass(frozen=True)
class PolaritonFrequencies:
    """Excitation energies of the diagonalized quadratic form (omega_minus <= omega_plus)."""

    omega_minus: float
    omega_plus: float


@dataclass(frozen=True)
class TwoModeState:
    """Truncated two-mode ground state with superradiant-frame bookkeeping."""

    cutoff_photon: int
    cutoff_atom: int
    amplitudes: np.ndarray = field(repr=False)
    ground_energy: float
    displacement_atom: float  # mean-field b'b shift; 0 in the normal phase
    phase: PhaseLabel
    n_atoms: int | None = None

    def grid(self):
        return self.amplitudes.reshape(self.cutoff_photon, self.cutoff_atom)


def _coefficients(params: ModelParams, phase: PhaseLabel):
    """(omega_b, quadratic (b+b')^2 coefficient, coupling, constant offset)."""
    lc2 = params.critical**2
    l2 = params.coupling**2
    if phase is PhaseLabel.NORMAL:
        return params.omega0, 0.0, params.coupling, -params.n_atoms * params.omega0 / 2.0
    omega_b = params.omega0 + 2.0 * (l2 - lc2) / params.omega
    quad = (l2 - lc2) * (3.0 * l2 + lc2) / (2.0 * params.omega * (l2 + lc2))
    g = math.sqrt(2.0) * lc2 / math.sqrt(l2 + lc2)
    const = -params.n_atoms * (l2 / params.omega + params.omega * params.omega0**2 / (16.0 * l2))
    return omega_b, quad, g, const


def _check_phase(params, phase):
    lc = params.critical
    if phase is PhaseLabel.NORMAL and params.coupling > lc:
        raise InvalidParameterError(
            f"normal-phase Hamiltonian requested at lambda={params.coupling} > lambda_c={lc}"
        )
    if phase is PhaseLabel.SUPERRADIANT and params.coupling < lc:
        raise InvalidParameterError(
            f"superradiant Hamiltonian requested at lambda={params.coupling} < lambda_c={lc}"
        )


def _sparse_hamiltonian(params, phase, cutoffs):
    _check_phase(params, phase)
    ca, cb = cutoffs
    if min(ca, cb) < 8:
        raise InvalidParameterError(f"cutoffs must be >= 8, got {cutoffs}")
    omega_b, quad, g, const = _coefficients(params, phase)
    ladder_a = sparse.diags(np.sqrt(np.arange(1, ca)), 1)
    ladder_b = sparse.diags(np.sqrt(np.arange(1, cb)), 1)
    xa = ladder_a + ladder_a.T
    xb = ladder_b + ladder_b.T
    h = params.omega * sparse.kron(sparse.diags(np.arange(ca, dtype=float)), sparse.identity(cb))
    h = h + omega_b * sparse.kron(sparse.identity(ca), sparse.diags(np.arange(cb, dtype=float)))
    if quad:
        h = h + quad * sparse.kron(sparse.identity(ca), xb @ xb)
    h = h + g * sparse.kron(xa, xb)
    h = h + const * sparse.identity(ca * cb)
    return h.tocsr()


def effective_hamiltonian(params: ModelParams, phase: PhaseLabel, cutoffs):
    """Dense matrix of the phase-appropriate quadratic Hamiltonian.

    Basis ordering: |m>_a tensor |n>_b with flat index m * cutoff_atom + n.
    Constant offsets (-N omega0/2 below, the mean-field energy above) are
    included on the diagonal.
    """
    return _sparse_hamiltonian(params, phase, cutoffs).toarray()


def _frequencies(params: ModelParams) -> PolaritonFrequencies:
    omega_b, quad, g, _ = _coefficients(params, phase_zero_t(params))
    cross = 2.0 * g * math.sqrt(params.omega * omega_b)
    v = np.array(
        [[params.omega**2, cross], [cross, omega_b**2 + 4.0 * quad * omega_b]]
    )
    eigs = np.linalg.eigvalsh(v)
    if eigs[0] < -1e-12 * eigs[1]:
        raise NumericalError("quadratic form is unstable", eigenvalues=tuple(eigs))
    return PolaritonFrequencies(math.sqrt(max(eigs[0], 0.0)), math.sqrt(eigs[1]))


def _reject_critical(params: ModelParams):
    if params.coupling == params.critical:
        raise InvalidParameterError(
            "lambda = lambda_c is singular: the soft mode is at zero, so the excitation "
            "energies and the effective ground state are undefined"
        )


def polariton_frequencies(params: ModelParams) -> PolaritonFrequencies:
    """Bogoliubov excitation energies of the quadratic form.

    In the position representation both Hamiltonians are two coupled
    oscillators with potential matrix

        V = [[omega^2,                 2 g sqrt(omega omega_b)],
             [2 g sqrt(omega omega_b), omega_b^2 + 4 D omega_b]]

    and the excitation energies are the square roots of V's eigenvalues.
    """
    _reject_critical(params)
    return _frequencies(params)


def analytic_ground_energy(params: ModelParams):
    """Exact ground energy of the (untruncated) quadratic Hamiltonian.

    A strict lower bound for any truncated diagonalization (Rayleigh-Ritz),
    which makes it a safe shift for the sparse eigensolver.  Well defined
    at the critical point too (soft mode at zero).
    """
    phase = phase_zero_t(params)
    omega_b, _, _, const = _coefficients(params, phase)
    freqs = _frequencies(params)
    return 0.5 * (freqs.omega_minus + freqs.omega_plus - params.omega - omega_b) + const


def mean_field_displacement(params: ModelParams):
    """Superradiant-frame shift of b'b: N (1 - mu)/2 with mu = (lambda_c/lambda)^2."""
    if phase_zero_t(params) is PhaseLabel.NORMAL:
        return 0.0
    mu = (params.critical / params.coupling) ** 2
    return params.n_atoms * (1.0 - mu) / 2.0


def _tail_mass(probabilities, fraction=_TAIL_FRACTION):
    start = int(math.floor((1.0 - fraction) * len(probabilities)))
    return float(probabilities[start:].sum())


def ground_state(
    matrix,
    cutoffs,
    *,
    phase: PhaseLabel = PhaseLabel.NORMAL,
    displacement_atom=0.0,
    n_atoms=None,
    sigma_lower=None,
) -> TwoModeState:
    """Lowest eigenpair of a truncated two-mode Hamiltonian.

    The sign convention is ``lowest_eigenpair``'s.  Rejects states whose
    occupation tail in the top 10% of either mode's levels exceeds 1e-8.
    """
    ca, cb = cutoffs
    dim = ca * cb
    if sparse.issparse(matrix) or dim > _DENSE_DIM_LIMIT:
        if sigma_lower is None:
            raise InvalidParameterError(
                "large/sparse ground-state solves need a spectral lower bound"
            )
        energy, vec = lowest_eigenpair(sparse.csr_matrix(matrix), sigma=sigma_lower)
    else:
        energy, vec = lowest_eigenpair(np.asarray(matrix))
    psi = vec.reshape(ca, cb)
    tail_photon = _tail_mass((psi**2).sum(axis=1))
    tail_atom = _tail_mass((psi**2).sum(axis=0))
    if tail_photon > _TAIL_TOL:
        raise CutoffError(
            f"photon-mode tail mass {tail_photon:.2e} exceeds {_TAIL_TOL}", mode="photon"
        )
    if tail_atom > _TAIL_TOL:
        raise CutoffError(
            f"atom-mode tail mass {tail_atom:.2e} exceeds {_TAIL_TOL}", mode="atom"
        )
    return TwoModeState(
        cutoff_photon=ca,
        cutoff_atom=cb,
        amplitudes=vec,
        ground_energy=float(energy),
        displacement_atom=float(displacement_atom),
        phase=phase,
        n_atoms=n_atoms,
    )


def default_cutoffs(params: ModelParams):
    """Cutoff heuristic: grows as the soft mode drops toward zero near lambda_c.

    Capped at ``MAX_DEFAULT_CUTOFF`` (the shift-invert factorization is
    the memory bottleneck); closer than |lambda - lambda_c| ~ 5e-5 the
    occupation tail cannot pass at the capped size and the ground-state
    construction reports a cutoff error instead of silently truncating.
    """
    omega_minus = max(_frequencies(params).omega_minus, 1e-2)
    # per-mode occupation scale of the near-critical squeezed vacuum
    n_bar = 0.125 * max(1.0 / omega_minus - 1.0, 0.4)
    q = n_bar / (1.0 + n_bar)
    # top-10% tail below 1e-9: mass above 0.9 C is ~ q^(0.9 C) / (1 - q)
    need = (math.log(1e9) + math.log(1.0 / (1.0 - q))) / (0.9 * -math.log(q))
    c = max(DEFAULT_PLOT_CUTOFF, int(math.ceil(1.15 * need)) + 8)
    return min(c, MAX_DEFAULT_CUTOFF), min(c, MAX_DEFAULT_CUTOFF)


def effective_ground_state(params: ModelParams, cutoffs=None) -> TwoModeState:
    """Phase-appropriate effective ground state with displacement bookkeeping.

    Rejects lambda = lambda_c, where the soft mode vanishes, before any
    solve.  Escalates the cutoffs once (x1.5) if the occupation-tail check
    fails.
    """
    _reject_critical(params)
    phase = phase_zero_t(params)
    if cutoffs is None:
        cutoffs = default_cutoffs(params)
    sigma = analytic_ground_energy(params) - 0.25 * (params.omega + params.omega0)
    for attempt in (0, 1):
        try:
            h = _sparse_hamiltonian(params, phase, cutoffs)
            return ground_state(
                h,
                cutoffs,
                phase=phase,
                displacement_atom=mean_field_displacement(params),
                n_atoms=params.n_atoms,
                sigma_lower=sigma,
            )
        except CutoffError:
            if attempt:
                raise
            cutoffs = (
                min(int(math.ceil(1.5 * cutoffs[0])), MAX_DEFAULT_CUTOFF + 40),
                min(int(math.ceil(1.5 * cutoffs[1])), MAX_DEFAULT_CUTOFF + 40),
            )


# ------------------------------------------------------- reduced atomic state


def _reduced_atom_matrix(state: TwoModeState):
    psi = state.grid()
    return psi.T @ psi


def _displacement_matrix(alpha, dim):
    creation = np.diag(np.sqrt(np.arange(1.0, dim)), -1)
    return scipy.linalg.expm(alpha * (creation - creation.T))


def _physical_atom_matrix(state: TwoModeState):
    """Reduced atomic density matrix in the physical (undisplaced) Fock basis."""
    rho = _reduced_atom_matrix(state)
    beta_disp = state.displacement_atom
    if beta_disp == 0.0:
        return rho
    if state.n_atoms is None:
        raise InvalidParameterError("displaced states need n_atoms for the physical basis")
    extent = state.cutoff_atom + int(math.ceil(beta_disp + 8.0 * math.sqrt(beta_disp + 1.0)))
    dim = min(state.n_atoms + 1, extent)
    embedded = np.zeros((dim, dim))
    k = min(dim, state.cutoff_atom)
    embedded[:k, :k] = rho[:k, :k]
    d = _displacement_matrix(math.sqrt(beta_disp), dim)
    return d @ embedded @ d.T


def atom_diagonal_probabilities(state: TwoModeState):
    """P(n): probability of n spin excitations in the physical J_z basis."""
    if state.displacement_atom == 0.0:
        psi = state.grid()
        return (psi**2).sum(axis=0)
    return np.diag(_physical_atom_matrix(state)).copy()


def reduced_atom_purity(state: TwoModeState):
    """Tr[rho_b^2] of the photon-traced atomic state (displacement-invariant)."""
    rho = _reduced_atom_matrix(state)
    return float((rho * rho).sum())


def overlap_zero_t(state: TwoModeState, sep: SeparableState):
    """Ground-state overlap with the matched separable reference state.

    Contracts the physical spin-excitation distribution with the binomial
    weights; the result lies in [0, 1] by construction.
    """
    if state.n_atoms is not None and sep.n_atoms != state.n_atoms:
        raise InvalidParameterError("separable state and ground state disagree on N")
    expected_a = state.displacement_atom / sep.n_atoms
    if abs(sep.a - expected_a) > 1e-9:
        raise InvalidParameterError(
            f"reference state a={sep.a} does not match the order parameter "
            f"(expected a={expected_a})"
        )
    probs = atom_diagonal_probabilities(state)
    log_w = sep.log_weights
    supported = np.flatnonzero(log_w > math.log(1e-12))
    if len(supported) and supported.max() >= len(probs):
        raise CutoffError(
            f"binomial weights carry mass up to n={supported.max()} but the physical "
            f"basis stops at n={len(probs) - 1}",
            mode="atom",
        )
    k = min(len(probs), len(log_w))
    return float(np.dot(np.exp(log_w[:k]), probs[:k]))


def matched_separable_state(params: ModelParams) -> SeparableState:
    """Reference state from the zero-temperature order parameter."""
    return from_jz(order_parameter_zero_t(params), params.n_atoms)


def overlap_for_params(params: ModelParams, cutoffs=None):
    """Convenience: effective ground state + matched reference state -> overlap."""
    state = effective_ground_state(params, cutoffs)
    return overlap_zero_t(state, matched_separable_state(params))


# ------------------------------------------------------------- closed forms


def closed_form_overlap_normal(coupling):
    """Closed-form normal-phase overlap for omega = omega0 = 1:

        2^(3/2) (1-4 l^2)^(1/4)
        / [1 + 3 sqrt(1-4 l^2) + 0.5 (sqrt(1+2l) + sqrt(1-2l))^3]

    Exposed exactly as written for comparison and scaling studies; its
    l -> 0 value (~0.354) differs from the physical product-state limit
    (exactly 1), so it is never used as ground truth.
    """
    if not 0.0 <= coupling < 0.5:
        raise DomainError(f"closed form is defined for 0 <= lambda < 1/2, got {coupling}")
    root = (1.0 - 4.0 * coupling**2) ** 0.25
    s = math.sqrt(1.0 + 2.0 * coupling) + math.sqrt(1.0 - 2.0 * coupling)
    return 2.0**1.5 * root / (1.0 + 3.0 * root**2 + 0.5 * s**3)


@dataclass(frozen=True)
class ScalingFit:
    exponent: float
    stderr: float
    intercept: float
    log_t: np.ndarray = field(repr=False)
    neg_log_delta: np.ndarray = field(repr=False)
    residuals: np.ndarray = field(repr=False)


def scaling_fit(lambda_grid, delta_values, critical_coupling=0.5) -> ScalingFit:
    """Least-squares slope of -ln(delta) against -ln(1 - lambda/lambda_c)."""
    lam = np.asarray(lambda_grid, dtype=float)
    delta = np.asarray(delta_values, dtype=float)
    if len(lam) < 4:
        raise InsufficientDataError(f"need at least 4 grid points, got {len(lam)}")
    if np.any(lam >= critical_coupling):
        raise InvalidParameterError("scaling grid must lie strictly below lambda_c")
    if np.any(delta <= 0):
        raise InvalidParameterError("overlap values must be positive for the log fit")
    x = -np.log(1.0 - lam / critical_coupling)
    y = -np.log(delta)
    slope, intercept = np.polyfit(x, y, 1)
    fitted = slope * x + intercept
    residuals = y - fitted
    dof = max(len(x) - 2, 1)
    stderr = math.sqrt(float(residuals @ residuals) / dof / float(((x - x.mean()) ** 2).sum()))
    return ScalingFit(float(slope), stderr, float(intercept), x, y, residuals)


# ------------------------------------------------------------------ moments


def _hp_matrices(n_atoms, dim):
    """Exact Holstein-Primakoff J matrices on the first ``dim`` Fock levels."""
    if dim > n_atoms + 1:
        raise CutoffError(
            f"HP square root sqrt(N - b'b) is undefined beyond n = N = {n_atoms}; "
            f"got atomic dimension {dim}",
            mode="atom",
        )
    n = np.arange(dim, dtype=float)
    jz = np.diag(n - n_atoms / 2.0)
    jp = np.zeros((dim, dim))
    jp[np.arange(1, dim), np.arange(dim - 1)] = np.sqrt(n[:-1] + 1.0) * np.sqrt(
        n_atoms - n[:-1]
    )
    return jp, jz


def collective_moments_zero_t(state: TwoModeState, params: ModelParams) -> MomentSet:
    """Collective-spin moments of the effective ground state.

    Uses the exact HP operator forms (including the sqrt(N - b'b) factor)
    on the physical-basis reduced atomic matrix; in the superradiant
    phase this is the displaced (symmetry-broken) branch, so <J_x> is
    macroscopic there while the parity-even moments match the collective
    model.  <J_y> vanishes identically (real state, real J_+ matrix).
    """
    if state.n_atoms is not None and state.n_atoms != params.n_atoms:
        raise InvalidParameterError("state and params disagree on N")
    rho = _physical_atom_matrix(state)
    jp, jz = _hp_matrices(params.n_atoms, len(rho))
    jm = jp.T
    jx = 0.5 * (jp + jm)
    jx2 = jx @ jx
    jy2 = 0.25 * (jp @ jm + jm @ jp - jp @ jp - jm @ jm)
    n = params.n_atoms
    first = (
        float(np.trace(rho @ jx)) / n,
        0.0,
        float(np.trace(rho @ jz)) / n,
    )
    second = (
        float(np.trace(rho @ jx2)) / n**2,
        float(np.trace(rho @ jy2)) / n**2,
        float(np.trace(rho @ (jz @ jz))) / n**2,
    )
    return MomentSet(n_atoms=n, first=first, second=second)
