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
parameter -mu/2 as N -> infinity.

Both Hamiltonians are quadratic, so their ground state is exactly
Gaussian.  ``gaussian_ground_state`` takes the reduced atomic covariance
from the 2x2 polariton problem and builds, by a Fock-space recursion,
the three diagonals rho_{n,n}, rho_{n,n+1}, rho_{n,n+2} of the physical
(displaced, n <= N) atomic density matrix; the overlap and the
Holstein-Primakoff moments need nothing else, and the reduced purity
follows from the covariance alone.

``effective_ground_state`` diagonalizes the same Hamiltonians in a
truncated Fock space instead (the numpy Lanczos of ``numerics`` on the
matrix-free ``numerics.photon_atom_hamiltonian``, the solve path of the
oracle too) and displaces the reduced atomic matrix with a dense matrix
exponential.  It is the reference the Gaussian backend is checked
against; its displacement ``expm`` is the only user of scipy in the
package, which it imports when called.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import ModelParams, PhaseLabel, order_parameter_zero_t, phase_zero_t
from .errors import (
    CutoffError,
    DomainError,
    InsufficientDataError,
    InvalidParameterError,
    NumericalError,
)
from .numerics import lowest_eigenpair, photon_atom_hamiltonian
from .separable import SeparableState, from_jz
from .witness import MomentSet

_TAIL_FRACTION = 0.1
_TAIL_TOL = 1e-8
DEFAULT_PLOT_CUTOFF = 60
# the bound is Lanczos time, not memory: 360^2 states at lambda/lambda_c - 1
# = -1e-4, N = 1000 take 8 s and 0.12 GB peak on a 2-core Xeon host
MAX_DEFAULT_CUTOFF = 360


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
    n_atoms: int

    def grid(self):
        return self.amplitudes.reshape(self.cutoff_photon, self.cutoff_atom)

    def fock_band(self):
        """Diagonals 0, 1 and 2 of the physical-basis reduced atomic matrix."""
        rho = _physical_atom_matrix(self)
        return np.diag(rho).copy(), np.diag(rho, 1).copy(), np.diag(rho, 2).copy()

    def purity(self):
        rho = _reduced_atom_matrix(self)
        return float((rho * rho).sum())


@dataclass(frozen=True)
class GaussianState:
    """Exact Gaussian ground state, reduced to the atomic mode.

    ``var_x`` and ``var_p`` are <x_b^2> and <p_b^2> of the displaced-frame
    atomic mode (x_b = (b + b')/sqrt(2); 1/2 each in the vacuum).  ``band``
    holds rho_{n,n} (n <= N), rho_{n,n+1} (n < N) and rho_{n,n+2}
    (n < N - 1) of the atomic density matrix in the physical J_z basis.
    """

    n_atoms: int
    displacement_atom: float  # mean-field b'b shift; 0 in the normal phase
    var_x: float
    var_p: float
    band: tuple = field(repr=False)

    def fock_band(self):
        return self.band

    def purity(self):
        return 1.0 / (2.0 * math.sqrt(self.var_x * self.var_p))


def _coefficients(params: ModelParams):
    """(omega_b, (b+b')^2 coefficient, coupling, constant offset) in phase_zero_t's phase."""
    lc2 = params.critical**2
    l2 = params.coupling**2
    if phase_zero_t(params) is PhaseLabel.NORMAL:
        return params.omega0, 0.0, params.coupling, -params.n_atoms * params.omega0 / 2.0
    omega_b = params.omega0 + 2.0 * (l2 - lc2) / params.omega
    quad = (l2 - lc2) * (3.0 * l2 + lc2) / (2.0 * params.omega * (l2 + lc2))
    g = math.sqrt(2.0) * lc2 / math.sqrt(l2 + lc2)
    const = -params.n_atoms * (l2 / params.omega + params.omega * params.omega0**2 / (16.0 * l2))
    return omega_b, quad, g, const


def effective_hamiltonian(params: ModelParams, cutoffs):
    """Matrix-free operator of the quadratic Hamiltonian of ``phase_zero_t(params)``.

    Basis ordering: |m>_a tensor |n>_b with flat index m * cutoff_atom + n.
    Constant offsets (-N omega0/2 below, the mean-field energy above) are
    included on the diagonal.
    """
    ca, cb = cutoffs
    if min(ca, cb) < 8:
        raise InvalidParameterError(f"cutoffs must be >= 8, got {cutoffs}")
    omega_b, quad, g, const = _coefficients(params)
    ladder_b = np.diag(np.sqrt(np.arange(1.0, cb)), 1)
    xb = ladder_b + ladder_b.T
    h_atom = (
        omega_b * np.diag(np.arange(cb, dtype=float)) + quad * (xb @ xb) + const * np.eye(cb)
    )
    return photon_atom_hamiltonian(params.omega, ca, h_atom, g, xb)


def _reject_critical(params: ModelParams):
    # lambda_c = sqrt(omega omega0)/2 is itself rounded, so couplings within
    # a few ulps of it cannot be told apart from it
    if abs(params.coupling / params.critical - 1.0) <= 8.0 * math.ulp(1.0):
        raise InvalidParameterError(
            f"lambda = {params.coupling!r} is lambda_c to rounding, where the model is "
            "singular: the soft mode is at zero, so the excitation energies and the "
            "effective ground state are undefined"
        )


def _normal_modes(params: ModelParams):
    """omega_b and the eigenvalues and eigenvectors of the potential matrix V.

    In the position representation both Hamiltonians are two coupled
    oscillators with potential matrix

        V = [[omega^2,                 2 g sqrt(omega omega_b)],
             [2 g sqrt(omega omega_b), omega_b^2 + 4 D omega_b]]

    (D the (b+b')^2 coefficient).  Rejects lambda = lambda_c, where V is
    singular, before any work.
    """
    _reject_critical(params)
    omega_b, quad, g, _ = _coefficients(params)
    cross = 2.0 * g * math.sqrt(params.omega * omega_b)
    v = np.array(
        [[params.omega**2, cross], [cross, omega_b**2 + 4.0 * quad * omega_b]]
    )
    eigs, vecs = np.linalg.eigh(v)
    if eigs[0] <= 0.0:
        raise NumericalError("quadratic form is not positive definite", eigenvalues=tuple(eigs))
    return omega_b, eigs, vecs


def polariton_frequencies(params: ModelParams) -> PolaritonFrequencies:
    """Bogoliubov excitation energies: square roots of the eigenvalues of V (_normal_modes)."""
    _, eigs, _ = _normal_modes(params)
    return PolaritonFrequencies(math.sqrt(eigs[0]), math.sqrt(eigs[1]))


def mean_field_displacement(params: ModelParams):
    """Superradiant-frame shift of b'b: N (1 - mu)/2 with mu = (lambda_c/lambda)^2."""
    if phase_zero_t(params) is PhaseLabel.NORMAL:
        return 0.0
    mu = (params.critical / params.coupling) ** 2
    return params.n_atoms * (1.0 - mu) / 2.0


def _tail_mass(probabilities, fraction=_TAIL_FRACTION):
    start = int(math.floor((1.0 - fraction) * len(probabilities)))
    return float(probabilities[start:].sum())


def default_cutoffs(params: ModelParams):
    """Cutoff heuristic: grows as the soft mode drops toward zero near lambda_c.

    Capped at ``MAX_DEFAULT_CUTOFF``.  From |lambda/lambda_c - 1| ~ 2e-3
    inward the occupation tail no longer passes at these cutoffs (at
    N = 100 and 1000 the photon tail is 1.1e-8 to 2.2e-8, or the atom mode
    runs out of its N + 1 levels), and the ground-state construction
    reports a cutoff error instead of silently truncating.  Rejects
    lambda = lambda_c.
    """
    omega_minus = max(polariton_frequencies(params).omega_minus, 1e-2)
    # per-mode occupation scale of the near-critical squeezed vacuum
    n_bar = 0.125 * max(1.0 / omega_minus - 1.0, 0.4)
    q = n_bar / (1.0 + n_bar)
    # top-10% tail below 1e-9: mass above 0.9 C is ~ q^(0.9 C) / (1 - q)
    need = (math.log(1e9) + math.log(1.0 / (1.0 - q))) / (0.9 * -math.log(q))
    c = max(DEFAULT_PLOT_CUTOFF, int(math.ceil(1.15 * need)) + 8)
    # the atom mode has only the N + 1 levels the HP mapping defines
    return min(c, MAX_DEFAULT_CUTOFF), min(c, MAX_DEFAULT_CUTOFF, params.n_atoms + 1)


def effective_ground_state(params: ModelParams, cutoffs=None) -> TwoModeState:
    """Truncated-Fock reference for ``gaussian_ground_state``.

    Diagonalizes the phase-appropriate Hamiltonian at ``cutoffs`` (default:
    ``default_cutoffs``) by Lanczos on the matrix-free operator; the sign
    convention is ``lowest_eigenpair``'s.  Raises ``CutoffError``, naming
    the mode, when the occupation in the top 10% of either mode's levels
    exceeds 1e-8.
    Rejects lambda = lambda_c, where the soft mode vanishes, before any solve.
    """
    _reject_critical(params)
    if cutoffs is None:
        cutoffs = default_cutoffs(params)
    energy, vec = lowest_eigenpair(effective_hamiltonian(params, cutoffs))
    ca, cb = cutoffs
    occupation = vec.reshape(ca, cb) ** 2
    for mode, axis in (("photon", 1), ("atom", 0)):
        tail = _tail_mass(occupation.sum(axis=axis))
        if tail > _TAIL_TOL:
            raise CutoffError(f"{mode}-mode tail mass {tail:.2e} exceeds {_TAIL_TOL}", mode=mode)
    return TwoModeState(
        cutoff_photon=ca,
        cutoff_atom=cb,
        amplitudes=vec,
        ground_energy=float(energy),
        displacement_atom=mean_field_displacement(params),
        n_atoms=params.n_atoms,
    )


# ------------------------------------------------------ exact Gaussian state

_RESCALE = 1e150  # the band recursion rescales its values outside [1/_RESCALE, _RESCALE]


def _gaussian_fock_band(var_x, var_p, alpha, n_atoms):
    """rho_{n,n}, rho_{n,n+1}, rho_{n,n+2} of a real single-mode Gaussian state.

    The state has covariance diag(var_x, var_p) and real mean <b> = alpha.
    Its Husimi function is a Gaussian of covariance diag(q_x, q_p) with
    q = var + 1/2, which gives the Bargmann generating function

        sum_{m,n} rho_{m,n} s^m t^n / sqrt(m! n!)
            = rho_{0,0} exp(A (s^2 + t^2)/2 + B s t + L (s + t)),

    A = (var_x - var_p)/(2 q_x q_p), B = (var_x var_p - 1/4)/(q_x q_p),
    L = alpha/q_x, rho_{0,0} = exp(-alpha^2/q_x)/sqrt(q_x q_p).  Its
    derivatives give the recursion (Miatto & Quesada, Quantum 4, 366 (2020))

        sqrt(m+1) rho_{m+1,n} = L rho_{m,n} + A sqrt(m) rho_{m-1,n} + B sqrt(n) rho_{m,n-1}

    and its transpose.  With rho symmetric the three diagonals close on
    themselves, so one pass over n = 0..N gives the band.  The running
    values are rescaled whenever they leave [1e-150, 1e150], keeping the
    log of the scale per row, so nothing overflows or underflows on the
    way however small rho_{0,0} is.
    """
    qx, qp = var_x + 0.5, var_p + 0.5
    a = (var_x - var_p) / (2.0 * qx * qp)
    b = (var_x * var_p - 0.25) / (qx * qp)
    lin = alpha / qx
    root = np.sqrt(np.arange(n_atoms + 3.0)).tolist()
    rows = []
    r0, r1, r2, r2_prev = 1.0, 0.0, 0.0, 0.0
    log_scale = -alpha * alpha / qx - 0.5 * math.log(qx * qp)
    for m in range(n_atoms + 1):
        # (r0, r1, r2) hold row m-1 of the band on entry, r2_prev holds rho_{m-2,m}
        if m:
            r0 = (lin * r1 + a * root[m - 1] * r2_prev) / root[m] + b * r0
        r2_prev = r2
        r1 = (lin * r0 + (a + b) * root[m] * r1) / root[m + 1]
        r2 = (lin * r1 + a * root[m + 1] * r0 + b * root[m] * r2) / root[m + 2]
        peak = max(abs(r0), abs(r1), abs(r2))
        if peak > _RESCALE or 0.0 < peak < 1.0 / _RESCALE:
            r0, r1, r2, r2_prev = r0 / peak, r1 / peak, r2 / peak, r2_prev / peak
            log_scale += math.log(peak)
        rows.append((r0, r1, r2, log_scale))
    rows = np.array(rows)
    band = rows[:, :3] * np.exp(rows[:, 3:])
    return band[:, 0], band[:-1, 1], band[:-2, 2]


def gaussian_ground_state(params: ModelParams) -> GaussianState:
    """Exact ground state of the phase-appropriate quadratic Hamiltonian.

    In mass-weighted coordinates the Hamiltonian is (pi^2 + y V y)/2 with
    V the potential matrix of ``_normal_modes``, so the ground
    state has <y y> = V^(-1/2)/2 and <pi pi> = V^(1/2)/2, and the atomic
    mode's covariance is <x_b^2> = omega_b (V^(-1/2))_bb / 2,
    <p_b^2> = (V^(1/2))_bb / (2 omega_b).  The physical band adds the
    mean-field displacement <b> = sqrt(beta_disp).  Rejects
    lambda = lambda_c before any work.
    """
    omega_b, eigs, vecs = _normal_modes(params)
    weights = vecs[1] ** 2  # atomic share of each normal mode
    var_x = 0.5 * omega_b * float(weights @ eigs**-0.5)
    var_p = 0.5 * float(weights @ eigs**0.5) / omega_b
    beta_disp = mean_field_displacement(params)
    band = _gaussian_fock_band(var_x, var_p, math.sqrt(beta_disp), params.n_atoms)
    return GaussianState(params.n_atoms, beta_disp, var_x, var_p, band)


# ------------------------------------------------------- reduced atomic state


def _reduced_atom_matrix(state: TwoModeState):
    psi = state.grid()
    return psi.T @ psi


def _displacement_matrix(alpha, dim):
    import scipy.linalg
    creation = np.diag(np.sqrt(np.arange(1.0, dim)), -1)
    return scipy.linalg.expm(alpha * (creation - creation.T))


def _physical_atom_matrix(state: TwoModeState):
    """Reduced atomic density matrix in the physical (undisplaced) Fock basis.

    The displacement acts on enough levels to hold the shifted state, and
    only then is the result cut to the N + 1 physical levels.
    """
    rho = _reduced_atom_matrix(state)
    beta_disp = state.displacement_atom
    if beta_disp == 0.0:
        return rho
    extent = state.cutoff_atom + int(math.ceil(beta_disp + 8.0 * math.sqrt(beta_disp + 1.0)))
    embedded = np.zeros((extent, extent))
    embedded[: state.cutoff_atom, : state.cutoff_atom] = rho
    d = _displacement_matrix(math.sqrt(beta_disp), extent)
    physical = state.n_atoms + 1
    return (d @ embedded @ d.T)[:physical, :physical]


def atom_diagonal_probabilities(state: TwoModeState | GaussianState):
    """P(n): probability of n spin excitations in the physical J_z basis."""
    return state.fock_band()[0]


def reduced_atom_purity(state: TwoModeState | GaussianState):
    """Tr[rho_b^2] of the photon-traced atomic state (displacement-invariant)."""
    return float(state.purity())


def overlap_zero_t(state: TwoModeState | GaussianState, sep: SeparableState):
    """Ground-state overlap with the matched separable reference state.

    Contracts the physical spin-excitation distribution P(n) with the
    binomial weights: sum_n C(N,n) a^n (1-a)^(N-n) P(n), the overlap of
    the J_z distributions (the symmetric-sector functional of
    ``oracle.exact_overlap``, not Tr[rho_A rho_s]).  The result lies in
    [0, 1] by construction.
    """
    if sep.n_atoms != state.n_atoms:
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


def overlap_for_params(params: ModelParams):
    """Convenience: exact ground state + matched reference state -> overlap."""
    return overlap_zero_t(gaussian_ground_state(params), matched_separable_state(params))


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


def collective_moments_zero_t(
    state: TwoModeState | GaussianState, params: ModelParams
) -> MomentSet:
    """Collective-spin moments of the effective ground state.

    Uses the exact HP operator forms (including the sqrt(N - b'b) factor)
    on the physical-basis Fock band: J+|n> = c_n |n+1> with
    c_n = sqrt((n+1)(N-n)), so

        <J_z>   = sum_n P(n) (n - N/2)
        <J_x>   = sum_n c_n rho_{n,n+1}
        <J_x^2> = [sum_n P(n) (c_{n-1}^2 + c_n^2) + 2 sum_n c_n c_{n+1} rho_{n,n+2}] / 4

    and <J_y^2> is <J_x^2> with the rho_{n,n+2} sum subtracted.  In the
    superradiant phase this is the displaced (symmetry-broken) branch, so
    <J_x> is macroscopic there while the parity-even moments match the
    collective model.  <J_y> vanishes identically (real state).
    """
    if state.n_atoms != params.n_atoms:
        raise InvalidParameterError("state and params disagree on N")
    probs, off1, off2 = state.fock_band()
    n = params.n_atoms
    if len(probs) > n + 1:
        raise CutoffError(
            f"HP square root sqrt(N - b'b) is undefined beyond n = N = {n}; "
            f"got atomic dimension {len(probs)}",
            mode="atom",
        )
    level = np.arange(len(probs), dtype=float)
    c = np.sqrt((level + 1.0) * (n - level))
    ladder = float(probs @ (level * (n - level + 1.0) + c**2))  # <J+ J- + J- J+>
    squared = 2.0 * float(off2 @ (c[:-2] * c[1:-1]))  # <J+^2 + J-^2>
    jz = level - n / 2.0
    first = (float(off1 @ c[:-1]) / n, 0.0, float(probs @ jz) / n)
    second = (
        0.25 * (ladder + squared) / n**2,
        0.25 * (ladder - squared) / n**2,
        float(probs @ jz**2) / n**2,
    )
    return MomentSet(n_atoms=n, first=first, second=second)
