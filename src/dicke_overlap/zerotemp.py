"""Ground-state sector: the effective quadratic Hamiltonian, overlap, moments.

After the Holstein-Primakoff mapping J_z = b'b - N/2, J+ = b' sqrt(N - b'b)
the low-excitation physics of the Dicke model reduces to one quadratic
Hamiltonian of two coupled oscillators, written through
mu = min(lambda_c / lambda, 1)^2 (``ModelParams.mu``; Emary & Brandes,
PRE 67, 066203 (2003)):

    H = omega a'a + omega_b b'b + D (b+b')^2 + g (a'+a)(b'+b) + E0,

    omega_b = omega0 (1 + mu) / (2 mu),  D = omega0 (1 - mu)(3 + mu) / (8 mu (1 + mu)),
    g = lambda mu sqrt(2 / (1 + mu)),    E0 = -N omega0 (1/mu + mu) / 4.

Its two limits are the two phases:
    lambda <= lambda_c (mu = 1; exact, every step scales by a power of 2):
        H = omega a'a + omega0 b'b + lambda (a'+a)(b'+b) - N omega0 / 2

    lambda > lambda_c (mu < 1; in the displaced frame; l = lambda, c = lambda_c):
        omega_b = omega0 + 2 (l^2 - c^2) / omega,  g = sqrt(2) c^2 / sqrt(l^2 + c^2),
        D = (l^2 - c^2)(3 l^2 + c^2) / (2 omega (l^2 + c^2)),
        E0 = -N (l^2 / omega + omega omega0^2 / (16 l^2))

In the superradiant phase mode b is the *displaced* atomic mode: the
physical spin-excitation number carries a mean-field shift
beta_disp = N (1 - mu) / 2, fixed so that <J_z>/N reproduces the order
parameter -mu/2 as N -> infinity; it is 0 in the normal phase.

The Hamiltonian is quadratic, so its ground state is exactly
Gaussian.  ``gaussian_ground_state`` takes the reduced atomic covariance
from the 2x2 polariton problem in closed form and builds, on first read,
by a Fock-space recursion, the three diagonals rho_{n,n}, rho_{n,n+1},
rho_{n,n+2} of the physical (displaced, n <= N) atomic density matrix;
the overlap and the Holstein-Primakoff moments need nothing else, the
normal-phase overlap needs rho_{0,0} alone, and the reduced purity
follows from the covariance alone.  This path is plain Python on floats
and lists: it loads no numpy.

``effective_ground_state`` diagonalizes the same Hamiltonian in a
truncated Fock space instead (the numpy Lanczos of ``numerics`` on the
matrix-free ``numerics.PhotonAtomOperator``, the solve path of the
oracle too) and displaces the atomic amplitudes with a dense matrix
exponential, taken from the eigendecomposition of the Hermitian generator.
It is the reference the Gaussian backend is checked against, and it, the
scaling fit and the truncated state's methods import numpy when called.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .core import ModelParams, order_parameter_zero_t, reject_critical
from .errors import (
    CutoffError,
    DomainError,
    InsufficientDataError,
    InvalidParameterError,
    NumericalError,
)
from .separable import SeparableState, from_jz, overlap
from .witness import MomentSet

if TYPE_CHECKING:
    import numpy as np

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

    def fock_band(self):
        """Diagonals 0, 1 and 2 of the physical-basis reduced atomic matrix."""
        from .numerics import traced_band

        return traced_band(_physical_amplitudes(self))

    def vacuum_probability(self):
        """rho_{0,0} = P(n = 0) in the physical basis."""
        return float(self.fock_band()[0][0])

    def purity(self):
        rho = _reduced_atom_matrix(self)
        return float((rho * rho).sum())


@dataclass(frozen=True)
class GaussianState:
    """Exact Gaussian ground state, reduced to the atomic mode.

    ``var_x`` and ``var_p`` are <x_b^2> and <p_b^2> of the displaced-frame
    atomic mode (x_b = (b + b')/sqrt(2); 1/2 each in the vacuum).  ``band``
    holds the lists rho_{n,n} (n <= N), rho_{n,n+1} (n < N) and
    rho_{n,n+2} (n < N - 1) of the atomic density matrix in the physical
    J_z basis; it is built on first read, in O(N).
    """

    n_atoms: int
    displacement_atom: float  # mean-field b'b shift; 0 in the normal phase
    var_x: float
    var_p: float

    @functools.cached_property
    def band(self):
        return _gaussian_fock_band(
            self.var_x, self.var_p, math.sqrt(self.displacement_atom), self.n_atoms
        )

    def fock_band(self):
        return self.band

    def vacuum_probability(self):
        """rho_{0,0} = P(n = 0), the band's first entry, without the band."""
        return math.exp(_log_vacuum(self.var_x, self.var_p, math.sqrt(self.displacement_atom)))

    def purity(self):
        return 1.0 / (2.0 * math.sqrt(self.var_x * self.var_p))


def _coefficients(params: ModelParams):
    """(omega_b, D, g, E0) of the module docstring's Hamiltonian, through mu."""
    mu, omega0 = params.mu, params.omega0
    return (
        omega0 * (1.0 + mu) / (2.0 * mu),
        omega0 * (1.0 - mu) * (3.0 + mu) / (8.0 * mu * (1.0 + mu)),
        params.coupling * mu * math.sqrt(2.0 / (1.0 + mu)),
        -params.n_atoms * omega0 * (1.0 / mu + mu) / 4.0,
    )


def effective_hamiltonian(params: ModelParams, cutoffs):
    """Matrix-free operator of the quadratic Hamiltonian of the module docstring.

    Basis ordering: |m>_a tensor |n>_b with flat index m * cutoff_atom + n.
    The constant offset E0 is included on the diagonal.
    """
    ca, cb = cutoffs
    if min(ca, cb) < 8:
        raise InvalidParameterError(f"cutoffs must be >= 8, got {cutoffs}")
    import numpy as np

    from .numerics import PhotonAtomOperator

    omega_b, quad, g, const = _coefficients(params)
    level = np.arange(cb, dtype=float)
    # (b+b')^2 on the truncated ladder: 2n + 1, but n at the top level
    square = np.append(2.0 * level[:-1] + 1.0, level[-1])
    h_atom = (
        omega_b * level + quad * square + const,
        quad * np.sqrt((level[:-2] + 1.0) * (level[:-2] + 2.0)),
    )
    return PhotonAtomOperator(params.omega, ca, h_atom, g, np.sqrt(level[1:]))


def _potential(params: ModelParams):
    """omega_b, the entries (V_aa, V_ab, V_bb) of the potential matrix V, and det V.

    In the position representation the Hamiltonian is two coupled
    oscillators with potential matrix

        V = [[omega^2,                 2 g sqrt(omega omega_b)],
             [2 g sqrt(omega omega_b), omega_b^2 + 4 D omega_b]]

    (D the (b+b')^2 coefficient).  Rejects lambda = lambda_c, where V is
    singular, before any work, and raises ``NumericalError`` where V is not
    positive definite.
    """
    reject_critical(params)
    omega_b, quad, g, _ = _coefficients(params)
    v = (params.omega**2, 2.0 * g * math.sqrt(params.omega * omega_b),
         omega_b**2 + 4.0 * quad * omega_b)
    det = v[0] * v[2] - v[1] * v[1]
    if not det > 0.0:
        large = _large_eigenvalue(v)
        raise NumericalError(
            "quadratic form is not positive definite", eigenvalues=(det / large, large)
        )
    return omega_b, v, det


def _large_eigenvalue(v):
    """The larger eigenvalue of the symmetric 2x2 matrix (V_aa, V_ab, V_bb): two terms >= 0."""
    v_aa, v_ab, v_bb = v
    return 0.5 * (v_aa + v_bb) + math.hypot(0.5 * (v_aa - v_bb), v_ab)


def polariton_frequencies(params: ModelParams) -> PolaritonFrequencies:
    """Bogoliubov excitation energies: square roots of the eigenvalues of V (``_potential``).

    The smaller eigenvalue is det V divided by the larger one, free of the
    cancellation in tr V / 2 - sqrt(...).
    """
    _, v, det = _potential(params)
    large = _large_eigenvalue(v)
    return PolaritonFrequencies(math.sqrt(det / large), math.sqrt(large))


def mean_field_displacement(params: ModelParams):
    """Superradiant-frame shift of b'b: N (1 - mu)/2, 0 in the normal phase."""
    return params.n_atoms * (1.0 - params.mu) / 2.0


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

    Diagonalizes the effective Hamiltonian at ``cutoffs`` (default:
    ``default_cutoffs``) by Lanczos on the matrix-free operator; the sign
    convention is ``lowest_eigenpair``'s.  Raises ``CutoffError``, naming
    the mode, when the occupation in the top 10% of either mode's levels
    exceeds 1e-8.
    Rejects lambda = lambda_c, where the soft mode vanishes, before any solve.
    """
    from .numerics import lowest_eigenpair

    reject_critical(params)
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


def _log_vacuum(var_x, var_p, alpha):
    """ln rho_{0,0} = -alpha^2/q_x - ln(q_x q_p)/2 of ``_gaussian_fock_band``'s state."""
    qx, qp = var_x + 0.5, var_p + 0.5
    return -alpha * alpha / qx - 0.5 * math.log(qx * qp)


def _gaussian_fock_band(var_x, var_p, alpha, n_atoms):
    """rho_{n,n}, rho_{n,n+1}, rho_{n,n+2} of a real single-mode Gaussian state, as lists.

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
    log of the scale, so nothing overflows or underflows on the way however
    small rho_{0,0} is; its exponential is taken once per rescale.  Levels
    whose scale underflows hold exact zeros, which the contractions skip.
    """
    qx, qp = var_x + 0.5, var_p + 0.5
    a = (var_x - var_p) / (2.0 * qx * qp)
    b = (var_x * var_p - 0.25) / (qx * qp)
    lin = alpha / qx
    root = [math.sqrt(k) for k in range(n_atoms + 3)]
    diag, off1, off2 = [], [], []
    r0, r1, r2, r2_prev = 1.0, 0.0, 0.0, 0.0
    log_scale = _log_vacuum(var_x, var_p, alpha)
    scale = math.exp(log_scale)
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
            scale = math.exp(log_scale)
        if scale:
            diag.append(r0 * scale)
            off1.append(r1 * scale)
            off2.append(r2 * scale)
        else:  # the scale underflowed: the one shared 0.0, not three new floats
            diag.append(0.0)
            off1.append(0.0)
            off2.append(0.0)
    del off1[n_atoms:], off2[n_atoms - 1:]
    return diag, off1, off2


def gaussian_ground_state(params: ModelParams) -> GaussianState:
    """Exact ground state of the effective quadratic Hamiltonian.

    In mass-weighted coordinates the Hamiltonian is (pi^2 + y V y)/2 with
    V the potential matrix of ``_potential``, so the ground state has
    <y y> = V^(-1/2)/2 and <pi pi> = V^(1/2)/2, and the atomic mode's
    covariance is <x_b^2> = omega_b (V^(-1/2))_bb / 2,
    <p_b^2> = (V^(1/2))_bb / (2 omega_b).  For a 2x2 V > 0 the square root
    is closed-form: with s = sqrt(det V) and t = sqrt(tr V + 2 s),
    V^(1/2) = (V + s I) / t, so (V^(1/2))_bb = (V_bb + s) / t and
    (V^(-1/2))_bb = (V_aa + s) / (s t).  The physical band adds the
    mean-field displacement <b> = sqrt(beta_disp).  Rejects
    lambda = lambda_c before any work.
    """
    omega_b, (v_aa, _, v_bb), det = _potential(params)
    s = math.sqrt(det)
    t = math.sqrt(v_aa + v_bb + 2.0 * s)
    var_x = 0.5 * omega_b * (v_aa + s) / (s * t)
    var_p = 0.5 * (v_bb + s) / (t * omega_b)
    return GaussianState(params.n_atoms, mean_field_displacement(params), var_x, var_p)


# ------------------------------------------------------- reduced atomic state


def _reduced_atom_matrix(state: TwoModeState):
    psi = state.amplitudes.reshape(state.cutoff_photon, state.cutoff_atom)
    return psi.T @ psi


def _displacement_matrix(alpha, dim):
    """exp(alpha (a' - a)) on ``dim`` levels, as exp(-i H) of the Hermitian H = i alpha (a' - a)."""
    import numpy as np

    creation = np.diag(np.sqrt(np.arange(1.0, dim)), -1)
    levels, vecs = np.linalg.eigh(1j * alpha * (creation - creation.T))
    return ((vecs * np.exp(-1j * levels)) @ vecs.conj().T).real


def _physical_amplitudes(state: TwoModeState):
    """The grid psi[m, n] with the atom in the physical (undisplaced) Fock basis.

    The displacement acts on enough levels to hold the shifted state, and
    only then is the result cut to the N + 1 physical levels.
    """
    psi = state.amplitudes.reshape(state.cutoff_photon, state.cutoff_atom)
    beta_disp = state.displacement_atom
    if beta_disp == 0.0:
        return psi
    extent = state.cutoff_atom + int(math.ceil(beta_disp + 8.0 * math.sqrt(beta_disp + 1.0)))
    d = _displacement_matrix(math.sqrt(beta_disp), extent)
    return psi @ d[: state.n_atoms + 1, : state.cutoff_atom].T


def atom_diagonal_probabilities(state: TwoModeState | GaussianState):
    """P(n): probability of n spin excitations in the physical J_z basis."""
    return state.fock_band()[0]


def reduced_atom_purity(state: TwoModeState | GaussianState):
    """Tr[rho_b^2] of the photon-traced atomic state (displacement-invariant)."""
    return float(state.purity())


def overlap_zero_t(state: TwoModeState | GaussianState, sep: SeparableState):
    """Ground-state overlap with the matched separable reference state.

    The overlap of the J_z distributions, sum_n C(N,n) a^n (1-a)^(N-n) P(n):
    ``separable.overlap`` of the physical spin-excitation distribution P(n),
    one copy of j = N/2, with ``sep.log_weights``.  Levels of P above N are
    dropped; the truncated reference's normal-phase P stops at its atom
    cutoff, where a = 0 leaves weight on n = 0 alone.  The result lies in
    [0, 1] by construction.  At a = 0 (the normal phase) the weights are a
    delta at n = 0, of weight 1, and the overlap is P(0) alone: neither the
    band nor the reference state's levels are built.
    """
    if sep.n_atoms != state.n_atoms:
        raise InvalidParameterError(
            f"reference state has N = {sep.n_atoms} atoms, the ground state N = {state.n_atoms}"
        )
    expected_a = state.displacement_atom / sep.n_atoms
    if abs(sep.a - expected_a) > 1e-9:
        raise InvalidParameterError(
            f"reference state a={sep.a} does not match the order parameter "
            f"(expected a={expected_a})"
        )
    if sep.a == 0.0:
        return state.vacuum_probability()
    n = state.n_atoms
    return overlap(n, [(n / 2, 1, atom_diagonal_probabilities(state))], sep.log_weights)


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
    import numpy as np

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

    The exact HP operators (with the sqrt(N - b'b) factor) on the physical
    Fock band are the spin-N/2 ones, J+|n> = sqrt((n+1)(N-n)) |n+1>, so this
    is ``MomentSet.from_bands`` of one copy of j = N/2.  In the superradiant
    phase the band is the displaced (symmetry-broken) branch, so <J_x> is
    macroscopic there while the parity-even moments match the collective model.
    """
    if state.n_atoms != params.n_atoms:
        raise InvalidParameterError("state and params disagree on N")
    band = state.fock_band()
    n = params.n_atoms
    if len(band[0]) > n + 1:
        raise CutoffError(
            f"HP square root sqrt(N - b'b) is undefined beyond n = N = {n}; "
            f"got atomic dimension {len(band[0])}",
            mode="atom",
        )
    return MomentSet.from_bands(n, [(n / 2, 1, band)])
