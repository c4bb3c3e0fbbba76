"""Brute-force exact diagonalization of the full Dicke Hamiltonian.

Validation backend for every other module.  Two bases:

* ``SymmetricSector`` -- photon Fock space (truncated) tensor the maximal
  collective-spin multiplet j = N/2, dimension cutoff * (N+1).  The
  ground state lives here, in the even block of the parity
  exp[i pi (a'a + J_z + N/2)], which sparse Lanczos solves alone: N = 40
  takes about 0.1 s.
* ``FullProduct`` -- photon Fock space tensor all 2^N spin
  configurations.  Thermal states weight non-symmetric sectors that the
  collective basis misses, so finite-temperature validation uses this
  basis (N <= 6 only).

Thermal and split-trace states take the complete dense eigendecomposition
of ``numerics``.  scipy is imported inside the functions that use it, so
importing this module, and with it the CLI, loads numpy alone.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, CutoffError, InternalConsistencyError, InvalidParameterError
from .core import ModelParams
from .numerics import lowest_eigenpair, photon_atom_hamiltonian, symmetric_eigendecomposition
from .separable import SeparableState, config_log_terms
from .witness import MomentSet

_FULL_PRODUCT_MAX_ATOMS = 6
# one dense float64 Hamiltonian of either basis; the ground state's sparse
# even block needs far less, so for the symmetric basis this is a
# conservative ceiling
_DENSE_MAX_BYTES = 2 * 2**30
_GROUND_ENERGY_TOL = 1e-8
_DUAL_PATH_TOL = 1e-10


class BasisVariant(enum.Enum):
    SYMMETRIC_SECTOR = "symmetric"
    FULL_PRODUCT = "full-product"


@dataclass(frozen=True)
class DickeBasis:
    variant: BasisVariant
    n_atoms: int
    cutoff: int

    def __post_init__(self):
        if self.cutoff < 2:
            raise InvalidParameterError(f"photon cutoff must be >= 2, got {self.cutoff}")
        if self.variant is BasisVariant.FULL_PRODUCT and self.n_atoms > _FULL_PRODUCT_MAX_ATOMS:
            raise CapacityError(
                f"full product basis supports N <= {_FULL_PRODUCT_MAX_ATOMS}, got {self.n_atoms}"
            )
        if 8 * self.dim**2 > _DENSE_MAX_BYTES:
            raise CapacityError(
                f"{self.variant.value} basis of dimension {self.dim} needs a dense matrix "
                f"of {8 * self.dim**2 / 2**30:.1f} GiB, over the {_DENSE_MAX_BYTES >> 30} GiB bound"
            )

    @property
    def atom_dim(self):
        if self.variant is BasisVariant.FULL_PRODUCT:
            return 2**self.n_atoms
        return self.n_atoms + 1

    @property
    def dim(self):
        return self.cutoff * self.atom_dim

    def up_counts(self):
        """Number of up spins for each atomic basis state.

        Single-atom convention: factor index 0 is sigma_z = +1 (up), so a
        product-basis index c with popcount(c) set bits has N - popcount(c)
        up spins.
        """
        if self.variant is BasisVariant.FULL_PRODUCT:
            return np.array(
                [self.n_atoms - bin(c).count("1") for c in range(2**self.n_atoms)],
                dtype=np.int64,
            )
        return np.arange(self.n_atoms + 1, dtype=np.int64)


def symmetric_basis(n_atoms, cutoff):
    return DickeBasis(BasisVariant.SYMMETRIC_SECTOR, n_atoms, cutoff)


def suggested_cutoff(params: ModelParams):
    """Photon cutoff covering the mean-field occupation plus fluctuation margin.

    The ground-state convergence gate (energy shift under 50% cutoff
    growth) still guards every use; this only sets the starting point.
    """
    lc = params.critical
    mu = min((lc / params.coupling) ** 2, 1.0) if params.coupling > 0 else 1.0
    mean = params.n_atoms * (params.coupling / params.omega) ** 2 * max(0.0, 1.0 - mu**2)
    return int(math.ceil(mean + 6.5 * math.sqrt(mean + 4.0) + 14.0))


def full_product_basis(n_atoms, cutoff):
    return DickeBasis(BasisVariant.FULL_PRODUCT, n_atoms, cutoff)


# ---------------------------------------------------------------- operators


def _site_sum(pauli, n_atoms):
    """sum_i pauli_i / 2 in the 2^N product basis (pauli_i acts on atom i)."""
    total = np.zeros((2**n_atoms, 2**n_atoms), dtype=pauli.dtype)
    for i in range(n_atoms):
        ops = [pauli if k == i else np.eye(2) for k in range(n_atoms)]
        m = ops[0]
        for k in range(1, n_atoms):
            m = np.kron(m, ops[k])
        total += m / 2.0
    return total


def collective_spin_matrices(basis: DickeBasis):
    """Atomic-space J_x, J_y, J_z (J_y is complex; the rest real)."""
    n_atoms = basis.n_atoms
    if basis.variant is BasisVariant.FULL_PRODUCT:
        sx = np.array([[0.0, 1.0], [1.0, 0.0]])
        sy = np.array([[0.0, -1.0j], [1.0j, 0.0]])
        sz = np.array([[1.0, 0.0], [0.0, -1.0]])
        return _site_sum(sx, n_atoms), _site_sum(sy, n_atoms), _site_sum(sz, n_atoms)
    n = np.arange(n_atoms + 1)
    jp = np.zeros((n_atoms + 1, n_atoms + 1))
    # <n+1| J+ |n> on the j = N/2 multiplet, m = n - N/2
    jp[n[:-1] + 1, n[:-1]] = np.sqrt((n_atoms - n[:-1]) * (n[:-1] + 1.0))
    jz = np.diag(n - n_atoms / 2.0)
    jx = (jp + jp.T) / 2.0
    jy = (jp - jp.T) / 2.0j
    return jx, jy, jz


def _sparse_hamiltonian(params: ModelParams, basis: DickeBasis):
    """CSR matrix of omega a'a + omega0 Jz + (lambda/sqrt(N)) (a'+a)(J+ + J-)."""
    if basis.n_atoms != params.n_atoms:
        raise InvalidParameterError("basis and params disagree on the atom count")
    jx, _, jz = collective_spin_matrices(basis)
    coupling = params.coupling / math.sqrt(params.n_atoms)
    # (J+ + J-) = 2 Jx
    return photon_atom_hamiltonian(
        params.omega, basis.cutoff, params.omega0 * jz, coupling, 2.0 * jx
    )


def build_hamiltonian(params: ModelParams, basis: DickeBasis):
    """Dense matrix of ``_sparse_hamiltonian``."""
    return _sparse_hamiltonian(params, basis).toarray()


def parity_diagonal(basis: DickeBasis):
    """Diagonal of exp[i pi (a'a + J_z + N/2)]: (-1)^(m + n_up)."""
    m = np.repeat(np.arange(basis.cutoff), basis.atom_dim)
    n_up = np.tile(basis.up_counts(), basis.cutoff)
    return np.where((m + n_up) % 2 == 0, 1.0, -1.0)


# ---------------------------------------------------------------- states


@dataclass(frozen=True)
class OracleState:
    """Pure ground state or thermal eigen-decomposition in an oracle basis."""

    basis: DickeBasis
    vector: np.ndarray | None = None
    eigenvalues: np.ndarray | None = None
    eigenvectors: np.ndarray | None = None
    beta: float | None = None

    @property
    def is_thermal(self):
        return self.vector is None

    def thermal_weights(self):
        e = self.eigenvalues - self.eigenvalues.min()
        w = np.exp(-self.beta * e)
        return w / w.sum()

    def atomic_reduced_matrix(self):
        """Photon-traced atomic density matrix (full matrix, not just diagonal)."""
        d_atom = self.basis.atom_dim
        if not self.is_thermal:
            psi = self.vector.reshape(self.basis.cutoff, d_atom)
            return psi.T @ psi
        w = self.thermal_weights()
        vecs = (self.eigenvectors * np.sqrt(w)).reshape(self.basis.cutoff, d_atom, -1)
        return np.einsum("mak,mbk->ab", vecs, vecs)

    def up_spin_distribution(self):
        """Probability of finding exactly n up spins, n = 0..N."""
        diag = np.diag(self.atomic_reduced_matrix())
        n_up = self.basis.up_counts()
        return np.bincount(n_up, weights=diag, minlength=self.basis.n_atoms + 1)


def convergence_cutoff(cutoff):
    """The enlarged cutoff of the ground-state convergence gate: ceil(1.5 c)."""
    return int(math.ceil(1.5 * cutoff))


@functools.lru_cache(maxsize=64)
def _ground_pair(params: ModelParams, cutoff: int):
    # H conserves the parity, and the ground state is the lowest state of
    # the even block; solving only that block keeps the state an exact
    # parity eigenstate even where the odd ground state is degenerate with
    # it to rounding (the superradiant phase)
    basis = symmetric_basis(params.n_atoms, cutoff)
    even = np.flatnonzero(parity_diagonal(basis) > 0)
    h = _sparse_hamiltonian(params, basis)
    e0, block_vec = lowest_eigenpair(h[even][:, even])
    vec = np.zeros(basis.dim)
    vec[even] = block_vec
    return e0, vec


def exact_ground_state(params: ModelParams, cutoff):
    """Symmetric-sector ground state; errors out unless the photon cutoff is converged.

    Convergence gate: the ground energy moves by less than 1e-8 when the
    cutoff grows by 50%.
    """
    cutoff = int(cutoff)
    e0, vec = _ground_pair(params, cutoff)
    big = convergence_cutoff(cutoff)
    e0_big, _ = _ground_pair(params, big)
    if abs(e0 - e0_big) > _GROUND_ENERGY_TOL:
        raise CutoffError(
            f"ground energy shifted by {abs(e0 - e0_big):.3e} under cutoff growth "
            f"({cutoff} -> {big}); increase the photon cutoff",
            mode="photon",
        )
    return OracleState(symmetric_basis(params.n_atoms, cutoff), vector=vec)


def ground_energy(params: ModelParams, cutoff):
    return _ground_pair(params, int(cutoff))[0]


@functools.lru_cache(maxsize=32)
def _thermal_decomposition(params: ModelParams, cutoff: int):
    basis = full_product_basis(params.n_atoms, cutoff)
    h = build_hamiltonian(params, basis)
    vals, vecs = symmetric_eigendecomposition(h)
    return basis, vals, vecs


def exact_thermal_state(params: ModelParams, cutoff, beta):
    """Gibbs state over the full product space from a complete eigendecomposition."""
    if beta <= 0:
        raise InvalidParameterError(f"beta must be positive, got {beta}")
    basis, vals, vecs = _thermal_decomposition(params, int(cutoff))
    return OracleState(basis, eigenvalues=vals, eigenvectors=vecs, beta=float(beta))


# ---------------------------------------------------------------- observables


def _config_log_weights(sep: SeparableState, n_up):
    """Per-configuration ln[a^n (1-a)^(N-n)] (no binomial factor)."""
    up, down = config_log_terms(sep.a, sep.n_atoms, n_up)
    return up + down


def exact_overlap(state: OracleState, sep: SeparableState):
    """Overlap of the atomic marginal with the separable reference state.

    Computed two independent ways and cross-checked to 1e-10:
    (i) the n-resolved atomic diagonal contracted with the binomial
    weights, (ii) a direct trace of the photon-traced atomic density
    matrix against the explicitly assembled reference-state matrix in
    the oracle basis.  In the symmetric sector the reference state is
    represented by its collective (Dicke-level) weights; in the full
    product basis by the per-configuration product weights, whose
    n-class sums are the same binomial weights.

    Returns (value, path_diagonal, path_matrix).
    """
    if sep.n_atoms != state.basis.n_atoms:
        raise InvalidParameterError("separable state and oracle basis disagree on N")
    weights = sep.weights()
    if state.basis.variant is BasisVariant.SYMMETRIC_SECTOR:
        p_n = state.up_spin_distribution()
        path_diag = float(np.dot(weights, p_n))
        rho_atoms = state.atomic_reduced_matrix()
        path_matrix = float(np.trace(rho_atoms @ np.diag(weights)))
    else:
        n_up = state.basis.up_counts()
        # class-averaged diagonal times the binomial weights == product trace
        counts = np.array([math.comb(sep.n_atoms, n) for n in range(sep.n_atoms + 1)])
        class_sums = state.up_spin_distribution()
        path_diag = float(np.dot(weights, class_sums / counts))
        rho_atoms = state.atomic_reduced_matrix()
        ref_diag = np.exp(_config_log_weights(sep, n_up))
        path_matrix = float(np.trace(rho_atoms @ np.diag(ref_diag)))
    if abs(path_diag - path_matrix) > _DUAL_PATH_TOL:
        raise InternalConsistencyError(
            f"overlap paths disagree: {path_diag} vs {path_matrix}"
        )
    return path_diag, path_diag, path_matrix


def exact_moments(state: OracleState) -> MomentSet:
    """First and second collective moments by direct operator application."""
    jx, jy, jz = collective_spin_matrices(state.basis)
    rho = state.atomic_reduced_matrix()
    n = state.basis.n_atoms

    def expect(op):
        return float(np.real(np.trace(rho @ op)))

    first = (expect(jx) / n, expect(jy) / n, expect(jz) / n)
    second = (
        expect(jx @ jx) / n**2,
        expect(np.real(jy @ jy)) / n**2,
        expect(jz @ jz) / n**2,
    )
    return MomentSet(n_atoms=n, first=first, second=second)


def matched_separable_state(state: OracleState) -> SeparableState:
    """Reference state with a fixed by the oracle state's own <J_z>/N."""
    jz = exact_moments(state).first[2]
    return SeparableState.from_a(min(max(0.5 + jz, 0.0), 1.0), state.basis.n_atoms)


# ------------------------------------------------- split-trace evaluations
#
# Tr[exp(-beta H0) exp(-beta HI)] with H0 = omega a'a and HI the rest;
# the small-beta factorization underlying the finite-temperature
# quadratures.  Evaluating it exactly here separates quadrature error
# from factorization error.


@functools.lru_cache(maxsize=32)
def _split_pieces(params: ModelParams, cutoff: int):
    basis = full_product_basis(params.n_atoms, cutoff)
    jx, _, jz = collective_spin_matrices(basis)
    coupling = params.coupling / math.sqrt(params.n_atoms)
    # HI: H without its omega a'a term
    hi = photon_atom_hamiltonian(0.0, cutoff, params.omega0 * jz, coupling, 2.0 * jx).toarray()
    vals, vecs = symmetric_eigendecomposition(hi)
    h0_diag = params.omega * np.repeat(np.arange(cutoff, dtype=float), basis.atom_dim)
    return basis, h0_diag, vals, vecs


def _split_log_terms(params, cutoff, beta):
    from scipy.special import logsumexp
    basis, h0_diag, vals, vecs = _split_pieces(params, int(cutoff))
    # ln (exp(-beta HI))_ii = logsumexp_k [ ln U_ik^2 - beta e_k ]
    log_diag = logsumexp(-beta * vals[None, :], b=vecs**2, axis=1)
    return basis, -beta * h0_diag + log_diag


def split_log_partition(params: ModelParams, cutoff, beta):
    """ln Tr[exp(-beta H0) exp(-beta HI)] in the full product basis."""
    from scipy.special import logsumexp
    _, log_terms = _split_log_terms(params, cutoff, beta)
    return float(logsumexp(log_terms))


def split_overlap(params: ModelParams, cutoff, beta, sep: SeparableState):
    """Overlap of the split-trace state with the reference state.

    Matches the finite-temperature quadrature up to quadrature and photon
    truncation error only; the O(beta^3) factorization error is common to
    both.
    """
    from scipy.special import logsumexp
    basis, log_terms = _split_log_terms(params, cutoff, beta)
    n_up = np.tile(basis.up_counts(), basis.cutoff)
    log_ref = _config_log_weights(sep, n_up)
    return float(np.exp(logsumexp(log_terms + log_ref) - logsumexp(log_terms)))
