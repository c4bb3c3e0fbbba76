"""Exact diagonalization of the full Dicke Hamiltonian.

Validation backend for every other module.  H = omega a'a + omega0 J_z +
(lambda/sqrt(N)) (a'+a)(J+ + J-) commutes with the total spin J^2, and so do
the split-trace H_I and every reference state rho_s, a function of J_z.  An
oracle basis is therefore a direct sum of blocks, each the truncated photon
Fock space tensor one spin-j multiplet |j, m>, m = -j..j.  The multiplet
occurs d_j = C(N, N/2-j) - C(N, N/2-j-1) times among the 2^N spin
configurations (Chase & Geremia, PRA 78, 052101 (2008)); its copies are
identical, so one copy is solved and weighted by d_j.  Two bases:

* ``symmetric_basis`` -- the single block j = N/2, dimension cutoff * (N+1).
  The ground state lives here, in the even block of the parity
  exp[i pi (a'a + J_z + N/2)], which the matrix-free Lanczos of
  ``numerics`` solves alone: N = 40 takes about 0.1 s.
* ``full_product_basis`` -- every multiplet j = N/2, N/2-1, ..., together
  all 2^N spin configurations.  Thermal states weight the non-symmetric
  multiplets, so finite-temperature validation uses this basis; its largest
  block is the symmetric one: a thermal state at N = 20 and cutoff 40
  takes about 0.4 s.  The dense bound counts every block, since one
  eigendecomposition holds them all.

Thermal and split-trace states take the complete dense eigendecomposition
of ``numerics``, one block at a time.  Everything here runs on numpy alone.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, CutoffError, InternalConsistencyError, InvalidParameterError
from .core import ModelParams
from .numerics import (
    log_sum_exp,
    lowest_eigenpair,
    photon_atom_hamiltonian,
    symmetric_eigendecomposition,
)
from .separable import SeparableState
from .witness import MomentSet

# one dense float64 matrix per block, all blocks together: what one
# eigendecomposition of a thermal or split-trace state holds; the ground
# state's matrix-free even block needs far less, so for it this is a
# conservative ceiling
_DENSE_MAX_BYTES = 2 * 2**30
_GROUND_ENERGY_TOL = 1e-8
_DUAL_PATH_TOL = 1e-10


@dataclass(frozen=True)
class DickeBasis:
    """Photon Fock levels 0..cutoff-1 tensor a direct sum of spin multiplets.

    ``spins`` lists the total spin j of each block.  Block j stands for its
    ``multiplicity(j)`` identical copies; operators and states live on one.
    """

    n_atoms: int
    cutoff: int
    spins: tuple

    def __post_init__(self):
        if self.cutoff < 2:
            raise InvalidParameterError(f"photon cutoff must be >= 2, got {self.cutoff}")
        dense_bytes = 8 * self.cutoff**2 * sum((int(2 * j) + 1) ** 2 for j in self.spins)
        if dense_bytes > _DENSE_MAX_BYTES:
            raise CapacityError(
                f"{len(self.spins)} dense block(s) need {dense_bytes / 2**30:.1f} GiB "
                f"together, over the {_DENSE_MAX_BYTES >> 30} GiB bound"
            )

    @property
    def dim(self):
        """Dimension of the space spanned, every copy of every block counted."""
        return self.cutoff * sum(self.multiplicity(j) * (int(2 * j) + 1) for j in self.spins)

    @property
    def spin(self):
        """The total spin j of a one-block basis."""
        if len(self.spins) != 1:
            raise InvalidParameterError(f"expected a one-block basis, got spins {self.spins}")
        return self.spins[0]

    def block(self, j):
        """The one-block basis of multiplet j."""
        return DickeBasis(self.n_atoms, self.cutoff, (j,))

    def multiplicity(self, j):
        """Copies of the spin-j multiplet among the 2^N spin configurations."""
        k = round(self.n_atoms / 2 - j)
        return math.comb(self.n_atoms, k) - (math.comb(self.n_atoms, k - 1) if k else 0)

    def up_counts(self, j):
        """Number of up spins, m + N/2, of each |j, m> in ascending m."""
        return np.arange(int(2 * j) + 1) + round(self.n_atoms / 2 - j)

    def level_counts(self):
        """Number of atomic basis states with n up spins, n = 0..N, every copy counted."""
        counts = np.zeros(self.n_atoms + 1)
        for j in self.spins:
            counts[self.up_counts(j)] += self.multiplicity(j)
        return counts


def symmetric_basis(n_atoms, cutoff):
    return DickeBasis(n_atoms, cutoff, (n_atoms / 2,))


def full_product_basis(n_atoms, cutoff):
    """All 2^N spin configurations: the multiplets j = N/2, N/2-1, ..., 0 or 1/2."""
    return DickeBasis(n_atoms, cutoff, tuple(n_atoms / 2 - k for k in range(n_atoms // 2 + 1)))


def suggested_cutoff(params: ModelParams):
    """Photon cutoff covering the mean-field occupation plus fluctuation margin.

    The ground-state convergence gate (energy shift under 50% cutoff
    growth) still guards every use; this only sets the starting point.
    """
    lc = params.critical
    mu = min((lc / params.coupling) ** 2, 1.0) if params.coupling > 0 else 1.0
    mean = params.n_atoms * (params.coupling / params.omega) ** 2 * max(0.0, 1.0 - mu**2)
    return int(math.ceil(mean + 6.5 * math.sqrt(mean + 4.0) + 14.0))


# ---------------------------------------------------------------- operators


def collective_spin_matrices(j):
    """J_x, J_y, J_z of the spin-j multiplet, on |j, m> in ascending m (J_y complex; the rest real)."""
    i = np.arange(int(2 * j) + 1)
    jp = np.zeros((len(i), len(i)))
    # <j, m+1| J+ |j, m> = sqrt((j - m)(j + m + 1)), m = i - j
    jp[i[:-1] + 1, i[:-1]] = np.sqrt((2 * j - i[:-1]) * (i[:-1] + 1.0))
    jz = np.diag(i - j)
    jx = (jp + jp.T) / 2.0
    jy = (jp - jp.T) / 2.0j
    return jx, jy, jz


def _hamiltonian(params: ModelParams, basis: DickeBasis, omega):
    """Operator of omega a'a + omega0 Jz + (lambda/sqrt(N)) (a'+a)(J+ + J-) on a one-block basis."""
    if basis.n_atoms != params.n_atoms:
        raise InvalidParameterError("basis and params disagree on the atom count")
    jx, _, jz = collective_spin_matrices(basis.spin)
    coupling = params.coupling / math.sqrt(params.n_atoms)
    # (J+ + J-) = 2 Jx
    return photon_atom_hamiltonian(omega, basis.cutoff, params.omega0 * jz, coupling, 2.0 * jx)


def build_hamiltonian(params: ModelParams, basis: DickeBasis):
    """Dense Dicke Hamiltonian of a one-block basis."""
    return _hamiltonian(params, basis, params.omega).toarray()


def parity_diagonal(basis: DickeBasis):
    """Diagonal of exp[i pi (a'a + J_z + N/2)] on a one-block basis: (-1)^(m + n_up)."""
    up = basis.up_counts(basis.spin)
    m = np.repeat(np.arange(basis.cutoff), len(up))
    n_up = np.tile(up, basis.cutoff)
    return np.where((m + n_up) % 2 == 0, 1.0, -1.0)


# ---------------------------------------------------------------- states


@dataclass(frozen=True)
class OracleState:
    """Pure ground state or Gibbs state in an oracle basis, held block by block.

    Each entry of ``blocks`` is (j, vectors, probabilities): the columns of
    ``vectors`` are eigenvectors of block j, and ``probabilities`` their
    weights in each copy of it.  Blocks not listed carry no weight.
    """

    basis: DickeBasis
    blocks: tuple

    @functools.cached_property
    def atomic_blocks(self):
        """(j, photon-traced atomic density matrix of one copy of block j), per listed block.

        Built once per state: the overlap, the moments and the matched
        reference state all read it.
        """
        out = []
        for j, vectors, probabilities in self.blocks:
            psi = (vectors * np.sqrt(probabilities)).reshape(self.basis.cutoff, -1, len(probabilities))
            amplitudes = psi.transpose(1, 0, 2).reshape(psi.shape[1], -1)
            out.append((j, amplitudes @ amplitudes.T))
        return tuple(out)

    def up_spin_distribution(self):
        """Probability of finding exactly n up spins, n = 0..N."""
        p = np.zeros(self.basis.n_atoms + 1)
        for j, rho in self.atomic_blocks:
            p[self.basis.up_counts(j)] += self.basis.multiplicity(j) * np.diag(rho)
        return p


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
    return lowest_eigenpair(
        _hamiltonian(params, basis, params.omega), sector=parity_diagonal(basis) > 0
    )


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
    basis = symmetric_basis(params.n_atoms, cutoff)
    return OracleState(basis, ((basis.spin, vec[:, None], np.ones(1)),))


def ground_energy(params: ModelParams, cutoff):
    return _ground_pair(params, int(cutoff))[0]


@functools.lru_cache(maxsize=64)
def _block_eigensystems(params: ModelParams, cutoff: int, omega):
    """Full basis and the eigendecomposition of each of its blocks, photon frequency ``omega``."""
    basis = full_product_basis(params.n_atoms, cutoff)
    return basis, tuple(
        symmetric_eigendecomposition(_hamiltonian(params, basis.block(j), omega).toarray())
        for j in basis.spins
    )


def exact_thermal_state(params: ModelParams, cutoff, beta):
    """Gibbs state over all 2^N spin configurations, one eigendecomposition per multiplet."""
    if beta <= 0:
        raise InvalidParameterError(f"beta must be positive, got {beta}")
    basis, eigensystems = _block_eigensystems(params, int(cutoff), params.omega)
    e_min = min(vals[0] for vals, _ in eigensystems)
    boltzmann = [np.exp(-beta * (vals - e_min)) for vals, _ in eigensystems]
    z = sum(basis.multiplicity(j) * w.sum() for j, w in zip(basis.spins, boltzmann))
    return OracleState(basis, tuple(
        (j, vecs, w / z) for j, (_, vecs), w in zip(basis.spins, eigensystems, boltzmann)
    ))


# ---------------------------------------------------------------- observables


def _reference_log_levels(basis: DickeBasis, sep: SeparableState):
    """ln of the reference state's weight on one atomic basis state with n up spins, n = 0..N.

    The reference J_z distribution C(N,n) a^n (1-a)^(N-n), shared evenly by
    the basis states with n up spins: over all multiplets that is
    a^n (1-a)^(N-n) = <n|rho_s|n>, on the symmetric block alone the whole
    binomial weight.
    """
    return sep.log_weights - np.log(basis.level_counts())


def exact_overlap(state: OracleState, sep: SeparableState):
    """Overlap of the atomic marginal with the separable reference state.

    The functional depends on the basis, through the reference state's
    weight on each of its states.  With P(n) the probability of n up spins:

    * symmetric sector: sum_n C(N,n) a^n (1-a)^(N-n) P(n), the overlap of
      the J_z distributions, with the reference state represented by its
      collective (Dicke-level) binomial weights;
    * full product basis: Tr[rho_A rho_s] = sum_n a^n (1-a)^(N-n) P(n),
      with the reference state represented by its per-configuration
      product weights.

    The two agree for every state only at a = 0 and a = 1.  Either is
    computed two independent ways and cross-checked to 1e-10: (i) the
    n-resolved atomic diagonal contracted with the weights, (ii) a direct
    trace of each block's photon-traced atomic density matrix against the
    explicitly assembled reference-state matrix, summed over the copies.

    Returns (value, path_diagonal, path_matrix).
    """
    if sep.n_atoms != state.basis.n_atoms:
        raise InvalidParameterError("separable state and oracle basis disagree on N")
    ref = np.exp(_reference_log_levels(state.basis, sep))
    path_diag = float(np.dot(ref, state.up_spin_distribution()))
    path_matrix = sum(
        state.basis.multiplicity(j) * float(np.trace(rho @ np.diag(ref[state.basis.up_counts(j)])))
        for j, rho in state.atomic_blocks
    )
    if abs(path_diag - path_matrix) > _DUAL_PATH_TOL:
        raise InternalConsistencyError(
            f"overlap paths disagree: {path_diag} vs {path_matrix}"
        )
    return path_diag, path_diag, path_matrix


def exact_moments(state: OracleState) -> MomentSet:
    """First and second collective moments by direct operator application, block by block."""
    n = state.basis.n_atoms
    totals = np.zeros(6)
    for j, rho in state.atomic_blocks:
        jx, jy, jz = collective_spin_matrices(j)
        ops = (jx, jy, jz, jx @ jx, np.real(jy @ jy), jz @ jz)
        totals += state.basis.multiplicity(j) * np.array([np.real(np.trace(rho @ op)) for op in ops])
    first = tuple(float(t) / n for t in totals[:3])
    second = tuple(float(t) / n**2 for t in totals[3:])
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


def _split_log_terms(params, cutoff, beta):
    """ln of each diagonal element of exp(-beta H0) exp(-beta HI), times the copies of its block.

    Returns (basis, log terms, up-spin count of each term).
    """
    # HI: H without its omega a'a term
    basis, eigensystems = _block_eigensystems(params, int(cutoff), 0.0)
    log_terms, n_up = [], []
    for j, (vals, vecs) in zip(basis.spins, eigensystems):
        up = basis.up_counts(j)
        h0_diag = params.omega * np.repeat(np.arange(basis.cutoff, dtype=float), len(up))
        # ln (exp(-beta HI))_ii = ln sum_k U_ik^2 exp(-beta e_k)
        log_diag = log_sum_exp(-beta * vals[None, :], vecs**2, axis=1)
        log_terms.append(-beta * h0_diag + log_diag + math.log(basis.multiplicity(j)))
        n_up.append(np.tile(up, basis.cutoff))
    return basis, np.concatenate(log_terms), np.concatenate(n_up)


def split_log_partition(params: ModelParams, cutoff, beta):
    """ln Tr[exp(-beta H0) exp(-beta HI)] over all 2^N spin configurations."""
    _, log_terms, _ = _split_log_terms(params, cutoff, beta)
    return float(log_sum_exp(log_terms))


def split_overlap(params: ModelParams, cutoff, beta, sep: SeparableState):
    """Overlap of the split-trace state with the reference state.

    The full-product-basis functional of ``exact_overlap``: Tr[rho_A rho_s] =
    sum_n a^n (1-a)^(N-n) P(n), with rho_A the photon-traced atomic state
    of exp(-beta H0) exp(-beta HI) / Tr[...].  Matches the finite-temperature
    quadrature up to quadrature and photon truncation error only; the
    O(beta^3) factorization error is common to both.
    """
    basis, log_terms, n_up = _split_log_terms(params, cutoff, beta)
    log_ref = _reference_log_levels(basis, sep)[n_up]
    return float(np.exp(log_sum_exp(log_terms + log_ref) - log_sum_exp(log_terms)))
