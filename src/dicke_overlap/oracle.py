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
  takes 0.45 s on one BLAS thread.

The split trace Tr[exp(-beta H0) exp(-beta HI)] needs only the diagonal of
exp(-beta HI), and HI = omega0 J_z + (lambda/sqrt(N)) X (J+ + J-) commutes
with the photon quadrature X = a + a'.  The truncated X is tridiagonal with
off-diagonals sqrt(1) ... sqrt(c-1); its eigenvalues x_m are the c-point
Gauss-Hermite nodes times sqrt(2), and its eigenvectors give <n|x_m>
(Golub & Welsch, Math. Comp. 23, 221 (1969)).  On |x_m> a block j of HI is
the atomic matrix A(x_m) = omega0 J_z + (lambda/sqrt(N)) x_m (J+ + J-) of
dimension 2j+1, so each block is c small eigenproblems, solved in one
batched ``eigh``, and no block of HI is ever built: the split trace at
N = 20 and cutoff 40 takes 17 ms on one BLAS thread, where the dense
blocks of HI took 0.5 s.

Each basis is bounded by the bytes its solves hold at once, checked before
anything is allocated.  The symmetric one counts the 64 Lanczos vectors of
the ground state (N = 100 at the suggested cutoff 173 of lambda = 1 solves,
with its convergence gate, in about 1.1 s on one BLAS thread of a 2-core
Xeon).  The full one counts one set of dense block eigenvectors of H,
S = 8 cutoff^2 sum_j (2j+1)^2 bytes, and five dense matrices of its
largest block, L = 8 cutoff^2 (N+1)^2 bytes each.  A sweep holds one
coupling's set and drops it before it builds the next.  The solve of a
block holds four more of its matrices beside its eigenvectors (the dense
block, LAPACK's copy of it and a workspace of two), and the blocks come
largest first, so the solves hold at most S + 4L; the fifth covers the
freed blocks that the allocator keeps resident (a sweep's peak RSS growth
measured S + 4.9 L at N = 1 and cutoff 200, S + 1.4 L at N = 30 and cutoff
40).  The split trace holds a few arrays of c (2j+1)^2 or c^2 (2j+1)
numbers per block, a c-th or a (2j+1)-th of one block matrix.  At cutoff 40
the bound admits N up to 89.

A state keeps the diagonals 0, 1 and 2 of each block's photon-traced
atomic matrix.  Thermal states take the complete dense eigendecomposition
of each block.  Everything here runs on numpy alone.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, CutoffError, InternalConsistencyError, InvalidParameterError
from .core import ModelParams
from .numerics import (
    _KRYLOV_DIM,
    PhotonAtomOperator,
    log_sum_exp,
    lowest_eigenpair,
    traced_band,
)
from .separable import SeparableState
from .witness import MomentSet, spin_ladder

# float64 bytes the solves of a basis hold at once: the Lanczos vectors of a
# ground state, or the dense blocks of the thermal and split-trace states
_MAX_BYTES = 2 * 2**30
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


def _check_bytes(nbytes, held):
    if nbytes > _MAX_BYTES:
        raise CapacityError(
            f"{held} need {nbytes / 2**30:.1f} GiB together, over the {_MAX_BYTES >> 30} GiB bound"
        )


def symmetric_basis(n_atoms, cutoff):
    """The block j = N/2, bounded by the Lanczos vectors of its ground state's solve."""
    basis = DickeBasis(n_atoms, cutoff, (n_atoms / 2,))
    _check_bytes(8 * _KRYLOV_DIM * basis.dim, f"{_KRYLOV_DIM} Lanczos vectors of {basis.dim} states")
    return basis


def full_product_basis(n_atoms, cutoff):
    """All 2^N spin configurations: the multiplets j = N/2, N/2-1, ..., 0 or 1/2.

    Bounded by one set of dense block eigenvectors and five dense matrices
    of the largest block (see the module docstring).
    """
    basis = DickeBasis(n_atoms, cutoff, tuple(n_atoms / 2 - k for k in range(n_atoms // 2 + 1)))
    _check_bytes(
        8 * basis.cutoff**2 * (sum((int(2 * j) + 1) ** 2 for j in basis.spins)
                               + 5 * (n_atoms + 1) ** 2),
        f"1 set of {len(basis.spins)} dense block(s) and 5 matrices of the largest",
    )
    return basis


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
    """Dense J_x, J_y, J_z of the spin-j multiplet, on |j, m> in ascending m (J_y complex)."""
    jp = np.diag(spin_ladder(j), -1)
    jz = np.diag(np.arange(len(jp)) - j)
    return (jp + jp.T) / 2.0, (jp - jp.T) / 2.0j, jz


def _hamiltonian(params: ModelParams, basis: DickeBasis):
    """Operator of omega a'a + omega0 Jz + (lambda/sqrt(N)) (a'+a)(J+ + J-) on a one-block basis."""
    if basis.n_atoms != params.n_atoms:
        raise InvalidParameterError("basis and params disagree on the atom count")
    m = np.arange(int(2 * basis.spin) + 1) - basis.spin
    h_atom = (params.omega0 * m, 0.0)
    coupling = params.coupling / math.sqrt(params.n_atoms)
    return PhotonAtomOperator(params.omega, basis.cutoff, h_atom, coupling, spin_ladder(basis.spin))


def build_hamiltonian(params: ModelParams, basis: DickeBasis):
    """Dense Dicke Hamiltonian of a one-block basis."""
    return _hamiltonian(params, basis).toarray()


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
    def atomic_bands(self):
        """(j, diagonals 0, 1, 2 of the photon-traced atomic matrix) of one copy of each block j."""
        return tuple(
            (j, traced_band(vectors.reshape(self.basis.cutoff, -1, len(p)), p))
            for j, vectors, p in self.blocks
        )

    def up_spin_distribution(self):
        """Probability of finding exactly n up spins, n = 0..N."""
        p = np.zeros(self.basis.n_atoms + 1)
        for j, (probs, _, _) in self.atomic_bands:
            p[self.basis.up_counts(j)] += self.basis.multiplicity(j) * probs
        return p


def convergence_cutoff(cutoff):
    """The enlarged cutoff of the ground-state convergence gate: ceil(1.5 c)."""
    return int(math.ceil(1.5 * cutoff))


def _ground_pair(params: ModelParams, basis: DickeBasis):
    # H conserves the parity, and the ground state is the lowest state of
    # the even block; solving only that block keeps the state an exact
    # parity eigenstate even where the odd ground state is degenerate with
    # it to rounding (the superradiant phase)
    return lowest_eigenpair(
        _hamiltonian(params, basis), sector=parity_diagonal(basis) > 0
    )


def exact_ground_state(params: ModelParams, cutoff):
    """Symmetric-sector ground state; errors out unless the photon cutoff is converged.

    Convergence gate: the ground energy moves by less than 1e-8 when the
    cutoff grows by 50%.  Its larger basis is checked against the capacity
    bound before the first solve.
    """
    big_basis = symmetric_basis(params.n_atoms, convergence_cutoff(int(cutoff)))
    basis = symmetric_basis(params.n_atoms, int(cutoff))
    e0, vec = _ground_pair(params, basis)
    e0_big, _ = _ground_pair(params, big_basis)
    if abs(e0 - e0_big) > _GROUND_ENERGY_TOL:
        raise CutoffError(
            f"ground energy shifted by {abs(e0 - e0_big):.3e} under cutoff growth "
            f"({basis.cutoff} -> {big_basis.cutoff}); increase the photon cutoff",
            mode="photon",
        )
    return OracleState(basis, ((basis.spin, vec[:, None], np.ones(1)),))


def ground_energy(params: ModelParams, cutoff):
    return _ground_pair(params, symmetric_basis(params.n_atoms, int(cutoff)))[0]


# one coupling's set: a sweep runs its rows coupling-major, so every later
# beta row of a coupling reads it and no later coupling does; a build first
# drops the set held before (and zeroes the cache's counters), so a sweep
# never holds two
@functools.lru_cache(maxsize=1)
def _block_eigensystems(params: ModelParams, cutoff: int):
    """Full basis and the eigendecomposition of each of its blocks of H."""
    _block_eigensystems.cache_clear()
    basis = full_product_basis(params.n_atoms, cutoff)
    # each dense block is symmetric by construction
    return basis, tuple(
        np.linalg.eigh(_hamiltonian(params, basis.block(j)).toarray())
        for j in basis.spins
    )


def exact_thermal_state(params: ModelParams, cutoff, beta):
    """Gibbs state over all 2^N spin configurations, one eigendecomposition per multiplet."""
    if beta <= 0:
        raise InvalidParameterError(f"beta must be positive, got {beta}")
    basis, eigensystems = _block_eigensystems(params, int(cutoff))
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

    The two agree for every state only at a = 0 and a = 1.  Two paths sum
    the same block diagonals against the same weights and must agree to
    1e-10, which catches a mis-binned P(n), not an error in the state:
    (i) bins each block's diagonal by up-spin count into P(n), (ii) sums
    each block's diagonal against its own levels' weights, per copy.

    Returns (value, path_diagonal, path_blocks).
    """
    if sep.n_atoms != state.basis.n_atoms:
        raise InvalidParameterError("separable state and oracle basis disagree on N")
    ref = np.exp(_reference_log_levels(state.basis, sep))
    path_diag = float(np.dot(ref, state.up_spin_distribution()))
    path_blocks = sum(
        state.basis.multiplicity(j) * float(probs @ ref[state.basis.up_counts(j)])
        for j, (probs, _, _) in state.atomic_bands
    )
    if abs(path_diag - path_blocks) > _DUAL_PATH_TOL:
        raise InternalConsistencyError(
            f"overlap paths disagree: {path_diag} vs {path_blocks}"
        )
    return path_diag, path_diag, path_blocks


def exact_moments(state: OracleState) -> MomentSet:
    """First and second collective moments from each block's band, weighted by its copies."""
    return MomentSet.from_bands(state.basis.n_atoms, [
        (j, state.basis.multiplicity(j), band) for j, band in state.atomic_bands
    ])


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

    HI commutes with the photon quadrature X = a + a', so on each eigenvector
    |x_m> of the truncated X a block of HI is the atomic matrix
    A(x_m) = omega0 Jz + (lambda/sqrt(N)) x_m (J+ + J-), with eigenpairs
    e_k(m), u_k(m), and (exp(-beta HI))_(n i, n i) =
    sum_m <n|x_m>^2 sum_k u_ik(m)^2 exp(-beta e_k(m)).

    Returns (basis, log terms, up-spin count of each term).
    """
    basis = full_product_basis(params.n_atoms, int(cutoff))
    c = basis.cutoff
    # X is tridiagonal; its eigenvalues are the c-point Gauss-Hermite nodes times sqrt(2)
    ladder = np.sqrt(np.arange(1.0, c))
    x, photon = np.linalg.eigh(np.diag(ladder, 1) + np.diag(ladder, -1))
    h0 = -beta * params.omega * np.arange(c, dtype=float)
    coupling = params.coupling / math.sqrt(params.n_atoms)
    log_terms, n_up = [], []
    for j in basis.spins:
        up = basis.up_counts(j)
        d = len(up)
        i = np.arange(d)
        atomic = np.zeros((c, d, d))
        atomic[:, i, i] = params.omega0 * (i - j)
        atomic[:, i[1:], i[:-1]] = atomic[:, i[:-1], i[1:]] = coupling * np.outer(x, spin_ladder(j))
        vals, vecs = np.linalg.eigh(atomic)
        # ln (exp(-beta A(x_m)))_ii, then ln sum_m <n|x_m>^2 (exp(-beta A(x_m)))_ii
        log_atomic = log_sum_exp(-beta * vals[:, None, :], vecs**2, axis=2)
        log_diag = log_sum_exp(log_atomic[None], photon[:, :, None] ** 2, axis=1)
        log_terms.append((h0[:, None] + log_diag + math.log(basis.multiplicity(j))).ravel())
        n_up.append(np.tile(up, c))
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
