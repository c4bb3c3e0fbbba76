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

The split trace Tr[exp(-beta H0) exp(-beta HI)] needs no basis of
multiplets.  HI = omega0 J_z + (lambda/sqrt(N)) X (J+ + J-) commutes with
the photon quadrature X = a + a', whose truncation is tridiagonal with
off-diagonals sqrt(1) ... sqrt(c-1); its eigenvalues x_m are the c-point
Gauss-Hermite nodes times sqrt(2), and its eigenvectors give <n|x_m>
(Golub & Welsch, Math. Comp. 23, 221 (1969)).  On |x_m> HI is a sum of
one-atom terms, so the atoms decouple (Wang & Hioe, PRA 7, 831 (1973)):
the trace is one photon weight per node times the N-th power of a
one-atom trace in closed form, after one c x c ``eigh`` at any N (0.5 ms
at N = 20 to 140 and cutoff 40, where the per-multiplet solves took 11 ms
and 2.2 s).

Each basis is bounded by the bytes its solves hold at once, checked before
anything is allocated.  The symmetric one counts the 64 Lanczos vectors of
the ground state (N = 100 at the suggested cutoff 173 of lambda = 1 solves,
with its convergence gate, in about 1.1 s on one BLAS thread of a 2-core
Xeon).  The full one counts the bands a thermal sweep keeps, at most
3 cutoff sum_j (2j+1)^2 numbers, and six dense matrices of its largest
block, L = 8 cutoff^2 (N+1)^2 bytes each.  Each block is reduced as soon as
it is solved, to its eigenvalues and each eigenvector's traced band (three
diagonals of 2j+1 levels: 3/c of the eigenvectors' size), and its
eigenvectors are freed before the next block is built.  A sweep holds one
coupling's bands and drops them before it builds the next.  The solve of a
block holds five of its matrices (the dense block, LAPACK's copy of it, a
workspace of two and the eigenvectors), and the blocks come largest first,
so the solves hold at most the bands and 5L; the sixth covers the freed
blocks that the allocator keeps resident (a sweep's peak RSS growth
measured the bands plus 2.6 L to 5.6 L for N = 1 to 40 at cutoff 40, and
5.6 L at N = 1 and cutoff 200).  The bound is the thermal state's alone:
the split trace holds a few arrays of c^2 numbers.  At cutoff 40 the bound
admits N up to 145.

A state keeps the diagonals 0, 1 and 2 of each block's photon-traced
atomic matrix, the ground state's traced from its one vector, the thermal
state's weighted from its blocks' reduced eigensystems.  Its overlap with a
reference state is ``separable.overlap`` of the blocks' diagonals with the
per-level weights the caller passes, which name the functional; the basis
does not.  Everything here runs on numpy alone.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import (CapacityError, CutoffError, InternalConsistencyError,
                     InvalidParameterError, NumericalError)
from .core import ModelParams, check_beta
from .numerics import (
    _KRYLOV_DIM,
    PhotonAtomOperator,
    log_sum_exp,
    lowest_eigenpair,
    traced_band,
)
from .separable import SeparableState, overlap
from .witness import MomentSet, spin_ladder

# float64 bytes the solves of a basis hold at once: the Lanczos vectors of a
# ground state, or the bands and dense blocks of a thermal sweep
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
        _check_cutoff(self.cutoff)

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


def _check_cutoff(cutoff):
    if cutoff < 2:
        raise InvalidParameterError(f"photon cutoff must be >= 2, got {cutoff}")
    return cutoff


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

    Bounded by the traced bands of every block's eigenvectors and six dense
    matrices of the largest block (see the module docstring).
    """
    basis = DickeBasis(n_atoms, cutoff, tuple(n_atoms / 2 - k for k in range(n_atoms // 2 + 1)))
    _check_bytes(
        8 * basis.cutoff * (3 * sum((int(2 * j) + 1) ** 2 for j in basis.spins)
                            + 6 * basis.cutoff * (n_atoms + 1) ** 2),
        f"the bands of {len(basis.spins)} block(s) and 6 matrices of the largest",
    )
    return basis


def suggested_cutoff(params: ModelParams):
    """Photon cutoff covering the mean-field occupation plus fluctuation margin.

    The ground-state convergence gate (energy shift under 50% cutoff
    growth) still guards every use; this only sets the starting point.
    """
    mean = params.n_atoms * (params.coupling / params.omega) ** 2 * (1.0 - params.mu**2)
    return int(math.ceil(mean + 6.5 * math.sqrt(mean + 4.0) + 14.0))


# ---------------------------------------------------------------- operators


def _hamiltonian(params: ModelParams, basis: DickeBasis):
    """Operator of omega a'a + omega0 Jz + (lambda/sqrt(N)) (a'+a)(J+ + J-) on a one-block basis."""
    if basis.n_atoms != params.n_atoms:
        raise InvalidParameterError("basis and params disagree on the atom count")
    m = np.arange(int(2 * basis.spin) + 1) - basis.spin
    h_atom = (params.omega0 * m, 0.0)
    coupling = params.coupling / math.sqrt(params.n_atoms)
    return PhotonAtomOperator(params.omega, basis.cutoff, h_atom, coupling, spin_ladder(basis.spin))


def parity_diagonal(basis: DickeBasis):
    """Diagonal of exp[i pi (a'a + J_z + N/2)] on a one-block basis: (-1)^(m + n_up)."""
    up = basis.up_counts(basis.spin)
    m = np.repeat(np.arange(basis.cutoff), len(up))
    n_up = np.tile(up, basis.cutoff)
    return np.where((m + n_up) % 2 == 0, 1.0, -1.0)


# ---------------------------------------------------------------- states


@dataclass(frozen=True)
class OracleState:
    """Pure ground state or Gibbs state in an oracle basis, reduced to its atomic bands.

    Each entry of ``atomic_bands`` is (j, (diagonal 0, 1, 2)): the diagonals
    of the photon-traced atomic matrix of one copy of block j, on |j, m> in
    ascending m.  Blocks not listed carry no weight.
    """

    basis: DickeBasis
    atomic_bands: tuple

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
    return OracleState(basis, ((basis.spin, traced_band(vec.reshape(basis.cutoff, -1))),))


def _reduced_eigensystem(params: ModelParams, block: DickeBasis):
    """Eigenvalues of a block of H and the traced band of each eigenvector, one column each."""
    # the dense block is symmetric by construction; its eigenvectors are
    # freed on return, before the next block is built
    vals, vecs = np.linalg.eigh(_hamiltonian(params, block).toarray())
    return vals, traced_band(vecs.reshape(block.cutoff, -1, len(vals)))


# one coupling's set: a sweep runs its rows coupling-major, so every later
# beta row of a coupling reads it and no later coupling does; a build first
# drops the set held before (and zeroes the cache's counters), so a sweep
# never holds two
@functools.lru_cache(maxsize=1)
def _block_eigensystems(params: ModelParams, cutoff: int):
    """Full basis and the reduced eigensystem of each of its blocks of H."""
    _block_eigensystems.cache_clear()
    basis = full_product_basis(params.n_atoms, cutoff)
    return basis, tuple(_reduced_eigensystem(params, basis.block(j)) for j in basis.spins)


def exact_thermal_state(params: ModelParams, cutoff, beta):
    """Gibbs state over all 2^N spin configurations, one eigendecomposition per multiplet.

    Each block's band is its eigenvectors' traced bands weighted by their
    Boltzmann probabilities.
    """
    check_beta(params, beta)
    basis, eigensystems = _block_eigensystems(params, int(cutoff))
    e_min = min(vals[0] for vals, _ in eigensystems)
    boltzmann = [np.exp(-beta * (vals - e_min)) for vals, _ in eigensystems]
    z = sum(basis.multiplicity(j) * w.sum() for j, w in zip(basis.spins, boltzmann))
    return OracleState(basis, tuple(
        (j, tuple(band @ (w / z) for band in bands))
        for j, (_, bands), w in zip(basis.spins, eigensystems, boltzmann)
    ))


# ---------------------------------------------------------------- observables


def exact_overlap(state: OracleState, log_levels):
    """Overlap of the atomic marginal with a reference state, in the functional of ``log_levels``.

    ``log_levels`` are the reference state's per-level log weights, which
    name the functional (see ``separable``): ``SeparableState.log_weights``
    for the overlap of the J_z distributions, ``trace_log_weights`` for
    Tr[rho_A rho_s].  The basis does not choose it.  Two paths contract
    the same block diagonals with ``separable.overlap`` and must agree to
    1e-10, which catches a mis-binned P(n), not an error in the state:
    (i) bins each block's diagonal by up-spin count into P(n), one copy of
    j = N/2, (ii) contracts each block's diagonal, per copy.
    """
    n = state.basis.n_atoms
    path_diag = overlap(n, [(n / 2, 1, state.up_spin_distribution())], log_levels)
    path_blocks = overlap(n, [
        (j, state.basis.multiplicity(j), probs) for j, (probs, _, _) in state.atomic_bands
    ], log_levels)
    if abs(path_diag - path_blocks) > _DUAL_PATH_TOL:
        raise InternalConsistencyError(
            f"overlap paths disagree: {path_diag} vs {path_blocks}"
        )
    return path_diag


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


def _split_log_sum(params, cutoff, beta, a):
    """ln sum_m p_m [2 f_a(x_m)]^N, for a scalar a or along a 1-D array of them.

    x_m are the eigenvalues of the truncated photon quadrature X, p_m =
    sum_n exp(-beta omega n) <n|x_m>^2 their photon weights, and f_a(x) =
    Tr[exp(-beta h(x)) diag(a, 1-a)] one atom's trace on the up and down
    levels, h(x) = (omega0/2) sz + (lambda x/sqrt(N)) sx.  The sum is
    Tr[exp(-beta H0) exp(-beta HI) 2^N rho_s], so at a = 1/2 it is the log
    partition function of the split trace.
    """
    check_beta(params, beta)
    c = _check_cutoff(int(cutoff))
    # X is tridiagonal; its eigenvalues are the c-point Gauss-Hermite nodes times sqrt(2)
    ladder = np.sqrt(np.arange(1.0, c))
    x, photon = np.linalg.eigh(np.diag(ladder, 1) + np.diag(ladder, -1))
    log_p = log_sum_exp(-beta * params.omega * np.arange(c)[:, None], photon**2, axis=0)
    # the one-atom Boltzmann matrix exp(-beta h(x)), one row per node: h has
    # the eigenvalues -+eps and |<up|-eps>|^2 = (1 - s)/2, s = omega0/(2 eps),
    # so its up diagonal is [(1 - s) e^(beta eps) + (1 + s) e^(-beta eps)] / 2
    # and its down one has s flipped.  Then 2 f_a = w e^(beta eps) +
    # (2 - w) e^(-beta eps) with w = a (1 - s) + (1 - a)(1 + s), 1 - s formed
    # without cancellation.  w sums nonnegative terms, and where 2 - w loses
    # digits w >= 1 weighs the larger exponential, so ln 2 f_a is accurate,
    # and finite at a = 0 and 1
    field2 = (params.coupling * x[:, None]) ** 2 / params.n_atoms
    eps = np.sqrt(params.omega0**2 / 4 + field2)
    one_minus_s = field2 / (eps * (eps + params.omega0 / 2))
    a = np.asarray(a, dtype=float)[..., None, None]
    w = a * one_minus_s + (1 - a) * (2 - one_minus_s)
    log_atom = log_sum_exp(beta * np.hstack([eps, -eps]), np.concatenate([w, 2 - w], -1), axis=-1)
    return log_sum_exp(log_p + params.n_atoms * log_atom, axis=-1)


def split_overlap(params: ModelParams, cutoff, beta, sep: SeparableState):
    """Overlap Tr[rho_A rho_s] of the split-trace state with the reference state.

    rho_A is the photon-traced atomic state of exp(-beta H0) exp(-beta HI)
    / Tr[...].  HI commutes with the photon quadrature X = a + a', and on
    each eigenvector |x_m> of the truncated X it is the sum of one-atom terms
    h(x_m) = (omega0/2) sz + (lambda x_m/sqrt(N)) sx, so the atoms decouple
    at a fixed field (Wang & Hioe, PRA 7, 831 (1973)): Tr_spin[exp(-beta
    HI) rho_s] = f_a(x_m)^N with f_a = cosh(beta eps) + (1 - 2a)
    (omega0/(2 eps)) sinh(beta eps), eps^2 = omega0^2/4 + lambda^2 x_m^2/N.
    The x_m are the c-point Gauss-Hermite nodes times sqrt(2), and the
    eigenvectors of X give <n|x_m> (Golub & Welsch, Math. Comp. 23, 221
    (1969)), so the photon trace is one weight p_m per node and the overlap
    is exp(L(a) - L(1/2) - N ln 2), L(a) = ln sum_m p_m [2 f_a(x_m)]^N.
    This is exact for the truncated photon, so at low temperature the
    cutoff must cover the thermal spread of X.  The p_m come from the
    eigenvectors of X, whose components carry an absolute error near 1e-16:
    the weights of the outermost nodes are noise once they fall far below
    that, which at low temperature and large N can decide the sum.

    Matches the finite-temperature quadrature up to quadrature and photon
    truncation error only; the O(beta^3) factorization error is common to
    both.  Raises ``NumericalError`` (``log_delta`` in its details) when
    the overlap lies below the smallest normal double.
    """
    if sep.n_atoms != params.n_atoms:
        raise InvalidParameterError("separable state and params disagree on N")
    log_a, log_half = _split_log_sum(params, cutoff, beta, [sep.a, 0.5])
    log_delta = float(log_a - log_half) - params.n_atoms * math.log(2.0)
    if log_delta < math.log(sys.float_info.min):
        raise NumericalError("split overlap underflows the double range", log_delta=log_delta)
    return math.exp(log_delta)
