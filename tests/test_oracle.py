import math
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from dicke_overlap import numerics, oracle
from dicke_overlap.core import ModelParams
from dicke_overlap.errors import CapacityError, InvalidParameterError
from dicke_overlap.numerics import lowest_eigenpair
from dicke_overlap.oracle import (
    OracleState,
    build_hamiltonian,
    exact_ground_state,
    exact_moments,
    exact_overlap,
    exact_thermal_state,
    full_product_basis,
    parity_diagonal,
    split_log_partition,
    symmetric_basis,
)
from dicke_overlap.separable import SeparableState


def commutator_with_parity(h, basis):
    pi = parity_diagonal(basis)
    return np.abs(h * (pi[None, :] - pi[:, None])).max()


def blocks_of(basis):
    return [basis.block(j) for j in basis.spins]


def pure_vector(state):
    (_, vectors, _), = state.blocks
    return vectors[:, 0]


def product_basis_reference(params, cutoff):
    """H0 = omega a'a and HI = H - H0 over all 2^N spin configurations, dense.

    The collective spins are Pauli sums assembled with ``np.kron`` (atom
    factor index 0 is up).  Returns (h0, hi, (jx, jy, jz), n_up) with
    n_up the up-spin count of each configuration.
    """
    n = params.n_atoms
    paulis = (np.array([[0.0, 1.0], [1.0, 0.0]]), np.array([[0.0, -1.0j], [1.0j, 0.0]]),
              np.diag([1.0, -1.0]))

    def site_sum(pauli):
        total = np.zeros((2**n, 2**n), dtype=pauli.dtype)
        for i in range(n):
            term = np.eye(1)
            for k in range(n):
                term = np.kron(term, pauli if k == i else np.eye(2))
            total += term / 2.0
        return total

    jx, jy, jz = (site_sum(p) for p in paulis)
    a = np.diag(np.sqrt(np.arange(1.0, cutoff)), 1)
    h0 = params.omega * np.kron(np.diag(np.arange(cutoff, dtype=float)), np.eye(2**n))
    hi = (params.omega0 * np.kron(np.eye(cutoff), jz)
          + params.coupling / math.sqrt(n) * np.kron(a + a.T, 2.0 * jx))
    n_up = np.rint(np.diag(jz) + n / 2.0).astype(int)
    return h0, hi, (jx, jy, jz), n_up


@pytest.mark.parametrize(
    "basis", [symmetric_basis(5, 9), full_product_basis(3, 7)], ids=["symmetric", "full-product"]
)
def test_build_hamiltonian_bit_identical_to_dense_formula(basis):
    # omega a'a + omega0 Jz + (lambda/sqrt(N)) (a'+a)(2 Jx) in each block, assembled with dense kron
    params = ModelParams(1.3, 0.7, 0.9, basis.n_atoms)
    for block in blocks_of(basis):
        jx, _, jz = oracle.collective_spin_matrices(block.spin)
        c, d = block.cutoff, len(jz)
        a = np.diag(np.sqrt(np.arange(1.0, c)), 1)
        expected = (
            params.omega * np.kron(np.diag(np.arange(c, dtype=float)), np.eye(d))
            + params.omega0 * np.kron(np.eye(c), jz)
            + (params.coupling / math.sqrt(params.n_atoms)) * np.kron(a + a.T, 2.0 * jx)
        )
        assert np.array_equal(build_hamiltonian(params, block), expected)


def test_multiplets_span_the_product_space():
    # d_j copies of 2j + 1 states: C(N, n) states with n up spins, 2^N in all
    for n in range(1, 9):
        basis = full_product_basis(n, 3)
        assert basis.dim == 3 * 2**n
        assert basis.level_counts().tolist() == [math.comb(n, k) for k in range(n + 1)]
    six = full_product_basis(6, 3)
    assert six.spins == (3.0, 2.0, 1.0, 0.0)
    assert [six.multiplicity(j) for j in six.spins] == [1, 5, 9, 5]
    assert symmetric_basis(6, 3).level_counts().tolist() == [1.0] * 7


def test_decoupled_hamiltonian_is_diagonal():
    params = ModelParams(1.0, 1.0, 0.0, 4)
    basis = symmetric_basis(4, 10)
    h = build_hamiltonian(params, basis)
    off = h - np.diag(np.diag(h))
    assert np.abs(off).max() == 0.0
    m = np.repeat(np.arange(10), 5)
    n = np.tile(np.arange(5), 10)
    assert np.allclose(np.diag(h), m + (n - 2.0))


def test_single_atom_rabi_limit():
    params = ModelParams(1.0, 1.0, 0.0, 1)
    basis = symmetric_basis(1, 8)
    h = build_hamiltonian(params, basis)
    assert abs(np.linalg.eigvalsh(h)[0] - (-0.5)) < 1e-14


@pytest.mark.parametrize("variant", ["symmetric", "full"])
def test_parity_and_hermiticity(variant):
    params = ModelParams(1.0, 1.0, 0.8, 4)
    basis = symmetric_basis(4, 12) if variant == "symmetric" else full_product_basis(4, 12)
    for block in blocks_of(basis):
        h = build_hamiltonian(params, block)
        assert np.abs(h - h.T).max() < 1e-13
        assert commutator_with_parity(h, block) < 1e-12


def test_capacity_bounds():
    # the dense bound counts every block: 8 cutoff^2 sum_j (2j + 1)^2 bytes
    with pytest.raises(CapacityError):
        symmetric_basis(100, 3000)
    with pytest.raises(CapacityError):
        full_product_basis(100, 200)  # 51 blocks, up to 20,200 states: 52.7 GiB dense
    # neither the atom count nor the spanned dimension is bounded: these
    # blocks need 0.1 MB and 0.67 GB in all
    assert full_product_basis(7, 10).dim == 10 * 2**7
    assert full_product_basis(6, 1000).dim == 64_000
    with pytest.raises(InvalidParameterError):
        build_hamiltonian(ModelParams(1.0, 1.0, 0.5, 4), full_product_basis(4, 10))


def test_capacity_bound_counts_every_block():
    # at cutoff 40 the largest N = 100 block, 4,040 states, needs 0.12 GiB,
    # but all 51 blocks of one eigendecomposition need 2.1 GiB; the check
    # runs before anything is allocated
    assert symmetric_basis(100, 40).dim == 4040
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError, match="2.1 GiB"):
            full_product_basis(100, 40)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    # N = 20 needs 23 MB there
    assert full_product_basis(20, 40).dim == 40 * 2**20


def test_capacity_bound_counts_dense_bytes():
    # dimension 199,879 would need a 320 GB dense matrix; the check runs
    # before anything is allocated
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError):
            symmetric_basis(100, 1979)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    # the largest basis in use: the N = 40, lambda = 1 convergence gate
    params = ModelParams(1.0, 1.0, 1.0, 40)
    big = oracle.convergence_cutoff(oracle.suggested_cutoff(params))
    assert symmetric_basis(40, big).dim == 5781


def test_ground_state_decoupled_is_product_vacuum():
    params = ModelParams(1.0, 1.0, 0.0, 4)
    state = exact_ground_state(params, 12)
    expected = np.zeros(12 * 5)
    expected[0] = 1.0  # |m=0> x |all down> is the first basis vector
    assert np.abs(pure_vector(state) - expected).max() < 1e-12


def test_ground_state_normal_phase_jz():
    params = ModelParams(1.0, 1.0, 0.4, 40)
    state = exact_ground_state(params, oracle.suggested_cutoff(params))
    jz = exact_moments(state).first[2]
    assert abs(jz - (-0.5)) < 2.0 / 40


def test_symmetric_and_full_product_ground_energies_agree():
    # the ground state lies in the symmetric multiplet, whether one looks
    # over all multiplets or over the 2^N product configurations
    for n in (2, 3, 4):
        params = ModelParams(1.0, 1.0, 0.7, n)
        e_sym = oracle.ground_energy(params, 40)
        e_full = min(
            np.linalg.eigvalsh(build_hamiltonian(params, block))[0]
            for block in blocks_of(full_product_basis(n, 40))
        )
        h0, hi, _, _ = product_basis_reference(params, 40)
        e_product = scipy.linalg.eigh(h0 + hi, subset_by_index=(0, 0))[0][0]
        assert abs(e_sym - e_full) < 1e-9
        assert abs(e_sym - e_product) < 1e-9


def test_thermal_state_high_temperature_is_maximally_mixed():
    params = ModelParams(1.0, 1.0, 0.6, 3)
    state = exact_thermal_state(params, 40, beta=1e-6)
    dim = state.basis.dim
    trace_distance = 0.5 * sum(
        state.basis.multiplicity(j) * np.abs(p - 1.0 / dim).sum() for j, _, p in state.blocks
    )
    assert trace_distance < 1e-5


def test_thermal_state_decoupled_factorizes():
    beta = 0.7
    params = ModelParams(1.0, 1.0, 0.0, 3)
    state = exact_thermal_state(params, 30, beta=beta)
    # free-spin Gibbs: product of diag(e^-b/2, e^b/2)/2cosh(b/2), a function of
    # J_z, so diagonal in every multiplet with weight p_up^n p_down^(N-n)
    p_up, p_down = (math.exp(s * beta / 2) / (2 * math.cosh(beta / 2)) for s in (-1, 1))
    for j, rho in state.atomic_blocks:
        n_up = state.basis.up_counts(j)
        assert np.abs(rho - np.diag(p_up**n_up * p_down ** (3 - n_up))).max() < 1e-10


def test_thermal_cutoff_convergence():
    params = ModelParams(1.0, 1.0, 1.0, 4)
    beta = 0.4
    values = []
    for cutoff in (60, 90):
        state = exact_thermal_state(params, cutoff, beta)
        sep = oracle.matched_separable_state(state)
        delta, _, _ = exact_overlap(state, sep)
        moments = exact_moments(state)
        values.append((delta, moments.first[2], moments.second[0]))
    assert abs(values[0][0] - values[1][0]) < 1e-6
    assert abs(values[0][1] - values[1][1]) < 1e-6
    assert abs(values[0][2] - values[1][2]) < 1e-6


def test_overlap_decoupled_ground_state():
    params = ModelParams(1.0, 1.0, 0.0, 5)
    state = exact_ground_state(params, 12)
    sep = SeparableState.from_a(0.0, 5)
    delta, path_a, path_b = exact_overlap(state, sep)
    assert abs(delta - 1.0) < 1e-12
    assert abs(path_a - path_b) < 1e-12


def test_overlap_infinite_temperature_limit():
    params = ModelParams(1.0, 1.0, 0.9, 4)
    state = exact_thermal_state(params, 40, beta=1e-6)
    for a in (0.0, 0.3, 0.5, 0.8):
        delta, _, _ = exact_overlap(state, SeparableState.from_a(a, 4))
        assert abs(delta - 2.0**-4) < 1e-6


def test_overlap_dual_paths_agree():
    # symmetric sector
    params = ModelParams(1.0, 1.0, 1.0, 12)
    state = exact_ground_state(params, oracle.suggested_cutoff(params))
    _, path_a, path_b = exact_overlap(state, oracle.matched_separable_state(state))
    assert abs(path_a - path_b) < 1e-10
    # full product, thermal
    params4 = ModelParams(1.0, 1.0, 0.8, 4)
    state4 = exact_thermal_state(params4, 50, beta=0.3)
    _, path_a, path_b = exact_overlap(state4, SeparableState.from_a(0.37, 4))
    assert abs(path_a - path_b) < 1e-10


def test_overlap_functional_depends_on_basis():
    # one N = 4 ground state in both bases: the same P(n), two functionals
    params = ModelParams(1.0, 1.0, 1.0, 4)
    sym = exact_ground_state(params, 40)
    p_n = sym.up_spin_distribution()
    # independent P(n): the lowest state over the 2^N product configurations
    h0, hi, _, n_up = product_basis_reference(params, 40)
    psi = np.linalg.eigh(h0 + hi)[1][:, 0].reshape(40, 2**4)
    p_product = np.bincount(n_up, weights=(psi**2).sum(axis=0), minlength=5)
    assert np.abs(p_product - p_n).max() < 1e-12
    prod = OracleState(full_product_basis(4, 40), sym.blocks)
    sep = oracle.matched_separable_state(sym)
    assert abs(sep.a - 0.36720) < 1e-5
    n = np.arange(5)
    per_config = sep.a**n * (1.0 - sep.a) ** (4 - n)
    binomial = np.array([math.comb(4, k) for k in n])
    # symmetric sector: the overlap of the J_z distributions
    delta_sym = exact_overlap(sym, sep)[0]
    assert abs(delta_sym - 0.284093) < 1e-6
    assert abs(delta_sym - np.dot(binomial * per_config, p_n)) < 1e-12
    # full product basis: Tr[rho_A rho_s]
    delta_prod = exact_overlap(prod, sep)[0]
    assert abs(delta_prod - 0.082231) < 1e-6
    assert abs(delta_prod - np.dot(per_config, p_n)) < 1e-12
    # C(N, n) = 1 at the only n an a of 0 or 1 weights, so there they agree
    for a in (0.0, 1.0):
        ref = SeparableState.from_a(a, 4)
        assert abs(exact_overlap(sym, ref)[0] - exact_overlap(prod, ref)[0]) < 1e-12


def test_overlap_rejects_mismatched_n():
    params = ModelParams(1.0, 1.0, 0.5, 4)
    state = exact_thermal_state(params, 20, beta=0.2)
    with pytest.raises(InvalidParameterError):
        exact_overlap(state, SeparableState.from_a(0.2, 5))


def test_moments_decoupled_ground_state():
    params = ModelParams(1.0, 1.0, 0.0, 6)
    state = exact_ground_state(params, 12)
    m = exact_moments(state)
    n = 6
    assert abs(m.first[2] - (-0.5)) < 1e-12
    assert abs(m.first[0]) < 1e-12 and abs(m.first[1]) < 1e-12
    assert abs(m.second[0] - 1.0 / (4 * n)) < 1e-12
    assert abs(m.second[1] - 1.0 / (4 * n)) < 1e-12
    assert abs(m.variance("z")) < 1e-12


def test_moments_thermal_decoupled_analytic():
    beta = 0.9
    n = 4
    params = ModelParams(1.0, 1.0, 0.0, n)
    state = exact_thermal_state(params, 30, beta=beta)
    m = exact_moments(state)
    t = math.tanh(beta / 2)
    assert abs(m.first[2] - (-0.5 * t)) < 1e-10
    assert abs(m.second[0] - 1.0 / (4 * n)) < 1e-10
    expected_z2 = 1.0 / (4 * n) + (n - 1) / (4.0 * n) * t**2
    assert abs(m.second[2] - expected_z2) < 1e-10


def test_ground_state_parity_eigenstate():
    params = ModelParams(1.0, 1.0, 0.35, 6)
    state = exact_ground_state(params, 20)
    pi = parity_diagonal(state.basis)
    vector = pure_vector(state)
    overlap = float(vector @ (pi * vector))
    assert abs(abs(overlap) - 1.0) < 1e-12


@pytest.mark.parametrize("n, lam, cutoff", [(20, 0.97, 64), (20, 1.0, 64), (40, 1.0, None)])
def test_superradiant_ground_state_keeps_parity(n, lam, cutoff):
    # the even and odd ground energies differ by ~1e-14 here, so a solve of
    # the whole matrix returns an arbitrary mixture of the two, with a
    # nonzero <J_x> that parity forbids
    params = ModelParams(1.0, 1.0, lam, n)
    cutoff = cutoff or oracle.suggested_cutoff(params)
    state = exact_ground_state(params, cutoff)
    assert np.all(pure_vector(state)[parity_diagonal(state.basis) < 0] == 0.0)
    first = exact_moments(state).first
    assert abs(first[0] * n) < 1e-12 and abs(first[1] * n) < 1e-12
    if n == 20:
        dense = np.linalg.eigvalsh(build_hamiltonian(params, state.basis))[0]
        assert abs(oracle.ground_energy(params, cutoff) - dense) < 1e-10


@pytest.mark.parametrize("lam", [0.0, 0.3, 1.0])
@pytest.mark.parametrize("cutoff", [2, 3, 12])
@pytest.mark.parametrize("n", [1, 2, 4, 10])
def test_even_block_solve_matches_dense(n, cutoff, lam):
    # even blocks of 1 to 66 states: up to the Krylov bound they take the
    # dense branch, the largest takes Lanczos
    params = ModelParams(1.0, 1.0, lam, n)
    h = build_hamiltonian(params, symmetric_basis(n, cutoff))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        e0, vec = oracle._ground_pair.__wrapped__(params, cutoff)
    vals = np.linalg.eigvalsh(h)
    assert abs(e0 - vals[0]) < 1e-10
    if vals[1] - vals[0] > 1e-6:
        assert np.abs(vec - lowest_eigenpair(h)[1]).max() < 1e-9


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(1, 8),
    extra=st.integers(0, 40),
    lam=st.sampled_from([0.1, 0.3, 0.45, 0.55, 0.97, 1.0, 1.4]),
)
def test_lanczos_matches_dense_on_even_blocks(n, extra, lam):
    # every even block here is larger than the Krylov bound, so it takes
    # Lanczos; above lambda_c = 1/2 its ground state is degenerate to
    # rounding with the odd one, which the sector keeps out exactly
    cutoff = 2 * (numerics._KRYLOV_DIM + 1) // (n + 1) + 1 + extra
    params = ModelParams(1.0, 1.0, lam, n)
    basis = symmetric_basis(n, cutoff)
    even = parity_diagonal(basis) > 0
    h = oracle._hamiltonian(params, basis, params.omega)
    assert np.count_nonzero(even) > numerics._KRYLOV_DIM
    e0, vec = lowest_eigenpair(h, sector=even)
    e_dense, v_dense = lowest_eigenpair(h.toarray(), sector=even)
    assert abs(e0 - e_dense) < 1e-12
    assert np.abs(vec - v_dense).max() < 1e-10
    assert np.all(vec[~even] == 0.0)


def test_split_log_partition_against_expm():
    # independent path: dense matrix exponentials over the 2^N product
    # configurations, multiplied directly
    params = ModelParams(1.0, 1.0, 0.8, 3)
    cutoff, beta = 25, 0.3
    h0, hi, _, _ = product_basis_reference(params, cutoff)
    direct = np.trace(scipy.linalg.expm(-beta * h0) @ scipy.linalg.expm(-beta * hi))
    assert abs(split_log_partition(params, cutoff, beta) - math.log(direct)) < 1e-9


def test_split_overlap_against_expm():
    params = ModelParams(1.0, 1.0, 0.8, 3)
    cutoff, beta = 25, 0.3
    sep = SeparableState.from_a(0.35, 3)
    h0, hi, _, n_up = product_basis_reference(params, cutoff)
    split_op = scipy.linalg.expm(-beta * h0) @ scipy.linalg.expm(-beta * hi)
    ref = np.tile(sep.a**n_up * (1.0 - sep.a) ** (3 - n_up), cutoff)
    direct = np.trace(split_op @ np.diag(ref)) / np.trace(split_op)
    assert abs(oracle.split_overlap(params, cutoff, beta, sep) - direct) < 1e-10


@pytest.mark.parametrize("n", [2, 3, 4])
def test_multiplet_oracle_matches_product_basis(n):
    # the same Gibbs and split-trace states over the 2^N product
    # configurations, from Pauli sums and one dense eigh each
    cutoff, beta = 12, 0.7
    params = ModelParams(1.0, 1.0, 0.9, n)
    h0, hi, spins, n_up = product_basis_reference(params, cutoff)
    vals, vecs = np.linalg.eigh(h0 + hi)
    w = np.exp(-beta * (vals - vals[0]))
    amplitudes = (vecs * np.sqrt(w / w.sum())).reshape(cutoff, 2**n, -1)
    rho = np.einsum("mak,mbk->ab", amplitudes, amplitudes)
    state = exact_thermal_state(params, cutoff, beta)
    sep = oracle.matched_separable_state(state)
    per_config = sep.a**n_up * (1.0 - sep.a) ** (n - n_up)

    def close(x, y):
        return abs(x - y) <= 1e-12 * abs(y)

    p_n = np.bincount(n_up, weights=np.diag(rho), minlength=n + 1)
    assert all(close(x, y) for x, y in zip(state.up_spin_distribution(), p_n))
    assert close(exact_overlap(state, sep)[0], float(np.dot(np.diag(rho), per_config)))
    moments = exact_moments(state)
    jx, jy, jz = spins
    expected = [np.real(np.trace(rho @ op)) for op in (jx, jy, jz)]
    assert all(abs(x * n - y) <= 1e-12 * max(abs(y), 1.0) for x, y in zip(moments.first, expected))
    expected = [np.real(np.trace(rho @ op @ op)) for op in spins]
    assert all(close(x * n**2, y) for x, y in zip(moments.second, expected))
    # split trace: exp(-beta H0) is diagonal
    hi_vals, hi_vecs = np.linalg.eigh(hi)
    split_diag = np.exp(-beta * np.diag(h0)) * ((hi_vecs**2) @ np.exp(-beta * hi_vals))
    assert close(split_log_partition(params, cutoff, beta), math.log(split_diag.sum()))
    ref = np.tile(per_config, cutoff)
    assert close(oracle.split_overlap(params, cutoff, beta, sep),
                 float(split_diag @ ref / split_diag.sum()))


def test_thermal_and_split_oracles_at_twenty_atoms():
    # 2^20 spin configurations in 11 multiplets of at most 21 * cutoff states
    n, cutoff, beta = 20, 4, 0.9
    free = ModelParams(1.0, 1.0, 0.0, n)
    # decoupled: free spins, <J_z>/N = -tanh(beta/2)/2
    m = exact_moments(exact_thermal_state(free, cutoff, beta))
    t = math.tanh(beta / 2)
    assert abs(m.first[0]) < 1e-12 and abs(m.first[1]) < 1e-12
    assert abs(m.first[2] / (-0.5 * t) - 1.0) < 1e-6
    assert abs(m.second[0] * 4 * n - 1.0) < 1e-6 and abs(m.second[1] * 4 * n - 1.0) < 1e-6
    assert abs(m.second[2] / (1.0 / (4 * n) + (n - 1) / (4.0 * n) * t**2) - 1.0) < 1e-6
    # ... and Tr[rho_A rho_s] is a product over atoms, exactly and split alike
    sep = SeparableState.from_a(0.3, n)
    single = (sep.a * math.exp(-beta / 2) + (1 - sep.a) * math.exp(beta / 2)) / (2 * math.cosh(beta / 2))
    assert abs(exact_overlap(exact_thermal_state(free, cutoff, beta), sep)[0] / single**n - 1) < 1e-6
    assert abs(oracle.split_overlap(free, cutoff, beta, sep) / single**n - 1) < 1e-6
    # beta -> 0 at any coupling: the maximally mixed state, Delta = 2^-N at any a
    coupled = ModelParams(1.0, 1.0, 1.0, n)
    hot = exact_thermal_state(coupled, cutoff, 1e-9)
    for a in (0.1, 0.5, 0.8):
        ref = SeparableState.from_a(a, n)
        assert abs(exact_overlap(hot, ref)[0] * 2**n - 1.0) < 1e-6
        assert abs(oracle.split_overlap(coupled, cutoff, 1e-9, ref) * 2**n - 1.0) < 1e-6


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(
    n=st.integers(1, 8),
    cutoff=st.integers(2, 5),
    lam=st.floats(0.0, 1.5),
    beta=st.floats(0.05, 5.0),
)
def test_multiplet_thermal_state_properties(n, cutoff, lam, beta):
    state = exact_thermal_state(ModelParams(1.0, 1.0, lam, n), cutoff, beta)
    assert abs(state.up_spin_distribution().sum() - 1.0) < 1e-12
    exact_moments(state).validate()  # nonnegative variances and witness bound (a)
    delta = exact_overlap(state, oracle.matched_separable_state(state))[0]
    assert 0.0 <= delta <= 1.0
    # rho_s(1/2) = 1/2^N: Delta = Tr[rho_A] / 2^N at any temperature
    half = exact_overlap(state, SeparableState.from_a(0.5, n))[0]
    assert abs(half * 2**n - 1.0) < 1e-12
