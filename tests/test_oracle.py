import math
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg

from dicke_overlap import oracle
from dicke_overlap.core import ModelParams
from dicke_overlap.errors import CapacityError, InvalidParameterError
from dicke_overlap.numerics import lowest_eigenpair
from dicke_overlap.oracle import (
    BasisVariant,
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


@pytest.mark.parametrize(
    "basis", [symmetric_basis(5, 9), full_product_basis(3, 7)], ids=lambda b: b.variant.value
)
def test_build_hamiltonian_bit_identical_to_dense_formula(basis):
    # omega a'a + omega0 Jz + (lambda/sqrt(N)) (a'+a)(2 Jx), assembled with dense kron
    params = ModelParams(1.3, 0.7, 0.9, basis.n_atoms)
    jx, _, jz = oracle.collective_spin_matrices(basis)
    c, d = basis.cutoff, basis.atom_dim
    a = np.diag(np.sqrt(np.arange(1.0, c)), 1)
    expected = (
        params.omega * np.kron(np.diag(np.arange(c, dtype=float)), np.eye(d))
        + params.omega0 * np.kron(np.eye(c), jz)
        + (params.coupling / math.sqrt(params.n_atoms)) * np.kron(a + a.T, 2.0 * jx)
    )
    assert np.array_equal(build_hamiltonian(params, basis), expected)


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
    h = build_hamiltonian(params, basis)
    assert np.abs(h - h.T).max() < 1e-13
    assert commutator_with_parity(h, basis) < 1e-12


def test_capacity_bounds():
    with pytest.raises(CapacityError):
        full_product_basis(7, 10)
    with pytest.raises(CapacityError):
        symmetric_basis(100, 3000)
    with pytest.raises(CapacityError):
        full_product_basis(6, 1000)  # dimension 64,000: 30 GiB dense


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
    assert np.abs(state.vector - expected).max() < 1e-12


def test_ground_state_normal_phase_jz():
    params = ModelParams(1.0, 1.0, 0.4, 40)
    state = exact_ground_state(params, oracle.suggested_cutoff(params))
    jz = exact_moments(state).first[2]
    assert abs(jz - (-0.5)) < 2.0 / 40


def test_symmetric_and_full_product_ground_energies_agree():
    for n in (2, 3, 4):
        params = ModelParams(1.0, 1.0, 0.7, n)
        e_sym = oracle.ground_energy(params, 40)
        basis = full_product_basis(n, 40)
        h = build_hamiltonian(params, basis)
        e_full = scipy.linalg.eigh(h, subset_by_index=(0, 0))[0][0]
        assert abs(e_sym - e_full) < 1e-9


def test_thermal_state_high_temperature_is_maximally_mixed():
    params = ModelParams(1.0, 1.0, 0.6, 3)
    state = exact_thermal_state(params, 40, beta=1e-6)
    w = state.thermal_weights()
    dim = state.basis.dim
    trace_distance = 0.5 * np.abs(w - 1.0 / dim).sum()
    assert trace_distance < 1e-5


def test_thermal_state_decoupled_factorizes():
    beta = 0.7
    params = ModelParams(1.0, 1.0, 0.0, 3)
    state = exact_thermal_state(params, 30, beta=beta)
    rho = state.atomic_reduced_matrix()
    # free-spin Gibbs: product of diag(e^-b/2, e^b/2)/2cosh(b/2), up listed first
    single = np.diag([math.exp(-beta / 2), math.exp(beta / 2)]) / (2 * math.cosh(beta / 2))
    expected = single
    for _ in range(2):
        expected = np.kron(expected, single)
    assert np.abs(rho - expected).max() < 1e-10


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
    basis = full_product_basis(4, 40)
    prod = oracle.OracleState(basis, vector=lowest_eigenpair(build_hamiltonian(params, basis))[1])
    p_n = sym.up_spin_distribution()
    assert np.abs(prod.up_spin_distribution() - p_n).max() < 1e-12
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
    flipped = pi * state.vector
    overlap = float(state.vector @ flipped)
    assert abs(abs(overlap) - 1.0) < 1e-12


@pytest.mark.parametrize("n, lam, cutoff", [(20, 0.97, 64), (20, 1.0, 64), (40, 1.0, None)])
def test_superradiant_ground_state_keeps_parity(n, lam, cutoff):
    # the even and odd ground energies differ by ~1e-14 here, so a solve of
    # the whole matrix returns an arbitrary mixture of the two, with a
    # nonzero <J_x> that parity forbids
    params = ModelParams(1.0, 1.0, lam, n)
    cutoff = cutoff or oracle.suggested_cutoff(params)
    state = exact_ground_state(params, cutoff)
    assert np.all(state.vector[parity_diagonal(state.basis) < 0] == 0.0)
    first = exact_moments(state).first
    assert abs(first[0] * n) < 1e-12 and abs(first[1] * n) < 1e-12
    if n == 20:
        dense = np.linalg.eigvalsh(build_hamiltonian(params, state.basis))[0]
        assert abs(oracle.ground_energy(params, cutoff) - dense) < 1e-10


@pytest.mark.parametrize("lam", [0.0, 0.3, 1.0])
@pytest.mark.parametrize("cutoff", [2, 3, 12])
@pytest.mark.parametrize("n", [1, 2, 4, 10])
def test_even_block_solve_matches_dense(n, cutoff, lam):
    # blocks of 2 to 66 states: the small ones take the dense branch, so
    # ARPACK never sees a matrix smaller than its Krylov space
    params = ModelParams(1.0, 1.0, lam, n)
    h = build_hamiltonian(params, symmetric_basis(n, cutoff))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        e0, vec = oracle._ground_pair.__wrapped__(params, cutoff)
    vals = np.linalg.eigvalsh(h)
    assert abs(e0 - vals[0]) < 1e-10
    if vals[1] - vals[0] > 1e-6:
        assert np.abs(vec - lowest_eigenpair(h)[1]).max() < 1e-9


def test_split_log_partition_against_expm():
    # independent path: dense matrix exponentials multiplied directly
    params = ModelParams(1.0, 1.0, 0.8, 3)
    cutoff, beta = 25, 0.3
    basis = full_product_basis(3, cutoff)
    h = build_hamiltonian(params, basis)
    h0 = params.omega * np.kron(np.diag(np.arange(cutoff, dtype=float)), np.eye(8))
    hi = h - h0
    direct = np.trace(scipy.linalg.expm(-beta * h0) @ scipy.linalg.expm(-beta * hi))
    assert abs(split_log_partition(params, cutoff, beta) - math.log(direct)) < 1e-9


def test_split_overlap_against_expm():
    params = ModelParams(1.0, 1.0, 0.8, 3)
    cutoff, beta = 25, 0.3
    sep = SeparableState.from_a(0.35, 3)
    basis = full_product_basis(3, cutoff)
    h = build_hamiltonian(params, basis)
    h0 = params.omega * np.kron(np.diag(np.arange(cutoff, dtype=float)), np.eye(8))
    hi = h - h0
    split_op = scipy.linalg.expm(-beta * h0) @ scipy.linalg.expm(-beta * hi)
    ref = np.exp(oracle._config_log_weights(sep, np.tile(basis.up_counts(), cutoff)))
    direct = np.trace(split_op @ np.diag(ref)) / np.trace(split_op)
    assert abs(oracle.split_overlap(params, cutoff, beta, sep) - direct) < 1e-10
