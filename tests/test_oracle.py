import math
import os
import subprocess
import sys
import tracemalloc
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from dicke_overlap import numerics, oracle, zerotemp
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
from dicke_overlap.witness import spin_ladder


def commutator_with_parity(h, basis):
    pi = parity_diagonal(basis)
    return np.abs(h * (pi[None, :] - pi[:, None])).max()


def blocks_of(basis):
    return [basis.block(j) for j in basis.spins]


def pure_vector(state):
    (_, vectors, _), = state.blocks
    return vectors[:, 0]


def dense_atomic_blocks(state):
    """(j, dense photon-traced atomic density matrix of one copy of block j), per listed block."""
    out = []
    for j, vectors, probabilities in state.blocks:
        psi = (vectors * np.sqrt(probabilities)).reshape(state.basis.cutoff, -1, len(probabilities))
        amplitudes = psi.transpose(1, 0, 2).reshape(psi.shape[1], -1)
        out.append((j, amplitudes @ amplitudes.T))
    return out


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
    # the symmetric basis holds 64 Lanczos vectors, 8 * 64 * cutoff (N + 1)
    # bytes; the full one a set of dense blocks and five matrices of the
    # largest: 8 cutoff^2 (sum_j (2j + 1)^2 + 5 (N + 1)^2)
    with pytest.raises(CapacityError, match="2.4 GiB"):
        symmetric_basis(100, 50_000)
    with pytest.raises(CapacityError, match="67.9 GiB"):
        full_product_basis(100, 200)  # 51 blocks, up to 20,200 states
    # neither the atom count nor the spanned dimension is bounded: these
    # blocks need 0.5 MB and 1.8 GB in all
    assert full_product_basis(7, 10).dim == 10 * 2**7
    assert full_product_basis(6, 700).dim == 44_800
    with pytest.raises(InvalidParameterError):
        build_hamiltonian(ModelParams(1.0, 1.0, 0.5, 4), full_product_basis(4, 10))


def test_capacity_bound_counts_every_block():
    # at cutoff 40 the largest N = 100 block, 4,040 states, needs 0.12 GiB,
    # but a set of all 51 blocks (2.1 GiB alone) and five matrices of the
    # largest need 2.7 GiB; the check runs before anything is allocated
    assert symmetric_basis(100, 40).dim == 4040
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError, match="2.7 GiB"):
            full_product_basis(100, 40)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    # N = 20 needs 51 MB there, and N = 89 is the largest admitted
    assert full_product_basis(20, 40).dim == 40 * 2**20
    assert full_product_basis(89, 40).dim == 40 * 2**89
    with pytest.raises(CapacityError, match="2.0 GiB"):
        full_product_basis(90, 40)


def test_capacity_bound_counts_ground_lanczos_vectors_alone():
    # the ground bound is 8 * 64 * cutoff (N + 1) bytes and nothing else:
    # N = 20,000 at cutoff 60 needs 0.6 GB; at N = 20,000 cutoff 209 needs
    # 1.99 GiB and the first refused one, 210, 2.00 GiB, refused before
    # anything is allocated
    assert symmetric_basis(20_000, 60).dim == 60 * 20_001
    assert symmetric_basis(20_000, 209).dim == 209 * 20_001
    assert 8 * 64 * 209 * 20_001 <= 2 * 2**30 < 8 * 64 * 210 * 20_001
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError, match="2.0 GiB"):
            symmetric_basis(20_000, 210)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_capacity_bound_counts_dense_bytes():
    # one spin-1/2 block of 20,000 states would need six 3.0 GiB dense
    # matrices for a thermal sweep, but its ground state's Lanczos holds only
    # 10 MB; the check runs before anything is allocated
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError, match="17.9 GiB"):
            full_product_basis(1, 10_000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert symmetric_basis(1, 10_000).dim == 20_000
    # dimension 199,879 would need a 320 GB dense matrix, but 64 Lanczos
    # vectors of it take 0.1 GB
    assert symmetric_basis(100, 1979).dim == 199_879
    # the largest basis in use: the N = 40, lambda = 1 convergence gate
    params = ModelParams(1.0, 1.0, 1.0, 40)
    big = oracle.convergence_cutoff(oracle.suggested_cutoff(params))
    assert symmetric_basis(40, big).dim == 5781


def test_ground_state_checks_the_gate_basis_before_any_solve(monkeypatch):
    # cutoff 140 at N = 20,000 fits the ground bound (1.3 GiB), but the
    # convergence gate's cutoff 210 does not (2.0 GiB): no solve starts
    def no_solve(*args, **kwargs):
        raise AssertionError("solved before the capacity check")

    monkeypatch.setattr(oracle, "lowest_eigenpair", no_solve)
    symmetric_basis(20_000, 140)
    with pytest.raises(CapacityError, match="2.0 GiB"):
        exact_ground_state(ModelParams(1.0, 1.0, 0.3, 20_000), 140)


def eigenvector_bytes(n, cutoff):
    """One set of dense block eigenvectors of the full basis, 8 cutoff^2 sum_j (2j + 1)^2."""
    return 8 * cutoff**2 * sum((n + 1 - 2 * k) ** 2 for k in range(n // 2 + 1))


def thermal_bound(n, cutoff):
    """The bytes ``full_product_basis`` counts: one set of eigenvectors and five largest blocks."""
    return eigenvector_bytes(n, cutoff) + 5 * 8 * cutoff**2 * (n + 1) ** 2


def two_coupling_sweep(n, cutoff):
    """Two couplings of two betas each, coupling-major as the CLI runs them."""
    sep = SeparableState.from_a(0.3, n)
    for lam in (0.7, 1.1):
        params = ModelParams(1.0, 1.0, lam, n)
        for beta in (0.2, 0.4):
            exact_moments(exact_thermal_state(params, cutoff, beta))
            oracle.split_overlap(params, cutoff, beta, sep)


def test_thermal_bound_covers_what_a_sweep_holds():
    # tracemalloc sees one set of blocks and about one largest block on top,
    # while the moments of a state are taken; the rest of the count is
    # LAPACK's copy and workspace, which only the resident size shows
    n, cutoff = 32, 8
    oracle._block_eigensystems.cache_clear()
    tracemalloc.start()
    try:
        two_coupling_sweep(n, cutoff)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert 0.6 * thermal_bound(n, cutoff) < peak <= thermal_bound(n, cutoff)


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmRSS and VmHWM")
def test_thermal_bound_covers_the_resident_growth_of_a_sweep():
    # at small N the solve of the largest block dominates, with LAPACK's copy
    # and workspace; measured in a fresh process on one BLAS thread, after a
    # first LAPACK call, which maps OpenBLAS's buffers once per process.
    # VmHWM, not ru_maxrss: after a fork the latter starts from the parent's
    n, cutoff = 8, 60
    script = (
        "import numpy as np\n"
        "from test_oracle import two_coupling_sweep\n"
        "def status(key):\n"
        "    with open('/proc/self/status') as fh:\n"
        "        return next(int(l.split()[1]) * 1024 for l in fh if l.startswith(key))\n"
        "np.linalg.eigh(np.diag(np.arange(100.0)) + 1.0)\n"
        "two_coupling_sweep(2, 4)\n"
        "base = status('VmRSS:')\n"
        f"two_coupling_sweep({n}, {cutoff})\n"
        "print(status('VmHWM:') - base)\n"
    )
    paths = [str(Path(oracle.__file__).resolve().parents[1]), str(Path(__file__).resolve().parent)]
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": os.pathsep.join(paths)}
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                            env=env, timeout=120)
    assert result.returncode == 0, result.stderr
    assert eigenvector_bytes(n, cutoff) < int(result.stdout) <= thermal_bound(n, cutoff)


def test_ground_state_decoupled_is_product_vacuum():
    params = ModelParams(1.0, 1.0, 0.0, 4)
    state = exact_ground_state(params, 12)
    expected = np.zeros(12 * 5)
    expected[0] = 1.0  # |m=0> x |all down> is the first basis vector
    assert np.abs(pure_vector(state) - expected).max() < 1e-12


@pytest.mark.parametrize("n", [3, 4, 6, 7, 8])
def test_decoupled_ground_state_on_an_invariant_krylov_space(n):
    # at lambda = 0 the even block holds few distinct levels, so the Krylov
    # space closes within a few steps, between residual checks, with |beta|
    # at rounding level rather than exactly zero
    params = ModelParams(1.0, 1.0, 0.0, n)
    assert abs(oracle.ground_energy(params, oracle.suggested_cutoff(params)) + n / 2) < 1e-12


def test_ground_state_normal_phase_jz():
    params = ModelParams(1.0, 1.0, 0.4, 40)
    state = exact_ground_state(params, oracle.suggested_cutoff(params))
    jz = exact_moments(state).first[2]
    assert abs(jz - (-0.5)) < 2.0 / 40


def test_large_ground_state_solves_within_the_lanczos_bound():
    # N = 100 at cutoff 110: the convergence basis, 165 x 101 states, would
    # need 2.1 GiB as a dense matrix, but its Lanczos holds 8 MiB
    params = ModelParams(1.0, 1.0, 0.7, 100)
    state = exact_ground_state(params, 110)
    delta, _, _ = exact_overlap(state, zerotemp.matched_separable_state(params))
    assert abs(delta - zerotemp.overlap_for_params(params)) < 1e-3


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
    for j, rho in dense_atomic_blocks(state):
        n_up = state.basis.up_counts(j)
        assert np.abs(rho - np.diag(p_up**n_up * p_down ** (3 - n_up))).max() < 1e-10


def band_moments_against_dense_traces(state):
    """Each block's band against the dense matrix's diagonals, and the moments against traces."""
    n = state.basis.n_atoms
    totals = np.zeros(6)
    bands = dict(state.atomic_bands)
    for j, rho in dense_atomic_blocks(state):
        for offset, diagonal in enumerate(bands[j]):
            np.testing.assert_allclose(diagonal, np.diag(rho, offset), rtol=0, atol=1e-15)
        jx, jy, jz = oracle.collective_spin_matrices(j)
        traces = [np.real(np.trace(rho @ op)) for op in (jx, jy, jz, jx @ jx, jy @ jy, jz @ jz)]
        totals += state.basis.multiplicity(j) * np.array(traces)
    moments = exact_moments(state)
    assert np.abs(np.array(moments.first) - totals[:3] / n).max() < 1e-14
    assert np.abs(np.array(moments.second) - totals[3:] / n**2).max() < 1e-14


@pytest.mark.parametrize("lam", [0.3, 0.8])
def test_ground_band_moments_match_dense_traces(lam):
    params = ModelParams(1.0, 1.0, lam, 20)
    band_moments_against_dense_traces(exact_ground_state(params, oracle.suggested_cutoff(params)))


def test_thermal_band_moments_match_dense_traces():
    state = exact_thermal_state(ModelParams(1.0, 1.0, 0.9, 6), 12, beta=0.7)
    assert [j for j, _, _ in state.blocks] == [3.0, 2.0, 1.0, 0.0]
    band_moments_against_dense_traces(state)


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


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(n=st.integers(1, 8), lam=st.floats(0.0, 1.5), a=st.floats(0.0, 1.0))
def test_overlap_functionals_equal_at_ends_and_ordered_between(n, lam, a):
    # sum_n C(N,n) w_n P(n) against sum_n w_n P(n), w_n = a^n (1-a)^(N-n):
    # C(N,n) >= 1 orders them, and only n = 0 (a = 0) or n = N (a = 1),
    # where C(N,n) = 1, carries weight at the ends
    params = ModelParams(1.0, 1.0, lam, n)
    cutoff = oracle.suggested_cutoff(params)
    sym = exact_ground_state(params, cutoff)
    prod = OracleState(full_product_basis(n, cutoff), sym.blocks)
    for end in (0.0, 1.0):
        ref = SeparableState.from_a(end, n)
        assert abs(exact_overlap(sym, ref)[0] - exact_overlap(prod, ref)[0]) < 1e-12
    ref = SeparableState.from_a(a, n)
    # rounding only: at N = 1 the two are equal
    assert exact_overlap(sym, ref)[0] >= exact_overlap(prod, ref)[0] - 1e-14


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
        e0, vec = oracle._ground_pair(params, symmetric_basis(n, cutoff))
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
    h = oracle._hamiltonian(params, basis)
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


def dense_split_terms(params, cutoff, beta):
    """The split trace's log terms from one dense eigh per block of HI, and each term's up spins.

    The earlier implementation of ``oracle._split_log_terms``: the block j
    of HI = omega0 Jz + (lambda/sqrt(N)) (a + a')(J+ + J-) is built whole,
    c (2j+1) states, and ln (exp(-beta HI))_ii = ln sum_k U_ik^2 exp(-beta e_k).
    """
    basis = full_product_basis(params.n_atoms, cutoff)
    log_terms, n_up = [], []
    for j in basis.spins:
        up = basis.up_counts(j)
        hi = numerics.PhotonAtomOperator(
            0.0, cutoff, (params.omega0 * (np.arange(len(up)) - j), 0.0),
            params.coupling / math.sqrt(params.n_atoms), spin_ladder(j),
        ).toarray()
        vals, vecs = np.linalg.eigh(hi)
        h0 = params.omega * np.repeat(np.arange(cutoff, dtype=float), len(up))
        log_diag = numerics.log_sum_exp(-beta * vals[None, :], vecs**2, axis=1)
        log_terms.append(-beta * h0 + log_diag + math.log(basis.multiplicity(j)))
        n_up.append(np.tile(up, cutoff))
    return np.concatenate(log_terms), np.concatenate(n_up)


def assert_split_matches(params, cutoff, beta, log_partition, overlap_at, rtol):
    """split_log_partition and split_overlap (a = 0.3 and 0.8) against a reference, relative."""
    n = params.n_atoms
    assert abs(split_log_partition(params, cutoff, beta) / log_partition - 1) <= rtol
    for a in (0.3, 0.8):
        value = oracle.split_overlap(params, cutoff, beta, SeparableState.from_a(a, n))
        assert abs(value / overlap_at(a) - 1) <= rtol, (a, value)


@pytest.mark.parametrize("n", range(1, 9))
def test_split_trace_matches_dense_blocks_of_hi(n):
    # the quadrature eigenbasis splits each block of HI into cutoff atomic
    # problems; exact in the truncated space, so it equals the dense blocks
    # to rounding. Left out: beta = 2, cutoff 30 and lambda >= 1, where the
    # dense eigenvectors' tiny photon components cost the overlap up to 3e-11;
    # there a 30-digit evaluation checks the split instead
    # (test_split_trace_matches_high_precision_where_dense_blocks_lose_digits)
    cases = [(1.0, 1.0, lam, beta, cutoff)
             for lam in (0.0, 0.3, 1.0, 1.5) for beta in (0.05, 0.5, 2.0) for cutoff in (4, 12, 30)
             if not (beta == 2.0 and cutoff == 30 and lam >= 1.0)]
    if n == 6:
        cases.append((1.3, 0.7, 0.9, 0.7, 20))
    for omega, omega0, lam, beta, cutoff in cases:
        params = ModelParams(omega, omega0, lam, n)
        log_terms, n_up = dense_split_terms(params, cutoff, beta)
        weights = np.exp(log_terms - log_terms.max())

        def overlap_at(a):
            return float(weights @ (a**n_up * (1 - a) ** (n - n_up)) / weights.sum())

        assert_split_matches(params, cutoff, beta, float(numerics.log_sum_exp(log_terms)),
                             overlap_at, 1e-12)


def test_split_trace_matches_high_precision_where_dense_blocks_lose_digits():
    # N = 5, lambda = 1.5, beta = 2, cutoff 30: the dense blocks of HI give
    # the overlap 1.8e-11 off; the same factorized trace in 30-digit
    # arithmetic (mpmath's eigsy for X and each A(x_m)) agrees to 1e-13
    mp = pytest.importorskip("mpmath")
    n, lam, beta, cutoff = 5, 1.5, 2.0, 30
    with mp.workdps(30):
        ladder = mp.matrix(cutoff, cutoff)
        for k in range(1, cutoff):
            ladder[k - 1, k] = ladder[k, k - 1] = mp.sqrt(k)
        nodes, photon = mp.eigsy(ladder)
        coupling = mp.mpf(lam) / mp.sqrt(n)
        terms = []  # (weight, up spins) of every diagonal element
        for k in range(n // 2 + 1):
            j = mp.mpf(n) / 2 - k
            d = n + 1 - 2 * k
            copies = math.comb(n, k) - (math.comb(n, k - 1) if k else 0)
            atomic = []  # diagonal of exp(-beta A(x_m)) at each node
            for m in range(cutoff):
                a_m = mp.matrix(d, d)
                for i in range(d):
                    a_m[i, i] = i - j
                for i in range(d - 1):
                    a_m[i, i + 1] = a_m[i + 1, i] = coupling * nodes[m] * mp.sqrt((2 * j - i) * (i + 1))
                e, u = mp.eigsy(a_m)
                boltzmann = [mp.exp(-beta * e_k) for e_k in e]
                atomic.append([mp.fsum(u[i, q] ** 2 * boltzmann[q] for q in range(d))
                               for i in range(d)])
            for level in range(cutoff):
                h0 = copies * mp.exp(-beta * level)
                for i in range(d):
                    diagonal = mp.fsum(photon[level, m] ** 2 * atomic[m][i] for m in range(cutoff))
                    terms.append((h0 * diagonal, i + k))
        total = mp.fsum(w for w, _ in terms)
        log_partition = float(mp.log(total))
        overlaps = {a: float(mp.fsum(w * mp.mpf(a) ** up * (1 - mp.mpf(a)) ** (n - up)
                                     for w, up in terms) / total) for a in (0.3, 0.8)}
    assert_split_matches(ModelParams(1.0, 1.0, lam, n), cutoff, beta, log_partition,
                         overlaps.__getitem__, 1e-13)


def test_split_trace_builds_no_block_of_hi(monkeypatch):
    # every eigh of the split trace is of X (cutoff x cutoff) or of a stack
    # of atomic matrices of 2j + 1 <= N + 1 levels
    shapes = []
    eigh = np.linalg.eigh

    def recording_eigh(a):
        shapes.append(np.shape(a))
        return eigh(a)

    monkeypatch.setattr(np.linalg, "eigh", recording_eigh)
    split_log_partition(ModelParams(1.0, 1.0, 0.8, 6), 12, 0.3)
    assert shapes[0] == (12, 12)
    assert shapes[1:] == [(12, d, d) for d in (7, 5, 3, 1)]


def test_block_eigensystems_drop_a_coupling_before_building_the_next(monkeypatch):
    oracle._block_eigensystems.cache_clear()
    _, held = oracle._block_eigensystems(ModelParams(1.0, 1.0, 0.7, 4), 6)
    vectors = weakref.ref(held[0][1])
    del held
    alive_at_build = []
    full = oracle.full_product_basis

    def recording_basis(*args):
        alive_at_build.append(vectors() is not None)
        return full(*args)

    monkeypatch.setattr(oracle, "full_product_basis", recording_basis)
    oracle._block_eigensystems(ModelParams(1.0, 1.0, 0.7, 4), 6)
    assert alive_at_build == []  # a later row of the same coupling reuses the set
    oracle._block_eigensystems(ModelParams(1.0, 1.0, 1.1, 4), 6)
    assert alive_at_build == [False]
    assert oracle._block_eigensystems.cache_info().currsize == 1


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
