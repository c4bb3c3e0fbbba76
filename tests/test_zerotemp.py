import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dicke_overlap import oracle, zerotemp
from dicke_overlap.core import ModelParams
from dicke_overlap.errors import (
    CutoffError,
    DomainError,
    InsufficientDataError,
    InvalidParameterError,
)
from dicke_overlap.numerics import lowest_eigenpair
from dicke_overlap.separable import SeparableState
from dicke_overlap.zerotemp import (
    atom_diagonal_probabilities,
    closed_form_overlap_normal,
    collective_moments_zero_t,
    effective_ground_state,
    effective_hamiltonian,
    gaussian_ground_state,
    overlap_zero_t,
    polariton_frequencies,
    reduced_atom_purity,
    scaling_fit,
)


BACKENDS = ("gaussian", "reference")


def solve(backend, params, cutoffs=None):
    """Production's exact Gaussian ground state, or the truncated reference at ``cutoffs``."""
    if backend == "gaussian":
        return gaussian_ground_state(params)
    return effective_ground_state(params, cutoffs)


def idx(m, n, cb):
    return m * cb + n


def test_hamiltonian_decoupled_diagonal():
    params = ModelParams(1.0, 1.0, 0.0, 10)
    h = effective_hamiltonian(params, (12, 12)).toarray()
    off = h - np.diag(np.diag(h))
    assert np.abs(off).max() == 0.0
    m = np.repeat(np.arange(12), 12)
    n = np.tile(np.arange(12), 12)
    assert np.allclose(np.diag(h), m + n - 5.0)


def test_hamiltonian_coupling_structure():
    params = ModelParams(1.0, 1.0, 0.3, 10)
    h = effective_hamiltonian(params, (20, 20)).toarray()
    assert np.abs(h - h.T).max() < 1e-14
    # (a'+a)(b'+b) ladder element between |m,n> and |m+1,n+1>
    assert abs(h[idx(3, 4, 20), idx(4, 5, 20)] - 0.3 * math.sqrt(4 * 5)) < 1e-14
    assert abs(h[idx(0, 0, 20), idx(1, 1, 20)] - 0.3) < 1e-14


def test_hamiltonian_superradiant_coefficients():
    # printed coefficient of b'b at coupling 0.8 (resonant): 1 + 2(0.64 - 0.25) = 1.78
    params = ModelParams(1.0, 1.0, 0.8, 10)
    omega_b, quad, g, const = zerotemp._coefficients(params)
    assert abs(omega_b - 1.78) < 1e-12
    lc2, l2 = 0.25, 0.64
    assert abs(quad - (l2 - lc2) * (3 * l2 + lc2) / (2 * (l2 + lc2))) < 1e-12
    assert abs(g - math.sqrt(2) * lc2 / math.sqrt(l2 + lc2)) < 1e-12
    # constant offset joins the normal-phase value continuously at lambda_c
    near = ModelParams(1.0, 1.0, 0.5 + 1e-9, 10)
    _, _, _, const_near = zerotemp._coefficients(near)
    assert abs(const_near - (-10 * 0.5)) < 1e-6


def test_hamiltonian_small_cutoff_rejected():
    with pytest.raises(InvalidParameterError):
        effective_hamiltonian(ModelParams(1, 1, 0.2, 10), (6, 10))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    omega=st.floats(0.3, 3.0),
    omega0=st.floats(0.3, 3.0),
    lam=st.floats(0.0, 2.0),
    n_atoms=st.integers(1, 500),
    cutoffs=st.tuples(st.integers(8, 16), st.integers(8, 16)),
)
def test_hamiltonian_conserves_parity(omega, omega0, lam, n_atoms, cutoffs):
    # both phases' Hamiltonians commute with (-1)^(m + n): no element joins
    # the even and the odd sector
    h = effective_hamiltonian(ModelParams(omega, omega0, lam, n_atoms), cutoffs).toarray()
    ca, cb = cutoffs
    parity = (np.repeat(np.arange(ca), cb) + np.tile(np.arange(cb), ca)) % 2
    assert not np.any(h[parity[:, None] != parity[None, :]])


def test_ground_state_decoupled():
    state = effective_ground_state(ModelParams(1.0, 1.0, 0.0, 10), (12, 12))
    assert abs(state.amplitudes[0] - 1.0) < 1e-12
    assert abs(np.linalg.norm(state.amplitudes) - 1.0) < 1e-12


def test_ground_state_energy_below_baseline_and_cutoff_stable():
    # near-critical squeezing: cutoff 30 still carries a 4e-8 occupation
    # tail at coupling 0.49 (rejected by the tail gate); 40 vs 50 converges
    params = ModelParams(1.0, 1.0, 0.49, 10)
    e40 = effective_ground_state(params, (40, 40)).ground_energy
    e50 = effective_ground_state(params, (50, 50)).ground_energy
    assert e40 < -5.0  # below the -N omega0 / 2 baseline
    assert abs(e40 - e50) < 1e-8
    with pytest.raises(CutoffError):
        effective_ground_state(params, (30, 30))


def test_ground_state_norm_and_sign():
    params = ModelParams(1.0, 1.0, 0.45, 10)
    state = effective_ground_state(params, (30, 30))
    assert abs(np.linalg.norm(state.amplitudes) - 1.0) < 1e-12
    significant = np.flatnonzero(np.abs(state.amplitudes) > 1e-10)
    assert state.amplitudes[significant[0]] > 0


def test_ground_state_tail_error_names_mode():
    with pytest.raises(CutoffError) as err:
        effective_ground_state(ModelParams(1.0, 1.0, 0.499, 10), (10, 10))
    assert err.value.mode in ("photon", "atom")


def test_ground_state_dense_and_sparse_agree():
    # the reference's sparse Lanczos solve against a dense solve of the same matrix
    params = ModelParams(1.0, 1.0, 0.8, 20)
    sparse = effective_ground_state(params, (40, 40))
    energy, vec = lowest_eigenpair(effective_hamiltonian(params, (40, 40)).toarray())
    assert abs(sparse.ground_energy - energy) < 1e-9
    assert np.abs(sparse.amplitudes - vec).max() < 1e-8


def test_polariton_decoupled():
    freqs = polariton_frequencies(ModelParams(2.0, 1.0, 0.0, 10))
    assert abs(freqs.omega_minus - 1.0) < 1e-14
    assert abs(freqs.omega_plus - 2.0) < 1e-14


@pytest.mark.parametrize("lam", [0.1, 0.3, 0.45, 0.6, 1.0])
def test_polariton_matches_effective_gaps(lam):
    params = ModelParams(1.0, 1.0, lam, 20)
    freqs = polariton_frequencies(params)
    h = effective_hamiltonian(params, (30, 30)).toarray()
    w = np.linalg.eigvalsh(h)
    gaps = w - w[0]
    assert abs(gaps[1] - freqs.omega_minus) < 1e-6
    assert np.abs(gaps - freqs.omega_plus).min() < 1e-6


def test_polariton_softens_monotonically():
    lams = np.linspace(0.40, 0.4999, 25)
    vals = [polariton_frequencies(ModelParams(1, 1, float(l), 10)).omega_minus for l in lams]
    assert all(b < a for a, b in zip(vals, vals[1:]))
    assert vals[-1] < 0.02


def test_polariton_critical_point_rejected():
    with pytest.raises(InvalidParameterError):
        polariton_frequencies(ModelParams(1.0, 1.0, 0.5, 10))


def test_effective_ground_state_rejects_critical_point_before_solving(monkeypatch):
    def no_hamiltonian(*args):
        raise AssertionError("a Hamiltonian was built at lambda_c")

    monkeypatch.setattr(zerotemp, "effective_hamiltonian", no_hamiltonian)
    with pytest.raises(InvalidParameterError):
        effective_ground_state(ModelParams(1.0, 1.0, 0.5, 10))


def test_atom_diagonal_decoupled():
    state = effective_ground_state(ModelParams(1, 1, 0.0, 10), (12, 12))
    probs = atom_diagonal_probabilities(state)
    assert abs(probs[0] - 1.0) < 1e-12


def test_atom_diagonal_normalized_and_matches_reduced_matrix():
    state = effective_ground_state(ModelParams(1, 1, 0.4, 10), (30, 30))
    probs = atom_diagonal_probabilities(state)
    assert abs(probs.sum() - 1.0) < 1e-10
    # independent path: diagonal of the explicitly assembled reduced matrix
    rho = zerotemp._reduced_atom_matrix(state)
    assert np.abs(probs - np.diag(rho)).max() < 1e-12


def test_atom_diagonal_displaced_frame():
    params = ModelParams(1, 1, 1.0, 40)
    state = effective_ground_state(params, (41, 41))
    probs = atom_diagonal_probabilities(state)
    assert abs(probs.sum() - 1.0) < 1e-10
    mean_n = float(np.dot(np.arange(len(probs)), probs))
    # mean occupation ~ mean-field shift + O(1) quantum correction
    assert abs(mean_n - state.displacement_atom) < 1.0


def test_purity_decoupled_is_one():
    state = effective_ground_state(ModelParams(1, 1, 0.0, 10), (12, 12))
    assert abs(reduced_atom_purity(state) - 1.0) < 1e-12


def test_purity_dual_path():
    state = effective_ground_state(ModelParams(1, 1, 0.3, 10), (30, 30))
    rho = zerotemp._reduced_atom_matrix(state)
    eigvals = np.linalg.eigvalsh(rho)
    assert abs(reduced_atom_purity(state) - float((eigvals**2).sum())) < 1e-10


def test_purity_shape_across_transition():
    # dips approaching lambda_c from below, recovers above
    for backend in BACKENDS:
        purities_below = [
            reduced_atom_purity(solve(backend, ModelParams(1, 1, l, 100)))
            for l in (0.30, 0.40, 0.46, 0.49)
        ]
        assert all(b < a for a, b in zip(purities_below, purities_below[1:]))
        above = reduced_atom_purity(solve(backend, ModelParams(1, 1, 0.6, 100)))
        far = reduced_atom_purity(solve(backend, ModelParams(1, 1, 1.3, 100)))
        assert above > purities_below[-1]
        assert far > above


def test_overlap_decoupled_is_one():
    params = ModelParams(1, 1, 0.0, 10)
    assert abs(zerotemp.overlap_for_params(params) - 1.0) < 1e-8


def test_overlap_matches_oracle_normal_phase():
    params = ModelParams(1, 1, 0.4, 20)
    delta_eff = zerotemp.overlap_for_params(params)
    ed = oracle.exact_ground_state(params, oracle.suggested_cutoff(params))
    delta_ed, _, _ = oracle.exact_overlap(ed, zerotemp.matched_separable_state(params))
    assert abs(delta_eff - delta_ed) / delta_ed < 0.1


def test_overlap_requires_matched_reference():
    params = ModelParams(1, 1, 0.4, 10)
    state = effective_ground_state(params, (30, 30))
    with pytest.raises(InvalidParameterError):
        overlap_zero_t(state, SeparableState.from_a(0.2, 10))
    with pytest.raises(InvalidParameterError):
        overlap_zero_t(state, SeparableState.from_a(0.0, 12))


def test_overlap_bounds_on_grid():
    for lam in (0.1, 0.35, 0.52, 0.8, 1.2):
        params = ModelParams(1, 1, lam, 30)
        delta = zerotemp.overlap_for_params(params)
        assert 0.0 <= delta <= 1.0


def test_cutoff_doubling_stability():
    # ground energy and overlap move by < 1e-7 when both cutoffs double
    for lam in (0.3, 1.0):
        params = ModelParams(1, 1, lam, 20)
        diffs = []
        for cutoffs in ((30, 30), (60, 60)):
            state = effective_ground_state(params, cutoffs)
            sep = zerotemp.matched_separable_state(params)
            diffs.append((state.ground_energy, overlap_zero_t(state, sep)))
        assert abs(diffs[0][0] - diffs[1][0]) < 1e-7
        assert abs(diffs[0][1] - diffs[1][1]) < 1e-7


def test_closed_form_values():
    assert abs(closed_form_overlap_normal(0.0) - 2.0**1.5 / 8.0) < 1e-15
    # vanishes like (1 - 4 l^2)^(1/4): the compensated ratio approaches a constant
    ratios = [
        closed_form_overlap_normal(l) / (1 - 4 * l**2) ** 0.25
        for l in (0.49, 0.499, 0.4999, 0.499999)
    ]
    # limiting prefactor 2^(3/2) / (1 + sqrt(2)) from the denominator at l = 1/2;
    # approached like sqrt(1 - 2l)
    assert abs(ratios[-1] - 2.0**1.5 / (1 + math.sqrt(2))) < 5e-3
    assert abs(ratios[2] - ratios[1]) < abs(ratios[1] - ratios[0])


def test_closed_form_domain():
    with pytest.raises(DomainError):
        closed_form_overlap_normal(0.5)
    with pytest.raises(DomainError):
        closed_form_overlap_normal(-0.1)


def test_scaling_fit_recovers_synthetic_power_law():
    lams = np.linspace(0.40, 0.499, 10)
    deltas = (1 - lams / 0.5) ** 0.25
    fit = scaling_fit(lams, deltas)
    assert abs(fit.exponent - 0.25) < 1e-12
    assert fit.stderr < 1e-12
    assert np.abs(fit.residuals).max() < 1e-12


def test_scaling_fit_validation():
    with pytest.raises(InsufficientDataError):
        scaling_fit([0.45, 0.46, 0.47], [0.5, 0.4, 0.3])
    with pytest.raises(InvalidParameterError):
        scaling_fit([0.45, 0.46, 0.47, 0.51], [0.5, 0.4, 0.3, 0.2])
    with pytest.raises(InvalidParameterError):
        scaling_fit([0.45, 0.46, 0.47, 0.48], [0.5, 0.4, -0.3, 0.2])


def test_moments_decoupled():
    params = ModelParams(1, 1, 0.0, 10)
    state = effective_ground_state(params, (11, 11))
    m = collective_moments_zero_t(state, params)
    assert abs(m.first[2] - (-0.5)) < 1e-12
    assert abs(m.variance("z")) < 1e-12
    assert abs(m.second[0] - 1.0 / 40.0) < 1e-12
    assert m.first[1] == 0.0


def test_moments_normal_phase_large_n():
    params = ModelParams(1, 1, 0.4, 100)
    state = effective_ground_state(params, (60, 60))
    m = collective_moments_zero_t(state, params)
    assert abs(m.first[2] - (-0.5)) < 2.0 / 100


def test_moments_match_oracle_superradiant():
    # parity-even moments and <J_z> agree with exact diagonalization; <J_x>
    # is macroscopic here (displaced symmetry-broken branch) while the exact
    # ground state is a parity eigenstate with <J_x> ~ 0, so it is compared
    # against the mean-field value instead
    params = ModelParams(1, 1, 1.0, 40)
    ed = oracle.exact_ground_state(params, oracle.suggested_cutoff(params))
    m_ed = oracle.exact_moments(ed)
    assert abs(m_ed.first[1]) < 1e-10
    mu = 0.25
    for backend in BACKENDS:
        m_eff = collective_moments_zero_t(solve(backend, params, (41, 41)), params)
        assert abs(m_eff.first[2] - m_ed.first[2]) < 0.02
        for i in range(3):
            assert abs(m_eff.second[i] - m_ed.second[i]) < 0.02
        assert abs(abs(m_eff.first[0]) - 0.5 * math.sqrt(1 - mu**2)) < 0.02
        assert m_eff.first[1] == 0.0


def test_moments_casimir_sum():
    # exact HP operators preserve Jx^2+Jy^2+Jz^2 = j(j+1) up to truncation tails
    params = ModelParams(1, 1, 0.7, 30)
    n = 30
    for backend in BACKENDS:
        m = collective_moments_zero_t(solve(backend, params, (31, 31)), params)
        assert abs(m.total_second() - (n * (n + 2) / 4.0) / n**2) < 1e-6


def test_moments_cutoff_above_atom_count_rejected():
    params = ModelParams(1, 1, 0.3, 10)
    state = effective_ground_state(params, (16, 16))
    with pytest.raises(CutoffError):
        collective_moments_zero_t(state, params)


def test_default_cutoffs_stop_at_atom_count():
    # the default atom cutoff stops at the N + 1 levels of the HP mapping
    params = ModelParams(1, 1, 0.3, 30)
    state = effective_ground_state(params)
    assert state.cutoff_atom == 31
    exact = gaussian_ground_state(params)
    reference = collective_moments_zero_t(state, params)
    moments = collective_moments_zero_t(exact, params)
    assert np.allclose(reference.first, moments.first, rtol=0, atol=1e-12)
    assert np.allclose(reference.second, moments.second, rtol=0, atol=1e-12)
    sep = zerotemp.matched_separable_state(params)
    assert abs(overlap_zero_t(state, sep) - overlap_zero_t(exact, sep)) < 1e-12
    # too few levels for the superradiant state: the tail check, not the HP map, fails
    with pytest.raises(CutoffError, match="atom-mode tail mass"):
        effective_ground_state(ModelParams(1, 1, 1.0, 10))


def test_jz_drift_stays_order_one():
    # sum_n n P(n) - N/2 tracks N * order parameter with an N-independent offset
    for backend in BACKENDS:
        drifts = []
        for n in (20, 40, 80):
            cutoff = max(41, n + 1)
            probs = atom_diagonal_probabilities(
                solve(backend, ModelParams(1, 1, 1.0, n), (cutoff, cutoff))
            )
            mean_n = float(np.dot(np.arange(len(probs)), probs))
            drifts.append(abs((mean_n - n / 2.0) - n * (-0.125)))
        assert max(drifts) < 0.5
        assert max(drifts) - min(drifts) < 0.05


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(
    n=st.integers(20, 60),
    lam=st.one_of(st.floats(0.0, 0.45), st.floats(0.55, 1.5)),
)
def test_gaussian_band_matches_truncated_reference(n, lam):
    # |lambda/lambda_c - 1| >= 0.1
    params = ModelParams(1, 1, lam, n)
    exact = gaussian_ground_state(params)
    reference = effective_ground_state(params, (40, 40))
    sep = zerotemp.matched_separable_state(params)
    delta = overlap_zero_t(exact, sep)
    assert 0.0 <= delta <= 1.0
    assert exact.fock_band()[0].min() >= -1e-15
    assert abs(delta - overlap_zero_t(reference, sep)) < 1e-8
    for diag_exact, diag_ref in zip(exact.fock_band(), reference.fock_band()):
        k = min(len(diag_exact), len(diag_ref))
        assert np.abs(diag_exact[:k] - diag_ref[:k]).max() < 1e-11
    assert abs(reduced_atom_purity(exact) - reduced_atom_purity(reference)) < 1e-8


def test_gaussian_large_n_superradiant_no_underflow():
    # rho_00 = exp(-1500) here: the band recursion must rescale on the way
    params = ModelParams(1, 1, 1.0, 4000)
    start = time.perf_counter()
    state = gaussian_ground_state(params)
    delta = overlap_zero_t(state, zerotemp.matched_separable_state(params))
    elapsed = time.perf_counter() - start
    assert abs(atom_diagonal_probabilities(state).sum() - 1.0) < 1e-10
    assert 0.0 < delta <= 1.0
    assert elapsed < 1.0


def test_gaussian_moments_match_truncated_reference():
    for lam in (0.3, 1.0):
        params = ModelParams(1, 1, lam, 40)
        exact = collective_moments_zero_t(gaussian_ground_state(params), params)
        reference = collective_moments_zero_t(effective_ground_state(params, (41, 41)), params)
        assert np.allclose(exact.first, reference.first, rtol=0, atol=1e-10)
        assert np.allclose(exact.second, reference.second, rtol=0, atol=1e-10)
