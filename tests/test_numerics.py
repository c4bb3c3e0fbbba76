import math

import numpy as np
import pytest

from dicke_overlap import numerics
from dicke_overlap.errors import BracketError, InvalidParameterError, NumericalError
from dicke_overlap.numerics import (
    QuadratureSpec,
    find_root,
    integrate,
    log_integral,
    lowest_eigenpair,
    symmetric_eigendecomposition,
)

TIGHT = QuadratureSpec(rel_tol=1e-12)
LOG_SQRT_2PI = 0.5 * math.log(2 * math.pi)


def test_quadrature_spec_invariants():
    with pytest.raises(InvalidParameterError):
        QuadratureSpec(max_nodes=32)
    with pytest.raises(InvalidParameterError):
        QuadratureSpec(rel_tol=1e-2)
    with pytest.raises(InvalidParameterError):
        QuadratureSpec(rel_tol=0.0)
    QuadratureSpec(max_nodes=64, rel_tol=1e-3)  # boundary values admissible


def test_gaussian_integral_exact():
    value = log_integral(lambda x: -0.5 * np.asarray(x) ** 2, TIGHT)
    assert abs(value - LOG_SQRT_2PI) < 1e-12


def test_shifted_scaled_gaussians():
    # seeded family of centers and widths, all exact to 1e-12
    rng = np.random.default_rng(7)
    for _ in range(12):
        center = rng.uniform(-100, 100)
        width = rng.uniform(0.1, 10.0)
        value = log_integral(
            lambda x, c=center, w=width: -0.5 * ((np.asarray(x) - c) / w) ** 2, TIGHT
        )
        assert abs(value - (math.log(width) + LOG_SQRT_2PI)) < 1e-12


def test_bimodal_far_peaks():
    def log_f(x):
        x = np.asarray(x)
        return np.logaddexp(-0.5 * (x - 50.0) ** 2, -0.5 * (x + 50.0) ** 2)

    value = log_integral(log_f, TIGHT)
    assert abs(value - (math.log(2.0) + LOG_SQRT_2PI)) < 1e-12


def test_shallow_valley_bimodal():
    # unequal peaks at -+1.5 joined by a valley about one nat deep: masses
    # 1 and 6 (times sqrt(2 pi)), so <x> = (-1.5 + 6 * 1.5) / 7
    def log_f(x):
        x = np.asarray(x)
        return np.logaddexp(-0.5 * (x + 1.5) ** 2, math.log(3.0) - 0.125 * (x - 1.5) ** 2)

    assert abs(log_integral(log_f, TIGHT) - (math.log(7.0) + LOG_SQRT_2PI)) < 1e-12
    log_i, (mean,) = integrate(log_f, [lambda x: np.asarray(x)], TIGHT)
    assert abs(log_i - (math.log(7.0) + LOG_SQRT_2PI)) < 1e-12
    assert abs(mean - 7.5 / 7.0) < 1e-11


def test_huge_scale_integrand():
    value = log_integral(lambda x: 2.0e4 - 0.5 * np.asarray(x) ** 2, TIGHT)
    assert abs(value - (2.0e4 + LOG_SQRT_2PI)) < 1e-9


def test_node_budget_error_carries_estimate():
    # a wiggly integrand that cannot converge with 64 nodes
    def log_f(x):
        x = np.asarray(x)
        return -0.5 * x**2 + np.sin(40.0 * x)

    with pytest.raises(NumericalError) as err:
        log_integral(log_f, QuadratureSpec(max_nodes=64, rel_tol=1e-12))
    assert "achieved" in err.value.details


def test_integrate_moments():
    quad = QuadratureSpec(rel_tol=1e-11)
    log_w = lambda x: -0.5 * np.asarray(x) ** 2
    log_i, (second, fourth, odd) = integrate(
        log_w,
        [
            lambda x: np.asarray(x) ** 2,
            lambda x: np.asarray(x) ** 4,
            lambda x: np.asarray(x) ** 3,
        ],
        quad,
    )
    assert abs(log_i - LOG_SQRT_2PI) < 1e-11
    assert abs(second - 1.0) < 1e-9
    assert abs(fourth - 3.0) < 1e-8
    assert abs(odd) < 1e-9


def test_find_root_examples():
    assert abs(find_root(lambda x: x - 1.0, (0.0, 2.0)) - 1.0) < 1e-12
    # cubic with a known irrational root
    root = find_root(lambda x: x**3 - 2.0, (0.0, 2.0))
    assert abs(root - 2.0 ** (1.0 / 3.0)) < 1e-12
    # deterministic
    assert find_root(lambda x: math.cos(x), (0.0, 3.0)) == find_root(
        lambda x: math.cos(x), (0.0, 3.0)
    )


def test_find_root_requires_sign_change():
    with pytest.raises(BracketError):
        find_root(lambda x: x**2 + 1.0, (-1.0, 1.0))


def test_eigendecomposition_small_cases():
    vals, vecs = symmetric_eigendecomposition(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(vals, [-1.0, 1.0])
    d = np.diag([3.0, -1.0, 2.0])
    vals, vecs = symmetric_eigendecomposition(d)
    assert np.allclose(vals, [-1.0, 2.0, 3.0])
    assert np.allclose(np.abs(vecs), np.eye(3)[:, [1, 2, 0]])


def test_eigendecomposition_rejects_asymmetric():
    with pytest.raises(InvalidParameterError):
        symmetric_eigendecomposition(np.array([[0.0, 1.0], [0.5, 0.0]]))


@pytest.mark.parametrize("size", [10, 100, 500])
def test_eigendecomposition_residual_contract(size):
    rng = np.random.default_rng(size)
    trials = 50 if size < 500 else 10
    for _ in range(trials):
        a = rng.standard_normal((size, size))
        a = (a + a.T) / 2
        vals, vecs = symmetric_eigendecomposition(a)
        norm = np.linalg.norm(a, 2)
        residual = np.abs(a @ vecs - vecs * vals).max()
        assert residual < 1e-10 * norm
        ortho = np.abs(vecs.T @ vecs - np.eye(size)).max()
        assert ortho < 1e-10


def _random_operator(seed, cutoff=8, dim=10):
    """A photon-atom operator with random symmetric atomic parts, and its kron sum."""
    rng = np.random.default_rng(seed)
    h_atom, v_atom = rng.standard_normal((2, dim, dim))
    h_atom, v_atom = h_atom + h_atom.T, v_atom + v_atom.T
    ladder = np.diag(np.sqrt(np.arange(1.0, cutoff)), 1)
    expected = (
        1.3 * np.kron(np.diag(np.arange(cutoff, dtype=float)), np.eye(dim))
        + np.kron(np.eye(cutoff), h_atom)
        + 0.7 * np.kron(ladder + ladder.T, v_atom)
    )
    return numerics.photon_atom_hamiltonian(1.3, cutoff, h_atom, 0.7, v_atom), expected


def test_lowest_eigenpair_dense_vs_lanczos():
    h, dense = _random_operator(3)
    e_dense, v_dense = lowest_eigenpair(dense)
    # 80 states, over the Krylov bound: Lanczos, same sign convention as eigh
    assert h.shape[0] > numerics._KRYLOV_DIM
    e_lanczos, v_lanczos = lowest_eigenpair(h)
    assert abs(e_dense - e_lanczos) < 1e-10
    assert np.abs(v_dense - v_lanczos).max() < 1e-9
    # at most the Krylov bound the operator takes the dense branch
    small, small_dense = _random_operator(3, cutoff=4)
    e_small, v_small = lowest_eigenpair(small)
    e_ref, v_ref = lowest_eigenpair(small_dense)
    assert e_small == e_ref and np.array_equal(v_small, v_ref)


def test_lanczos_restarts_reach_the_same_pair(monkeypatch):
    h, dense = _random_operator(5)
    e_ref, v_ref = lowest_eigenpair(dense)
    # eight held vectors: the solve restarts from its Ritz vector many times
    monkeypatch.setattr(numerics, "_KRYLOV_DIM", 8)
    e0, vec = lowest_eigenpair(h)
    assert abs(e0 - e_ref) < 1e-10
    assert np.abs(vec - v_ref).max() < 1e-9


def test_lowest_eigenpair_reports_lanczos_failure(monkeypatch):
    h, _ = _random_operator(3)
    monkeypatch.setattr(numerics, "_LANCZOS_MAX_STEPS", 5)
    with pytest.raises(NumericalError, match="Lanczos") as err:
        lowest_eigenpair(h)
    assert err.value.details == {"dim": 80}


def test_photon_atom_hamiltonian_matches_dense_kron():
    h, expected = _random_operator(7, cutoff=6, dim=5)
    np.testing.assert_array_equal(h.toarray(), expected)


def test_photon_atom_matvec_matches_dense_kron():
    h, expected = _random_operator(7, cutoff=6, dim=5)
    x = np.random.default_rng(8).standard_normal(h.shape[0])
    np.testing.assert_allclose(h.matvec(x), expected @ x, rtol=0, atol=1e-12)


@pytest.mark.parametrize("weighted", [False, True])
def test_log_sum_exp_against_direct_sum(weighted):
    rng = np.random.default_rng(9)
    logs = rng.uniform(-5.0, 5.0, (4, 6))
    weights = rng.uniform(0.0, 2.0, (4, 6)) if weighted else np.ones((4, 6))
    direct = np.log((weights * np.exp(logs)).sum(axis=1))
    args = (weights,) if weighted else ()
    assert np.abs(numerics.log_sum_exp(logs, *args, axis=1) - direct).max() < 1e-13
    assert abs(numerics.log_sum_exp(logs, *args) - np.log((weights * np.exp(logs)).sum())) < 1e-13


def test_log_sum_exp_far_outside_double_range():
    # a shift by the largest term keeps exp(+-1e4) representable, and a term
    # of zero weight does not set the shift
    logs = np.array([1e4, 1e4 + math.log(3.0), 5e4])
    weights = np.array([1.0, 1.0, 0.0])
    assert abs(numerics.log_sum_exp(logs, weights) - (1e4 + math.log(4.0))) < 1e-11
    assert abs(numerics.log_sum_exp(-logs[:2]) - (-1e4 + math.log(1.0 + 1.0 / 3.0))) < 1e-11
