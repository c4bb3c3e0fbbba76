import math
import warnings

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


def test_lowest_eigenpair_dense_vs_sparse():
    import scipy.sparse as sparse

    rng = np.random.default_rng(3)
    a = rng.standard_normal((80, 80))
    a = (a + a.T) / 2
    e_dense, v_dense = lowest_eigenpair(a)
    e_sparse, v_sparse = lowest_eigenpair(
        sparse.csr_matrix(a), sigma=float(np.linalg.eigvalsh(a)[0]) - 1.0
    )
    assert abs(e_dense - e_sparse) < 1e-10
    assert abs(abs(v_dense @ v_sparse) - 1.0) < 1e-10
    # no shift: plain Lanczos, same sign convention as the dense branch
    e_lanczos, v_lanczos = lowest_eigenpair(sparse.csr_matrix(a))
    assert abs(e_dense - e_lanczos) < 1e-10
    assert np.abs(v_dense - v_lanczos).max() < 1e-9
    # below ARPACK's Krylov size the sparse input takes the dense branch
    small = a[:12, :12]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        e_small, v_small = lowest_eigenpair(sparse.csr_matrix(small))
    e_ref, v_ref = lowest_eigenpair(small)
    assert e_small == e_ref and np.array_equal(v_small, v_ref)
