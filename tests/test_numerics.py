import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dicke_overlap import numerics, thermal
from dicke_overlap.core import ModelParams
from dicke_overlap.errors import BracketError, InvalidParameterError, NumericalError
from dicke_overlap.numerics import (
    QuadratureSpec,
    find_root,
    integrate,
    log_integral,
    lowest_eigenpair,
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


def _outcome(call):
    """A call's result, or its NumericalError's type, message and details."""
    try:
        return call()
    except NumericalError as exc:
        return type(exc), str(exc), exc.details


def _failed(outcome):
    return outcome[0] is NumericalError


def _both_paths(log_f, h_funcs, quad):
    """The outcomes of ``integrate`` on the generic and on the even path."""
    return [
        _outcome(lambda even=even: integrate(log_f, h_funcs, quad, even=even))
        for even in (False, True)
    ]


def _x_squared(x):
    return np.asarray(x) ** 2


@settings(max_examples=30, deadline=None)
@given(width=st.floats(0.2, 4.0), tight=st.booleans(), moments=st.booleans())
def test_even_path_is_exact_on_far_bimodal_mixtures(width, tight, moments):
    # peaks at +-50, 78 nats or more above the valley between them: two
    # mirror-image windows that share their evaluations
    def log_f(x):
        x = np.asarray(x)
        return np.logaddexp(-0.5 * ((x - 50.0) / width) ** 2, -0.5 * ((x + 50.0) / width) ** 2)

    h_funcs = (_x_squared, lambda x: np.cos(np.asarray(x))) if moments else ()
    generic, even = _both_paths(log_f, h_funcs, TIGHT if tight else QuadratureSpec())
    assert len(numerics._windows(log_f, even=True)) == 2
    assert not _failed(generic)
    assert even == generic


@settings(max_examples=30, deadline=None)
@given(width=st.floats(0.05, 50.0), height=st.floats(-1e4, 1e4), moments=st.booleans())
def test_even_path_is_exact_on_centred_gaussians(width, height, moments):
    # one window centred on 0, evaluated on its x <= 0 half
    def log_f(x):
        return height - 0.5 * np.asarray(x) ** 2 / width**2

    generic, even = _both_paths(log_f, (_x_squared,) if moments else (), TIGHT)
    assert not _failed(generic)
    assert even == generic


@settings(max_examples=40, deadline=None)
@given(
    lam=st.floats(0.0, 1.5),
    temp=st.floats(0.05, 3.0),
    n=st.integers(1, 1000),
    a=st.floats(0.0, 1.0),
    moments=st.booleans(),
)
def test_even_path_is_exact_on_thermal_weights(lam, temp, n, a, moments):
    point = thermal.ThermalPoint(ModelParams(1.0, 1.0, lam, n), 1.0 / temp)
    h_funcs = thermal._moment_integrands(point) if moments else ()
    generic, even = _both_paths(thermal._log_weight_factory(point, a), h_funcs, QuadratureSpec())
    assert even == generic


def test_both_paths_exhaust_the_node_budget_at_the_same_max_nodes():
    # below T_c: a bimodal weight, a window and its mirror image
    point = thermal.ThermalPoint(ModelParams(1.0, 1.0, 1.0, 100), 1.0 / 0.5)
    log_f, h_funcs = thermal._log_weight_factory(point), thermal._moment_integrands(point)
    assert len(numerics._windows(log_f, even=True)) == 2

    def outcomes(max_nodes):
        return _both_paths(log_f, h_funcs, QuadratureSpec(max_nodes, 1e-12))

    # the fewest nodes that the generic path needs, by bisection
    lo, hi = 64, 200_000
    assert _failed(outcomes(lo)[0]) and not _failed(outcomes(hi)[0])
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if _failed(outcomes(mid)[0]) else (lo, mid)
    short, enough = outcomes(lo), outcomes(hi)
    assert "node budget" in short[0][1]
    assert short[1] == short[0]
    assert enough[1] == enough[0]


def test_reused_nodes_equal_fresh_grids():
    # an asymmetric integrand that needs a few span doublings: every value
    # the scan and the Simpson refinements reuse is the value on a fresh
    # np.linspace grid
    def log_f(x):
        x = np.asarray(x)
        return -0.5 * ((x - 30.0) / 9.0) ** 2 + np.sin(x)

    grid, vals = numerics._scan(log_f)
    span = grid[-1]
    assert span == 256.0
    assert np.array_equal(grid, np.linspace(-span, span, 4097))
    assert np.array_equal(vals, log_f(np.linspace(-span, span, 4097)))
    [(lo, hi, shift)] = numerics._windows(log_f)
    nodes = numerics._WindowNodes(log_f, (np.cos,), lo, hi, shift, centred=False)
    for m in range(4):
        xs = np.linspace(lo, hi, 128 * 2**m + 1)
        ys = np.exp(np.maximum(log_f(xs) - shift, numerics._LOG_FLOOR))
        w, hw = nodes.level(m)
        assert np.array_equal(w, ys) and np.array_equal(hw, ys * np.cos(xs))


def test_mirrored_nodes_equal_fresh_grids():
    def log_f(x):
        return -0.5 * (np.asarray(x) / 7.0) ** 2 + np.cos(np.asarray(x))

    grid, vals = numerics._scan(log_f, even=True)
    assert np.array_equal(vals, log_f(grid))
    lo, hi = -13.375, 5.5  # an off-centre window and its mirror image
    window = numerics._WindowNodes(log_f, (_x_squared,), lo, hi, 1.0, centred=False)
    centred = numerics._WindowNodes(log_f, (_x_squared,), -hi, hi, 1.0, centred=True)
    for m in range(4):
        n = 128 * 2**m
        for nodes, (a, b) in ((window, (lo, hi)), (centred, (-hi, hi))):
            xs = np.linspace(a, b, n + 1)
            ys = np.exp(np.maximum(log_f(xs) - 1.0, numerics._LOG_FLOOR))
            w, hw = nodes.level(m)
            assert np.array_equal(w, ys) and np.array_equal(hw, ys * xs**2)
        mirror = np.linspace(-hi, -lo, n + 1)
        assert np.array_equal(window.level(m)[0][::-1], np.exp(log_f(mirror) - 1.0))


@pytest.mark.parametrize("even", [False, True])
def test_integrands_cannot_write_into_the_nodes(even):
    def gaussian(x):
        return -0.5 * np.asarray(x) ** 2

    def scaling_log_f(x):
        x *= 2.0
        return -0.5 * x**2

    def zeroing_h(x):
        x[0] = 0.0
        return np.ones_like(x)

    before = integrate(gaussian, (_x_squared,), TIGHT, even=even)
    with pytest.raises(ValueError, match="read-only"):
        log_integral(scaling_log_f, TIGHT, even=even)
    with pytest.raises(ValueError, match="read-only"):
        integrate(gaussian, (zeroing_h,), TIGHT, even=even)
    assert integrate(gaussian, (_x_squared,), TIGHT, even=even) == before
    assert abs(before[0] - LOG_SQRT_2PI) < 1e-12
    for level in range(3):
        span = 8.0 * 2.0**level
        assert np.array_equal(numerics._scan_grid(level)[0], np.linspace(-span, span, 4097))


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


def _random_operator(seed, cutoff=8, dim=10):
    """A photon-atom operator with random symmetric atomic bands, and its kron sum.

    h_atom has diagonals at offsets 0 and +-2, v_atom at offsets +-1.
    """
    rng = np.random.default_rng(seed)
    diagonal, second, first = (rng.standard_normal(dim - k) for k in (0, 2, 1))
    h_atom = np.diag(diagonal) + np.diag(second, 2) + np.diag(second, -2)
    v_atom = np.diag(first, 1) + np.diag(first, -1)
    ladder = np.diag(np.sqrt(np.arange(1.0, cutoff)), 1)
    expected = (
        1.3 * np.kron(np.diag(np.arange(cutoff, dtype=float)), np.eye(dim))
        + np.kron(np.eye(cutoff), h_atom)
        + 0.7 * np.kron(ladder + ladder.T, v_atom)
    )
    return numerics.PhotonAtomOperator(1.3, cutoff, (diagonal, second), 0.7, first), expected


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
