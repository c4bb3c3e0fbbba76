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


@pytest.mark.parametrize("even", [False, True])
@pytest.mark.parametrize("where", ["scan", "halving"])
def test_nan_log_integrand_is_named(where, even):
    # a NaN of ln f used to read as "-inf on the whole scan range" on the
    # scan, and to run a halving into the node budget
    if where == "scan":
        def log_f(x):
            x = np.asarray(x)
            return np.where(np.abs(x) > 5.0, np.nan, -0.5 * x**2)
    else:
        # a peak narrower than the scan spacing (1/256) needs halvings; the
        # NaN lies between two scan nodes, on the first halving's 1/512
        def log_f(x):
            x = np.asarray(x)
            return np.where(np.abs(np.abs(x) - 0.002) < 0.0005, np.nan, -0.5 * (x / 0.002) ** 2)

    with pytest.raises(NumericalError, match="log-integrand is NaN") as err:
        log_integral(log_f, even=even)
    assert np.isnan(log_f(np.array([err.value.details["x"]])))[0]


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


def _kept_runs(log_f):
    """The runs of scan nodes within ``_PEAK_KEEP`` of the scan maximum."""
    _, vals = numerics._scan(log_f, even=True)
    near = (vals > vals.max() - numerics._PEAK_KEEP).astype(np.int8)
    return np.count_nonzero(np.diff(near) == 1)


def _recorded(fn, calls):
    """``fn``, recording a copy of every node array it is called on."""

    def recorder(x):
        calls.append(np.array(x))
        return fn(x)

    return recorder


def _scan_levels(grid):
    """How many scan grids, each of twice the span, a scan ending on ``grid`` evaluated."""
    return int(math.log2(grid[-1] / 8.0)) + 1


@settings(max_examples=30, deadline=None)
@given(width=st.floats(0.2, 4.0), tight=st.booleans(), moments=st.booleans())
def test_even_path_is_exact_on_far_bimodal_mixtures(width, tight, moments):
    # peaks at +-50, 78 nats or more above the valley between them: two
    # mirror-image kept runs, and no node in the valley between them
    def log_f(x):
        x = np.asarray(x)
        return np.logaddexp(-0.5 * ((x - 50.0) / width) ** 2, -0.5 * ((x + 50.0) / width) ** 2)

    h_funcs = (_x_squared, lambda x: np.cos(np.asarray(x))) if moments else ()
    generic, even = _both_paths(log_f, h_funcs, TIGHT if tight else QuadratureSpec())
    assert _kept_runs(log_f) == 2
    assert not _failed(generic)
    assert even == generic


@settings(max_examples=30, deadline=None)
@given(width=st.floats(0.05, 50.0), height=st.floats(-1e4, 1e4), moments=st.booleans())
def test_even_path_is_exact_on_centred_gaussians(width, height, moments):
    # one kept run centred on 0, evaluated on its x <= 0 half
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
    # below T_c: a bimodal weight, a kept run and its mirror image
    point = thermal.ThermalPoint(ModelParams(1.0, 1.0, 1.0, 100), 1.0 / 0.5)
    log_f, h_funcs = thermal._log_weight_factory(point), thermal._moment_integrands(point)
    assert _kept_runs(log_f) == 2

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
    # an asymmetric integrand that needs a few span doublings, with a bump
    # too narrow for the scan's spacing: every node a halving evaluates is
    # an odd node of the np.linspace grid of the finer spacing
    def log_f(x):
        x = np.asarray(x)
        return np.logaddexp(-0.5 * ((x - 30.0) / 9.0) ** 2, -0.5 * ((x - 31.0) / 0.02) ** 2)

    grid, vals = numerics._scan(log_f)
    span = grid[-1]
    assert span == 256.0
    assert np.array_equal(grid, np.linspace(-span, span, 4097))
    assert np.array_equal(vals, log_f(np.linspace(-span, span, 4097)))
    f_calls, h_calls = [], []
    log_i, (mean_cos,) = integrate(_recorded(log_f, f_calls), (_recorded(np.cos, h_calls),))
    # each Gaussian of width s about m has mass s sqrt(2 pi) and <cos x> = e^(-s^2/2) cos m
    assert abs(log_i - math.log(9.02) - LOG_SQRT_2PI) < 1e-9
    cos_mass = 9.0 * math.exp(-40.5) * math.cos(30.0) + 0.02 * math.exp(-2e-4) * math.cos(31.0)
    assert abs(mean_cos - cos_mass / 9.02) < 1e-9
    refinements = f_calls[_scan_levels(grid) :]
    assert len(refinements) >= 2
    assert np.isin(h_calls[0], grid).all()
    for m, xs in enumerate(refinements, start=1):
        assert np.isin(xs, np.linspace(-span, span, 4096 * 2**m + 1)[1::2]).all()
        assert np.array_equal(h_calls[m], xs)


def test_mirrored_nodes_equal_fresh_grids():
    # narrow bumps at +-5 on a broad Gaussian, computed from x only through x^2
    def log_f(x):
        x2 = np.asarray(x) ** 2
        return np.logaddexp(-0.5 * x2 / 49.0, -0.5 * ((x2 - 25.0) / 0.2) ** 2)

    grid, vals = numerics._scan(log_f, even=True)
    assert np.array_equal(vals, log_f(grid))
    calls = []
    result = integrate(_recorded(log_f, calls), (_x_squared,), even=True)
    assert result == integrate(log_f, (_x_squared,))
    span, refinements = grid[-1], calls[_scan_levels(grid) :]
    assert len(refinements) >= 2
    for m, half in enumerate(refinements, start=1):
        # a halving evaluates its x < 0 half: the midpoints never include 0
        assert (half < 0).all()
        xs = np.concatenate((half, -half[::-1]))
        assert np.isin(xs, np.linspace(-span, span, 4096 * 2**m + 1)[1::2]).all()
        assert np.array_equal(numerics._values(log_f, xs, True), log_f(xs))
        assert np.array_equal(numerics._values(_x_squared, xs, True), xs**2)


def test_entire_integrands_need_no_point_beyond_the_scan():
    # the thermal weight is entire in x: the rule on the scan's own nodes
    # meets the default tolerance, and no node is evaluated twice
    point = thermal.ThermalPoint(ModelParams(1.0, 1.0, 0.8, 100), 1.0 / 0.5)
    weight = thermal._log_weight_factory(point)
    quadrature, scan = [], []
    log_integral(_recorded(weight, quadrature), even=True)
    numerics._scan(_recorded(weight, scan), even=True)
    assert sum(map(len, quadrature)) == sum(map(len, scan))


@pytest.mark.parametrize("even", [False, True])
@pytest.mark.parametrize("n, b", [(10, 0.2), (10, 1.0), (1000, 0.2), (1000, 1.0)])
def test_cosh_power_closed_form(n, b, even):
    # integral of e^(-x^2/2) cosh(bx)^N = sqrt(2 pi) 2^-N sum_k C(N,k) e^(c_k^2/2)
    # with c_k = (N - 2k) b; the x^2 moment weighs each term by 1 + c_k^2.
    # At N = 1000 the peaks at +-N b are far apart
    def log_f(x):
        y = np.abs(b * np.asarray(x))
        return -0.5 * np.asarray(x) ** 2 + n * (y + np.log1p(np.exp(-2.0 * y)) - math.log(2.0))

    c = (n - 2.0 * np.arange(n + 1)) * b
    log_binomial = np.array([math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
                             for k in range(n + 1)])
    log_terms = log_binomial + 0.5 * c**2
    exact = LOG_SQRT_2PI - n * math.log(2.0) + numerics.log_sum_exp(log_terms)
    weights = np.exp(log_terms - log_terms.max())
    exact_x2 = (weights * (1.0 + c**2)).sum() / weights.sum()
    log_i, (x2,) = integrate(log_f, (_x_squared,), TIGHT, even=even)
    assert abs(log_i - exact) <= 1e-12 * abs(exact)
    assert abs(x2 - exact_x2) <= 1e-12 * exact_x2


def test_kinked_integrand_meets_tolerance_or_fails_typed():
    # e^-|x - 0.3| has a kink off the nodes: the rule converges only like
    # h^2, so it reaches the tolerance or raises at the node budget
    def log_f(x):
        return -np.abs(np.asarray(x) - 0.3)

    quad = QuadratureSpec()
    try:
        value = log_integral(log_f, quad)
    except NumericalError as exc:
        assert exc.details["achieved"] > quad.rel_tol
    else:
        assert abs(value - math.log(2.0)) <= quad.rel_tol


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
