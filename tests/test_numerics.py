import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dicke_overlap import numerics, thermal
from dicke_overlap.core import ModelParams, find_root
from dicke_overlap.errors import BracketError, InvalidParameterError, NumericalError
from dicke_overlap.numerics import QuadratureSpec, integrate, log_integral, lowest_eigenpair

TIGHT = QuadratureSpec(rel_tol=1e-12)
LOG_SQRT_2PI = 0.5 * math.log(2 * math.pi)


def _even_part(log_g):
    """ln[g(x) + g(-x)], whose integral over the real line is twice that of g."""
    return lambda x: np.logaddexp(log_g(np.asarray(x)), log_g(-np.asarray(x)))


def _symmetrised(log_g, symmetrise):
    """``log_g``, or ln[(g(x) + g(-x)) / 2]: the even part a caller passes for a
    non-even g, which is g itself for an even one."""
    if not symmetrise:
        return log_g
    even = _even_part(log_g)
    return lambda x: even(x) - math.log(2.0)


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
        log_f = _even_part(lambda x, c=center, w=width: -0.5 * ((x - c) / w) ** 2)
        value = log_integral(log_f, TIGHT)
        assert abs(value - (math.log(2.0 * width) + LOG_SQRT_2PI)) < 1e-12


def test_bimodal_far_peaks():
    def log_f(x):
        x = np.asarray(x)
        return np.logaddexp(-0.5 * (x - 50.0) ** 2, -0.5 * (x + 50.0) ** 2)

    value = log_integral(log_f, TIGHT)
    assert abs(value - (math.log(2.0) + LOG_SQRT_2PI)) < 1e-12


def test_shallow_valley_bimodal():
    # the even part of unequal peaks at -+1.5 joined by a valley about one
    # nat deep: masses 1 and 6 (times sqrt(2 pi)), each twice, with
    # <x^2> = (1 + 1.5^2) for the first and 4 + 1.5^2 for the second
    log_f = _even_part(
        lambda x: np.logaddexp(-0.5 * (x + 1.5) ** 2, math.log(3.0) - 0.125 * (x - 1.5) ** 2)
    )
    assert abs(log_integral(log_f, TIGHT) - (math.log(14.0) + LOG_SQRT_2PI)) < 1e-12
    log_i, (mean_x2,) = integrate(log_f, [_x_squared], TIGHT)
    assert abs(log_i - (math.log(14.0) + LOG_SQRT_2PI)) < 1e-12
    assert abs(mean_x2 - (3.25 + 6.0 * 6.25) / 7.0) < 1e-11


def test_huge_scale_integrand():
    value = log_integral(lambda x: 2.0e4 - 0.5 * np.asarray(x) ** 2, TIGHT)
    assert abs(value - (2.0e4 + LOG_SQRT_2PI)) < 1e-9


def test_node_budget_error_carries_estimate():
    # a wiggly integrand that cannot converge with 64 nodes
    log_f = _even_part(lambda x: -0.5 * x**2 + np.sin(40.0 * x))
    with pytest.raises(NumericalError) as err:
        log_integral(log_f, QuadratureSpec(max_nodes=64, rel_tol=1e-12))
    assert "achieved" in err.value.details
    low, high = err.value.details["window"]
    assert low == -high < 0.0


@pytest.mark.parametrize("symmetrise", [False, True])
@pytest.mark.parametrize("where", ["scan", "halving"])
def test_nan_log_integrand_is_named(where, symmetrise):
    # a NaN of ln f used to read as "-inf on the whole scan range" on the
    # scan, and to run a halving into the node budget
    if where == "scan":
        def log_f(x):
            x = np.asarray(x)
            return np.where(np.abs(x) > 5.0, np.nan, -0.5 * x**2)
    else:
        # a peak narrower than the scan spacing (1/16) needs halvings; the
        # NaN lies between two scan nodes, on the fifth halving's 1/512
        def log_f(x):
            x = np.asarray(x)
            return np.where(np.abs(np.abs(x) - 0.002) < 0.0005, np.nan, -0.5 * (x / 0.002) ** 2)

    log_g = _symmetrised(log_f, symmetrise)

    def quiet(x):
        with np.errstate(invalid="ignore"):  # np.logaddexp warns on the NaN it passes on
            return log_g(x)

    with pytest.raises(NumericalError, match="log-integrand is NaN") as err:
        log_integral(quiet)
    assert np.isnan(log_f(np.array([err.value.details["x"]])))[0]


@pytest.mark.parametrize("quad", [QuadratureSpec(), TIGHT], ids=["default", "tight"])
@pytest.mark.parametrize(
    "width, centre", [(0.05, 1 / 32), (0.025, 1 / 64), (0.05, 0.03), (0.004, 0.002), (0.3, 1 / 32)]
)
def test_peaks_narrower_than_the_spacing_meet_the_tolerance(width, centre, quad):
    # midway between two nodes of spacing 1/16 (x = 1/32), a Gaussian of
    # width 0.05 weighs the even and the odd nodes alike, so the rules of
    # both spacings agree while each is off by 6.5e-6 in ln I; its second
    # differences of ln f demand the halvings.  At x = 1/64, width 0.025,
    # the first halving's two rules alias alike the same way
    value = log_integral(_even_part(lambda x: -0.5 * ((x - centre) / width) ** 2), quad)
    assert abs(value - math.log(2.0 * width) - LOG_SQRT_2PI) <= quad.rel_tol


def test_integrate_moments():
    quad = QuadratureSpec(rel_tol=1e-11)
    log_w = lambda x: -0.5 * np.asarray(x) ** 2
    log_i, (second, fourth, mean_cos) = integrate(
        log_w,
        [
            lambda x: np.asarray(x) ** 2,
            lambda x: np.asarray(x) ** 4,
            lambda x: np.cos(np.asarray(x)),
        ],
        quad,
    )
    assert abs(log_i - LOG_SQRT_2PI) < 1e-11
    assert abs(second - 1.0) < 1e-9
    assert abs(fourth - 3.0) < 1e-8
    assert abs(mean_cos - math.exp(-0.5)) < 1e-9


def _x_squared(x):
    return np.asarray(x) ** 2


def _scan(log_f):
    """The (grid, values) of the scan of one 1-D log-integrand, a batch of one."""
    ((grid, _, vals, _),) = numerics._scan(numerics._one(log_f), 1)
    return grid, vals[0]


def _moment_integrands(point):
    """The three moment integrands at one point, as functions of x."""
    return tuple(thermal._one_point(h) for h in thermal._moments([point]))


def _recorded(fn, calls):
    """``fn``, recording a copy of every node array it is called on."""

    def recorder(x):
        calls.append(np.array(x))
        return fn(x)

    return recorder


def _scan_levels(grid):
    """How many scan grids, each of twice the reach, a scan ending on ``grid`` evaluated."""
    return int(math.log2(grid[-1] / 8.0)) + 1


@settings(max_examples=30, deadline=None)
@given(width=st.floats(0.2, 4.0), tight=st.booleans(), moments=st.booleans())
def test_far_bimodal_mixtures_match_the_closed_form(width, tight, moments):
    # peaks at +-50, 78 nats or more above the valley between them; each of
    # width w has mass w sqrt(2 pi), <x^2> = 2500 + w^2, <cos x> = e^(-w^2/2) cos 50
    def log_f(x):
        x = np.asarray(x)
        return np.logaddexp(-0.5 * ((x - 50.0) / width) ** 2, -0.5 * ((x + 50.0) / width) ** 2)

    quad = TIGHT if tight else QuadratureSpec()
    h_funcs = (_x_squared, lambda x: np.cos(np.asarray(x))) if moments else ()
    log_i, means = integrate(log_f, h_funcs, quad)
    assert abs(log_i - math.log(2.0 * width) - LOG_SQRT_2PI) <= quad.rel_tol
    if moments:
        assert abs(means[0] / (2500.0 + width**2) - 1.0) <= quad.rel_tol
        assert abs(means[1] - math.exp(-0.5 * width**2) * math.cos(50.0)) <= quad.rel_tol


@settings(max_examples=30, deadline=None)
@given(width=st.floats(0.05, 50.0), height=st.floats(-1e4, 1e4), moments=st.booleans())
def test_centred_gaussians_match_the_closed_form(width, height, moments):
    # one kept run from 0; the shift by a height up to 1e4 costs its rounding
    def log_f(x):
        return height - 0.5 * np.asarray(x) ** 2 / width**2

    log_i, means = integrate(log_f, (_x_squared,) if moments else (), TIGHT)
    exact = height + math.log(width) + LOG_SQRT_2PI
    assert abs(log_i - exact) <= TIGHT.rel_tol + 4 * sys.float_info.epsilon * abs(exact)
    if moments:
        assert abs(means[0] / width**2 - 1.0) <= TIGHT.rel_tol


@settings(max_examples=40, deadline=None)
@given(
    lam=st.floats(0.0, 1.5),
    temp=st.floats(0.05, 3.0),
    n=st.integers(1, 1000),
    a=st.floats(0.0, 1.0),
    moments=st.booleans(),
)
def test_thermal_weights_match_a_dense_rule(lam, temp, n, a, moments):
    # the reference is the two-sided rule of spacing 1/64, which resolves
    # the unit-width peaks to rounding
    point = thermal.ThermalPoint(ModelParams(1.0, 1.0, lam, n), 1.0 / temp)
    log_f = thermal._log_weight_factory(point, a)
    h_funcs = _moment_integrands(point) if moments else ()
    log_i, means = integrate(log_f, h_funcs, QuadratureSpec())
    # out to 40 beyond where ln f lies 1000 below its value at 0
    def drop(x):
        at_x, at_0 = log_f(np.array([x, 0.0]))
        return at_x - at_0 + 1e3

    reach = int(find_root(drop, (0.0, 1e4))) + 40
    xs = np.arange(-64 * reach, 64 * reach + 1) / 64.0
    logs = log_f(xs)
    weights = np.exp(logs - logs.max())
    exact = logs.max() + math.log(weights.sum() / 64.0)
    assert abs(log_i - exact) <= QuadratureSpec().rel_tol + 4 * sys.float_info.epsilon * abs(exact)
    for mean, h in zip(means, h_funcs):
        assert abs(mean - (weights * h(xs)).sum() / weights.sum()) <= QuadratureSpec().rel_tol


def test_node_budget_is_counted_on_the_whole_line():
    # below T_c: a bimodal weight.  Each node x > 0 counts twice and 0 once,
    # so the budget this point needs is that of the rule on both half-lines
    point = thermal.ThermalPoint(ModelParams(1.0, 1.0, 1.0, 100), 1.0 / 0.5)
    log_f, h_funcs = thermal._log_weight_factory(point), _moment_integrands(point)
    integrate(log_f, h_funcs, QuadratureSpec(724, 1e-12))
    with pytest.raises(NumericalError, match="node budget"):
        integrate(log_f, h_funcs, QuadratureSpec(723, 1e-12))


def test_reused_nodes_equal_fresh_grids():
    # the even part of a broad Gaussian that needs a few reach doublings
    # and a bump too narrow for the scan's spacing: every node the scan and
    # the halvings evaluate is >= 0 and lies on the np.linspace grid from 0
    # of its spacing, the odd nodes of the finer one for a halving
    log_f = _even_part(
        lambda x: np.logaddexp(-0.5 * ((x - 30.0) / 9.0) ** 2, -0.5 * ((x - 31.0) / 0.02) ** 2)
    )
    grid, vals = _scan(log_f)
    span = grid[-1]
    assert span == 256.0
    assert np.array_equal(grid, np.linspace(0.0, span, 2049))
    assert np.array_equal(vals, log_f(np.linspace(0.0, span, 2049)))
    f_calls, h_calls = [], []
    log_i, (mean_cos,) = integrate(_recorded(log_f, f_calls), (_recorded(np.cos, h_calls),))
    # each Gaussian of width s about m has mass s sqrt(2 pi) and <cos x> = e^(-s^2/2) cos m
    assert abs(log_i - math.log(2.0 * 9.02) - LOG_SQRT_2PI) < 1e-9
    cos_mass = 9.0 * math.exp(-40.5) * math.cos(30.0) + 0.02 * math.exp(-2e-4) * math.cos(31.0)
    assert abs(mean_cos - cos_mass / 9.02) < 1e-9
    assert all((xs >= 0.0).all() for xs in f_calls + h_calls)
    levels = _scan_levels(grid)
    for level, xs in enumerate(f_calls[:levels]):
        reach = 8.0 * 2**level
        assert np.isin(xs, np.linspace(0.0, reach, min(128 * 2**level, 2048) + 1)).all()
    refinements = f_calls[levels:]
    assert len(refinements) >= 2
    assert np.isin(h_calls[0], grid).all()
    for m, xs in enumerate(refinements, start=1):
        assert np.isin(xs, np.linspace(0.0, span, (len(grid) - 1) * 2**m + 1)[1::2]).all()
        assert np.array_equal(h_calls[m], xs)


def test_mirrored_nodes_equal_fresh_grids():
    # narrow bumps at +-5 on a broad Gaussian, computed from x only through
    # x^2: the nodes x >= 0 and their mirrors are the fresh np.linspace grids
    # of the whole line, and the rule on them is that grid's trapezoid rule
    def log_f(x):
        x2 = np.asarray(x) ** 2
        return np.logaddexp(-0.5 * x2 / 49.0, -0.5 * ((x2 - 25.0) / 0.2) ** 2)

    grid, vals = _scan(log_f)
    span = grid[-1]
    mirrored = np.concatenate((-grid[:0:-1], grid))
    assert np.array_equal(mirrored, np.linspace(-span, span, 2 * (len(grid) - 1) + 1))
    assert np.array_equal(vals, log_f(grid))
    calls = []
    log_i, (mean_x2,) = integrate(_recorded(log_f, calls), (_x_squared,))
    refinements = calls[_scan_levels(grid) :]
    assert len(refinements) >= 2
    for m, half in enumerate(refinements, start=1):
        # a halving evaluates midpoints: never 0, and mirrored onto x < 0
        assert (half > 0).all()
        xs = np.concatenate((-half[::-1], half))
        assert np.isin(xs, np.linspace(-span, span, 2 * (len(grid) - 1) * 2**m + 1)[1::2]).all()
    xs = np.linspace(-span, span, 2 * (len(grid) - 1) * 2 ** len(refinements) + 1)
    log_w = log_f(xs)
    weights = np.exp(log_w - log_w.max())
    assert abs(log_i - math.log(xs[1] - xs[0]) - numerics.log_sum_exp(log_w)) <= 1e-13
    assert abs(mean_x2 - (weights * xs**2).sum() / weights.sum()) <= 1e-13 * mean_x2


def test_entire_integrands_need_no_point_beyond_the_scan():
    # the thermal weight is entire in x: the rule on the scan's own nodes
    # meets the default tolerance, and no node is evaluated twice
    point = thermal.ThermalPoint(ModelParams(1.0, 1.0, 0.8, 100), 1.0 / 0.5)
    weight = thermal._log_weight_factory(point)
    quadrature, scan = [], []
    log_integral(_recorded(weight, quadrature))
    _scan(_recorded(weight, scan))
    assert sum(map(len, quadrature)) == sum(map(len, scan))


@pytest.mark.parametrize("symmetrise", [False, True])
@pytest.mark.parametrize("n, b", [(10, 0.2), (10, 1.0), (1000, 0.2), (1000, 1.0)])
def test_cosh_power_closed_form(n, b, symmetrise):
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
    log_i, (x2,) = integrate(_symmetrised(log_f, symmetrise), (_x_squared,), TIGHT)
    assert abs(log_i - exact) <= 1e-12 * abs(exact)
    assert abs(x2 - exact_x2) <= 1e-12 * exact_x2


def test_kinked_integrand_meets_tolerance_or_fails_typed():
    # e^-|x - 0.3| has a kink off the nodes: the rule converges only like
    # h^2, so it reaches the tolerance or raises at the node budget
    log_f = _even_part(lambda x: -np.abs(x - 0.3))
    quad = QuadratureSpec()
    try:
        value = log_integral(log_f, quad)
    except NumericalError as exc:
        assert exc.details["achieved"] > quad.rel_tol
    else:
        assert abs(value - math.log(4.0)) <= quad.rel_tol


@pytest.mark.parametrize("symmetrise", [False, True])
def test_integrands_cannot_write_into_the_nodes(symmetrise):
    def gaussian(x):
        return -0.5 * np.asarray(x) ** 2

    def scaling_log_f(x):
        x *= 2.0
        return -0.5 * x**2

    gaussian = _symmetrised(gaussian, symmetrise)
    scaling_log_f = _symmetrised(scaling_log_f, symmetrise)

    def zeroing_h(x):
        x[0] = 0.0
        return np.ones_like(x)

    before = integrate(gaussian, (_x_squared,), TIGHT)
    with pytest.raises(ValueError, match="read-only"):
        log_integral(scaling_log_f, TIGHT)
    with pytest.raises(ValueError, match="read-only"):
        integrate(gaussian, (zeroing_h,), TIGHT)
    assert integrate(gaussian, (_x_squared,), TIGHT) == before
    assert abs(before[0] - LOG_SQRT_2PI) < 1e-12
    # spacing 1/16 up to reach 128, then 2,049 nodes at every reach
    for level in (0, 1, 2, 4, 5, 6, numerics._SCAN_LEVELS - 1):
        reach = 8.0 * 2.0**level
        grid = np.linspace(0.0, reach, min(128 * 2**level, 2048) + 1)
        assert np.array_equal(numerics._scan_grid(level)[0], grid)


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
