import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dicke_overlap import oracle, thermal
from dicke_overlap.core import ModelParams, golden_max
from dicke_overlap.errors import InvalidParameterError, NumericalError
from dicke_overlap.numerics import QuadratureSpec
from dicke_overlap.separable import SeparableState
from dicke_overlap.thermal import (
    ThermalPoint,
    log_partition,
    matched_a,
    overlap_finite_t,
    thermal_jz,
    thermal_moments,
)
from oracle_helpers import split_log_partition

QUAD = QuadratureSpec()


def test_thermal_point_validation():
    with pytest.raises(InvalidParameterError):
        ThermalPoint(ModelParams(1, 1, 0.5, 4), 0.0)
    with pytest.raises(InvalidParameterError):
        ThermalPoint(ModelParams(1, 1, 0.5, 4), -1.0)
    with pytest.raises(InvalidParameterError):
        ThermalPoint(ModelParams(1, 1, 0.5, 4), math.inf)


def test_log_partition_decoupled_closed_form():
    n, beta = 10, 0.7
    point = ThermalPoint(ModelParams(1.0, 1.0, 0.0, n), beta)
    expected = n * math.log(2 * math.cosh(beta / 2)) - math.log(1 - math.exp(-beta))
    assert abs(log_partition(point, QUAD) - expected) < 1e-12


def test_log_partition_node_doubling_stable():
    point = ThermalPoint(ModelParams(1.0, 1.0, 1.0, 100), 1.0)
    base = log_partition(point, QuadratureSpec(max_nodes=100_000, rel_tol=1e-9))
    doubled = log_partition(point, QuadratureSpec(max_nodes=200_000, rel_tol=1e-9))
    assert abs(base - doubled) < 1e-9 * abs(base)


def test_log_partition_matches_split_trace_oracle():
    # the x-integral is an exact rewriting of Tr[e^-bH0 e^-bHI]; at converged
    # photon cutoff the two agree to quadrature accuracy
    params = ModelParams(1.0, 1.0, 1.0, 4)
    beta = 0.2
    point = ThermalPoint(params, beta)
    assert abs(log_partition(point, QUAD) - split_log_partition(params, 120, beta)) < 1e-6


def test_log_partition_monotone_in_beta():
    for lam in (0.3, 0.8):
        params = ModelParams(1.0, 1.0, lam, 8)
        betas = np.linspace(0.05, 0.3, 6)
        values = [log_partition(ThermalPoint(params, float(b)), QUAD) for b in betas]
        assert all(b < a for a, b in zip(values, values[1:]))


def test_thermal_jz_free_spins():
    beta = 0.9
    point = ThermalPoint(ModelParams(1.0, 1.0, 0.0, 12), beta)
    assert abs(thermal_jz(point, QUAD) - (-0.5 * math.tanh(beta / 2))) < 1e-12


def test_thermal_jz_ground_state_limit():
    # deep in the free branch (coupling small enough that the x != 0 maxima
    # of the weight stay subdominant) the large-beta limit is -1/2
    point = ThermalPoint(ModelParams(1.0, 1.0, 0.002, 10), 50.0)
    assert abs(thermal_jz(point, QUAD) - (-0.5)) < 1e-6


def test_thermal_jz_matches_oracle():
    params = ModelParams(1.0, 1.0, 1.0, 4)
    point = ThermalPoint(params, 0.2)
    state = oracle.exact_thermal_state(params, 60, 0.2)
    jz_exact = oracle.exact_moments(state).first[2]
    assert abs(thermal_jz(point, QUAD) - jz_exact) < 0.02


def test_overlap_decoupled_closed_form():
    n, beta = 10, 0.7
    point = ThermalPoint(ModelParams(1.0, 1.0, 0.0, n), beta)
    ratio = math.exp(beta / 2) / (2 * math.cosh(beta / 2))
    assert abs(overlap_finite_t(point, 0.0, QUAD) - ratio**n) < 1e-12


def test_overlap_infinite_temperature_limit():
    n = 10
    point = ThermalPoint(ModelParams(1.0, 1.0, 1.0, n), 1e-3)
    delta = overlap_finite_t(point, matched_a(point, QUAD), QUAD)
    assert abs(delta - 2.0**-n) < 0.01 * 2.0**-n


def test_overlap_matches_split_oracle():
    # same factorization on both sides: agreement is quadrature-tight,
    # isolating the quadrature from the O(beta^3) split error; the split
    # has no multiplet basis, so it reaches N = 1000 too
    for n, lam, beta, cutoff in ((4, 0.5, 0.2, 120), (4, 1.0, 0.4, 120), (1000, 0.8, 0.3, 160)):
        params = ModelParams(1.0, 1.0, lam, n)
        point = ThermalPoint(params, beta)
        a = matched_a(point, QUAD)
        delta_quad = overlap_finite_t(point, a, QUAD)
        delta_split = oracle.split_overlap(params, cutoff, beta, SeparableState.from_a(a, n))
        assert abs(delta_quad - delta_split) / delta_split < 1e-6, n


def test_overlap_matches_thermal_oracle():
    params = ModelParams(1.0, 1.0, 1.0, 4)
    point = ThermalPoint(params, 0.2)
    a = matched_a(point, QUAD)
    delta_quad = overlap_finite_t(point, a, QUAD)
    state = oracle.exact_thermal_state(params, 60, 0.2)
    sep = oracle.matched_separable_state(state)
    delta_exact = oracle.exact_overlap(state, sep.trace_log_weights)
    assert abs(delta_quad - delta_exact) / delta_exact < 0.05


def test_split_error_grows_with_beta():
    params = ModelParams(1.0, 1.0, 1.0, 4)
    errors = []
    for beta in (0.1, 0.2, 0.4):
        point = ThermalPoint(params, beta)
        a = matched_a(point, QUAD)
        delta_quad = overlap_finite_t(point, a, QUAD)
        state = oracle.exact_thermal_state(params, 60, beta)
        sep = oracle.matched_separable_state(state)
        delta_exact = oracle.exact_overlap(state, sep.trace_log_weights)
        errors.append(abs(delta_quad - delta_exact) / delta_exact)
    assert errors[0] < errors[1] < errors[2]


@pytest.mark.parametrize(
    "lam, temp, n", [(0.3, 0.5, 4), (0.7, 1.0, 12), (1.2, 0.3, 50), (1.0, 2.0, 100)]
)
def test_overlap_at_half_is_infinite_temperature_value(lam, temp, n):
    # at a = 1/2 the per-atom factor is cosh(beta eps), so the numerator is
    # the partition integral and the overlap is 2^-N at every temperature
    # (a doubled cosh term would force 1 here instead)
    point = ThermalPoint(ModelParams(1.0, 1.0, lam, n), 1.0 / temp)
    assert abs(overlap_finite_t(point, 0.5, QUAD) * 2.0**n - 1.0) < 1e-12


def test_overlap_underflow_raises():
    # Delta ~ 2^-N at N = 2000: below the double range, not a silent 0.0
    point = ThermalPoint(ModelParams(1.0, 1.0, 1.0, 2000), 1.0 / 0.2)
    with pytest.raises(NumericalError) as err:
        overlap_finite_t(point, matched_a(point, QUAD), QUAD)
    assert err.value.details["log_delta"] < math.log(2.0**-1000)


_THERMAL_CALLS = {
    "log_partition": lambda point: log_partition(point, QUAD),
    "thermal_jz": lambda point: thermal_jz(point, QUAD),
    "thermal_moments": lambda point: (lambda m: m.first + m.second)(thermal_moments(point, QUAD)),
    "overlap_finite_t": lambda point: overlap_finite_t(point, matched_a(point, QUAD), QUAD),
}


@settings(max_examples=25, deadline=None)
@given(
    lam=st.floats(0.0, 1.5),
    temp=st.floats(0.2, 3.0),
    n=st.integers(1, 100),
    order=st.permutations(sorted(_THERMAL_CALLS)),
)
def test_thermal_values_independent_of_call_order(lam, temp, n, order):
    point = ThermalPoint(ModelParams(1.0, 1.0, lam, n), 1.0 / temp)
    thermal._MEMO.clear()
    got = {name: _THERMAL_CALLS[name](point) for name in order}
    want = {name: _THERMAL_CALLS[name](point) for name in sorted(_THERMAL_CALLS)}
    assert got == want
    # one partition integral serves every reader
    assert got["thermal_moments"][2] == got["thermal_jz"]
    assert 0.0 <= got["overlap_finite_t"] <= 1.0


def _memo_entries(points):
    """ln I(1/2) with its three averages, and ln I(a) at the matched a, of each point."""
    return [
        (thermal._partition(p, QUAD), thermal._MEMO[p, QUAD, matched_a(p, QUAD)]) for p in points
    ]


@settings(max_examples=25, deadline=None)
@given(
    st.lists(
        st.tuples(st.floats(0.0, 1.5), st.floats(0.05, 3.0), st.integers(1, 1000)),
        min_size=1,
        max_size=2 * thermal._BATCH_POINTS + 3,
    )
)
def test_batched_points_equal_points_alone(draws):
    # a point's sums run over its own nodes alone, so a batch (here up to
    # three of them) changes no bit of its numbers
    points = [ThermalPoint(ModelParams(1.0, 1.0, lam, n), 1.0 / temp) for lam, temp, n in draws]
    thermal.precompute(points, QUAD, overlap=True)
    batched = _memo_entries(points)
    alone = []
    for point in points:
        thermal.precompute([point], QUAD, overlap=True)
        alone += _memo_entries([point])
    assert batched == alone


def test_memo_holds_a_grid_larger_than_its_size(monkeypatch):
    # the memo holds the whole grid of the last precompute, however large,
    # so its rows read it without integrating again
    calls = []
    batch = thermal.integrate_batch

    def counting_batch(*args, **kwargs):
        calls.append(args[2])
        return batch(*args, **kwargs)

    monkeypatch.setattr(thermal, "integrate_batch", counting_batch)
    points = [
        ThermalPoint(ModelParams(1.0, 1.0, lam, 10), beta)
        for lam in np.linspace(0.0, 1.5, 5)
        for beta in (0.5, 1.0, 2.0, 4.0)
    ]
    thermal.precompute(points, QUAD, overlap=True)
    assert calls == [16, 16, 4, 4]
    for point in points:
        overlap_finite_t(point, matched_a(point, QUAD), QUAD)
        thermal_moments(point, QUAD)
    assert len(calls) == 4


def test_readers_store_nothing(monkeypatch):
    # precompute is the memo's one writer: a reader looks a held point up,
    # and integrates any other point alone, on every call, leaving the memo
    # as it found it
    calls = []
    batch = thermal.integrate_batch

    def counting_batch(*args, **kwargs):
        calls.append(args[2])
        return batch(*args, **kwargs)

    held = ThermalPoint(ModelParams(1.0, 1.0, 0.8, 10), 1.5)
    other = ThermalPoint(ModelParams(1.0, 1.0, 0.8, 10), 2.5)
    thermal.precompute([held], QUAD, overlap=True)
    memo = dict(thermal._MEMO)
    monkeypatch.setattr(thermal, "integrate_batch", counting_batch)
    for name in sorted(_THERMAL_CALLS):
        assert _THERMAL_CALLS[name](held) == _THERMAL_CALLS[name](held)
    assert calls == []
    for name in sorted(_THERMAL_CALLS):
        assert _THERMAL_CALLS[name](other) == _THERMAL_CALLS[name](other)
    # two reads each: one partition integral per read, and overlap_finite_t
    # its numerator and two partitions (one of them through matched_a)
    assert calls == [1] * 2 * (1 + 1 + 1 + 3)
    assert thermal._MEMO == memo
    # a new grid drops the one held before
    thermal.precompute([other], QUAD)
    assert list(thermal._MEMO) == [(other, QUAD)]


@pytest.mark.parametrize(
    "n, temp, lam", [(10**5, 0.2, 1.4), (10**6, 0.1, 1.5), (3 * 10**6, 0.5, 1.0), (10**7, 0.2, 1.5)]
)
def test_large_n_partition_matches_a_dense_rule(n, temp, lam):
    # the peaks of the weight lie near +-beta lambda sqrt(N coth(beta / 2)),
    # 23,854 at N = 1e7: beyond half-width 128 the scan's spacing doubles
    # with its span, up to 16 there, and halvings resolve the unit-width
    # peaks.  The reference is the rule of spacing 1/64 over +-40 about
    # each peak, which resolves them to rounding
    point = ThermalPoint(ModelParams(1.0, 1.0, lam, n), 1.0 / temp)
    log_w = thermal._log_weight_factory(point)
    sz = thermal._one_point(thermal._moments([point])[0])
    xs = golden_max(log_w, 0.0, 1e5) + np.arange(-2560, 2561) / 64.0
    logs = log_w(xs)
    weights = np.exp(logs - logs.max())
    log_i = logs.max() + math.log(2.0 * weights.sum() / 64.0)
    thermal._MEMO.clear()
    got = thermal._partition(point, QUAD)
    assert abs(got[0] - log_i) <= QUAD.rel_tol + 4 * sys.float_info.epsilon * abs(log_i)
    assert abs(got[1] - (weights * sz(xs)).sum() / weights.sum()) <= QUAD.rel_tol


def test_decoupled_closed_form_within_a_batch():
    # lambda = 0 in a batch spanning the default couplings: the spins are
    # free, so ln z, <J_z> and the overlap at the matched a (where
    # 1 - 2a = tanh(beta / 2)) are closed forms
    n, beta = 10, 0.7
    points = [ThermalPoint(ModelParams(1.0, 1.0, lam, n), beta) for lam in np.linspace(0.0, 1.5, 16)]
    thermal.precompute(points, QUAD, overlap=True)
    free = points[0]
    log_z = n * math.log(2 * math.cosh(beta / 2)) - math.log(1 - math.exp(-beta))
    assert abs(log_partition(free, QUAD) - log_z) < 1e-12
    assert abs(thermal_jz(free, QUAD) - (-0.5 * math.tanh(beta / 2))) < 1e-12
    delta = (math.cosh(beta) / (1.0 + math.cosh(beta))) ** n
    assert abs(overlap_finite_t(free, matched_a(free, QUAD), QUAD) - delta) < 1e-12 * delta


@pytest.mark.parametrize("n", [1, 10, 100])
def test_overlap_high_temperature_limit(n):
    # 2^N Delta -> 1 as T -> infinity.  At T = 1e3 the matched reference is
    # tilted by u = 1 - 2a = beta omega0 / 2 + O(beta^3), which leaves
    # 2^N Delta = (1 + u^2)^N = 1 + N beta^2 omega0^2 / 4 to within 1e-9 at
    # every coupling
    beta = 1e-3
    points = [ThermalPoint(ModelParams(1.0, 1.0, lam, n), beta) for lam in (0.0, 0.5, 1.0, 1.5)]
    thermal.precompute(points, QUAD, overlap=True)
    for point in points:
        scaled = 2.0**n * overlap_finite_t(point, matched_a(point, QUAD), QUAD)
        assert abs(scaled - (1.0 + n * beta**2 / 4.0)) < 1e-9


def test_overlap_validates_a():
    point = ThermalPoint(ModelParams(1.0, 1.0, 0.5, 4), 0.5)
    with pytest.raises(InvalidParameterError):
        overlap_finite_t(point, 1.2, QUAD)
    with pytest.raises(InvalidParameterError):
        overlap_finite_t(point, -0.1, QUAD)


def test_overlap_bounds_on_grid():
    n = 12
    floor = 2.0**-n * (1 - 10 * QUAD.rel_tol)
    for lam in (0.2, 0.7, 1.1):
        for temp in (0.4, 1.0, 2.5):
            point = ThermalPoint(ModelParams(1.0, 1.0, lam, n), 1.0 / temp)
            delta = overlap_finite_t(point, matched_a(point, QUAD), QUAD)
            assert floor <= delta <= 1.0


def test_default_quadrature_matches_tight_spec():
    # both points lie below the critical line, where the weight is bimodal;
    # at lambda = 0.87, T = 0.9667 a shallow valley separates the two peaks
    tight = QuadratureSpec(max_nodes=2_000_000, rel_tol=1e-12)
    point = ThermalPoint(ModelParams(1.0, 1.0, 1.0, 100), 1.0)
    default = overlap_finite_t(point, matched_a(point, QUAD), QUAD)
    reference = overlap_finite_t(point, matched_a(point, tight), tight)
    assert abs(default - reference) <= 1e-9 * abs(reference)
    point = ThermalPoint(ModelParams(1.0, 1.0, 0.87, 100), 1.0 / 0.9667)
    default, reference = thermal_moments(point, QUAD), thermal_moments(point, tight)
    for got, want in zip(default.first + default.second, reference.first + reference.second):
        assert abs(got - want) <= 1e-9 * abs(want)


def test_moments_free_spins():
    n, beta = 12, 0.8
    point = ThermalPoint(ModelParams(1.0, 1.0, 0.0, n), beta)
    m = thermal_moments(point, QUAD)
    t = math.tanh(beta / 2)
    assert abs(m.first[2] - (-0.5 * t)) < 1e-12
    assert m.first[0] == 0.0 and m.first[1] == 0.0
    assert abs(m.second[0] - 1.0 / (4 * n)) < 1e-12
    assert abs(m.second[1] - 1.0 / (4 * n)) < 1e-14
    assert abs(m.variance("x") - 1.0 / (4 * n)) < 1e-12


def test_moments_match_oracle():
    for lam in (0.5, 1.0):
        params = ModelParams(1.0, 1.0, lam, 4)
        point = ThermalPoint(params, 0.2)
        m_quad = thermal_moments(point, QUAD)
        m_exact = oracle.exact_moments(oracle.exact_thermal_state(params, 60, 0.2))
        for i in range(3):
            assert abs(m_quad.first[i] - m_exact.first[i]) < 0.02
            assert abs(m_quad.second[i] - m_exact.second[i]) < 0.02


def test_moments_satisfy_momentset_invariants():
    for lam in (0.0, 0.6, 1.2):
        for beta in (0.2, 1.0, 3.0):
            point = ThermalPoint(ModelParams(1.0, 1.0, lam, 50), beta)
            thermal_moments(point, QUAD).validate()


def test_matched_a_range():
    point = ThermalPoint(ModelParams(1.0, 1.0, 0.8, 20), 2.0)
    a = matched_a(point, QUAD)
    assert 0.0 <= a <= 0.5
