import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from dicke_overlap import separable
from dicke_overlap.errors import InvalidDistributionError, InvalidParameterError
from dicke_overlap.separable import SeparableState, from_jz, log_weight, nearest_a


def exact_log_weight(a_rational, n_atoms, n):
    """Independent oracle: exact rational arithmetic, log taken at the end."""
    w = Fraction(math.comb(n_atoms, n)) * a_rational**n * (1 - a_rational) ** (n_atoms - n)
    return math.log(w) if w > 0 else -math.inf


def test_from_jz_all_down():
    state = from_jz(-0.5, 10)
    assert state.a == 0.0
    w = np.asarray(state.weights())
    assert w[0] == 1.0
    assert np.all(w[1:] == 0.0)


def test_from_jz_fair_binomial():
    state = from_jz(0.0, 2)
    assert state.a == 0.5
    assert np.allclose(state.weights(), [0.25, 0.5, 0.25], atol=1e-14)


def test_from_jz_order_parameter_case():
    # jz = -0.125 is the superradiant order parameter at coupling 1 (resonant)
    state = from_jz(-0.125, 100)
    assert abs(state.a - 0.375) < 1e-15


def test_from_jz_range_check():
    with pytest.raises(InvalidParameterError):
        from_jz(0.6, 10)
    with pytest.raises(InvalidParameterError):
        from_jz(-0.7, 10)


def test_log_weight_degenerate_and_fair():
    assert log_weight(SeparableState.from_a(0.0, 5), 0) == 0.0
    assert abs(log_weight(SeparableState.from_a(0.5, 2), 1) - math.log(0.5)) < 1e-15
    assert log_weight(SeparableState.from_a(1.0, 5), 5) == 0.0


def test_log_weight_index_error():
    state = SeparableState.from_a(0.3, 4)
    with pytest.raises(IndexError):
        log_weight(state, 5)
    with pytest.raises(IndexError):
        log_weight(state, -1)


@pytest.mark.parametrize("n_atoms", [5, 12, 30])
def test_log_weight_matches_exact_rational(n_atoms):
    a = Fraction(3, 10)
    state = SeparableState.from_a(0.3, n_atoms)
    for n in range(n_atoms + 1):
        assert abs(log_weight(state, n) - exact_log_weight(a, n_atoms, n)) < 1e-12


def test_log_weight_large_n_no_overflow():
    # log-gamma path: finite values for N up to 1e6
    state = SeparableState.from_a(0.3, 1_000_000)
    value = log_weight(state, 300_000)
    assert math.isfinite(value)
    # the mode of the binomial carries log-weight ~ -0.5 ln(2 pi N a (1-a))
    expected = -0.5 * math.log(2 * math.pi * 1e6 * 0.3 * 0.7)
    assert abs(value - expected) < 1e-3
    # exact comparison at N = 100 via integer arithmetic
    state100 = SeparableState.from_a(0.3, 100)
    exact = exact_log_weight(Fraction(3, 10), 100, 30)
    assert abs(log_weight(state100, 30) - exact) < 1e-12


@pytest.mark.parametrize("n_atoms", [1, 2, 10, 100, 10_000, 100_000])
@pytest.mark.parametrize("a", [0.0, 0.25, 0.5, 1.0])
def test_binomial_log_weights_match_gammaln(a, n_atoms):
    from scipy.special import gammaln

    n = np.arange(n_atoms + 1, dtype=float)
    up, down = separable.config_log_terms(a, n_atoms, n)
    log_comb = gammaln(n_atoms + 1.0) - gammaln(n + 1.0) - gammaln(n_atoms - n + 1.0)
    reference = log_comb + up + down
    log_weights = np.asarray(separable._binomial_log_weights(a, n_atoms))
    finite = np.isfinite(reference)
    assert np.array_equal(np.isfinite(log_weights), finite)
    assert np.all(log_weights[~finite] == -np.inf)
    tol = 1e-14 * max(1.0, math.lgamma(n_atoms + 1.0))
    assert np.abs(log_weights[finite] - reference[finite]).max() <= tol
    if 0.0 < a < 1.0:
        # a log error e common to all n moves the sum by e, so beyond N ~ 1e3
        # rounding allows only ``tol`` (gammaln's own sum is 1.4e-10 off at N = 1e5)
        norm_tol = 1e-12 if n_atoms <= 100 else tol
        assert abs(np.exp(log_weights).sum() - 1.0) < norm_tol


@pytest.mark.parametrize("a", [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0])
def test_normalization_and_mean(a):
    n_atoms = 47
    state = SeparableState.from_a(a, n_atoms)
    w = np.asarray(state.weights())
    assert abs(w.sum() - 1.0) < 1e-12
    assert abs(np.dot(np.arange(n_atoms + 1), w) - n_atoms * a) < 1e-9


@pytest.mark.parametrize("a", [Fraction(0), Fraction(3, 10), Fraction(7, 8), Fraction(1)])
def test_trace_log_weights_are_one_configuration(a):
    # ln[a^n (1-a)^(N-n)]: the binomial weight shared by its C(N, n) configurations
    n_atoms = 9
    trace = SeparableState.from_a(float(a), n_atoms).trace_log_weights
    for n in range(n_atoms + 1):
        w = a**n * (1 - a) ** (n_atoms - n)
        expected = math.log(w) if w > 0 else -math.inf
        assert trace[n] == expected or abs(trace[n] - expected) < 1e-12
    # at N = 1e5, against n ln a + (N-n) ln(1-a) in 50 digits at a few levels
    n_atoms = 100_000
    trace = SeparableState.from_a(float(a), n_atoms).trace_log_weights
    with mpmath.workdps(50):
        a_mp = mpmath.mpf(float(a))
        for n in (0, 1, 12_345, 50_000, n_atoms - 1, n_atoms):
            up = n * mpmath.log(a_mp) if n else 0
            down = (n_atoms - n) * mpmath.log(1 - a_mp) if n < n_atoms else 0
            expected = float(up + down)
            assert trace[n] == expected or abs(trace[n] - expected) <= 1e-14 * abs(expected)


def test_overlap_contracts_each_block_per_copy():
    # N = 3: one copy of j = 3/2 on n = 0..3, two copies of j = 1/2 on n = 1, 2
    log_levels = np.log([0.1, 0.2, 0.3, 0.4])
    quartet, doublet = np.array([0.5, 0.2, 0.1, 0.05]), np.array([0.03, 0.045])
    value = separable.overlap(3, [(1.5, 1, quartet), (0.5, 2, doublet)], log_levels)
    expected = quartet @ [0.1, 0.2, 0.3, 0.4] + 2 * (doublet @ [0.2, 0.3])
    assert abs(value - expected) < 1e-15
    # levels above the multiplet are dropped; a shorter diagonal stops early
    longer = separable.overlap(3, [(0.5, 2, np.append(doublet, 0.7))], log_levels)
    assert longer == separable.overlap(3, [(0.5, 2, doublet)], log_levels)
    weights = np.exp(log_levels)  # exp(ln 0.1) is 0.1 + 1 ulp
    head = quartet[0] * weights[0] + quartet[1] * weights[1]
    assert separable.overlap(3, [(1.5, 1, quartet[:2])], log_levels) == head
    with pytest.raises(InvalidParameterError, match="N \\+ 1 = 4"):
        separable.overlap(3, [(1.5, 1, quartet)], log_levels[:3])


def test_nearest_a_concentrated():
    p = np.zeros(11)
    p[0] = 1.0
    a_match, a_best = nearest_a(p)
    assert a_match == 0.0
    assert a_best < 1e-6


def test_nearest_a_binomial_self_consistency():
    # the mean-matched parameter reproduces the input exactly; the
    # overlap-maximizing one is displaced by ~0.2/N (the squared binomial
    # coefficient tilts the objective), converging to it as N grows
    for n_atoms, tol in ((20, 0.011), (80, 0.003)):
        state = SeparableState.from_a(0.3, n_atoms)
        a_match, a_best = nearest_a(state.weights())
        assert abs(a_match - 0.3) < 1e-12
        assert abs(a_best - 0.3) < tol
        blocks = [(n_atoms / 2, 1, state.weights())]
        f_match = separable.overlap(n_atoms, blocks, state.log_weights)
        f_best = separable.overlap(
            n_atoms, blocks, SeparableState.from_a(a_best, n_atoms).log_weights
        )
        assert f_best >= f_match


def test_nearest_a_oracle_ground_state_diagonal():
    # diagonal of the exactly diagonalized atomic state in the collective basis
    from dicke_overlap.core import ModelParams
    from dicke_overlap import oracle

    params = ModelParams(1, 1, 1.0, 20)
    state = oracle.exact_ground_state(params, oracle.suggested_cutoff(params))
    probs = state.up_spin_distribution()
    a_match, a_best = nearest_a(probs)
    assert 0.0 < a_match < 1.0 and 0.0 < a_best < 1.0
    # the mean-matching and overlap-maximizing parameters agree closely here
    assert abs(a_match - a_best) < 0.05


def test_nearest_a_rejects_bad_input():
    with pytest.raises(InvalidDistributionError):
        nearest_a(np.array([0.6, 0.6]))
    with pytest.raises(InvalidDistributionError):
        nearest_a(np.array([1.2, -0.2]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_nearest_a_rejects_a_non_finite_probability(bad):
    # NaN passes both the sign and the sum checks, which compare with it
    with pytest.raises(InvalidDistributionError, match="finite"):
        nearest_a([bad, 1.0])


def test_state_is_immutable():
    state = SeparableState.from_a(0.4, 6)
    with pytest.raises(Exception):
        state.a = 0.5
