"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  Criterion 6's closed-form sub-check is a documented
red: on the admissible coupling interval the closed form's subleading
sqrt(t) correction bounds any least-squares slope below 0.23 (see
test docstring), so the stated 0.25 +- 0.02 cannot be met by any grid.
"""

import time

import numpy as np
import pytest

from dicke_overlap import core, oracle, thermal, witness, zerotemp
from dicke_overlap.core import ModelParams
from dicke_overlap.numerics import QuadratureSpec
from oracle_helpers import build_hamiltonian, collective_spin_matrices

QUAD = QuadratureSpec()


class Budget:
    def __init__(self, name, seconds):
        self.name = name
        self.seconds = seconds
        self.start = time.perf_counter()

    def elapsed(self):
        return time.perf_counter() - self.start

    def finish(self, passed, detail=""):
        status = "PASS" if passed else "FAIL"
        print(f"ACCEPTANCE {self.name}: {status} ({self.elapsed():.1f}s) {detail}")

    def check_runtime(self):
        elapsed = self.elapsed()
        assert elapsed < self.seconds, f"{self.name} took {elapsed:.1f}s > {self.seconds}s"


def test_criterion_1_critical_values():
    budget = Budget("1 critical-values", 1.0)
    ok = core.critical_coupling(1, 1) == 0.5
    tc = core.critical_temperature(ModelParams(1, 1, 1.0, 10))
    ok = ok and abs(tc - 2.0) < 1e-10
    budget.finish(ok, f"lambda_c=0.5 exact, T_c={tc:.12f}")
    assert core.critical_coupling(1, 1) == 0.5
    assert abs(tc - 2.0) < 1e-10
    budget.check_runtime()


def test_criterion_2_order_parameter():
    budget = Budget("2 order-parameter", 30.0)
    assert core.order_parameter_zero_t(ModelParams(1, 1, 0.3, 10)) == -0.5
    assert core.order_parameter_zero_t(ModelParams(1, 1, 1.0, 10)) == -0.125
    errors = []
    for n in (10, 20, 40):
        params = ModelParams(1, 1, 1.0, n)
        state = oracle.exact_ground_state(params, oracle.suggested_cutoff(params))
        jz = oracle.exact_moments(state).first[2]
        errors.append(abs(jz - (-0.125)))
    monotone = errors[0] > errors[1] > errors[2]
    budget.finish(monotone, f"oracle errors N=10,20,40: {[f'{e:.5f}' for e in errors]}")
    assert monotone
    assert errors[2] < errors[0]
    budget.check_runtime()


def test_criterion_3_trivial_overlap_limits():
    budget = Budget("3 trivial-limits", 5.0)
    delta0 = zerotemp.overlap_for_params(ModelParams(1, 1, 0.0, 10))
    point = thermal.ThermalPoint(ModelParams(1, 1, 1.0, 10), 1e-3)
    delta_hot = thermal.overlap_finite_t(point, thermal.matched_a(point, QUAD), QUAD)
    rel = abs(delta_hot - 2.0**-10) / 2.0**-10
    ok = abs(delta0 - 1.0) < 1e-8 and rel < 0.01
    budget.finish(ok, f"delta(0)={delta0:.10f}, hot-limit rel dev={rel:.2e}")
    assert abs(delta0 - 1.0) < 1e-8
    assert rel < 0.01
    budget.check_runtime()


def test_criterion_4_zero_t_oracle_equivalence():
    budget = Budget("4 zero-T-oracle", 120.0)
    lams = (0.2, 0.4, 0.6, 1.0)
    rel = {}
    for n in (10, 40):
        for lam in lams:
            params = ModelParams(1, 1, lam, n)
            ed = oracle.exact_ground_state(params, oracle.suggested_cutoff(params))
            sep = zerotemp.matched_separable_state(params)
            delta_ed = oracle.exact_overlap(ed, sep.log_weights)
            delta_eff = zerotemp.overlap_for_params(params)
            rel[(n, lam)] = abs(delta_eff - delta_ed) / delta_ed
    within = all(rel[(40, lam)] < 0.10 for lam in lams)
    tightens = all(rel[(40, lam)] < rel[(10, lam)] for lam in lams)
    budget.finish(
        within and tightens,
        "rel err N=40: " + ", ".join(f"{lam}:{rel[(40, lam)]:.4f}" for lam in lams),
    )
    assert within
    assert tightens
    budget.check_runtime()


def test_criterion_5_finite_t_oracle_equivalence():
    budget = Budget("5 finite-T-oracle", 60.0)
    details = []
    for lam in (0.5, 1.0):
        params = ModelParams(1, 1, lam, 4)
        # 5% comparison at the stated cutoff 40
        point = thermal.ThermalPoint(params, 0.2)
        a = thermal.matched_a(point, QUAD)
        delta_quad = thermal.overlap_finite_t(point, a, QUAD)
        state40 = oracle.exact_thermal_state(params, 40, 0.2)
        delta40 = oracle.exact_overlap(
            state40, oracle.matched_separable_state(state40).trace_log_weights)
        rel40 = abs(delta_quad - delta40) / delta40
        assert rel40 < 0.05
        # split-error ordering needs the oracle's own truncation error out of
        # the way: photon cutoff 60 is converged at these temperatures
        errors = []
        for beta in (0.1, 0.2, 0.4):
            pt = thermal.ThermalPoint(params, beta)
            a_b = thermal.matched_a(pt, QUAD)
            dq = thermal.overlap_finite_t(pt, a_b, QUAD)
            st = oracle.exact_thermal_state(params, 60, beta)
            de = oracle.exact_overlap(st, oracle.matched_separable_state(st).trace_log_weights)
            errors.append(abs(dq - de) / de)
        assert errors[0] < errors[1] < errors[2]
        # thermal moments at beta = 0.2 within 0.02 absolute per atom
        m_quad = thermal.thermal_moments(point, QUAD)
        m_ed = oracle.exact_moments(oracle.exact_thermal_state(params, 40, 0.2))
        worst = max(
            max(abs(x - y) for x, y in zip(m_quad.first, m_ed.first)),
            max(abs(x - y) for x, y in zip(m_quad.second, m_ed.second)),
        )
        assert worst < 0.02
        details.append(f"lam={lam}: rel={rel40:.2e}, errs={[f'{e:.1e}' for e in errors]}")
    budget.finish(True, "; ".join(details))
    budget.check_runtime()


def _scaling_grid():
    # clustered toward the critical end of the admissible interval
    # [0.45, 0.4999]; the fitted exponent approaches 1/4 from below with an
    # O(sqrt(t)) deficit
    t = np.geomspace(2e-3, 2e-4, 8)
    return 0.5 * (1.0 - t)


def test_criterion_6_scaling_exponent_numerical():
    budget = Budget("6a scaling-numerical", 60.0)
    lams = _scaling_grid()
    deltas = [zerotemp.overlap_for_params(ModelParams(1, 1, float(l), 100)) for l in lams]
    fit = zerotemp.scaling_fit(lams, deltas)
    ok = abs(fit.exponent - 0.25) <= 0.03
    budget.finish(ok, f"exponent={fit.exponent:.4f} +- {fit.stderr:.4f}")
    assert ok, f"numerical scaling exponent {fit.exponent:.4f} outside 0.25 +- 0.03"
    budget.check_runtime()


def test_criterion_6_scaling_exponent_closed_form():
    """Documented red (see decisions ledger).

    The closed form carries a subleading correction ln(1 + 3 sqrt(t)) in
    -ln(delta), so every least-squares slope computed from couplings in
    [0.45, 0.4999] (t >= 2e-4) is bounded above by
    0.25 - 1.5 sqrt(t)/(1 + 3 sqrt(t)) ~ 0.2296 < 0.23.  The 1/4 exponent
    is genuinely asymptotic but not reachable at 0.02 accuracy on the
    stated interval.
    """
    budget = Budget("6b scaling-closed-form", 60.0)
    lams = _scaling_grid()
    deltas = [zerotemp.closed_form_overlap_normal(float(l)) for l in lams]
    fit = zerotemp.scaling_fit(lams, deltas)
    ok = abs(fit.exponent - 0.25) <= 0.02
    budget.finish(
        ok,
        f"exponent={fit.exponent:.4f} +- {fit.stderr:.4f} "
        "(slope provably < 0.23 on this interval; see decisions ledger)",
    )
    assert ok, (
        f"closed-form scaling exponent {fit.exponent:.4f} outside 0.25 +- 0.02: "
        "unattainable as specified; the subleading sqrt(t) term of the printed "
        "closed form bounds the least-squares slope below 0.23 for lambda <= 0.4999 "
        "(documented in the decisions ledger)"
    )
    budget.check_runtime()


def test_criterion_7_shape_checks():
    budget = Budget("7 figure-shapes", 180.0)
    # zero temperature: 200-point grid straddling lambda_c
    lams = np.linspace(0.4, 0.6, 200)
    deltas = np.array(
        [zerotemp.overlap_for_params(ModelParams(1, 1, float(l), 100)) for l in lams]
    )
    below = lams < 0.5
    i_last = np.flatnonzero(below)[-1]
    min_at_boundary = int(np.argmin(deltas[below])) == i_last
    jump_up = deltas[i_last + 1] > deltas[i_last]
    above = deltas[~below]
    i_peak = int(np.argmax(above))
    decreasing_after = bool(np.all(np.diff(above[i_peak:]) < 0)) and i_peak <= 5
    # finite temperature: steepest temperature variation on the critical line
    params = ModelParams(1, 1, 1.0, 100)
    temps = np.linspace(0.2, 3.0, 141)
    dgrid = []
    for temp in temps:
        point = thermal.ThermalPoint(params, 1.0 / float(temp))
        dgrid.append(thermal.overlap_finite_t(point, thermal.matched_a(point, QUAD), QUAD))
    grad = np.abs(np.gradient(np.array(dgrid), temps))
    t_star = float(temps[np.argmax(grad)])
    ok = min_at_boundary and jump_up and decreasing_after and abs(t_star - 2.0) <= 0.2
    budget.finish(
        ok,
        f"min-at-boundary={min_at_boundary}, jump={deltas[i_last]:.3f}->"
        f"{deltas[i_last + 1]:.3f}, steepest |dD/dT| at T={t_star:.2f}",
    )
    assert min_at_boundary and jump_up and decreasing_after
    assert abs(t_star - 2.0) <= 0.2
    budget.check_runtime()


def test_criterion_8_witness_suite():
    budget = Budget("8 witness-suite", 120.0)
    n = 100
    # coherent boundary
    coherent = witness.MomentSet(
        n_atoms=n, first=(0.0, 0.0, -0.5), second=(1.0 / (4 * n), 1.0 / (4 * n), 0.25)
    )
    b_lhs = witness.evaluate(coherent).lhs("b")
    assert abs(b_lhs) < 1e-9
    # half-excited symmetric state: derived value -1/4 for (c) with gamma = z
    jx, jy, jz = collective_spin_matrices(n / 2)
    vec = np.zeros(n + 1)
    vec[n // 2] = 1.0
    half = witness.MomentSet(
        n_atoms=n,
        first=(0.0, 0.0, float(vec @ jz @ vec) / n),
        second=(
            float(vec @ jx @ jx @ vec) / n**2,
            float(np.real(vec @ jy @ jy @ vec)) / n**2,
            float(vec @ jz @ jz @ vec) / n**2,
        ),
    )
    c_lhs = witness.evaluate(half).lhs("c", ("x", "y", "z"))
    assert abs(c_lhs - (-0.25)) < 1e-12
    # ground state: some (c)/(d) violation in the superradiant phase, from
    # the Gaussian state that the witness command evaluates
    found = False
    for lam in (0.6, 0.8, 1.0, 1.2, 1.5):
        params = ModelParams(1, 1, lam, n)
        state = zerotemp.gaussian_ground_state(params)
        report = witness.evaluate(zerotemp.collective_moments_zero_t(state, params))
        if any(e.violated and e.inequality in ("c", "d") for e in report.entries):
            found = True
            break
    assert found
    # finite-temperature grid: no violations anywhere
    violations = 0
    for lam in np.linspace(0.1, 1.5, 8):
        for temp in np.linspace(0.4, 3.0, 7):
            point = thermal.ThermalPoint(ModelParams(1, 1, float(lam), n), 1.0 / float(temp))
            report = witness.evaluate(thermal.thermal_moments(point, QUAD))
            violations += len(report.violations())
    budget.finish(
        violations == 0 and found,
        f"coherent b={b_lhs:.1e}, half-excited c={c_lhs:.6f}, finite-T violations={violations}",
    )
    assert violations == 0
    budget.check_runtime()


def test_criterion_9_internal_consistency():
    budget = Budget("9 internal-consistency", 120.0)
    # dual-path overlap agreement: exact_overlap raises InternalConsistencyError
    # when its two paths differ by more than 1e-10
    params = ModelParams(1, 1, 1.0, 12)
    ground = oracle.exact_ground_state(params, oracle.suggested_cutoff(params))
    oracle.exact_overlap(ground, oracle.matched_separable_state(ground).log_weights)
    params4 = ModelParams(1, 1, 0.8, 4)
    th = oracle.exact_thermal_state(params4, 40, 0.3)
    oracle.exact_overlap(th, oracle.matched_separable_state(th).trace_log_weights)
    # excitation energies against the truncated diagonalization
    worst_gap = 0.0
    for lam in (0.1, 0.3, 0.45, 0.6, 1.0):
        p = ModelParams(1, 1, lam, 20)
        freqs = zerotemp.polariton_frequencies(p)
        h = zerotemp.effective_hamiltonian(p, (30, 30)).toarray()
        gaps = np.linalg.eigvalsh(h)
        gaps = gaps - gaps[0]
        worst_gap = max(worst_gap, abs(gaps[1] - freqs.omega_minus))
        worst_gap = max(worst_gap, float(np.abs(gaps - freqs.omega_plus).min()))
    assert worst_gap < 1e-6
    # parity commutator in every block of both oracle bases
    worst_parity = 0.0
    full = oracle.full_product_basis(4, 14)
    for basis in (oracle.symmetric_basis(4, 14), *(full.block(j) for j in full.spins)):
        h = build_hamiltonian(ModelParams(1, 1, 0.9, 4), basis)
        pi = oracle.parity_diagonal(basis)
        worst_parity = max(worst_parity, float(np.abs(h * (pi[None, :] - pi[:, None])).max()))
    assert worst_parity < 1e-12
    # cutoff-doubling stability of energy and overlap
    worst_shift = 0.0
    for lam in (0.3, 1.0):
        p = ModelParams(1, 1, lam, 20)
        values = []
        for cutoffs in ((30, 30), (60, 60)):
            state = zerotemp.effective_ground_state(p, cutoffs)
            sep = zerotemp.matched_separable_state(p)
            values.append((state.ground_energy, zerotemp.overlap_zero_t(state, sep)))
        worst_shift = max(
            worst_shift, abs(values[0][0] - values[1][0]), abs(values[0][1] - values[1][1])
        )
    assert worst_shift < 1e-7
    budget.finish(
        True,
        f"gap err={worst_gap:.1e}, parity={worst_parity:.1e}, doubling shift={worst_shift:.1e}",
    )
    budget.check_runtime()
