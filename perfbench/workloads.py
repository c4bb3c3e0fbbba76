"""Seeded CLI command lists for the three benchmark workloads.

Every workload is a short list of ``dicke-overlap`` invocations with fixed
``--set`` overrides.  The workload seed jitters grid endpoints inside the
ranges stated next to each grid below; seed 0 is the nominal grid, the one
the reference CSVs in ``reference/`` were written from.  All couplings use
omega = omega0 = 1, so lambda_c = 1/2.

The jitter ranges are chosen so that no seed moves a point onto lambda_c or
across a cutoff-escalation threshold of ``zerotemp.effective_ground_state``
(escalation would change a point's cost several-fold); ``commands`` checks
the distance to lambda_c of every generated coupling.  The reason each
workload was chosen is its ``why`` in BENCHMARK.json.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

DEFAULT_SEED = 0
LAMBDA_C = 0.5

WORKLOADS = ("zero_t", "finite_t", "oracle")


@dataclass(frozen=True)
class Command:
    """One CLI invocation: ``name`` labels it, ``args`` follow the program name."""

    name: str
    args: tuple

    def sets(self):
        """The ``key=value`` overrides passed with ``--set``."""
        return [self.args[i + 1] for i, a in enumerate(self.args) if a == "--set"]


def _cmd(name, command, sets):
    args = [command]
    for key, value in sets.items():
        args += ["--set", f"{key}={value}"]
    return Command(name, tuple(args))


def _couplings(lo, hi, steps):
    """The couplings of ``lo..hi`` in ``steps`` points, as the CLI's linspace spaces them."""
    return [lo] if steps == 1 else [lo + (hi - lo) * i / (steps - 1) for i in range(steps)]


def _check_off_critical(lo, hi, steps, min_rel, max_rel=None):
    for lam in _couplings(lo, hi, steps):
        rel = abs(lam / LAMBDA_C - 1.0)
        if rel < min_rel or (max_rel is not None and rel > max_rel):
            raise ValueError(f"grid point lambda={lam!r} breaks |lambda/lambda_c - 1| bounds")


def commands(workload, seed=DEFAULT_SEED):
    """The workload's commands for ``seed``; the same seed gives the same commands."""
    rng = random.Random(f"{workload}:{seed}")

    def jitter(width):
        return 0.0 if seed == DEFAULT_SEED else rng.uniform(-width, width)

    if workload == "zero_t":
        # wide grid: both phases, every point at |lambda/lambda_c - 1| >= 0.2
        lo, hi = 0.05 + jitter(0.02), 1.25 + jitter(0.02)
        _check_off_critical(lo, hi, 5, 0.2)
        wide = {"grid.lambda_min": repr(lo), "grid.lambda_max": repr(hi),
                "grid.lambda_steps": 5}
        # narrow grid: one point on each side of lambda_c, both of which
        # escalate their cutoff (escalation stops near t = 2.4e-3 below
        # lambda_c and t = 1.2e-3 above it)
        t_below, t_above = 1.5e-3 * (1 + jitter(0.03)), 8e-4 * (1 + jitter(0.03))
        near_lo, near_hi = LAMBDA_C * (1 - t_below), LAMBDA_C * (1 + t_above)
        _check_off_critical(near_lo, near_hi, 2, 2e-4, 2e-3)
        return [
            _cmd("sweep_wide", "sweep-zero-t", {"model.n_atoms": "100,300", **wide}),
            _cmd("sweep_critical", "sweep-zero-t", {
                "model.n_atoms": 100, "grid.lambda_min": repr(near_lo),
                "grid.lambda_max": repr(near_hi), "grid.lambda_steps": 2}),
            _cmd("witness_zero_t", "witness",
                 {"witness.mode": "zero_t", "model.n_atoms": 100, **wide}),
        ]
    if workload == "finite_t":
        # couplings 0.1, 0.21, ..., 1.2: 11 steps keep the nearest points at
        # 0.43 and 0.54, at least 0.02 from lambda_c whatever the jitter.
        # T from 0.2 to 2.5 spans T_c = 2 lambda^2 for 0.32 <= lambda <= 1.09,
        # so the low-temperature rows there have bimodal weights; T stays
        # above the 0.1 validity limit of the small-beta factorization
        lo, hi, steps = 0.1 + jitter(0.02), 1.2 + jitter(0.02), 11
        _check_off_critical(lo, hi, steps, 0.03)
        lams = {"grid.lambda_min": repr(lo), "grid.lambda_max": repr(hi),
                "grid.lambda_steps": steps}
        grid = {"model.n_atoms": 100, **lams, "grid.t_min": repr(0.2 + jitter(0.02)),
                "grid.t_max": repr(2.5 + jitter(0.05)), "grid.t_steps": 16}
        return [
            _cmd("sweep_finite_t", "sweep-finite-t", grid),
            _cmd("witness_finite_t", "witness", {"witness.mode": "finite_t", **grid}),
            _cmd("critical", "critical", lams),
        ]
    if workload == "oracle":
        # one grid point per command, so the CLI never starts its process
        # pool here: with a pool, two workers running dense eigh with two
        # OpenBLAS threads each took anywhere from 2 s to 22 s for one
        # command on a 2-core host, too erratic to bound.  Cutoff 64 passes
        # the oracle's convergence gate up to lambda = 1 at N = 20
        # (oracle.suggested_cutoff gives 64 there); the default 40 fails it
        # at lambda = 1.
        def point(lam):
            return {"grid.lambda_min": repr(lam), "grid.lambda_max": repr(lam),
                    "grid.lambda_steps": 1}

        normal, superradiant, hot = (0.3 + jitter(0.03), 0.97 + jitter(0.03),
                                     1.0 + jitter(0.03))
        for lam in (normal, superradiant, hot):
            _check_off_critical(lam, lam, 1, 0.2)
        ground = {"oracle.mode": "ground", "model.n_atoms": 20, "oracle.cutoff": 64}
        return [
            _cmd("oracle_ground_normal", "oracle-compare", {**ground, **point(normal)}),
            _cmd("oracle_ground_superradiant", "oracle-compare",
                 {**ground, **point(superradiant)}),
            _cmd("oracle_thermal", "oracle-compare", {
                "oracle.mode": "thermal", "model.n_atoms": 4, "grid.beta_list": "0.2",
                **point(hot)}),
        ]
    raise ValueError(f"unknown workload {workload!r}")

