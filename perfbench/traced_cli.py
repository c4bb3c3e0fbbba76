"""Traced serial replay of one ``dicke-overlap`` command, in this process.

    python3 perfbench/traced_cli.py NAME.trace.json -- <dicke-overlap arguments>

Runs ``dicke_overlap.cli.main`` with ``--threads 1`` after wrapping the CLI
row workers and the public layer functions they call in spans recorded
here; the package itself is not modified.  Spans nest through the module
globals the package calls through (``overlap_for_params`` ->
``effective_ground_state``), so every span has a parent.  The CSV is
written as the CLI writes it, so the caller can check it against the
untraced run byte for byte.  Grid-point ids read ``NAME#<row index>``.

Measured outside the row spans, after the command finishes:

* ``physical_dim``: ``len(atom_diagonal_probabilities(state))`` of every
  effective ground state the command built;
* one ``numerics.log_integral`` probe per ``sweep-finite-t`` grid point,
  on ``thermal``'s own factorized partition weight, with an evaluation
  counter.

The oracle's ``lru_cache`` entries are cleared before each traced oracle
call, so no oracle span is a cache hit; the CLI process starts with empty
caches too.  The trace file receives the spans, the counters and ``post_s``,
the time spent on the probes above after the command returned, which the
caller subtracts to get the replay's own time.
"""

from __future__ import annotations

import functools
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from dicke_overlap import cli, core, numerics, oracle, separable, thermal, witness, zerotemp

MODULES = (cli, core, numerics, oracle, separable, thermal, witness, zerotemp)
ROW_WORKERS = (
    "_zero_t_row",
    "_finite_t_row",
    "_witness_row",
    "_oracle_ground_row",
    "_oracle_thermal_row",
)
LAYER_FUNCTIONS = {
    zerotemp: (
        "effective_ground_state",
        "overlap_zero_t",
        "collective_moments_zero_t",
        "reduced_atom_purity",
        "matched_separable_state",
        "overlap_for_params",
    ),
    separable: ("from_jz",),
    thermal: ("matched_a", "overlap_finite_t", "thermal_moments", "thermal_jz"),
    core: ("critical_temperature",),
    witness: ("evaluate", "evaluate_finite_n"),
    oracle: (
        "exact_ground_state",
        "exact_thermal_state",
        "split_overlap",
        "exact_overlap",
        "exact_moments",
        "matched_separable_state",
    ),
}


class Tracer:
    """In-memory span recorder; spans are written out once, at the end."""

    def __init__(self):
        self.spans = []
        self.point = None
        self._open = []

    def span(self, name, fn, *args, **kwargs):
        """Call ``fn(*args, **kwargs)`` inside a span named ``name``."""
        record = {
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "point": self.point,
        }
        self._open.append(len(self.spans))
        self.spans.append(record)
        record["start_ns"] = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            record["end_ns"] = time.perf_counter_ns()
            self._open.pop()


def _replace(original, replacement):
    """Rebind ``original`` to ``replacement`` in every package module that holds it."""
    for module in MODULES:
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def _oracle_cache_hits():
    return sum(
        v.cache_info().hits for v in vars(oracle).values() if hasattr(v, "cache_info")
    )


def _clear_oracle_caches():
    for value in vars(oracle).values():
        if hasattr(value, "cache_clear"):
            value.cache_clear()


class Replay:
    """Installs the wrappers and collects what they observe."""

    def __init__(self, label):
        self.tracer = Tracer()
        self.label = label
        self.rows = 0
        self.states = []  # effective ground states, for physical_dim
        self.solves = []  # (cutoff_photon * cutoff_atom, escalated)
        self.dense_dims = []  # dims of the dense oracle Hamiltonians diagonalized
        self.finite_t_tasks = []
        self.oracle_cache_hits = 0
        default_cutoffs = zerotemp.default_cutoffs

        def after_ground_state(state, params, cutoffs=None):
            self.states.append(state)
            default = default_cutoffs(params)
            escalated = state.cutoff_photon > default[0] or state.cutoff_atom > default[1]
            self.solves.append((state.cutoff_photon * state.cutoff_atom, escalated))

        def oracle_ground_dims(params, cutoff):
            n = params.n_atoms
            return [
                oracle.symmetric_basis(n, c).dim
                for c in (int(cutoff), int(math.ceil(1.5 * int(cutoff))))
            ]

        def oracle_product_dims(params, cutoff, *rest):
            return [oracle.full_product_basis(params.n_atoms, int(cutoff)).dim]

        hooks = {
            (zerotemp, "effective_ground_state"): (None, after_ground_state),
            (oracle, "exact_ground_state"): (oracle_ground_dims, None),
            (oracle, "exact_thermal_state"): (oracle_product_dims, None),
            (oracle, "split_overlap"): (oracle_product_dims, None),
        }
        for module, names in LAYER_FUNCTIONS.items():
            layer = module.__name__.rsplit(".", 1)[-1]
            for name in names:
                dims, after = hooks.get((module, name), (None, None))
                fn = getattr(module, name)
                _replace(fn, self._layer_wrapper(f"{layer}.{name}", fn, dims, after))
        for name in ROW_WORKERS:
            fn = getattr(cli, name)
            _replace(fn, self._row_wrapper(f"cli.{name}", fn))

    def _layer_wrapper(self, span_name, fn, dense_dims, after):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if dense_dims is not None:
                _clear_oracle_caches()
                hits = _oracle_cache_hits()
                self.dense_dims += dense_dims(*args, **kwargs)
            result = self.tracer.span(span_name, fn, *args, **kwargs)
            if dense_dims is not None:
                self.oracle_cache_hits += _oracle_cache_hits() - hits
            if after is not None:
                after(result, *args, **kwargs)
            return result

        return traced

    def _row_wrapper(self, span_name, fn):
        @functools.wraps(fn)
        def traced(task):
            if fn.__name__ == "_finite_t_row":
                self.finite_t_tasks.append(task)
            self.tracer.point = f"{self.label}#{self.rows}"
            self.rows += 1
            try:
                return self.tracer.span(span_name, fn, task)
            finally:
                self.tracer.point = None

        return traced

    def partition_probes(self):
        """One counted ``numerics.log_integral`` per finite-T grid point.

        The integrand is the partition log-weight ``thermal`` itself
        integrates (``thermal._log_weight_factory``), wrapped in a counter.
        Returns the evaluation count (integrand points) of each integral.
        """
        evals = []
        for index, (omega, omega0, lam, temp, n, quad_args) in enumerate(self.finite_t_tasks):
            point = thermal.ThermalPoint(core.ModelParams(omega, omega0, lam, n), 1.0 / temp)
            weight = thermal._log_weight_factory(point)
            count = [0]

            def log_weight(x, weight=weight, count=count):
                count[0] += np.size(x)
                return weight(x)

            self.tracer.point = f"{self.label}#probe{index}"
            self.tracer.span(
                "numerics.log_integral",
                numerics.log_integral,
                log_weight,
                numerics.QuadratureSpec(*quad_args),
            )
            evals.append(count[0])
        self.tracer.point = None
        return evals


def main(argv):
    trace_path, separator, cli_args = argv[0], argv[1], argv[2:]
    if separator != "--":
        raise SystemExit("usage: traced_cli.py NAME.trace.json -- <dicke-overlap arguments>")
    replay = Replay(label=Path(trace_path).name.split(".")[0])
    code = replay.tracer.span("cli.main", cli.main, list(cli_args) + ["--threads", "1"])
    post_start = time.perf_counter()
    physical_dims = [len(zerotemp.atom_diagonal_probabilities(s)) for s in replay.states]
    evals = replay.partition_probes()
    trace = {
        "spans": replay.tracer.spans,
        "solves": replay.solves,
        "physical_dims": physical_dims,
        "dense_dims": replay.dense_dims,
        "log_integral_evals": evals,
        "oracle_cache_hits": replay.oracle_cache_hits,
    }
    with open(trace_path, "w", encoding="utf-8") as fh:
        trace["post_s"] = time.perf_counter() - post_start
        json.dump(trace, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
