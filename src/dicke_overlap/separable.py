"""The symmetry-determined fully separable reference state.

Permutation invariance forces identical single-atom factors and parity
symmetry forces each factor to be diagonal in the sigma_z basis,
diag(a, 1-a) with a the single-atom spin-up probability.  In the
collective J_z basis the resulting N-atom state is diagonal with
binomial weights C(N,n) a^n (1-a)^(N-n) over the number n of up spins;
only (a, N, log-weights) are ever stored, never a 2^N matrix.  The module
is plain Python: the per-level weights are lists, built on first read.

Every overlap of a state with it is one contraction, ``overlap``, of the
state's up-spin distribution with per-level weights, and the weights name
the functional.  With P(n) the probability of n up spins:

* ``SeparableState.log_weights``, ln[C(N,n) a^n (1-a)^(N-n)]: the overlap
  of the J_z distributions, sum_n C(N,n) a^n (1-a)^(N-n) P(n);
* ``SeparableState.trace_log_weights``, ln[a^n (1-a)^(N-n)]: the trace
  Tr[rho_A rho_s] = sum_n a^n (1-a)^(N-n) P(n), the reference state's
  weight on each single spin configuration.

The two agree for every state only at a = 0 and a = 1; in between the
first is never the smaller.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

from .core import golden_max
from .errors import InvalidDistributionError, InvalidParameterError


def _log_factors(a):
    """(ln a, ln (1-a)), -inf where the factor is 0."""
    return math.log(a) if a > 0 else -math.inf, math.log1p(-a) if a < 1 else -math.inf


def config_log_terms(a, n_atoms, n_up):
    """(ln a^n, ln (1-a)^(N-n)) as lists, one entry per up-spin count in ``n_up`` (-inf at 0)."""
    log_up, log_down = _log_factors(a)
    up = [n * log_up if n > 0 else 0.0 for n in n_up]
    down = [(n_atoms - n) * log_down if n < n_atoms else 0.0 for n in n_up]
    return up, down


def _binomial_log_weights(a, n_atoms):
    """ln[C(N,n) a^n (1-a)^(N-n)] for n = 0..N, via log-gamma (-inf where the weight is 0)."""
    log_up, log_down = _log_factors(a)
    lg = [math.lgamma(k + 1.0) for k in range(n_atoms + 1)]
    top = lg[n_atoms]
    # config_log_terms' two terms, inline: one pass over n and no term lists
    return [
        top - x - y + (n * log_up if n > 0 else 0.0)
        + ((n_atoms - n) * log_down if n < n_atoms else 0.0)
        for n, x, y in zip(range(n_atoms + 1), lg, reversed(lg))
    ]


@dataclass(frozen=True)
class SeparableState:
    """Product reference state diag(a, 1-a)^(x N), stored through its binomial weights.

    The per-level lists are built on first read, so a caller that needs
    only ``a`` pays nothing for the N + 1 levels.
    """

    a: float
    n_atoms: int

    def __post_init__(self):
        if not 0.0 <= self.a <= 1.0:
            raise InvalidParameterError(f"a must lie in [0, 1], got {self.a}")

    @classmethod
    def from_a(cls, a, n_atoms):
        return cls(a=float(a), n_atoms=int(n_atoms))

    @functools.cached_property
    def log_weights(self):
        """ln[C(N,n) a^n (1-a)^(N-n)], n = 0..N, as a list (-inf where the weight is 0)."""
        return _binomial_log_weights(self.a, self.n_atoms)

    def weights(self):
        """The N+1 binomial probabilities as a list (exact zeros where log-weight is -inf)."""
        return [math.exp(w) for w in self.log_weights]

    @property
    def trace_log_weights(self):
        """ln[a^n (1-a)^(N-n)] = n ln a + (N-n) ln(1-a), n = 0..N, as a list (-inf where 0)."""
        up, down = config_log_terms(self.a, self.n_atoms, range(self.n_atoms + 1))
        return [u + d for u, d in zip(up, down)]


def from_jz(jz_per_atom, n_atoms) -> SeparableState:
    """Reference state matched to a target <J_z>/N through a = 1/2 + <J_z>/N."""
    if not -0.5 <= jz_per_atom <= 0.5:
        raise InvalidParameterError(f"<J_z>/N must lie in [-1/2, 1/2], got {jz_per_atom}")
    return SeparableState.from_a(0.5 + jz_per_atom, n_atoms)


def log_weight(state: SeparableState, n):
    """ln of the weight of the n-up-spins level; IndexError outside 0..N."""
    if not 0 <= n <= state.n_atoms:
        raise IndexError(f"n must lie in 0..{state.n_atoms}, got {n}")
    return float(state.log_weights[n])


def overlap(n_atoms, blocks, log_levels):
    """The overlap functional whose per-level log weights are ``log_levels``, n = 0..N.

    ``blocks`` are (j, copies, P) per spin multiplet, as in
    ``MomentSet.from_bands`` but with P the diagonal alone: P[i] is the
    probability of |j, i - j> in one copy, whose up-spin count is
    n = N/2 - j + i.  Returns sum over blocks of copies * sum_i P[i] w(n);
    levels of P above the multiplet are dropped.  The sums run over the
    nonzero P[i] alone, correctly rounded (``math.fsum``): a large-N band
    is zero to the last bit on all but a few levels, and the weights are
    read on the others only.
    """
    if len(log_levels) != n_atoms + 1:
        raise InvalidParameterError(
            f"per-level weights hold {len(log_levels)} levels, not the N + 1 = {n_atoms + 1} "
            "of the state"
        )
    per_block = []
    for j, copies, probs in blocks:
        k = min(len(probs), int(2 * j) + 1)
        low = round(n_atoms / 2 - j)
        nonzero = itertools.compress(range(k), probs)
        block = math.fsum(math.exp(log_levels[low + i]) * probs[i] for i in nonzero)
        per_block.append(copies * block)
    return math.fsum(per_block)


def nearest_a(diagonal_probs, tol=1e-8):
    """Reference-state parameter for a given atomic J_z-basis diagonal.

    Returns ``(a_jz_matched, a_argmax)``: the <J_z>-matching prescription
    a = mean(n)/N, and the a maximizing the overlap of the J_z
    distributions sum_n C(N,n) a^n (1-a)^(N-n) p_n located by
    golden-section search.
    The two coincide exactly when p is itself binomial; callers can
    compare them when it is not.
    """
    import numpy as np

    p = np.asarray(diagonal_probs, dtype=float)
    if p.ndim != 1 or len(p) < 2:
        raise InvalidDistributionError("diagonal_probs must be a vector of length N+1 >= 2")
    if not np.isfinite(p).all():
        raise InvalidDistributionError(f"probabilities must be finite, got {p}")
    if p.min() < -1e-12:
        raise InvalidDistributionError(f"negative probability {p.min()}")
    if abs(p.sum() - 1.0) > 1e-8:
        raise InvalidDistributionError(f"probabilities sum to {p.sum()}, not 1")
    n_atoms = len(p) - 1
    mean_n = float(np.dot(np.arange(n_atoms + 1), p))
    a_matched = min(max(mean_n / n_atoms, 0.0), 1.0)
    blocks = [(n_atoms / 2, 1, p.tolist())]
    a_best = golden_max(
        lambda a: overlap(n_atoms, blocks, _binomial_log_weights(a, n_atoms)), 0.0, 1.0, tol
    )
    return a_matched, a_best
