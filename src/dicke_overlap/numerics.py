"""Shared numerical kernels: the matrix-free photon (x) atom Hamiltonian of
both exact diagonalizations (``PhotonAtomOperator``), the symmetric
eigensolvers with the eigenvector sign convention (``lowest_eigenpair``:
numpy's ``eigh`` or a thick-restart Lanczos written in numpy), a weighted
log-sum-exp, and quadrature on the quadrature settings of
``core.QuadratureSpec``.

The quadrature integrates even functions over the real line, supplied as
*log-integrands* ``x -> ln f(x)`` (returning -inf where f vanishes) and
evaluated at x >= 0 alone, a batch of them at a time: ``integrate_batch``
calls each integrand with nodes and the indices of the rows still being
evaluated; ``integrate`` and ``log_integral`` are its batch of one.  A
caller with an integrand g that is not even integrates its even part,
ln[g(x) + g(-x)] by ``np.logaddexp``, and halves the result.  All rows
start on the nodes of [0, 8], spacing h = 1/16; a row whose right edge
does not yet lie 80 nats below its maximum grows to twice the reach,
evaluating only its new outer nodes.  Up to reach 128 the spacing stays
1/16; beyond it the grid keeps 2,049 nodes, reusing every other node, and
the spacing doubles with the reach, up to 2^20.  The integral is the
trapezoid rule over the real line on the scan's own nodes within 60 nats
of the maximum, plus one node on each side of each run of them, shifted by
the maximum, so values like exp(+-10^4) neither overflow nor underflow; on
the nodes at x >= 0 it weighs node 0 by 1/2 and doubles the sum.  For an
integrand analytic in the strip |Im x| < a the rule's error falls like
exp(-2 pi a / h) (Trefethen & Weideman, SIAM Rev. 56, 385 (2014)); a
Gaussian peak of width sigma is off by about 2 exp(-2 pi^2 sigma^2 / h^2),
so at the default tolerance 1e-9 the spacing resolves it wherever it sits
for sigma >= 1.04 h (0.065 at h = 1/16), that is
h^2 / sigma^2 <= 2 pi^2 / ln(2 / rel_tol).

Two checks gate the rule.  It must agree with the rule of twice the
spacing, on the row's even grid nodes, to ``rel_tol`` times the larger of
the integral's and the base integral's magnitude.  That cannot see a peak
narrower than h midway between two nodes (the grid's Nyquist sine
vanishes on every node, so all three rules agree while each is off: by
6.5e-6 in ln I at sigma = 0.05, x = 1/32).  So the second differences of
ln f on the kept nodes, -h^2 / sigma^2 for a Gaussian, set how many
halvings must come before any rule is accepted: until none falls below
-2 pi^2 / ln(2 / rel_tol); node 0's is taken with its mirror neighbour,
node 1.  The spacing halves on the kept intervals alone (a valley between
far peaks is never refined), evaluating only their midpoints, and each
rule is checked against the last.  The node budget is per row; it counts
the nodes of every level on the whole line (each x > 0 twice, 0 once), the
first included, before it evaluates them.  A non-smooth integrand
converges only like h^2 and may exhaust the budget: a ``NumericalError``,
not a wrong number.  A NaN of ln f at any node raises a ``NumericalError``
that names it.  An h factor narrower than the spacing, or an oscillating
ln f, can still alias alike onto successive rules; no caller passes one.
The thermal weights are entire in x, since cosh(beta eps) and sinh(beta
eps) / eps are even in eps, with peaks about 1 wide; the moment integrands
are analytic for |Im x| < omega0 / (2 sqrt(s)), s = lambda^2 coth(beta
omega/2) / N.

Batches are exact: a row's sums and checks run over its own nodes alone,
each along its own grid, so its numbers are bit-identical whatever else is
in its batch.  Every node is an exact multiple of its scan's spacing / 2^m
at the m-th halving, so refined nodes are np.linspace's.  Scan grids are
built once and cached, and every array of nodes is read-only: an integrand
that writes into its argument raises ``ValueError``.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .core import QuadratureSpec
from .errors import NumericalError

_STEP = 1.0 / 16.0  # node spacing of the scans up to reach 128
_SCAN_START = 128  # nodes beyond 0 at the first scan level: reach 8
_FINE_LEVELS = 5  # scan levels at that spacing, reaches 8 to 128; each later one doubles it
_SCAN_LEVELS = 18  # scan levels, each of twice the reach, up to 2^20; then it gives up
_SCAN_DECAY = 80.0  # required log-drop at the scan's right edge
_PEAK_KEEP = 60.0  # the quadrature keeps the scan nodes within this of the maximum
_KRYLOV_DIM = 64  # Lanczos vectors held at once; a cycle that fills them restarts
_RESTART_KEEP = 16  # Ritz vectors a restart keeps
_CHECK_EVERY = 8  # Lanczos steps between Ritz-residual checks
_LANCZOS_TOL = 1e-14  # Ritz residual, relative to the largest Ritz value in magnitude
_LANCZOS_MAX_STEPS = 20_000  # operator applications before a solve gives up


def traced_band(psi):
    """Diagonals 0, 1 and 2 of Tr_photon |psi><psi|, from amplitudes psi[m, n] or psi[m, n, k].

    With a state index k, each diagonal has one column per state.  The sum
    over the photon level m runs one level at a time, so no temporary is as
    large as psi.
    """
    d = psi.shape[1]
    bands = [psi[0, : d - s] * psi[0, s:] for s in (0, 1, 2)]
    for row in psi[1:]:
        for s, band in enumerate(bands):
            band += row[: d - s] * row[s:]
    return tuple(bands)


@dataclass(frozen=True)
class PhotonAtomOperator:
    """omega a'a (x) 1 + 1 (x) h_atom + coupling (a'+a) (x) v_atom, matrix-free.

    The photon mode keeps its lowest ``cutoff`` Fock levels.  ``h_atom`` is
    the pair of diagonals, at offsets 0 and 2 (the second may be 0), and
    ``v_atom`` the offset-1 diagonal of real symmetric atomic bands on d
    levels.  In the photon-major basis, |m> (x) |n> at index m * d + n, H is
    a symmetric band too: the coupling sqrt(m + 1) v_n joins |m, n> to
    |m + 1, n + 1> (offset d + 1) and |m, n + 1> to |m + 1, n> (offset d - 1).
    """

    omega: float
    cutoff: int
    h_atom: tuple
    coupling: float
    v_atom: np.ndarray

    @property
    def shape(self):
        dim = self.cutoff * len(self.h_atom[0])
        return dim, dim

    @functools.cached_property
    def bands(self):
        """(diagonal, ((offset, diagonal), ...)) of H in the flat basis, zero diagonals left out."""
        c, (diagonal, second), d = self.cutoff, self.h_atom, len(self.h_atom[0])
        grids = np.zeros((4, c, d))
        grids[0] = self.omega * np.arange(c, dtype=float)[:, None] + diagonal
        grids[1, :, : d - 2] = second
        ladder = np.sqrt(np.arange(1.0, c))[:, None]
        grids[2, :-1, :-1] = grids[3, :-1, 1:] = self.coupling * (ladder * self.v_atom)
        flat = grids.reshape(4, -1)
        offsets = zip((2, d + 1, d - 1), flat[1:])
        return flat[0], tuple((k, f[: c * d - k]) for k, f in offsets if k and f.any())

    def matvec(self, x):
        """H x by one pair of slice multiply-adds per off-diagonal band."""
        diagonal, bands = self.bands
        out = diagonal * x
        for k, band in bands:
            out[: len(x) - k] += band * x[k:]
            out[k:] += band * x[: len(x) - k]
        return out

    def toarray(self):
        """The dense matrix, entry for entry the np.kron sum of the dense terms."""
        diagonal, bands = self.bands
        dense = np.diag(diagonal)
        index = np.arange(len(diagonal))
        for k, band in bands:
            dense[index[:-k], index[k:]] += band
            dense[index[k:], index[:-k]] += band
        return dense


def _lanczos_lowest(matvec, start):
    """Smallest eigenpair by thick-restart Lanczos with full reorthogonalization.

    At most ``_KRYLOV_DIM`` Krylov vectors are held.  A cycle that fills
    them restarts from its ``_RESTART_KEEP`` lowest Ritz vectors and its
    last residual direction (Wu & Simon, SIAM J. Matrix Anal. Appl. 22,
    602 (2000)).  The projected matrix is read off the reorthogonalization
    coefficients, so it holds the restart's Ritz values and couplings with
    no special case.  Converged when the Ritz residual |beta s_last| is
    below ``_LANCZOS_TOL`` times the largest Ritz value in magnitude,
    checked every ``_CHECK_EVERY`` steps, before each restart, and once
    |beta| < ``_LANCZOS_TOL`` |H q|, where the Krylov space is invariant to
    rounding and a further vector would be noise; raises ``NumericalError``
    after ``_LANCZOS_MAX_STEPS`` operator applications.
    """
    dim = len(start)
    # a start vector on a sector (an invariant subspace) spans no more than it
    krylov = np.empty((min(_KRYLOV_DIM, np.count_nonzero(start)), dim))
    projected = np.zeros((len(krylov), len(krylov)))
    krylov[0] = start / np.linalg.norm(start)
    size = 1
    for step in range(1, _LANCZOS_MAX_STEPS + 1):
        w = matvec(krylov[size - 1])
        scale = np.linalg.norm(w)
        held = krylov[:size]
        # full reorthogonalization, twice: once is not enough in rounding
        coefficients = held @ w
        w -= held.T @ coefficients
        correction = held @ w
        w -= held.T @ correction
        projected[size - 1, :size] = projected[:size, size - 1] = coefficients + correction
        b = float(np.linalg.norm(w))
        full = size == len(krylov)
        invariant = b <= _LANCZOS_TOL * scale
        if full or invariant or step % _CHECK_EVERY == 0 or step == _LANCZOS_MAX_STEPS:
            vals, vecs = np.linalg.eigh(projected[:size, :size])
            if b * abs(vecs[-1, 0]) <= _LANCZOS_TOL * max(abs(vals[0]), abs(vals[-1])):
                ritz = vecs[:, 0] @ held
                return vals[0], ritz / np.linalg.norm(ritz)
            if full:
                keep = min(_RESTART_KEEP, size - 1)
                krylov[:keep] = vecs[:, :keep].T @ held
                projected[:] = 0.0
                projected[:keep, :keep] = np.diag(vals[:keep])
                size = keep
        krylov[size] = w / b
        size += 1
    raise NumericalError("Lanczos iteration did not converge", dim=dim)


def lowest_eigenpair(matrix, sector=None):
    """Lowest eigenvalue and eigenvector of a symmetric matrix.

    ``matrix`` is a dense array or an operator with ``shape``, ``matvec``
    and ``toarray`` (a ``PhotonAtomOperator``).  ``sector``, a boolean mask
    of basis states that the matrix leaves invariant (a symmetry block),
    restricts the solve to them; the returned vector is exactly zero
    outside it.  Dense input, and sectors no larger than ``_KRYLOV_DIM``,
    are solved with numpy's ``eigh``.  Larger operators use
    ``_lanczos_lowest`` from the uniform vector on the sector; both exact
    diagonalizations (the oracle's even-parity block and the truncated
    zero-T reference) take this path.  Sign convention: the first
    amplitude above 1e-10 of the largest is nonnegative.
    """
    dim = matrix.shape[0]
    keep = np.arange(dim) if sector is None else np.flatnonzero(sector)
    if hasattr(matrix, "matvec") and len(keep) > _KRYLOV_DIM:
        start = np.zeros(dim)
        start[keep] = 1.0
        value, vec = _lanczos_lowest(matrix.matvec, start)
    else:
        a = matrix.toarray() if hasattr(matrix, "toarray") else np.asarray(matrix, dtype=float)
        vals, vecs = np.linalg.eigh(a[np.ix_(keep, keep)])
        value, vec = vals[0], np.zeros(dim)
        vec[keep] = vecs[:, 0]
    significant = np.flatnonzero(np.abs(vec) > 1e-10 * np.abs(vec).max())
    if len(significant) and vec[significant[0]] < 0:
        vec = -vec
    return value, vec


def log_sum_exp(log_terms, weights=1.0, axis=None):
    """ln sum_i weights_i exp(log_terms_i) along ``axis``, for nonnegative weights.

    Shifted by the largest log-term of positive weight, so terms like
    exp(+-10^4) neither overflow nor all underflow.
    """
    log_terms = np.where(np.asarray(weights) > 0, log_terms, -np.inf)
    shift = log_terms.max(axis=axis, keepdims=True)
    total = (weights * np.exp(log_terms - shift)).sum(axis=axis)
    return np.log(total) + np.squeeze(shift, axis=axis)


def _values(fn, xs, rows):
    """fn(xs, rows) at the read-only 1-D nodes ``xs``, as a (len(rows), len(xs)) float array."""
    xs.flags.writeable = False
    values = np.asarray(fn(xs, rows), dtype=float)
    if values.shape != (len(rows), len(xs)):
        values = np.broadcast_to(values, (len(rows), len(xs)))
    return values


def _log_values(log_f, xs, rows):
    """``_values`` of the log-integrand; a NaN among them raises ``NumericalError``."""
    values = _values(log_f, xs, rows)
    nan = np.isnan(values)
    if nan.any():
        raise NumericalError("log-integrand is NaN", x=float(xs[np.argmax(nan.any(axis=0))]))
    return values


@functools.lru_cache(maxsize=_SCAN_LEVELS)
def _scan_grid(level):
    """The scan grid from 0 to reach 8 * 2^level, and the nodes of it beyond the one below.

    Returns (grid, fresh), both read-only; at level 0, ``fresh`` is the grid.
    From level ``_FINE_LEVELS`` on, the grid keeps 2,049 nodes and the
    spacing doubles with the reach.
    """
    coarse = max(0, level - _FINE_LEVELS + 1)  # doublings of the spacing
    reach = _SCAN_START << (level - coarse)
    grid = np.arange(reach + 1) * (_STEP * 2**coarse)
    grid.flags.writeable = False
    return grid, grid[reach // 2 + 1 :] if level else grid


def _scan(log_f, count):
    """Expanding scans of ``count`` rows from 0: [(grid, rows, values, maxima)], edges decayed.

    Each level evaluates its fresh nodes for the rows not yet decayed only;
    where the spacing doubles, it keeps every other node of the level below.
    """
    rows, (grid, fresh) = np.arange(count), _scan_grid(0)
    vals = np.array(_log_values(log_f, fresh, rows))  # owned: integrate_batch writes it
    scans = []
    for level in range(1, _SCAN_LEVELS + 1):
        top = vals.max(axis=1)
        if not np.isfinite(top).all():
            span = float(grid[-1])
            raise NumericalError("log-integrand is -inf on the whole scan range", span=span)
        grow = vals[:, -1] >= top - _SCAN_DECAY
        growing = np.count_nonzero(grow)
        if not growing:
            return scans + [(grid, rows, vals, top)]
        if growing < len(rows):
            scans.append((grid, rows[~grow], vals[~grow], top[~grow]))
            rows, vals = rows[grow], vals[grow]
        if level == _SCAN_LEVELS:
            span = 2.0 * float(grid[-1])
            raise NumericalError("log-integrand does not decay within the scan range", span=span)
        grid, fresh = _scan_grid(level)
        inner = vals if level < _FINE_LEVELS else vals[:, ::2]
        vals = np.concatenate((inner, _log_values(log_f, fresh, rows)), axis=1)


def _result(top, total):
    return float(top + math.log(total[0])), [float(t / total[0]) for t in total[1:]]


def _over_budget(error, quad, grid, kept):
    edge = float(grid[np.flatnonzero(kept)[-1]])
    return NumericalError(
        "quadrature tolerance not reached within the node budget",
        achieved=error,
        requested=quad.rel_tol,
        window=(-edge, edge),
    )


def integrate_batch(log_f, h_funcs, count, quad: QuadratureSpec = QuadratureSpec()):
    """[(ln I, [integral(f h) / I for each h]) for each of ``count`` rows] with f = exp(log_f).

    ``log_f`` and each h must be even in x: they are evaluated at x >= 0
    alone, and each integral is over the whole real line.  The integrands
    are batched: ``log_f(x, rows)`` and each ``h(x, rows)`` take read-only
    1-D nodes ``x`` >= 0 and an integer array ``rows`` of the rows being
    evaluated there, and return a (len(rows), len(x)) array.  Each row's
    integral is as described for ``integrate``, and its sums run along its
    own nodes alone: its numbers are bit-identical whatever else is in the
    batch.
    """
    results, scans = [None] * count, _scan(log_f, count)
    # the sharpest second difference of ln f a spacing resolves (module notes)
    resolved = 2.0 * math.pi**2 / math.log(2.0 / quad.rel_tol)
    while scans:  # popped, so that each group's arrays are freed once it is done
        grid, rows, weight, top = scans.pop()
        step = float(grid[1] - grid[0])
        near = weight > (top - _PEAK_KEEP)[:, None]
        kept = near.copy()  # every run widened by one node per side; node 1 mirrors node -1
        kept[:, 1:] |= near[:, :-1]
        kept[:, :-1] |= near[:, 1:]
        nodes = 2 * np.count_nonzero(kept, axis=1) - kept[:, 0]  # on the whole line
        if nodes.max() > quad.max_nodes:
            raise _over_budget(math.inf, quad, grid, kept[np.argmax(nodes > quad.max_nodes)])
        stop = np.flatnonzero(kept.any(axis=0))[-1] + 1
        logs = np.concatenate((weight[:, 1:2], weight[:, :stop]), axis=1)  # node 1 as node -1
        with np.errstate(invalid="ignore"):  # -inf - -inf off the kept nodes
            bend = logs[:, :-2] - 2.0 * logs[:, 1:-1] + logs[:, 2:]
        bend[~(near[:, : stop - 1] & np.isfinite(bend))] = 0.0
        # halvings before a rule may be accepted: each divides a bend by 4
        least = np.ceil(np.log(np.maximum(-bend.min(axis=1) / resolved, 1.0)) / math.log(4.0))
        # the rule on each row's kept nodes, summed along the row's own grid
        # with zeros elsewhere, checked against the rule of twice the spacing
        weight -= top[:, None]
        weight[~kept] = -np.inf
        np.exp(weight, out=weight)
        weight[:, 0] *= 0.5  # the one node on both half-lines; the sums are doubled below
        total, previous = np.empty((2, 1 + len(h_funcs), len(rows)))
        weight.sum(axis=1, out=total[0])
        weight[:, ::2].sum(axis=1, out=previous[0])
        if h_funcs:
            weighted = np.zeros_like(weight)
        for i, h in enumerate(h_funcs, start=1):
            values = _values(h, grid[:stop], rows)
            np.multiply(weight[:, :stop], values, out=weighted[:, :stop], where=kept[:, :stop])
            weighted.sum(axis=1, out=total[i])
            weighted[:, ::2].sum(axis=1, out=previous[i])
        total *= 2.0 * step
        previous *= 4.0 * step
        error = np.max(np.abs(total - previous) / np.maximum(np.abs(total), total[0]), axis=0)
        for i, row in enumerate(rows):
            if error[i] <= quad.rel_tol and not least[i]:
                results[row] = _result(top[i], total[:, i])
            else:
                results[row] = _halve(
                    log_f, h_funcs, quad, grid, kept[i], rows[i : i + 1], top[i],
                    nodes[i], float(error[i]), total[:, i], int(least[i]),
                )
    return results


def _halve(log_f, h_funcs, quad, grid, kept, row, top, nodes, error, total, least):
    """One row's result, halving the spacing on its kept intervals until its rule converges.

    Each halving evaluates the midpoints of the kept intervals, the odd
    nodes of the grid of half the spacing, all of them positive, and adds
    twice their rule to half the last; ``nodes``, ``error`` and ``total``
    are the first rule's.  No rule is accepted before ``least`` halvings.
    """
    left = np.flatnonzero(kept[:-1] & kept[1:])  # the kept intervals, by their left node
    used, step = nodes, float(grid[1] - grid[0])
    for level in itertools.count():
        step /= 2.0
        xs = ((left[:, None] << level + 1) + np.arange(1, 2 << level, 2)).ravel() * step
        nodes += 2 * len(xs)
        used += nodes
        if used > quad.max_nodes:
            raise _over_budget(error, quad, grid, kept)
        terms = np.empty((1 + len(h_funcs), len(xs)))
        np.exp(_log_values(log_f, xs, row)[0] - top, out=terms[0])
        for term, h in zip(terms[1:], h_funcs):
            np.multiply(terms[0], _values(h, xs, row)[0], out=term)
        previous, total = total, 0.5 * total + 2.0 * step * terms.sum(axis=1)
        error = float(np.max(np.abs(total - previous) / np.maximum(np.abs(total), total[0])))
        if error <= quad.rel_tol and level + 1 >= least:
            return _result(top, total)


def _one(fn):
    """A function of the nodes alone, as the batched integrand of one row."""
    return lambda x, rows: fn(x)


def integrate(log_f, h_funcs, quad: QuadratureSpec = QuadratureSpec()):
    """(ln I, [integral(f h) / I for each h]) with I the integral of f = exp(log_f).

    Both integrals run over the whole real line.  ``log_f`` and each h must
    be even in x: both are called on read-only 1-D arrays of nodes x >= 0
    alone.  ``log_f`` must decay at infinity (in practice a Gaussian
    envelope exp(-x^2/2) is folded in), f and each f h must be analytic in
    a strip about the real axis (see the module notes), and the ``h_funcs``
    are O(1)-bounded.  This is ``integrate_batch`` on a batch of one.
    """
    return integrate_batch(_one(log_f), [_one(h) for h in h_funcs], 1, quad)[0]


def log_integral(log_f, quad: QuadratureSpec = QuadratureSpec()):
    """ln of the integral of the even f over the real line, given ln f at x >= 0."""
    return integrate(log_f, (), quad)[0]
