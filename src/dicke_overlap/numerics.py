"""Shared numerical kernels: the matrix-free photon (x) atom Hamiltonian of
both exact diagonalizations (``PhotonAtomOperator``), the symmetric
eigensolvers with the eigenvector sign convention (``lowest_eigenpair``:
numpy's ``eigh`` or a thick-restart Lanczos written in numpy), a weighted
log-sum-exp, and quadrature.  The quadrature settings, bisection and
golden-section maximization (``QuadratureSpec``, ``find_root``,
``golden_max``) live in ``core``, which needs no numpy, and are imported
here.

The quadrature integrates functions supplied as *log-integrands*
``x -> ln f(x)`` (returning -inf where f vanishes), a batch of them at a
time: ``integrate_batch`` calls each integrand with nodes and the indices
of the rows still being evaluated; ``integrate`` and ``log_integral`` are
its batch of one.  All rows start on the nodes of [-8, 8], spacing
h = 1/16; a row whose edges do not yet lie 80 nats below its maximum
grows to twice the half-width, evaluating only its new outer nodes.  Up
to half-width 128 the spacing stays 1/16; beyond it the grid keeps 4,097
nodes, reusing every other node, and the spacing doubles with the span,
up to half-width 2^20.  The integral is the trapezoid rule on the scan's
own nodes within 60 nats of the maximum, plus one node on each side of
each run of them, shifted by the maximum, so values like exp(+-10^4)
neither overflow nor underflow.  For an integrand analytic in the strip
|Im x| < a the rule's error falls like exp(-2 pi a / h) (Trefethen &
Weideman, SIAM Rev. 56, 385 (2014)); a Gaussian peak of width sigma is
off by about 2 exp(-2 pi^2 sigma^2 / h^2), so at the default tolerance
1e-9 the spacing resolves it wherever it sits for sigma >= 1.04 h (0.065
at h = 1/16), that is h^2 / sigma^2 <= 2 pi^2 / ln(2 / rel_tol).

Two checks gate the rule.  It must agree with the rule of twice the
spacing, on the row's even grid nodes, to ``rel_tol`` times the larger of
the integral's and the base integral's magnitude.  That cannot see a peak
narrower than h midway between two nodes (the grid's Nyquist sine
vanishes on every node, so all three rules agree while each is off: by
6.5e-6 in ln I at sigma = 0.05, x = 1/32).  So the second differences of
ln f on the kept nodes, -h^2 / sigma^2 for a Gaussian, set how many
halvings must come before any rule is accepted: until none falls below
-2 pi^2 / ln(2 / rel_tol).  The spacing halves on the kept intervals
alone (a valley between far peaks is never refined), evaluating only
their midpoints, and each rule is checked against the last.  The node
budget is per row; it counts the nodes of every level, the first
included, before it evaluates them.  A non-smooth integrand converges
only like h^2 and may exhaust the budget: a ``NumericalError``, not a
wrong number.  A NaN of ln f at any node raises a ``NumericalError`` that
names it.  An h factor narrower than the spacing, or an oscillating ln f,
can still alias alike onto successive rules; no caller passes one.  The
thermal weights are entire in x, since cosh(beta eps) and sinh(beta eps)
/ eps are even in eps, with peaks about 1 wide; the moment integrands are
analytic for |Im x| < omega0 / (2 sqrt(s)), s = lambda^2 coth(beta
omega/2) / N.

Batches are exact: a row's sums and checks run over its own nodes alone,
each along its own grid, so its numbers are bit-identical whatever else is
in its batch.  Every node is an exact multiple of its scan's spacing / 2^m
at the m-th halving, so refined nodes are np.linspace's and every row's
nodes are symmetric about 0 to the bit.  With ``even``, the caller
promises an even log-integrand and even h functions (in practice computed
from x only through x^2): the first half of each row's nodes is evaluated
and mirrored, and the results are the same bit for bit.  Scan grids are
built once and cached, and every array of nodes is read-only: an integrand
that writes into its argument raises ``ValueError``.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .core import QuadratureSpec, find_root, golden_max  # noqa: F401  (re-exported)
from .errors import NumericalError

_STEP = 1.0 / 16.0  # node spacing of the scans up to half-width 128
_SCAN_START = 128  # nodes on each side of 0 at the first scan level: half-width 8
_FINE_LEVELS = 5  # scan levels at that spacing, half-widths 8 to 128; each later one doubles it
_SCAN_LEVELS = 18  # scan levels, each of twice the half-width, up to 2^20; then it gives up
_SCAN_DECAY = 80.0  # required log-drop at the scan edges
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


def _values(fn, xs, rows, even):
    """fn(xs, rows) at the read-only 1-D nodes ``xs``, as a (len(rows), len(xs)) float array.

    With ``even``, ``xs`` is symmetric about 0 and fn is even: fn runs on
    the first half of ``xs``, the centre node included when there is one,
    and its values are mirrored onto the second half.
    """
    half = xs[: (len(xs) + 1) // 2] if even else xs
    half.flags.writeable = False
    values = np.asarray(fn(half, rows), dtype=float)
    if values.shape != (len(rows), len(half)):
        values = np.broadcast_to(values, (len(rows), len(half)))
    if even:
        return np.concatenate((values, values[:, : len(xs) - len(half)][:, ::-1]), axis=1)
    return values


def _log_values(log_f, xs, rows, even):
    """``_values`` of the log-integrand; a NaN among them raises ``NumericalError``."""
    values = _values(log_f, xs, rows, even)
    nan = np.isnan(values)
    if nan.any():
        raise NumericalError("log-integrand is NaN", x=float(xs[np.argmax(nan.any(axis=0))]))
    return values


@functools.lru_cache(maxsize=_SCAN_LEVELS)
def _scan_grid(level):
    """The scan grid of half-width 8 * 2^level, and the nodes of it outside the one below.

    Returns (grid, fresh), both read-only; at level 0, ``fresh`` is the grid.
    From level ``_FINE_LEVELS`` on, the grid keeps 4,097 nodes and the
    spacing doubles with the half-width.
    """
    coarse = max(0, level - _FINE_LEVELS + 1)  # doublings of the spacing
    reach = _SCAN_START << (level - coarse)
    grid = np.arange(-reach, reach + 1) * (_STEP * 2**coarse)
    grid.flags.writeable = False
    if level == 0:
        return grid, grid
    fresh = np.concatenate((grid[: reach // 2], grid[-(reach // 2) :]))
    fresh.flags.writeable = False
    return grid, fresh


def _scan(log_f, count, even=False):
    """Expanding symmetric scans of ``count`` rows; [(grid, rows, values, maxima)], edges decayed.

    Each level evaluates its fresh nodes for the rows not yet decayed only;
    where the spacing doubles, it keeps every other node of the level below.
    """
    rows, (grid, fresh) = np.arange(count), _scan_grid(0)
    vals = np.array(_log_values(log_f, fresh, rows, even))  # owned: integrate_batch writes it
    scans = []
    for level in range(1, _SCAN_LEVELS + 1):
        top = vals.max(axis=1)
        if not np.isfinite(top).all():
            span = float(grid[-1])
            raise NumericalError("log-integrand is -inf on the whole scan range", span=span)
        grow = np.maximum(vals[:, 0], vals[:, -1]) >= top - _SCAN_DECAY
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
        new, side = _log_values(log_f, fresh, rows, even), len(fresh) // 2
        inner = vals if level < _FINE_LEVELS else vals[:, ::2]
        vals = np.concatenate((new[:, :side], inner, new[:, side:]), axis=1)


def _result(top, total):
    return float(top + math.log(total[0])), [float(t / total[0]) for t in total[1:]]


def _over_budget(error, quad, grid, kept):
    index = np.flatnonzero(kept)
    return NumericalError(
        "quadrature tolerance not reached within the node budget",
        achieved=error,
        requested=quad.rel_tol,
        window=(float(grid[index[0]]), float(grid[index[-1]])),
    )


def integrate_batch(log_f, h_funcs, count, quad: QuadratureSpec = QuadratureSpec(), *, even=False):
    """[(ln I, [integral(f h) / I for each h]) for each of ``count`` rows] with f = exp(log_f).

    The integrands are batched: ``log_f(x, rows)`` and each ``h(x, rows)``
    take read-only 1-D nodes ``x`` and an integer array ``rows`` of the rows
    being evaluated there, and return a (len(rows), len(x)) array.  Each
    row's integral is as described for ``integrate``, and its sums run
    along its own nodes alone: its numbers are bit-identical whatever else
    is in the batch.
    """
    results, scans = [None] * count, _scan(log_f, count, even)
    # the sharpest second difference of ln f a spacing resolves (module notes)
    resolved = 2.0 * math.pi**2 / math.log(2.0 / quad.rel_tol)
    while scans:  # popped, so that each group's arrays are freed once it is done
        grid, rows, weight, top = scans.pop()
        step = float(grid[1] - grid[0])
        near = weight > (top - _PEAK_KEEP)[:, None]
        kept = near.copy()  # every run widened by one node per side
        kept[:, 1:] |= near[:, :-1]
        kept[:, :-1] |= near[:, 1:]
        nodes = np.count_nonzero(kept, axis=1)
        if nodes.max() > quad.max_nodes:
            raise _over_budget(math.inf, quad, grid, kept[np.argmax(nodes > quad.max_nodes)])
        columns = np.flatnonzero(kept.any(axis=0))
        span = slice(columns[0], columns[-1] + 1)
        logs = weight[:, span]
        with np.errstate(invalid="ignore"):  # -inf - -inf off the kept nodes
            bend = logs[:, :-2] - 2.0 * logs[:, 1:-1] + logs[:, 2:]
        bend[~(near[:, span][:, 1:-1] & np.isfinite(bend))] = 0.0
        # halvings before a rule may be accepted: each divides a bend by 4
        least = np.ceil(np.log(np.maximum(-bend.min(axis=1) / resolved, 1.0)) / math.log(4.0))
        # the rule on each row's kept nodes, summed along the row's own grid
        # with zeros elsewhere, checked against the rule of twice the spacing
        weight -= top[:, None]
        weight[~kept] = -np.inf
        np.exp(weight, out=weight)
        total, previous = np.empty((2, 1 + len(h_funcs), len(rows)))
        weight.sum(axis=1, out=total[0])
        weight[:, ::2].sum(axis=1, out=previous[0])
        if h_funcs:
            weighted = np.zeros_like(weight)
        for i, h in enumerate(h_funcs, start=1):
            values = _values(h, grid[span], rows, even)
            np.multiply(weight[:, span], values, out=weighted[:, span], where=kept[:, span])
            weighted.sum(axis=1, out=total[i])
            weighted[:, ::2].sum(axis=1, out=previous[i])
        total *= step
        previous *= 2.0 * step
        error = np.max(np.abs(total - previous) / np.maximum(np.abs(total), total[0]), axis=0)
        for i, row in enumerate(rows):
            if error[i] <= quad.rel_tol and not least[i]:
                results[row] = _result(top[i], total[:, i])
            else:
                results[row] = _halve(
                    log_f, h_funcs, quad, even, grid, kept[i], rows[i : i + 1], top[i],
                    nodes[i], float(error[i]), total[:, i], int(least[i]),
                )
    return results


def _halve(log_f, h_funcs, quad, even, grid, kept, row, top, nodes, error, total, least):
    """One row's result, halving the spacing on its kept intervals until its rule converges.

    Each halving evaluates the midpoints of the kept intervals, the odd
    nodes of the grid of half the spacing, and adds their rule to half the
    last; ``nodes``, ``error`` and ``total`` are the first rule's.  No rule
    is accepted before ``least`` halvings.
    """
    left = np.flatnonzero(kept[:-1] & kept[1:])  # the kept intervals, by their left node
    used, step, span = nodes, float(grid[1] - grid[0]), grid[-1]
    for level in itertools.count():
        step /= 2.0
        xs = ((left[:, None] << level + 1) + np.arange(1, 2 << level, 2)).ravel() * step - span
        nodes += len(xs)
        used += nodes
        if used > quad.max_nodes:
            raise _over_budget(error, quad, grid, kept)
        terms = np.empty((1 + len(h_funcs), len(xs)))
        np.exp(_log_values(log_f, xs, row, even)[0] - top, out=terms[0])
        for term, h in zip(terms[1:], h_funcs):
            np.multiply(terms[0], _values(h, xs, row, even)[0], out=term)
        previous, total = total, 0.5 * total + step * terms.sum(axis=1)
        error = float(np.max(np.abs(total - previous) / np.maximum(np.abs(total), total[0])))
        if error <= quad.rel_tol and level + 1 >= least:
            return _result(top, total)


def _one(fn):
    """A function of the nodes alone, as the batched integrand of one row."""
    return lambda x, rows: fn(x)


def integrate(log_f, h_funcs, quad: QuadratureSpec = QuadratureSpec(), *, even=False):
    """(ln I, [integral(f h) / I for each h]) with I the integral of f = exp(log_f).

    ``log_f`` must decay at +-infinity (in practice a Gaussian envelope
    exp(-x^2/2) is folded in), f and each f h must be analytic in a strip
    about the real axis (see the module notes), and the ``h_funcs`` are
    O(1)-bounded.  Both are called on read-only 1-D arrays.  ``even``
    promises that ``log_f`` and every h are even in x, computed from x only
    through x^2: then half of every node array is evaluated, and the result
    is the same bit for bit.  This is ``integrate_batch`` on a batch of one.
    """
    return integrate_batch(_one(log_f), [_one(h) for h in h_funcs], 1, quad, even=even)[0]


def log_integral(log_f, quad: QuadratureSpec = QuadratureSpec(), *, even=False):
    """ln of the integral of f over the real line, given ln f; ``even`` as for ``integrate``."""
    return integrate(log_f, (), quad, even=even)[0]
