"""Spin-squeezing entanglement witnesses on collective first/second moments.

Four inequalities on the moments of J_x, J_y, J_z hold for every fully
separable state; violation of any one certifies entanglement.  In
per-atom normalized form (moments stored as <J_a>/N and <J_a^2>/N^2)
the large-N inequalities read

    (a)  <Jx^2> + <Jy^2> + <Jz^2>  <=  N(N+2)/4          (sanity bound,
         satisfied by every quantum state; checked, never a witness)
    (b)  (V_x + V_y + V_z) - 1/(2N)                >= 0
    (c)  N V_g - (<Ja^2> + <Jb^2>)/N^2 + 1/(2N)    >= 0
    (d)  N (V_a + V_b) - <Jg^2>/N^2 - 1/4          >= 0

with V_a = variance(J_a)/N^2 and (a, b, g) running over all axis
permutations.  The finite-N counterparts (same content up to 1/N
corrections) are provided as an alternate path for moments produced by
exact diagonalization.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .errors import InvalidParameterError

AXES = ("x", "y", "z")
PERMUTATIONS = tuple(itertools.permutations(AXES))

#: violations smaller than this are floating-point noise at equality boundaries
TOL_WITNESS = 1e-9

_INVARIANT_SLACK = 1e-10


def spin_ladder(j):
    """<j, m+1| J+ |j, m> = sqrt((j - m)(j + m + 1)) = sqrt((2j - i)(i + 1)), i = m + j < 2j.

    A list of the 2j values.
    """
    return [math.sqrt((2 * j - i) * (i + 1.0)) for i in range(round(2 * j))]


@dataclass(frozen=True)
class MomentSet:
    """Per-atom normalized collective-spin moments.

    ``first[i]`` holds <J_i>/N and ``second[i]`` holds <J_i^2>/N^2 for
    i in (x, y, z); variances are derived.
    """

    n_atoms: int
    first: tuple
    second: tuple

    @classmethod
    def from_bands(cls, n_atoms, bands):
        """Moments of a real state from (j, copies, band) per spin multiplet.

        ``band`` is (rho_{i,i}, rho_{i,i+1}, rho_{i,i+2}) on the levels
        |j, i - j>, i < L <= 2j + 1.  With J+|i> = c_i |i+1>,
        c_i = sqrt((2j - i)(i + 1)) (``spin_ladder``; c_{2j} = 0 ends the
        multiplet): <J_x> = sum_i c_i rho_{i,i+1}, <J_y> = 0, and <J_x^2>
        and <J_y^2> are
        [sum_i P(i) (c_{i-1}^2 + c_i^2) +- 2 sum_i c_i c_{i+1} rho_{i,i+2}] / 4.
        Each sum runs over the nonzero entries of its diagonal alone,
        correctly rounded (``math.fsum``), so a large-N band costs its
        nonzero levels, not its length.
        """

        def contract(values, term):
            nonzero = itertools.compress(range(len(values)), values)
            return math.fsum(values[i] * term(i) for i in nonzero)

        terms = []
        for j, copies, (probs, off1, off2) in bands:
            two_j = 2 * j

            def c(i):  # J+|i> = c_i |i+1>
                return math.sqrt((two_j - i) * (i + 1.0))

            # <J+ J- + J- J+>, with c_{i-1}^2 + c_i^2 = i (2j - i + 1) + (2j - i)(i + 1) exactly
            ladder = contract(probs, lambda i: i * (two_j - i + 1.0) + (two_j - i) * (i + 1.0))
            squared = 2.0 * contract(off2, lambda i: c(i) * c(i + 1))  # <J+^2 + J-^2>
            terms.append([copies * t for t in (
                contract(off1, c), 0.0, contract(probs, lambda i: i - j),
                0.25 * (ladder + squared), 0.25 * (ladder - squared),
                contract(probs, lambda i: (i - j) * (i - j)),
            )])
        totals = [math.fsum(column) for column in zip(*terms)]
        return cls(
            n_atoms=n_atoms,
            first=tuple(t / n_atoms for t in totals[:3]),
            second=tuple(t / n_atoms**2 for t in totals[3:]),
        )

    def variance(self, axis):
        """variance(J_axis)/N^2."""
        i = AXES.index(axis)
        return self.second[i] - self.first[i] ** 2

    def total_second(self):
        return sum(self.second)

    def validate(self, slack=_INVARIANT_SLACK):
        """Check finite moments, nonnegative variances and the universal sum bound (a)."""
        if not all(map(math.isfinite, (*self.first, *self.second))):
            raise InvalidParameterError(f"moments must be finite, got {self.first}, {self.second}")
        for axis in AXES:
            if self.variance(axis) < -slack:
                raise InvalidParameterError(
                    f"negative variance for J_{axis}: {self.variance(axis)}"
                )
        n = self.n_atoms
        bound = (n * (n + 2) / 4.0) / n**2
        if self.total_second() > bound + slack:
            raise InvalidParameterError(
                f"second moments sum to {self.total_second()}, above the bound {bound}"
            )


@dataclass(frozen=True)
class WitnessEntry:
    inequality: str  # "b", "c" or "d"
    axes: tuple | None  # (alpha, beta, gamma) for "c"/"d", None for "b"
    lhs: float
    violated: bool

    @property
    def name(self):
        """``b``, ``c_x_y_z``, ..., ``d_z_y_x``: the inequality, then its axes."""
        return "_".join((self.inequality, *(self.axes or ())))


@dataclass(frozen=True)
class WitnessReport:
    entries: tuple

    @property
    def any_violation(self):
        return any(e.violated for e in self.entries)

    def violations(self):
        return [e for e in self.entries if e.violated]

    def lhs(self, inequality, axes=None):
        for e in self.entries:
            if e.inequality == inequality and e.axes == (tuple(axes) if axes else None):
                return e.lhs
        raise KeyError((inequality, axes))


def _evaluate(moments: MomentSet, tol_witness, pair, d_const) -> WitnessReport:
    """The (b), (c), (d) entries with pair factor ``pair`` and (d) constant ``d_const``."""
    moments.validate()
    n = moments.n_atoms
    var = {axis: moments.variance(axis) for axis in AXES}
    sec = dict(zip(AXES, moments.second))

    entries = [("b", None, var["x"] + var["y"] + var["z"] - 1.0 / (2 * n))]
    for alpha, beta, gamma in PERMUTATIONS:
        entries.append(
            ("c", (alpha, beta, gamma), pair * var[gamma] - sec[alpha] - sec[beta] + 1.0 / (2 * n))
        )
    for alpha, beta, gamma in PERMUTATIONS:
        entries.append(
            ("d", (alpha, beta, gamma), pair * (var[alpha] + var[beta]) - sec[gamma] - d_const)
        )
    return WitnessReport(
        tuple(WitnessEntry(kind, axes, lhs, lhs < -tol_witness) for kind, axes, lhs in entries)
    )


def evaluate(moments: MomentSet, tol_witness=TOL_WITNESS) -> WitnessReport:
    """Large-N witness evaluation: one (b) entry, six (c) and six (d) entries."""
    return _evaluate(moments, tol_witness, moments.n_atoms, 0.25)


def evaluate_finite_n(moments: MomentSet, tol_witness=TOL_WITNESS) -> WitnessReport:
    """Finite-N witness evaluation (normalized by N^2 for comparability)."""
    n = moments.n_atoms
    return _evaluate(moments, tol_witness, n - 1, (n - 2) / (4.0 * n))
