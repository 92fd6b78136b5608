"""Exact rational feasibility solver for convex-domination queries.

Decides whether a query point a admits nonnegative weights lambda with
sum(lambda) = 1 and sum(lambda_i * v_i) <= a componentwise, for integer
vertices v_i. Phrased as the LP "maximize sum(lambda) subject to
V^T lambda <= a, lambda >= 0" and solved with a dense tableau simplex over
``fractions.Fraction`` using Bland's pivoting rule, which excludes cycling.

Feasibility holds iff the maximum reaches 1. On success the scaled optimal
weights are returned; on failure the dual gives a separating functional
w >= 0 with w . v_i >= 1 for every vertex but w . a < 1. The library decides
membership from facets (:mod:`closure_lab.newton`) and calls this solver
only for the weights of a point already known to be inside.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import PreconditionError

Vector = tuple


@dataclass(frozen=True)
class Feasible:
    lambdas: tuple[Fraction, ...]


@dataclass(frozen=True)
class Infeasible:
    functional: tuple[Fraction, ...]


def dominating_combination(
    vertices: Sequence[Vector], point: Vector
) -> Feasible | Infeasible:
    """Solve the convex-domination LP for ``point`` against ``vertices``."""
    if any(c < 0 for c in point):
        raise PreconditionError(f"query point must be nonnegative, got {point}")
    dim = len(point)
    count = len(vertices)
    if count == 0:
        return Infeasible((Fraction(0),) * dim)
    if any(len(v) != dim for v in vertices):
        raise PreconditionError("vertex dimension differs from query point")

    total = count + dim  # lambda columns then slack columns
    rows = [
        [Fraction(vertices[i][j]) for i in range(count)]
        + [Fraction(1) if k == j else Fraction(0) for k in range(dim)]
        for j in range(dim)
    ]
    rhs = [Fraction(point[j]) for j in range(dim)]
    basis = [count + j for j in range(dim)]
    # zc[col] = z_col - c_col; optimal for maximization when all >= 0.
    zc = [Fraction(-1)] * count + [Fraction(0)] * dim
    objective = Fraction(0)
    one = Fraction(1)

    def current_lambdas() -> list[Fraction]:
        values = [Fraction(0)] * total
        for row_index, col in enumerate(basis):
            values[col] = rhs[row_index]
        return values[:count]

    def scaled(lams: Sequence[Fraction], scale: Fraction) -> Feasible:
        return Feasible(tuple(lam / scale for lam in lams))

    while True:
        entering = next((c for c in range(total) if zc[c] < 0), None)
        if entering is None:
            break
        pivot_row = None
        best_ratio = None
        for r in range(dim):
            coeff = rows[r][entering]
            if coeff > 0:
                ratio = rhs[r] / coeff
                if (
                    best_ratio is None
                    or ratio < best_ratio
                    or (ratio == best_ratio and basis[r] < basis[pivot_row])
                ):
                    best_ratio = ratio
                    pivot_row = r
        if pivot_row is None:
            # Entering column is nonpositive everywhere: the objective is
            # unbounded, so push the entering variable just far enough to
            # reach objective value 1 and read the solution off directly.
            step = (one - objective) / (-zc[entering])
            lams = current_lambdas()
            for r in range(dim):
                if basis[r] < count:
                    lams[basis[r]] -= step * rows[r][entering]
            if entering < count:
                lams[entering] += step
            return scaled(lams, sum(lams, Fraction(0)))

        pivot = rows[pivot_row][entering]
        rows[pivot_row] = [x / pivot for x in rows[pivot_row]]
        rhs[pivot_row] /= pivot
        for r in range(dim):
            if r != pivot_row and rows[r][entering] != 0:
                factor = rows[r][entering]
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[pivot_row])]
                rhs[r] -= factor * rhs[pivot_row]
        factor = zc[entering]
        zc = [x - factor * y for x, y in zip(zc, rows[pivot_row])]
        objective -= factor * rhs[pivot_row]
        basis[pivot_row] = entering

        if objective >= one:
            lams = current_lambdas()
            return scaled(lams, sum(lams, Fraction(0)))

    if objective >= one:
        lams = current_lambdas()
        return scaled(lams, sum(lams, Fraction(0)))
    return Infeasible(tuple(zc[count + j] for j in range(dim)))
