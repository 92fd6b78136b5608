"""Integral closure of monomial ideals via the Newton polyhedron.

The Newton polyhedron of a nonzero monomial ideal is the convex hull of its
generator exponents plus the nonnegative orthant; a monomial lies in the
integral closure exactly when its exponent vector is a lattice point of the
polyhedron. The closure is therefore generated by the componentwise-minimal
lattice points, and those all live in the box prod_j [0, max_i v_{i,j}]:
if a lattice point a of the polyhedron had a_j above that maximum, then
a - e_j would still dominate the same convex combination (its j-th
coordinate still exceeds every vertex's), so a would not be minimal.
Enumerating the box is then sufficient and is what :func:`closure` does.

Membership queries run the exact LP of :mod:`closure_lab.simplex`. Within
one closure enumeration, the separating functionals returned by failed
solves are kept, so later non-members in the same box are usually refuted
by a handful of exact dot products instead of a fresh solve. Answers are
deterministic either way, and no value keeps state between calls.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm, prod
from typing import Iterator, Sequence

from . import simplex
from .config import DEFAULT_BOX_POINT_CAP
from .errors import DimensionMismatchError, InstanceTooLargeError, PreconditionError
from .monomials import (
    ExponentVector,
    MonomialIdeal,
    as_exponent_vector,
    divides,
    zero_ideal,
)


@dataclass(frozen=True)
class RationalCertificate:
    """Convex weights witnessing membership of a point in the polyhedron."""

    lambdas: tuple[Fraction, ...]

    def satisfies(self, vertices: Sequence[ExponentVector], point: ExponentVector) -> bool:
        """Exact re-check: weights are nonnegative, sum to 1 and dominate."""
        if len(self.lambdas) != len(vertices):
            return False
        if any(lam < 0 for lam in self.lambdas):
            return False
        if sum(self.lambdas, Fraction(0)) != 1:
            return False
        dim = len(point)
        for j in range(dim):
            combo = sum((lam * v[j] for lam, v in zip(self.lambdas, vertices)), Fraction(0))
            if combo > point[j]:
                return False
        return True


@dataclass(frozen=True)
class NewtonPolyhedron:
    """conv(vertices) + nonnegative orthant, with an exact membership oracle.

    Vertices need not be extreme points; dominated vertices never change
    membership answers. Vertices are stored sorted; instances are immutable.
    """

    dim: int
    vertices: tuple[ExponentVector, ...]

    def __post_init__(self):
        vecs = tuple(sorted(as_exponent_vector(v, self.dim) for v in self.vertices))
        if not vecs:
            raise PreconditionError("a Newton polyhedron needs at least one vertex")
        object.__setattr__(self, "vertices", vecs)

    def member(self, point: ExponentVector) -> tuple[bool, RationalCertificate | None]:
        """Exact membership of a lattice point, with weights on success."""
        point = as_exponent_vector(point, self.dim)
        for index, vertex in enumerate(self.vertices):
            if divides(vertex, point):
                lams = [Fraction(0)] * len(self.vertices)
                lams[index] = Fraction(1)
                return True, RationalCertificate(tuple(lams))
        outcome = simplex.dominating_combination(self.vertices, point)
        if isinstance(outcome, simplex.Feasible):
            return True, RationalCertificate(outcome.lambdas)
        return False, None


def polyhedron_of(ideal: MonomialIdeal) -> NewtonPolyhedron:
    """The Newton polyhedron of a nonzero monomial ideal."""
    if ideal.is_zero:
        raise PreconditionError("the zero ideal has no Newton polyhedron")
    return NewtonPolyhedron(ideal.dim, ideal.gens)


def _bounded_compositions(total: int, bounds: tuple[int, ...]) -> Iterator[ExponentVector]:
    """All vectors with the given coordinate bounds and total degree, in order."""
    if not bounds:
        if total == 0:
            yield ()
        return
    head_max = min(total, bounds[0])
    head_min = max(0, total - sum(bounds[1:]))
    for head in range(head_min, head_max + 1):
        for tail in _bounded_compositions(total - head, bounds[1:]):
            yield (head,) + tail


@lru_cache(maxsize=1024)
def closure(
    ideal: MonomialIdeal, box_point_cap: int = DEFAULT_BOX_POINT_CAP
) -> MonomialIdeal:
    """The integral closure of a monomial ideal.

    Enumerates the sufficient box in ascending total degree, keeping each
    lattice point that lies in the Newton polyhedron and is not divisible by
    a point already kept; the survivors are exactly the minimal generators.
    The zero ideal is its own closure (the ambient polynomial ring is
    reduced) and is returned without polyhedral work.
    """
    if ideal.is_zero:
        return zero_ideal(ideal.dim)
    vertices = polyhedron_of(ideal).vertices
    bounds = tuple(max(g[j] for g in ideal.gens) for j in range(ideal.dim))
    box_points = prod(b + 1 for b in bounds)
    if box_points > box_point_cap:
        raise InstanceTooLargeError(
            f"closure box has {box_points} lattice points, cap is {box_point_cap}"
        )
    kept: list[ExponentVector] = []
    # Separating functionals of failed solves, scaled to integers: (weights,
    # threshold) with weights . v >= threshold for every vertex v, so any
    # point p with weights . p < threshold is outside the polyhedron.
    separators: list[tuple[tuple[int, ...], int]] = []
    for degree in range(sum(bounds) + 1):
        for point in _bounded_compositions(degree, bounds):
            if any(divides(g, point) for g in kept):
                continue
            if any(
                sum(w * c for w, c in zip(weights, point)) < threshold
                for weights, threshold in separators
            ):
                continue
            if any(divides(v, point) for v in vertices):
                kept.append(point)
                continue
            outcome = simplex.dominating_combination(vertices, point)
            if isinstance(outcome, simplex.Feasible):
                kept.append(point)
            else:
                functional = outcome.functional
                scale = lcm(*(value.denominator for value in functional))
                separators.append((tuple(int(value * scale) for value in functional), scale))
    return MonomialIdeal(ideal.dim, tuple(kept))


def closure_member(ideal: MonomialIdeal, m: ExponentVector) -> bool:
    """Membership of x^m in the integral closure of a nonzero monomial ideal."""
    member, _ = closure_member_certificate(ideal, m)
    return member


def closure_member_certificate(
    ideal: MonomialIdeal, m: ExponentVector
) -> tuple[bool, RationalCertificate | None]:
    """Like :func:`closure_member` but also returns the convex weights."""
    if ideal.is_zero:
        raise PreconditionError("closure membership needs a nonzero ideal")
    if len(m) != ideal.dim:
        raise DimensionMismatchError(
            f"monomial has {len(m)} exponents, ideal lives in {ideal.dim} variables"
        )
    return polyhedron_of(ideal).member(m)
