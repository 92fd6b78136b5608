"""Integral closure of monomial ideals via the Newton polyhedron.

The Newton polyhedron of a nonzero monomial ideal is the convex hull of its
generator exponents plus the nonnegative orthant; a monomial lies in the
integral closure exactly when its exponent vector is a lattice point of the
polyhedron. The closure is therefore generated by the componentwise-minimal
lattice points, and those all live in the box prod_j [0, max_i v_{i,j}]:
if a lattice point a of the polyhedron had a_j above that maximum, then
a - e_j would still dominate the same convex combination (its j-th
coordinate still exceeds every vertex's), so a would not be minimal.

:func:`closure` works from the facets, computed once per ideal J by exact
double description in integer arithmetic and scaled by n for J^n. The box
bounds the prefixes (first d - 1 coordinates) it visits; over each prefix
the least last coordinate is a maximum of integer ceilings, and every
minimal generator is such a fibre minimum.

The same facets decide every membership question; the exact LP of
:mod:`closure_lab.simplex` runs only for a point known to be inside, to give
the convex weights that certify it. No value keeps state between calls.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import gcd, prod
from typing import Sequence

from . import simplex
from .config import DEFAULT_BOX_POINT_CAP
from .errors import InstanceTooLargeError, InvariantViolationError, PreconditionError
from .monomials import (
    ExponentVector,
    MonomialIdeal,
    as_exponent_vector,
    divides,
    unit_ideal,
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
        """Exact membership of a lattice point, decided by the facets, with weights."""
        point = as_exponent_vector(point, self.dim)
        if not _satisfies_facets(_facets(self.dim, self.vertices), point):
            return False, None
        for index, vertex in enumerate(self.vertices):
            if divides(vertex, point):
                lams = [Fraction(0)] * len(self.vertices)
                lams[index] = Fraction(1)
                return True, RationalCertificate(tuple(lams))
        outcome = simplex.dominating_combination(self.vertices, point)
        if not isinstance(outcome, simplex.Feasible):
            raise InvariantViolationError(f"facets admit {point}, the LP does not")
        return True, RationalCertificate(outcome.lambdas)


def polyhedron_of(ideal: MonomialIdeal) -> NewtonPolyhedron:
    """The Newton polyhedron of a nonzero monomial ideal."""
    if ideal.is_zero:
        raise PreconditionError("the zero ideal has no Newton polyhedron")
    return NewtonPolyhedron(ideal.dim, ideal.gens)


@lru_cache(maxsize=64)
def _facets(
    dim: int, vertices: tuple[ExponentVector, ...]
) -> tuple[tuple[tuple[int, ...], int], ...]:
    """Integer facet inequalities ``w . x >= b`` (with ``w >= 0``) of the polyhedron.

    The pairs are the extreme rays (w, c), c = -b, of the dual cone
    {(w, c) : w >= 0, w . v + c >= 0 for every vertex v}, found by exact
    double description: start from the simplicial cone of the coordinate
    rows and the first vertex row, then cut by one vertex row at a time,
    joining a ray on the positive side with one on the negative side when
    no third ray is tight on every row both are tight on. Rays are divided
    by the gcd of their entries; the ray (0, ..., 0, 1), the trivial
    inequality 0 >= -1, is dropped. A point lies in the polyhedron exactly
    when it satisfies every pair. Callers pass vertices ascending, as
    :class:`NewtonPolyhedron` stores them: one key per polyhedron. The cache
    is small as reuse is local to one ideal: closures of its powers, then
    verdicts and certificates on it.
    """
    # Each ray carries the bitmask of the rows it is tight on: bit j for the
    # row w_j >= 0, bit dim + i for the row of vertex i. Each ray of the
    # initial cone is tight on all of its d + 1 rows but one.
    first = vertices[0]
    everything = (1 << (dim + 1)) - 1
    rays = [
        (tuple(int(k == j) for k in range(dim)) + (-first[j],), everything & ~(1 << j))
        for j in range(dim)
    ]
    rays.append(((0,) * dim + (1,), everything & ~(1 << dim)))
    for index, vertex in enumerate(vertices[1:], start=dim + 1):
        row = tuple(vertex) + (1,)
        bit = 1 << index
        sides = [(sum(a * r for a, r in zip(row, ray)), ray, tight) for ray, tight in rays]
        positive = [entry for entry in sides if entry[0] > 0]
        negative = [entry for entry in sides if entry[0] < 0]
        masks = [tight for _, _, tight in sides]
        joined = []
        for p_value, p_ray, p_tight in positive:
            for n_value, n_ray, n_tight in negative:
                common = p_tight & n_tight
                if common.bit_count() < dim - 1:
                    continue
                if any(
                    mask & common == common and mask != p_tight and mask != n_tight
                    for mask in masks
                ):
                    continue
                ray = tuple(p_value * b - n_value * a for a, b in zip(p_ray, n_ray))
                divisor = gcd(*ray)
                joined.append((tuple(c // divisor for c in ray), common | bit))
        rays = [
            (ray, tight | bit if value == 0 else tight)
            for value, ray, tight in sides
            if value >= 0
        ] + joined
    return tuple(sorted((ray[:dim], -ray[dim]) for ray, _ in rays if any(ray[:dim])))


def _satisfies_facets(facets: Sequence[tuple], point: Sequence[int]) -> bool:
    """``w . point >= b`` for every facet (w, b)."""
    return all(sum(w * c for w, c in zip(ws, point)) >= b for ws, b in facets)


@lru_cache(maxsize=1024)
def closure(
    ideal: MonomialIdeal, box_point_cap: int = DEFAULT_BOX_POINT_CAP, *, n: int
) -> MonomialIdeal:
    """The integral closure of J^n for a monomial ideal J. ``n`` has no
    default, so closure(J) is always asked as ``n=1``, under one cache key.

    NP(J^n) = n * NP(J): J's facets with every threshold scaled by n, over
    the box n * bounds(J), so no double description runs on a power. Every
    minimal generator lies in the box and is the least lattice point over
    its prefix (module docstring), so the least last coordinate over each
    prefix is read off the facets, kept when inside the box, and the kept
    points minimalized. ``box_point_cap`` bounds the prefixes visited. The
    powers of (0) are their own closures, as the ambient ring is reduced.
    """
    if n < 0:
        raise PreconditionError(f"power must be nonnegative, got {n}")
    if ideal.is_zero:
        return ideal if n else unit_ideal(ideal.dim)
    bounds = tuple(n * max(g[j] for g in ideal.gens) for j in range(ideal.dim))
    prefixes = prod(b + 1 for b in bounds[:-1])
    if prefixes > box_point_cap:
        raise InstanceTooLargeError(
            f"closure box has {prefixes} prefixes over the first {ideal.dim - 1}"
            f" coordinates, cap is {box_point_cap}"
        )
    lifts = []  # facets that bound the last coordinate from below
    walls = []  # facets that only constrain the prefix
    for weights, threshold in _facets(ideal.dim, ideal.gens[::-1]):
        if weights[-1]:
            lifts.append((weights[:-1], n * threshold, weights[-1]))
        else:
            walls.append((weights[:-1], n * threshold))
    points = []
    for prefix in product(*(range(b + 1) for b in bounds[:-1])):
        if not _satisfies_facets(walls, prefix):
            continue
        # ceil((threshold - weights . prefix) / last), by floor division
        least = max(
            -((sum(w * a for w, a in zip(weights, prefix)) - threshold) // last)
            for weights, threshold, last in lifts
        )
        least = max(least, 0)
        if least <= bounds[-1]:
            points.append(prefix + (least,))
    return MonomialIdeal._from_valid(ideal.dim, points)


def closure_member(ideal: MonomialIdeal, m: ExponentVector) -> bool:
    """Membership of x^m in the integral closure of a nonzero monomial ideal,
    read off the facets of its Newton polyhedron; no LP runs."""
    if ideal.is_zero:
        raise PreconditionError("closure membership needs a nonzero ideal")
    point = as_exponent_vector(m, ideal.dim)
    return _satisfies_facets(_facets(ideal.dim, ideal.gens[::-1]), point)
