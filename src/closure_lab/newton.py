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
double description in integer arithmetic and scaled by n for J^n. Write
f(a') for the least last coordinate over a prefix a' (the first d - 1
coordinates), infinite where no point lies over a': a maximum of integer
ceilings, non-increasing in each coordinate of a'. Every minimal generator
is a fibre minimum (a', f(a')), and a fibre minimum is a minimal generator
exactly when f(a' - e_j) > f(a') for every j with a'_j > 0.

The walk takes one row of the box at a time: the first d - 2 coordinates
are fixed and t, coordinate d - 1, rises. The walls (facets without the
last coordinate) give the row's first t, or rule the whole row out. Each
facet's sum over the row is taken once, and t adds its weight on t at each
step. The row ends where f reaches 0, since every later prefix is
dominated. The test for j = d - 1 compares with the previous step of the
row; only points that pass it have the other j tested, on the facets'
slacks. The kept points are exactly the minimal generators, in ascending
lexicographic order.

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
from operator import mul
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
    its prefix, so the row walk of the module docstring finds them all and
    keeps nothing else. They come out minimal and in ascending
    lexicographic order, so the ideal stores them as walked, with no second
    minimalization. ``box_point_cap`` bounds the prefixes of the box,
    whether or not the walk visits them, so a cap exits at the same inputs
    whatever the walk skips. The powers of (0) are their own closures, as
    the ambient ring is reduced.
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
            f" coordinates, cap is {box_point_cap} (box_point_cap)"
        )
    if ideal.dim == 1:  # J = (x^a), whose power (x^(n a)) is its own closure
        return MonomialIdeal._from_minimal(1, [bounds])
    # A facet with threshold <= 0 holds on the whole orthant, as w >= 0.
    # Each kept facet is split into its weights on the row (the first d - 2
    # coordinates), on t (coordinate d - 1) and on the last coordinate.
    facets = [
        (weights[:-2], weights[-2], weights[-1], n * threshold)
        for weights, threshold in _facets(ideal.dim, ideal.gens[::-1])
        if threshold > 0
    ]
    top = bounds[-2]
    points = []
    for row in product(*(range(b + 1) for b in bounds[:-2])):
        # need = b - w_row . row: the facet holds at (row, t, c) exactly when
        # step * t + last * c >= need.
        needs = [
            (threshold - sum(map(mul, weights, row)), step, last, weights)
            for weights, step, last, threshold in facets
        ]
        # The walls (last = 0) hold from some t on, or nowhere on the row.
        start = 0
        for need, step, last, _ in needs:
            if not last and need > 0:
                start = max(start, -(-need // step)) if step else top + 1
        if start > top:
            continue
        # f(row, t) is 0 or the largest ceil((need - step * t) / last) over
        # the lifts (last > 0), each ceiling taken as a floor of its bias
        # need + last - 1; a lift at or below 0 at the start stays there.
        lifts = [
            (need + last - 1, step, last)
            for need, step, last, _ in needs
            if last and need > step * start
        ]
        previous = None  # f(row, t - 1), None where (row, t - 1) is outside
        for t in range(start, top + 1):
            least = max(
                0, max([(bias - step * t) // last for bias, step, last in lifts], default=0)
            )
            if (previous is None or least < previous) and (
                not any(row) or _row_minimal(needs, row, t, least)
            ):
                points.append(row + (t, least))
            if not least:
                break  # every later point of the row is a multiple of this one
            previous = least
    return MonomialIdeal._from_minimal(ideal.dim, points)


def _row_minimal(needs: Sequence[tuple], row: ExponentVector, t: int, least: int) -> bool:
    """Whether f(row - e_j, t) > least for every j with row_j > 0, that is,
    (row - e_j, t, least) leaves the polyhedron: some facet's slack at
    (row, t, least) is below its weight w_j. Facets with threshold <= 0 keep
    a slack of at least w_j there, so ``needs`` omits them."""
    return all(
        any(
            step * t + last * least - need < weights[j]
            for need, step, last, weights in needs
        )
        for j, c in enumerate(row)
        if c
    )


def closure_member(ideal: MonomialIdeal, m: ExponentVector) -> bool:
    """Membership of x^m in the integral closure of a nonzero monomial ideal,
    read off the facets of its Newton polyhedron; no LP runs."""
    if ideal.is_zero:
        raise PreconditionError("closure membership needs a nonzero ideal")
    point = as_exponent_vector(m, ideal.dim)
    return _satisfies_facets(_facets(ideal.dim, ideal.gens[::-1]), point)
