from __future__ import annotations

import random
import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

from closure_lab import simplex
from closure_lab.errors import (
    DimensionMismatchError,
    InstanceTooLargeError,
    PreconditionError,
)
from closure_lab.config import DEFAULT_BOX_POINT_CAP
from closure_lab.integrality import (
    NO,
    YES,
    is_integral_element,
    is_integral_ideal,
    monomial_certificate,
)
from closure_lab.monomials import (
    MonomialIdeal,
    ideal_contains,
    ideal_power,
    ideal_sum,
    minimalize,
    unit_ideal,
    zero_ideal,
)
from closure_lab.lab import random_monomial_ideal, uniform_exponents
from closure_lab.newton import (
    NewtonPolyhedron,
    _facets,
    closure,
    closure_member,
    polyhedron_of,
)
from closure_lab.polynomials import Polynomial
from helpers import box_scan_closure, mono, scaling_closure_member


def test_member_midpoint():
    poly = NewtonPolyhedron(2, [(2, 0), (0, 2)])
    member, cert = poly.member((1, 1))
    assert member
    assert cert.lambdas == (Fraction(1, 2), Fraction(1, 2))
    assert cert.satisfies(poly.vertices, (1, 1))


def test_member_infeasible():
    poly = NewtonPolyhedron(2, [(2, 0), (0, 2)])
    member, cert = poly.member((1, 0))
    assert not member and cert is None
    # a failed query must not change the answers to later ones
    assert poly.member((2, 0))[0]
    assert not poly.member((0, 1))[0]


def test_member_orthant_translation():
    poly = NewtonPolyhedron(2, [(1, 0)])
    member, cert = poly.member((1, 5))
    assert member
    assert cert.lambdas == (Fraction(1),)


def test_member_dimension_mismatch():
    poly = NewtonPolyhedron(2, [(1, 0)])
    with pytest.raises(DimensionMismatchError):
        poly.member((1, 0, 0))


def test_polyhedron_needs_vertices():
    with pytest.raises(PreconditionError):
        NewtonPolyhedron(2, [])
    with pytest.raises(PreconditionError):
        polyhedron_of(zero_ideal(2))


def test_membership_invariant_under_dominated_vertices():
    lean = NewtonPolyhedron(2, [(2, 0), (0, 2)])
    fat = NewtonPolyhedron(2, [(2, 0), (0, 2), (3, 1)])
    for point in [(i, j) for i in range(4) for j in range(4)]:
        assert lean.member(point)[0] == fat.member(point)[0]
    # Three variables with dominated and repeated vertices: double description
    # then runs over redundant rows, and the LP is the independent oracle.
    rng = random.Random(9)
    for _ in range(30):
        ideal = random_monomial_ideal(rng, 3, max_gens=4, max_exp=4)
        vertices = list(ideal.gens) + [rng.choice(ideal.gens)]
        vertices += [
            tuple(c + rng.randint(0, 2) for c in rng.choice(ideal.gens)) for _ in range(3)
        ]
        fat = NewtonPolyhedron(3, vertices)
        assert _facets(3, fat.vertices) == _facets(3, ideal.gens)
        for _ in range(20):
            point = tuple(rng.randint(0, 5) for _ in range(3))
            feasible = simplex.dominating_combination(fat.vertices, point)
            expected = isinstance(feasible, simplex.Feasible)
            assert fat.member(point)[0] == polyhedron_of(ideal).member(point)[0] == expected


def test_closure_worked_examples():
    assert closure(mono(2, (2, 0), (0, 2)), n=1).gens == ((2, 0), (1, 1), (0, 2))
    assert closure(mono(2, (1, 0)), n=1).gens == ((1, 0),)
    assert closure(mono(2, (3, 0), (0, 3)), n=1).gens == ((3, 0), (2, 1), (1, 2), (0, 3))


def test_closure_of_zero_and_unit():
    assert closure(zero_ideal(2), n=1).is_zero
    assert closure(unit_ideal(2), n=1).is_unit


def test_closure_box_cap():
    # the cap counts every prefix of the box, x-exponents 0..9 here
    ideal = mono(2, (9, 0), (0, 9))
    assert len(closure(ideal, box_point_cap=10, n=1).gens) == 10
    with pytest.raises(InstanceTooLargeError, match="10 prefixes over the first 1"):
        closure(ideal, box_point_cap=9, n=1)
    # the walk ends the rows x = 1 and x = 2 where z reaches 0, so it visits
    # 6 of the 3 * 3 prefixes, but the cap still counts all 9
    ideal = mono(3, (2, 0, 0), (0, 2, 0), (0, 0, 2))
    assert len(closure(ideal, box_point_cap=9, n=1).gens) == 6
    with pytest.raises(
        InstanceTooLargeError,
        match=r"^closure box has 9 prefixes over the first 2 coordinates, cap is 8"
        r" \(box_point_cap\)$",
    ):
        closure(ideal, box_point_cap=8, n=1)


def test_closure_of_negative_power_is_refused():
    with pytest.raises(PreconditionError):
        closure(mono(2, (2, 0), (0, 2)), DEFAULT_BOX_POINT_CAP, n=-1)


def test_closure_of_power_matches_closure_of_built_power_on_seeded_sample():
    rng = random.Random(1_963)
    cases = [(zero_ideal(2), 0), (zero_ideal(2), 2), (unit_ideal(3), 3)]
    for _ in range(200):
        dim = rng.choice((2, 3, 4))
        ideal = random_monomial_ideal(rng, dim, max_gens=5, max_exp=5)
        cases.append((ideal, rng.randint(0, 4 if dim < 4 else 3)))
    wider = 0  # cases where n * bounds(J) exceeds the bounds of J^n
    for ideal, n in cases:
        power = ideal_power(ideal, n)
        expected = closure(power, DEFAULT_BOX_POINT_CAP, n=1)
        assert closure(ideal, DEFAULT_BOX_POINT_CAP, n=n) == expected, (ideal, n)
        if n and not ideal.is_zero:
            wider += any(
                n * max(g[j] for g in ideal.gens) > max(g[j] for g in power.gens)
                for j in range(ideal.dim)
            )
    assert wider >= 1


def test_one_double_description_per_ideal():
    ideal = mono(3, (3, 0, 1), (0, 4, 0), (1, 1, 2), (2, 0, 2))
    closure.cache_clear()
    _facets.cache_clear()
    uniform_exponents(ideal, 4)
    assert _facets.cache_info().misses == 1
    # a facet verdict and then a certificate on the same polyhedron
    _facets.cache_clear()
    assert closure_member(ideal, (1, 2, 1))
    assert monomial_certificate((1, 2, 1), ideal).verify(ideal)
    assert _facets.cache_info().misses == 1


@pytest.mark.parametrize(
    "dim, gens, expected",
    [
        (2, [(2, 0), (0, 2)], {((1, 1), 2), ((1, 0), 0), ((0, 1), 0)}),
        (1, [(3,)], {((1,), 3)}),
        (
            3,
            [(2, 0, 0), (0, 2, 0), (0, 0, 2)],
            {((1, 0, 0), 0), ((0, 1, 0), 0), ((0, 0, 1), 0), ((1, 1, 1), 2)},
        ),
        (3, [(0, 0, 0)], {((1, 0, 0), 0), ((0, 1, 0), 0), ((0, 0, 1), 0)}),
    ],
)
def test_facets_worked_examples(dim, gens, expected):
    facets = _facets(dim, mono(dim, *gens).gens)
    assert len(facets) == len(expected)
    assert set(facets) == expected


def test_closure_member_witness_element():
    # x_i^(d-1) x_d over (x_i^d, x_d^d), embedded in three variables, d = 3
    ideal = mono(3, (3, 0, 0), (0, 0, 3))
    assert closure_member(ideal, (2, 0, 1))
    assert closure_member(mono(3, (3, 0, 0), (0, 3, 0), (0, 0, 3)), (2, 2, 2))
    assert not closure_member(mono(2, (2, 0), (0, 2)), (0, 1))


def test_closure_member_needs_nonzero_ideal():
    with pytest.raises(PreconditionError):
        closure_member(zero_ideal(2), (1, 1))


vectors2 = st.tuples(st.integers(0, 5), st.integers(0, 5))
ideals2 = st.lists(vectors2, min_size=1, max_size=4).map(lambda vs: minimalize(2, vs))
vectors3 = st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4))
ideals3 = st.lists(vectors3, min_size=1, max_size=4).map(lambda vs: minimalize(3, vs))


def nonzero(ideal):
    return not ideal.is_zero


@given(ideals2.filter(nonzero))
@settings(max_examples=40, deadline=None)
def test_closure_is_extensive_and_idempotent(ideal):
    closed = closure(ideal, n=1)
    assert ideal_contains(closed, ideal)
    assert closure(closed, n=1) == closed


@given(ideals2.filter(nonzero), ideals2.filter(nonzero))
@settings(max_examples=40, deadline=None)
def test_closure_is_monotone(a, b):
    bigger = ideal_sum(a, b)  # a is contained in bigger by construction
    assert ideal_contains(closure(bigger, n=1), closure(a, n=1))


@given(ideals2.filter(nonzero), st.integers(1, 4))
@settings(max_examples=25, deadline=None)
def test_containment_chain(ideal, n):
    closed = closure(ideal, n=1)
    plain_power = ideal_power(ideal, n)
    assert ideal_contains(ideal_power(closed, n), plain_power)
    assert ideal_contains(closure(plain_power, n=1), ideal_power(closed, n))


@given(ideals3.filter(nonzero))
@settings(max_examples=20, deadline=None)
def test_membership_agrees_with_scaling_oracle_inside_the_box(ideal):
    polyhedron = polyhedron_of(ideal)
    bounds = [max(g[j] for g in ideal.gens) for j in range(3)]
    rng = random.Random(11)
    points = [
        tuple(rng.randint(0, bounds[j]) for j in range(3)) for _ in range(8)
    ]
    for point in points:
        member, cert = polyhedron.member(point)
        if member:
            scale = lcm(*(lam.denominator for lam in cert.lambdas))
            target = tuple(scale * c for c in point)
            power = ideal_power(ideal, scale)
            assert any(
                all(g[i] <= target[i] for i in range(3)) for g in power.gens
            )
        else:
            assert not scaling_closure_member(ideal, point, n_limit=6)


@given(ideals3.filter(nonzero), vectors3)
@settings(max_examples=40, deadline=None)
def test_certificates_are_sound(ideal, point):
    polyhedron = polyhedron_of(ideal)
    member, cert = polyhedron.member(point)
    if member:
        assert cert is not None
        assert cert.satisfies(polyhedron.vertices, point)
    else:
        assert cert is None


ideals_any = st.integers(1, 4).flatmap(
    lambda dim: st.lists(
        st.tuples(*[st.integers(0, 6 - dim)] * dim), min_size=1, max_size=4
    ).map(lambda vs: minimalize(dim, vs))
)


def dot(weights, point):
    return sum(w * c for w, c in zip(weights, point))


def rank(rows):
    rows = [[Fraction(c) for c in row] for row in rows]
    found = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(found, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[found], rows[pivot] = rows[pivot], rows[found]
        for r in range(found + 1, len(rows)):
            factor = rows[r][col] / rows[found][col]
            rows[r] = [a - factor * b for a, b in zip(rows[r], rows[found])]
        found += 1
    return found


def assert_facets_describe_the_polyhedron(ideal, rng):
    facets = _facets(ideal.dim, ideal.gens)
    assert len(set(facets)) == len(facets)
    for weights, threshold in facets:
        assert all(w >= 0 for w in weights)
        assert all(dot(weights, v) >= threshold for v in ideal.gens)
        assert any(dot(weights, v) == threshold for v in ideal.gens)
        # a facet, not a lower-dimensional face: the tight vertices and the
        # recession directions it does not weigh span a hyperplane
        tight = [tuple(v) + (1,) for v in ideal.gens if dot(weights, v) == threshold]
        tight += [
            tuple(int(k == j) for k in range(ideal.dim)) + (0,)
            for j in range(ideal.dim)
            if weights[j] == 0
        ]
        assert rank(tight) == ideal.dim
    # the LP is the independent oracle: member itself reads the facets
    bounds = [max(g[j] for g in ideal.gens) + 1 for j in range(ideal.dim)]
    for _ in range(10):
        point = tuple(rng.randint(0, b) for b in bounds)
        inside = all(dot(weights, point) >= threshold for weights, threshold in facets)
        feasible = simplex.dominating_combination(ideal.gens, point)
        assert inside == isinstance(feasible, simplex.Feasible)


@given(ideals_any, st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_facets_describe_the_polyhedron(ideal, rng):
    assert_facets_describe_the_polyhedron(ideal, rng)


def test_facets_describe_the_polyhedron_on_seeded_sample():
    # many generators in four variables: degenerate faces that need the
    # adjacency test of the double description
    rng = random.Random(3)
    for _ in range(300):
        ideal = random_monomial_ideal(rng, 4, max_gens=8, max_exp=6)
        if rng.random() < 0.3:
            ideal = ideal_power(ideal, 2)
        assert_facets_describe_the_polyhedron(ideal, rng)


def test_no_verdict_runs_the_lp(monkeypatch):
    def refuse(vertices, point):
        raise AssertionError("a membership verdict ran the LP")

    monkeypatch.setattr(simplex, "dominating_combination", refuse)
    rng = random.Random(17)
    outside = 0
    for _ in range(60):
        dim = rng.choice((2, 3))
        ideal = random_monomial_ideal(rng, dim, max_gens=4, max_exp=5)
        bounds = [max(g[j] for g in ideal.gens) for j in range(dim)]
        for _ in range(10):
            point = tuple(rng.randint(0, b) for b in bounds)
            verdict = YES if closure_member(ideal, point) else NO
            assert is_integral_ideal(ideal, MonomialIdeal(dim, [point])) == verdict
            assert is_integral_element(Polynomial.monomial(dim, point), ideal) == verdict
            if verdict == NO:
                outside += 1
                assert polyhedron_of(ideal).member(point) == (False, None)
    assert outside >= 100


def test_closures_check_themselves_on_seeded_sample():
    # every generator carries re-checkable weights, and lowering any of its
    # exponents breaks an integer inequality that holds at every vertex
    rng = random.Random(23)
    for _ in range(60):
        ideal = random_monomial_ideal(rng, rng.choice((2, 3)), max_gens=4, max_exp=5)
        polyhedron = polyhedron_of(ideal)
        facets = _facets(ideal.dim, ideal.gens)
        for g in closure(ideal, n=1).gens:
            member, cert = polyhedron.member(g)
            assert member and cert.satisfies(polyhedron.vertices, g)
            for j in range(ideal.dim):
                if g[j]:
                    lower = g[:j] + (g[j] - 1,) + g[j + 1 :]
                    weights, threshold = next(
                        (w, b) for w, b in facets if dot(w, lower) < b
                    )
                    assert all(dot(weights, v) >= threshold for v in ideal.gens)


@given(ideals_any, st.integers(1, 3))
@settings(max_examples=100, deadline=None)
def test_closure_agrees_with_box_scan(ideal, n):
    power = ideal_power(ideal, n)
    assert closure(power, n=1) == box_scan_closure(power)


def test_closure_agrees_with_box_scan_on_seeded_sample():
    rng = random.Random(20_240)
    # every generator has positive exponents on all but the last coordinate,
    # so each row starts past a wall, and a row with a zero entry is ruled out
    ideals = [mono(3, (2, 1, 1), (1, 2, 1)), mono(4, (1, 2, 1, 0), (2, 1, 1, 3))]
    for _ in range(20):
        dim = rng.choice((3, 4))
        gens = [
            tuple(rng.randint(1, 3) for _ in range(dim - 1)) + (rng.randint(0, 3),)
            for _ in range(rng.randint(1, 3))
        ]
        ideals.append(MonomialIdeal(dim, gens))
    for _ in range(200):
        dim = rng.choice((1, 2, 3, 4))
        max_exp = 5 if dim < 4 else 2
        ideals.append(random_monomial_ideal(rng, dim, max_gens=4, max_exp=max_exp))
    for ideal in ideals:
        for power in (ideal, ideal_power(ideal, 2), ideal_power(ideal, 3)):
            assert closure(power, n=1) == box_scan_closure(power), power


def test_shared_inputs_give_sequential_answers_across_threads():
    rng = random.Random(5)
    ideals = [
        minimalize(3, [tuple(rng.randint(0, 4) for _ in range(3)) for _ in range(3)])
        for _ in range(12)
    ]
    ideals = [ideal for ideal in ideals if not ideal.is_zero]
    polyhedra = [polyhedron_of(ideal) for ideal in ideals]
    points = [(i, j, k) for i in range(4) for j in range(4) for k in range(4)]

    def answers():
        closures = [closure(ideal, n=1).gens for ideal in ideals]
        members = [[poly.member(point)[0] for point in points] for poly in polyhedra]
        return closures, members

    closure.cache_clear()
    _facets.cache_clear()
    expected = answers()
    closure.cache_clear()
    _facets.cache_clear()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(answers) for _ in range(4)]
            results = [future.result(timeout=120) for future in futures]
    finally:
        sys.setswitchinterval(interval)
    assert all(result == expected for result in results)
