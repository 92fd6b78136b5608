from __future__ import annotations

import random
import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

from closure_lab.errors import (
    DimensionMismatchError,
    InstanceTooLargeError,
    PreconditionError,
)
from closure_lab.monomials import (
    ideal_contains,
    ideal_power,
    ideal_sum,
    minimalize,
    unit_ideal,
    zero_ideal,
)
from closure_lab.newton import (
    NewtonPolyhedron,
    closure,
    closure_member,
    polyhedron_of,
)
from helpers import mono, scaling_closure_member


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


def test_closure_worked_examples():
    assert closure(mono(2, (2, 0), (0, 2))).gens == ((2, 0), (1, 1), (0, 2))
    assert closure(mono(2, (1, 0))).gens == ((1, 0),)
    assert closure(mono(2, (3, 0), (0, 3))).gens == ((3, 0), (2, 1), (1, 2), (0, 3))


def test_closure_of_zero_and_unit():
    assert closure(zero_ideal(2)).is_zero
    assert closure(unit_ideal(2)).is_unit


def test_closure_box_cap():
    with pytest.raises(InstanceTooLargeError):
        closure(mono(2, (9, 0), (0, 9)), box_point_cap=10)


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
    closed = closure(ideal)
    assert ideal_contains(closed, ideal)
    assert closure(closed) == closed


@given(ideals2.filter(nonzero), ideals2.filter(nonzero))
@settings(max_examples=40, deadline=None)
def test_closure_is_monotone(a, b):
    bigger = ideal_sum(a, b)  # a is contained in bigger by construction
    assert ideal_contains(closure(bigger), closure(a))


@given(ideals2.filter(nonzero), st.integers(1, 4))
@settings(max_examples=25, deadline=None)
def test_containment_chain(ideal, n):
    closed = closure(ideal)
    plain_power = ideal_power(ideal, n)
    assert ideal_contains(ideal_power(closed, n), plain_power)
    assert ideal_contains(closure(plain_power), ideal_power(closed, n))


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
        closures = [closure(ideal).gens for ideal in ideals]
        members = [[poly.member(point)[0] for point in points] for poly in polyhedra]
        return closures, members

    closure.cache_clear()
    expected = answers()
    closure.cache_clear()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(answers) for _ in range(4)]
            results = [future.result(timeout=120) for future in futures]
    finally:
        sys.setswitchinterval(interval)
    assert all(result == expected for result in results)
