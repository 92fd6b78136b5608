from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from closure_lab.errors import DimensionMismatchError, PreconditionError
from closure_lab.groebner import buchberger
from closure_lab.polynomials import (
    GREVLEX,
    LEX,
    Polynomial,
    exact_quotient,
    normal_form,
    term_order,
)
from helpers import (
    random_nonzero_polynomial,
    random_polynomial,
    reference_normal_form,
    rows_reproduce_basis,
    sheared_general_pair,
)


def P(dim, terms):
    return Polynomial(dim, {e: Fraction(c) for e, c in terms.items()})


def test_zero_coefficients_are_dropped():
    poly = P(2, {(1, 0): 0, (0, 1): 2})
    assert poly.terms == {(0, 1): Fraction(2)}
    assert P(2, {(1, 0): 0}).is_zero


def test_dimension_checks():
    with pytest.raises(DimensionMismatchError):
        Polynomial(2, {(1, 0, 0): Fraction(1)})
    with pytest.raises(DimensionMismatchError):
        P(2, {(1, 0): 1}) + Polynomial(3, {(0, 0, 0): Fraction(1)})
    with pytest.raises(PreconditionError):
        Polynomial(2, {(-1, 0): Fraction(1)})


def test_grevlex_prefers_higher_degree_then_reverse_tail():
    x = Polynomial.variable(2, 0)
    y = Polynomial.variable(2, 1)
    assert (x + y).leading_term(GREVLEX)[0] == (1, 0)
    f = x * x + x * y * y
    assert f.leading_term(GREVLEX)[0] == (1, 2)
    # same degree: x^2 beats x*y beats y^2
    g = P(2, {(2, 0): 1, (1, 1): 1, (0, 2): 1})
    ordered = [e for e, _ in g.sorted_terms(GREVLEX)]
    assert ordered == [(2, 0), (1, 1), (0, 2)]


def test_lex_ignores_degree():
    f = P(2, {(1, 0): 1, (0, 5): 1})
    assert f.leading_term(LEX)[0] == (1, 0)
    assert f.leading_term(GREVLEX)[0] == (0, 5)


def test_term_order_lookup():
    assert term_order("lex") == LEX
    with pytest.raises(PreconditionError):
        term_order("weird")


def test_arithmetic_basics():
    x = Polynomial.variable(2, 0)
    y = Polynomial.variable(2, 1)
    assert (x + y) * (x - y) == x * x - y * y
    assert (x + y) ** 2 == x * x + 2 * x * y + y * y
    assert (x - x).is_zero
    assert x ** 0 == Polynomial.one(2)
    assert x.scale(Fraction(3, 2)).terms == {(1, 0): Fraction(3, 2)}


def test_division_worked_examples():
    x = Polynomial.variable(2, 0)
    y = Polynomial.variable(2, 1)
    r, q = normal_form(x * x * y, [x * x], GREVLEX)
    assert r.is_zero and q == [y]
    r, q = normal_form(x * x - y * y, [x - y], GREVLEX)
    assert r.is_zero and q == [x + y]
    r, q = normal_form(y, [x], GREVLEX)
    assert r == y and q == [Polynomial.zero(2)]


def test_division_rejects_zero_divisor():
    with pytest.raises(PreconditionError):
        normal_form(Polynomial.one(2), [Polynomial.zero(2)], GREVLEX)


def test_exact_quotient():
    x = Polynomial.variable(2, 0)
    y = Polynomial.variable(2, 1)
    product = (x + y) * (x * x - y)
    assert exact_quotient(product, x + y) == x * x - y
    with pytest.raises(PreconditionError):
        exact_quotient(x + Polynomial.one(2), y)


@given(st.integers(0, 10_000))
def test_division_identity_on_random_inputs(seed):
    rng = random.Random(seed)
    dim = rng.randint(1, 3)
    f = random_polynomial(rng, dim)
    divisors = [random_nonzero_polynomial(rng, dim) for _ in range(rng.randint(1, 3))]
    order = GREVLEX if rng.random() < 0.7 else LEX
    remainder, quotients = normal_form(f, divisors, order)
    total = remainder
    for quotient, divisor in zip(quotients, divisors):
        total += quotient * divisor
    assert total == f
    leads = [g.leading_term(order)[0] for g in divisors]
    for exps in remainder.terms:
        for lead in leads:
            assert not all(a <= b for a, b in zip(lead, exps))


def assert_same_division(f, divisors, order):
    remainder, quotients = normal_form(f, divisors, order)
    expected_remainder, expected_quotients = reference_normal_form(f, divisors, order)
    assert remainder == expected_remainder
    assert len(quotients) == len(expected_quotients)
    for quotient, expected in zip(quotients, expected_quotients):
        assert quotient == expected


@given(
    st.integers(0, 10**6),
    st.integers(1, 3),
    st.integers(1, 3),
    st.sampled_from((GREVLEX, LEX)),
)
@settings(deadline=None)
def test_division_matches_reference_on_random_inputs(seed, dim, count, order):
    rng = random.Random(seed)
    f = random_polynomial(rng, dim, max_terms=6)
    divisors = [random_nonzero_polynomial(rng, dim) for _ in range(count)]
    assert_same_division(f, divisors, order)


def test_division_matches_reference_on_sheared_pairs():
    # Dividends are products of two generators of I; divisors are I's own
    # generators (remainders mostly nonzero) and I's reduced Groebner basis
    # (computed with the division under test, so its lifted rows are checked).
    for seed in range(20):
        rng = random.Random(seed)
        j_poly, i_poly = sheared_general_pair(rng, rng.choice((1, 2)), rng.random() < 0.5)
        for order in (GREVLEX, LEX):
            gb = buchberger(i_poly.gens, order)
            assert rows_reproduce_basis(gb)
            for g in i_poly.gens:
                for h in j_poly.gens:
                    assert_same_division(g * h, i_poly.gens, order)
                    assert_same_division(g * h, gb.basis, order)


def assert_valid_terms(poly):
    assert type(poly.terms) is dict
    for exps, coeff in poly.terms.items():
        assert type(exps) is tuple and len(exps) == poly.dim
        assert all(type(e) is int and e >= 0 for e in exps)
        assert type(coeff) is Fraction and coeff != 0
    assert poly == Polynomial(poly.dim, poly.terms)


@given(st.integers(0, 10**6), st.integers(1, 3))
@settings(max_examples=60, deadline=None)
def test_arithmetic_results_keep_the_constructor_invariant(seed, dim):
    rng = random.Random(seed)
    pool = [random_polynomial(rng, dim, max_terms=3, max_exp=2) for _ in range(3)]
    pool.append(Polynomial.zero(dim))
    for _ in range(8):
        a, b = rng.choice(pool), rng.choice(pool)
        op = rng.choice(("add", "sub", "mul", "scale", "pow", "normal_form"))
        if op == "add":
            results = [a + b, a + (-a)]
        elif op == "sub":
            results = [a - b, a - a]
        elif op == "mul":
            results = [a * b]
        elif op == "scale":
            results = [a.scale(Fraction(rng.randint(-3, 3), rng.randint(1, 3)))]
        elif op == "pow":
            results = [a ** rng.randint(0, 2)]
        else:
            divisors = [p for p in (b, rng.choice(pool)) if not p.is_zero]
            if not divisors:
                continue
            remainder, quotients = normal_form(a, divisors, rng.choice((GREVLEX, LEX)))
            results = [remainder, *quotients]
        for result in results:
            assert_valid_terms(result)
        # Keep the pool small enough that products stay cheap.
        pool.extend(r for r in results if all(sum(e) <= 8 for e in r.terms) and len(r.terms) <= 12)


def test_constructor_still_rejects_bad_exponents():
    with pytest.raises(DimensionMismatchError):
        Polynomial(2, {(1, 0, 0): Fraction(0)})
    with pytest.raises(PreconditionError):
        Polynomial(2, {(-1, 0): Fraction(0)})
    with pytest.raises(PreconditionError):
        Polynomial(0)
    assert Polynomial(2, {(True, 2.0): 3}).terms == {(1, 2): Fraction(3)}
