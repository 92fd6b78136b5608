from __future__ import annotations

import random
import threading
from dataclasses import fields
from fractions import Fraction
from functools import reduce
from itertools import combinations_with_replacement, product
from operator import mul
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from closure_lab import groebner
from closure_lab.config import DEFAULT_SPAIR_CAP
from closure_lab.errors import InstanceTooLargeError, PreconditionError
from closure_lab.groebner import (
    PolyIdeal,
    buchberger,
    in_poly_ideal,
    poly_ideal_member,
    poly_ideal_power,
    poly_ideal_product,
    poly_ideal_sum,
    to_poly_ideal,
    unit_poly_ideal,
)
from closure_lab.lab import random_monomial_ideal
from closure_lab.monomials import contains_monomial
from closure_lab.parsing import parse_polynomial
from closure_lab.polynomials import GREVLEX, LEX, Polynomial
from closure_lab.serialize import load_ideal
from helpers import (
    basis_rows,
    poly_ideal_equal,
    random_nonzero_polynomial,
    reference_buchberger,
    rows_reproduce_basis,
    sheared_general_pair,
)


def P(text, variables=("x", "y")):
    return parse_polynomial(text, list(variables))


def test_buchberger_worked_examples():
    gb = buchberger((P("x^2"), P("x*y")))
    assert [g for g in gb.basis] == [P("x^2"), P("x*y")]
    gb = buchberger((P("x - y"),))
    assert list(gb.basis) == [P("x - y")]


def test_buchberger_monomial_ideal_reduces_to_minimal_generators():
    gb = buchberger((P("x^2"), P("x^4"), P("x*y"), P("x^2*y^3")))
    assert list(gb.basis) == [P("x^2"), P("x*y")]


def test_buchberger_rejects_zero_generator():
    with pytest.raises(PreconditionError):
        buchberger((P("x"), Polynomial.zero(2)))


def test_buchberger_spair_cap():
    gens = tuple(P(f"x^{i} - y^{i + 1}") for i in range(1, 5))
    with pytest.raises(InstanceTooLargeError):
        buchberger(gens, GREVLEX, spair_cap=1)


def test_cofactor_rows_reproduce_the_basis():
    gens = (P("x^2 - y"), P("x*y - 1"), P("y^3 + x"))
    gb = buchberger(gens)
    assert rows_reproduce_basis(gb)


def test_membership_worked_examples():
    ideal = PolyIdeal(2, (P("x^2"), P("y^2")))
    quotients = poly_ideal_member(P("x^2*y^2"), ideal)
    assert quotients is not None
    total = Polynomial.zero(2)
    for quotient, generator in zip(quotients, ideal.gens):
        total += quotient * generator
    assert total == P("x^2*y^2")
    assert poly_ideal_member(P("x*y"), ideal) is None
    assert poly_ideal_member(Polynomial.zero(2), ideal) == (Polynomial.zero(2),) * 2


def test_membership_lifts_are_exact_for_general_ideals():
    ideal = PolyIdeal(2, (P("x^2 - y"), P("x*y - 1")))
    f = P("x^3 - x - y^2 + x*y^3")
    quotients = poly_ideal_member(f, ideal)
    if quotients is not None:
        total = Polynomial.zero(2)
        for quotient, generator in zip(quotients, ideal.gens):
            total += quotient * generator
        assert total == f


def test_equality_worked_examples():
    big = PolyIdeal(2, (P("x^2"), P("x*y"), P("y^2")))
    small = PolyIdeal(2, (P("x^2"), P("y^2")))
    assert poly_ideal_equal(poly_ideal_power(big, 2), poly_ideal_product(small, big))
    assert not poly_ideal_equal(PolyIdeal(2, (P("x"),)), PolyIdeal(2, (P("x^2"),)))
    shuffled = PolyIdeal(2, (P("y^2"), P("x^2"), P("x*y")))
    assert poly_ideal_equal(big, shuffled)


def test_product_power_sum_conventions():
    a = PolyIdeal(2, (P("x + y"),))
    b = PolyIdeal(2, (P("x - y"),))
    assert poly_ideal_product(a, b).gens == (P("x^2 - y^2"),)
    assert poly_ideal_power(a, 0).gens == (Polynomial.one(2),)
    assert poly_ideal_sum(PolyIdeal(2, (P("x^2"), P("y^2"))), PolyIdeal(2, (P("x*y"),))).gens == (
        P("x^2"),
        P("y^2"),
        P("x*y"),
    )
    assert unit_poly_ideal(2).gens == (Polynomial.one(2),)


def test_reduced_basis_is_invariant_under_generator_shuffles():
    rng = random.Random(5)
    gens = [P("x^2 + y"), P("x*y - y"), P("y^2 - x"), P("x^3")]
    reference = buchberger(tuple(gens)).basis
    for _ in range(6):
        rng.shuffle(gens)
        assert buchberger(tuple(gens)).basis == reference


@given(st.integers(0, 2_000))
@settings(deadline=None)
def test_monomial_membership_agrees_with_divisibility(seed):
    rng = random.Random(seed)
    dim = rng.choice((2, 3))
    ideal = random_monomial_ideal(rng, dim, min_gens=1, max_gens=4, max_exp=4)
    poly_ideal = to_poly_ideal(ideal)
    exps = tuple(rng.randint(0, 6) for _ in range(dim))
    monomial = Polynomial.monomial(dim, exps)
    assert (poly_ideal_member(monomial, poly_ideal) is not None) == contains_monomial(ideal, exps)


@given(st.integers(0, 2_000))
@settings(max_examples=40, deadline=None)
def test_membership_is_order_independent(seed):
    rng = random.Random(seed)
    dim = rng.randint(1, 2)
    gens = tuple(random_nonzero_polynomial(rng, dim, max_terms=2, max_exp=2) for _ in range(2))
    f = random_nonzero_polynomial(rng, dim, max_terms=3, max_exp=3)
    grevlex_ideal = PolyIdeal(dim, gens)
    lex_ideal = PolyIdeal(dim, gens)
    assert (poly_ideal_member(f, grevlex_ideal, GREVLEX) is None) == (
        poly_ideal_member(f, lex_ideal, LEX) is None
    )


def test_groebner_cache_is_per_order():
    ideal = PolyIdeal(2, (P("x^2 - y"),))
    first = ideal.groebner(GREVLEX)
    assert ideal.groebner(GREVLEX) is first
    assert ideal.groebner(LEX) is not first


def test_spair_cap_holds_after_a_basis_was_computed_without_it():
    gens = tuple(P(text, ("x", "y", "z")) for text in ("x^2 - y*z", "y^2 - x*z", "z^2 - x*y"))
    with pytest.raises(InstanceTooLargeError):
        PolyIdeal(3, gens).groebner(GREVLEX, spair_cap=1)
    ideal = PolyIdeal(3, gens)
    ideal.groebner(GREVLEX)
    with pytest.raises(InstanceTooLargeError):
        ideal.groebner(GREVLEX, spair_cap=1)


def test_equal_ideals_share_one_basis():
    a = PolyIdeal(2, (P("x^2 - y"), P("x*y - 1")))
    b = PolyIdeal(2, (P("x^2 - y"), P("x*y - 1")))
    assert a is not b
    assert a.groebner(GREVLEX) is b.groebner(GREVLEX)
    assert a == b and hash(a) == hash(b)


def _library_buchberger(gens, order, spair_cap):
    gb = buchberger(gens, order, spair_cap)
    return gb.basis, basis_rows(gb)


def _buchberger_outcome(build, gens, order, spair_cap=DEFAULT_SPAIR_CAP):
    """The basis and cofactor rows, or the message of the cap that was hit."""
    try:
        return build(gens, order, spair_cap)
    except InstanceTooLargeError as error:
        return str(error)


@st.composite
def generator_lists(draw):
    dim = draw(st.integers(1, 3))
    exps = st.tuples(*[st.integers(0, 2)] * dim)
    coeffs = st.sampled_from((-2, -1, Fraction(-1, 2), Fraction(1, 3), 1, 2, 3))
    poly = st.dictionaries(exps, coeffs, min_size=1, max_size=3).map(
        lambda terms: Polynomial(dim, terms)
    )
    return draw(st.lists(poly, min_size=1, max_size=4))


@given(generator_lists(), st.sampled_from((GREVLEX, LEX)), st.integers(1, 30))
@settings(deadline=None)
def test_buchberger_matches_the_reference_loop(gens, order, spair_cap):
    # A small S-pair cap bounds the few lex inputs whose coefficients swell,
    # and the cap message pins the queue length or the pairs processed.
    assert _buchberger_outcome(
        _library_buchberger, gens, order, spair_cap
    ) == _buchberger_outcome(reference_buchberger, gens, order, spair_cap)


def test_buchberger_matches_the_reference_loop_on_reduction_products():
    # The generator lists of J * I^k that reduction_number hands to buchberger,
    # each grown from the one below as (J * I^(k-1)) * I; the small caps stop
    # both loops part way, where the queue lengths differ if either loop
    # keeps a pair the other prunes.
    for seed in range(25):
        rng = random.Random(seed)
        j_ideal, i_ideal = sheared_general_pair(
            rng, extras=rng.randint(1, 2), repeat=seed % 2 == 0
        )
        j_times_i_k = j_ideal
        for k in range(3):
            if k:
                j_times_i_k = poly_ideal_product(j_times_i_k, i_ideal)
            gens = j_times_i_k.gens
            for order, spair_cap in product((GREVLEX, LEX), (1, 6, DEFAULT_SPAIR_CAP)):
                assert _buchberger_outcome(
                    _library_buchberger, gens, order, spair_cap
                ) == _buchberger_outcome(
                    reference_buchberger, gens, order, spair_cap
                ), (seed, k, order, spair_cap)


def test_threads_lift_over_one_shared_basis_alike():
    j_ideal, i_ideal = sheared_general_pair(random.Random(3), extras=2)
    gens = poly_ideal_product(j_ideal, i_ideal).gens
    gb = buchberger(gens, GREVLEX)
    barrier = threading.Barrier(4)
    seen = []

    def read():
        barrier.wait()
        seen.append(basis_rows(gb))

    threads = [threading.Thread(target=read) for _ in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    expected = reference_buchberger(gens, GREVLEX)[1]
    assert len(seen) == 4 and all(rows == expected for rows in seen)
    assert rows_reproduce_basis(gb)


def _lift_cases(seed):
    """Generator lists of J * I for a sheared pair (homogeneous) and of a
    random non-homogeneous ideal."""
    rng = random.Random(seed)
    j_ideal, i_ideal = sheared_general_pair(rng, extras=rng.randint(1, 2), repeat=seed % 2 == 0)
    yield rng, poly_ideal_product(j_ideal, i_ideal).gens
    dim = j_ideal.dim
    yield rng, tuple(
        random_nonzero_polynomial(rng, dim, max_terms=3, max_exp=2) for _ in range(3)
    )


def test_lift_is_the_quotient_combination_of_reference_rows():
    for seed in range(10):
        for rng, gens in _lift_cases(seed):
            for order in (GREVLEX, LEX):
                basis, rows = reference_buchberger(gens, order)
                dim = gens[0].dim
                quotients = [
                    random_nonzero_polynomial(rng, dim, max_terms=2, max_exp=2)
                    if rng.random() < 0.7
                    else Polynomial.zero(dim)
                    for _ in basis
                ]
                expected = [Polynomial.zero(dim)] * len(gens)
                for quotient, row in zip(quotients, rows):
                    expected = [total + quotient * entry for total, entry in zip(expected, row)]
                gb = buchberger(gens, order)
                assert gb.basis == basis, (seed, order)
                assert gb.lift(quotients) == tuple(expected), (seed, order)


def test_zero_element_over_the_zero_ideal_lifts_to_nothing():
    # () is falsy, yet it answers "member": callers test ``is None``.
    assert poly_ideal_member(Polynomial.zero(2), PolyIdeal(2, ())) == ()
    assert buchberger(()).lift([]) == ()


def test_lift_writes_nothing_on_the_basis():
    ideal = PolyIdeal(2, (P("x^2 - y"), P("x*y - 1"), P("y^3 + x")))
    gb = ideal.groebner(GREVLEX)
    assert poly_ideal_member(P("x^3*y - x^2"), ideal) is not None
    basis_rows(gb)
    assert set(vars(gb)) == {f.name for f in fields(gb)}


def test_a_generator_lifts_to_its_unit_vector_with_no_basis(monkeypatch):
    def refuse(*args):
        raise AssertionError("a generator's lift built a basis")

    monkeypatch.setattr(PolyIdeal, "groebner", refuse)
    for seed in range(20):
        rng = random.Random(seed)
        j_ideal, i_ideal = sheared_general_pair(rng, extras=2, repeat=seed % 2 == 0)
        # I's last generator occurs twice, and so do J's when I repeats them
        gens = i_ideal.gens + j_ideal.gens + i_ideal.gens[-1:]
        ideal = PolyIdeal(i_ideal.dim, gens)
        zero, one = Polynomial.zero(ideal.dim), Polynomial.one(ideal.dim)
        for g in gens:
            first = gens.index(g)
            unit = tuple(one if index == first else zero for index in range(len(gens)))
            assert poly_ideal_member(g, ideal) == unit, (seed, g)


def test_a_generator_is_a_member_with_no_basis(monkeypatch):
    def refuse(*args):
        raise AssertionError("a generator's verdict built a basis")

    monkeypatch.setattr(PolyIdeal, "groebner", refuse)
    lex_rows = load_ideal(Path(__file__).resolve().parents[1] / "ideals" / "lex_rows.json").ideal
    ideals = [lex_rows, PolyIdeal(2, (P("x^2 - y"), P("x*y - 1")))]
    for seed in range(10):
        ideals.append(sheared_general_pair(random.Random(seed), extras=2, repeat=False)[1])
    for ideal in ideals:
        for g in ideal.gens:
            for order in (GREVLEX, LEX):
                assert in_poly_ideal(g, ideal, order, spair_cap=1), g


def _verdict_cases(seed):
    """(f, ideal) pairs: sheared pairs give homogeneous ideals and elements
    (non-homogeneous when I's generators absorb x_k * f_1), and random
    polynomials give non-homogeneous ones."""
    rng = random.Random(seed)
    j_ideal, i_ideal = sheared_general_pair(rng, extras=rng.randint(1, 2), repeat=seed % 2 == 0)
    dim = j_ideal.dim
    ideal = poly_ideal_product(j_ideal, i_ideal)
    elements = list(poly_ideal_power(i_ideal, 2).gens) + list(j_ideal.gens)
    elements += [Polynomial.zero(dim), Polynomial.constant(dim, 3)]
    elements.append(Polynomial.variable(dim, 0))  # below every generator's degree
    yield from ((f, ideal) for f in elements)
    gens = tuple(random_nonzero_polynomial(rng, dim, max_terms=3, max_exp=2) for _ in range(2))
    ideal = PolyIdeal(dim, gens)
    for _ in range(4):
        f = random_nonzero_polynomial(rng, dim, max_terms=3, max_exp=3)
        yield f, ideal
        yield f * gens[0] + gens[1], ideal


def test_verdict_matches_the_lift_membership():
    verdicts = set()
    for seed in range(20):
        for f, ideal in _verdict_cases(seed):
            for order in (GREVLEX, LEX):
                verdict = in_poly_ideal(f, ideal, order)
                lift = poly_ideal_member(f, ideal, order)
                assert verdict == (lift is not None), (seed, f, order)
                verdicts.add(verdict)
    assert verdicts == {True, False}


def test_verdict_keeps_every_generator_of_a_non_homogeneous_ideal():
    # x = (x - y^2) + y^2 needs both generators, each of degree 2 > deg(x).
    ideal = PolyIdeal(2, (P("x - y^2"), P("y^2")))
    for order in (GREVLEX, LEX):
        assert in_poly_ideal(P("x"), ideal, order)
        assert in_poly_ideal(P("x*y"), ideal, order)
        assert not in_poly_ideal(P("y"), ideal, order)


def test_verdict_below_every_generator_degree_builds_no_basis(monkeypatch):
    def refuse(*args):
        raise AssertionError("buchberger ran")

    monkeypatch.setattr(groebner, "buchberger", refuse)
    groebner._cached_buchberger.cache_clear()
    ideal = PolyIdeal(2, (P("x^2 - 2*x*y"), P("y^3")))
    assert not in_poly_ideal(P("x + y"), ideal)
    assert not in_poly_ideal(Polynomial.constant(2, 5), ideal)
    assert in_poly_ideal(Polynomial.zero(2), ideal)


def test_lex_verdict_lifts_nothing(monkeypatch):
    # The lex basis of these three generators is small, but its cofactor
    # rows hold tens of thousands of terms with coefficients of hundreds of
    # digits; a verdict must not lift.
    def refuse(*args):
        raise AssertionError("a verdict lifted")

    monkeypatch.setattr(groebner.GroebnerBasis, "lift", refuse)
    ideal = load_ideal(Path(__file__).resolve().parents[1] / "ideals" / "lex_rows.json").ideal
    x = P("x", ("x", "y", "z"))
    assert not in_poly_ideal(x, ideal, LEX)


def test_power_is_repeated_product():
    ideals = [
        PolyIdeal(2, ()),
        PolyIdeal(2, (P("x"), P("x"))),
        PolyIdeal(2, (P("x"), P("y"), P("x*y"))),
    ]
    for seed in range(10):
        ideals.extend(sheared_general_pair(random.Random(seed), extras=2, repeat=seed % 2 == 0))
    for ideal in ideals:
        repeated = unit_poly_ideal(ideal.dim)
        for n in range(5):
            power = poly_ideal_power(ideal, n)
            assert power.gens == repeated.gens, (ideal, n)
            if 1 <= n <= 3:
                # the distinct n-fold products, in first-occurrence order
                combos = combinations_with_replacement(ideal.gens, n)
                products = dict.fromkeys(reduce(mul, combo) for combo in combos)
                assert power.gens == tuple(products), (ideal, n)
            repeated = poly_ideal_product(ideal, repeated)


def test_power_cap_counts_distinct_generators():
    doubled = PolyIdeal(1, (P("x", ("x",)), P("x", ("x",))))
    assert poly_ideal_power(doubled, 3, generator_cap=2).gens == (P("x^3", ("x",)),)
    with pytest.raises(InstanceTooLargeError):
        poly_ideal_power(PolyIdeal(2, (P("x"), P("y"))), 2, generator_cap=2)
