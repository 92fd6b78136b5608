from __future__ import annotations

import random

import pytest
from hypothesis import given, strategies as st

from closure_lab.errors import (
    DimensionMismatchError,
    InstanceTooLargeError,
    PreconditionError,
)
from closure_lab import monomials
from closure_lab.lab import random_monomial_ideal
from closure_lab.monomials import (
    MonomialIdeal,
    _minimal_vectors,
    contains_monomial,
    ideal_contains,
    ideal_power,
    ideal_product,
    ideal_sum,
    minimalize,
    unit_ideal,
    zero_ideal,
)
from closure_lab.newton import closure
from helpers import (
    brute_contains,
    iterated_product,
    mono,
    reference_ideal_contains,
    reference_ideal_power,
    reference_minimal_vectors,
)


def test_minimalize_drops_divisible_generators():
    assert mono(2, (2, 0), (3, 1), (0, 1)).gens == ((2, 0), (0, 1))


def test_minimalize_empty_input_is_zero_ideal():
    ideal = minimalize(2, [])
    assert ideal.is_zero
    assert ideal.gens == ()


def test_minimalize_deduplicates():
    assert mono(2, (1, 1), (1, 1)).gens == ((1, 1),)


def test_minimalize_rejects_mixed_lengths():
    with pytest.raises(DimensionMismatchError):
        minimalize(2, [(1, 0), (1, 0, 0)])


def test_negative_exponents_rejected():
    with pytest.raises(PreconditionError):
        minimalize(2, [(1, -1)])


def test_unit_and_zero_flags():
    assert unit_ideal(3).is_unit
    assert zero_ideal(3).is_zero
    assert not mono(2, (1, 0)).is_unit


def test_contains_monomial_worked_examples():
    cube = mono(3, (3, 0, 0), (0, 3, 0), (0, 0, 3))
    assert not contains_monomial(cube, (2, 2, 2))
    assert contains_monomial(mono(2, (1, 0), (0, 1)), (1, 0))
    assert not contains_monomial(zero_ideal(2), (5, 5))


def test_contains_monomial_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        contains_monomial(mono(2, (1, 0)), (1, 0, 0))


def test_ideal_sum_examples():
    assert ideal_sum(mono(2, (2, 0)), mono(2, (0, 2))).gens == ((2, 0), (0, 2))
    assert ideal_sum(mono(2, (1, 0)), mono(2, (2, 0))).gens == ((1, 0),)
    assert ideal_sum(mono(2, (2, 0), (0, 2)), mono(2, (1, 1))).gens == (
        (2, 0),
        (1, 1),
        (0, 2),
    )


def test_ideal_product_examples():
    a = mono(2, (2, 0), (0, 2))
    b = mono(2, (2, 0), (1, 1), (0, 2))
    assert ideal_product(a, b).gens == ((4, 0), (3, 1), (2, 2), (1, 3), (0, 4))
    assert ideal_product(a, unit_ideal(2)) == a
    assert ideal_product(a, zero_ideal(2)).is_zero


def test_ideal_product_cap():
    a = mono(2, (2, 0), (0, 2))
    with pytest.raises(InstanceTooLargeError):
        ideal_product(a, a, generator_cap=1)


def test_ideal_power_examples():
    assert ideal_power(mono(2, (1, 0), (0, 1)), 2).gens == ((2, 0), (1, 1), (0, 2))
    a = mono(2, (2, 0), (0, 2))
    assert ideal_power(a, 1) == a
    assert ideal_power(a, 2).gens == ((4, 0), (2, 2), (0, 4))
    assert ideal_power(a, 0) == unit_ideal(2)
    with pytest.raises(PreconditionError):
        ideal_power(a, -1)


def test_ideal_contains_answers_equal_ideals_with_no_trie(monkeypatch):
    def forbidden(trie, v):
        raise AssertionError("ideal_contains built a trie")

    # the ideals are built first, as minimalization stores into a trie
    ideals = [mono(2, (2, 1), (0, 3)), zero_ideal(3), unit_ideal(2)]
    twins = [MonomialIdeal(ideal.dim, ideal.gens) for ideal in ideals]
    smaller, larger = mono(2, (1, 0)), mono(2, (2, 0))
    monkeypatch.setattr(monomials, "_trie_insert", forbidden)
    for ideal, twin in zip(ideals, twins):
        assert ideal_contains(ideal, ideal) and ideal_contains(ideal, twin)
    with pytest.raises(AssertionError, match="built a trie"):
        ideal_contains(smaller, larger)


def test_ideal_contains_examples():
    assert ideal_contains(mono(2, (1, 0)), mono(2, (2, 0)))
    assert not ideal_contains(mono(2, (2, 0), (0, 2)), mono(2, (1, 1)))
    a = mono(2, (2, 1), (0, 3))
    assert ideal_contains(a, a)


# -- property tests -----------------------------------------------------------

vectors2 = st.tuples(st.integers(0, 6), st.integers(0, 6))
ideals2 = st.lists(vectors2, min_size=1, max_size=5).map(lambda vs: minimalize(2, vs))
vectors3 = st.tuples(st.integers(0, 5), st.integers(0, 5), st.integers(0, 5))
ideals3 = st.lists(vectors3, min_size=1, max_size=4).map(lambda vs: minimalize(3, vs))


@given(ideals2, st.integers(0, 5))
def test_power_equals_iterated_product(ideal, n):
    assert ideal_power(ideal, n) == iterated_product(ideal, n) == reference_ideal_power(ideal, n)


def test_cold_power_of_principal_ideal_at_5000():
    # a cold power recurses O(log n) calls deep, not n
    for n in (5000, 200_000):
        ideal_power.cache_clear()
        assert ideal_power(mono(3, (1, 2, 0)), n) == mono(3, (n, 2 * n, 0))


def test_generator_cap_bounds_every_intermediate_power():
    # (x, y)^m has m + 1 generators: under cap 4, (x, y)^3 fits, and
    # (x, y)^4, built on the way to (x, y)^5, raises whatever is cached
    ideal = mono(2, (1, 0), (0, 1))
    warmups = [
        lambda: None,
        lambda: ideal_power(ideal, 5),
        lambda: ideal_power(ideal, 3, 4),
        lambda: ideal_power(ideal, 6, 10),
    ]
    for warm in warmups:
        ideal_power.cache_clear()
        warm()
        with pytest.raises(InstanceTooLargeError, match="product has 5 minimal generators"):
            ideal_power(ideal, 5, 4)
        assert len(ideal_power(ideal, 3, 4).gens) == 4


@given(ideals2, st.integers(0, 2), st.integers(0, 2))
def test_power_additivity(ideal, a, b):
    combined = ideal_product(ideal_power(ideal, a), ideal_power(ideal, b))
    assert ideal_power(ideal, a + b) == combined


@given(ideals3, vectors3)
def test_contains_monomial_matches_brute_force(ideal, m):
    assert contains_monomial(ideal, m) == brute_contains(ideal, m)


@given(st.lists(vectors2, min_size=0, max_size=6))
def test_minimalize_yields_antichain_and_is_idempotent(vectors):
    ideal = minimalize(2, vectors)
    for g in ideal.gens:
        for h in ideal.gens:
            if g != h:
                assert not all(a <= b for a, b in zip(g, h))
    assert MonomialIdeal(2, ideal.gens) == ideal


@given(ideals2, ideals2)
def test_contains_is_antisymmetric_on_canonical_forms(a, b):
    if ideal_contains(a, b) and ideal_contains(b, a):
        assert a == b


@given(ideals2, ideals2, ideals2)
def test_contains_is_transitive(a, b, c):
    if ideal_contains(a, b) and ideal_contains(b, c):
        assert ideal_contains(a, c)


@given(ideals2)
def test_contains_is_reflexive(a):
    assert ideal_contains(a, a)


# -- the trie kernel against the pairwise-scan reference ----------------------


@st.composite
def vector_lists(draw):
    """Lists of same-length vectors (dimension 1-4) with zero coordinates,
    repeats and, sometimes, the zero vector."""
    dim = draw(st.integers(1, 4))
    vector = st.tuples(*[st.integers(0, 4)] * dim)
    vectors = draw(st.lists(vector, max_size=12))
    vectors += draw(st.lists(st.sampled_from(vectors), max_size=3)) if vectors else []
    if draw(st.booleans()):
        vectors.insert(draw(st.integers(0, len(vectors))), (0,) * dim)
    return dim, vectors


@given(vector_lists())
def test_minimal_vectors_match_reference(drawn):
    dim, vectors = drawn
    expected = reference_minimal_vectors(vectors)
    assert _minimal_vectors(vectors) == sorted(expected)
    assert minimalize(dim, vectors).gens == tuple(sorted(expected, reverse=True))


@st.composite
def ideal_pairs(draw):
    dim, left = draw(vector_lists())
    vector = st.tuples(*[st.integers(0, 4)] * dim)
    right = draw(st.lists(vector, max_size=8))
    return minimalize(dim, left), minimalize(dim, right)


@given(ideal_pairs())
def test_ideal_contains_matches_reference(pair):
    a, b = pair
    zero = zero_ideal(a.dim)
    for left, right in ((a, b), (b, a), (zero, a), (a, zero), (zero, zero)):
        assert ideal_contains(left, right) == reference_ideal_contains(left, right)


def test_kernel_results_match_reference_minimalization(monkeypatch):
    """Products, powers and closures of suite-distributed ideals have the same
    generators when the reference scan minimalizes the same inputs."""
    rng = random.Random(20161)
    pairs = []
    for _ in range(40):
        dim = rng.choice((2, 3))
        pairs.append((random_monomial_ideal(rng, dim), random_monomial_ideal(rng, dim)))

    def results():
        # the uncached bodies, so both passes really compute; a power reads
        # lower powers through the cache, so it starts empty in each pass
        ideal_power.cache_clear()
        return [
            (
                ideal_product(a, b).gens,
                [ideal_power.__wrapped__(a, n).gens for n in range(4)],
                closure.__wrapped__(a, n=1).gens,
            )
            for a, b in pairs
        ]

    fast = results()
    monkeypatch.setattr(
        monomials,
        "_minimal_vectors",
        lambda vectors: sorted(reference_minimal_vectors(vectors)),
    )
    assert results() == fast


@st.composite
def operation_chains(draw):
    dim = draw(st.sampled_from((2, 3)))
    vector = st.tuples(*[st.integers(0, 4 if dim == 2 else 3)] * dim)
    ideals = st.lists(vector, max_size=4).map(lambda vs: minimalize(dim, vs))
    pool = draw(st.lists(ideals, min_size=1, max_size=3))
    steps = draw(
        st.lists(
            st.tuples(
                st.sampled_from(("sum", "product", "power", "closure")),
                st.integers(0, 2),
            ),
            min_size=1,
            max_size=4,
        )
    )
    return pool, steps


@given(operation_chains())
def test_internal_results_equal_their_validating_rebuild(chain):
    pool, steps = chain
    current = pool[0]
    for operation, k in steps:
        other = pool[k % len(pool)]
        if operation == "sum":
            current = ideal_sum(current, other)
        elif operation == "product":
            current = ideal_product(current, other)
        elif operation == "power":
            current = ideal_power(current, k)
        else:
            current = closure(current, n=1)
        rebuilt = MonomialIdeal(current.dim, current.gens)
        assert rebuilt == current
        assert rebuilt.gens == current.gens
