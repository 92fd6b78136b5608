from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from closure_lab import lab, monomials
from closure_lab.config import DEFAULT_GENERATOR_CAP
from closure_lab.errors import InvariantViolationError, PreconditionError
from closure_lab.lab import (
    chain_check,
    lipman_sathaye_check,
    nilpotent_lift_bound,
    random_monomial_ideal,
    sample_suite,
    uniform_exponents,
    verify_witness,
    witness_pair,
)
from closure_lab.monomials import ideal_power, ideal_product, unit_ideal, zero_ideal
from closure_lab.newton import closure
from helpers import mono, two_search_uniform_exponents, witness_power_not_contained

# closure(J)^2 != closure(J^2) here, so uniform_exponents runs the second search
SPLIT = mono(3, (4, 1, 0), (3, 0, 6), (2, 3, 5))


def rows_as_tuples(report):
    return [(row.n, row.s_bar, row.s_closure) for row in report.rows]


def test_uniform_exponents_maximal_ideal():
    report = uniform_exponents(mono(2, (1, 0), (0, 1)), 4)
    assert rows_as_tuples(report) == [(1, 1, 1), (2, 2, 2), (3, 3, 3), (4, 4, 4)]
    assert report.k_bar == 0 and report.k_cl == 0


def test_uniform_exponents_squares():
    report = uniform_exponents(mono(2, (2, 0), (0, 2)), 4)
    assert report.k_bar == 1 and report.k_cl == 1
    assert rows_as_tuples(report)[0] == (1, 0, 0)


def test_uniform_exponents_cubes_reach_dimension_bound():
    report = uniform_exponents(mono(3, (3, 0, 0), (0, 3, 0), (0, 0, 3)), 3)
    assert report.k_bar == 2


def test_uniform_exponents_preconditions():
    with pytest.raises(PreconditionError):
        uniform_exponents(unit_ideal(2), 3)
    with pytest.raises(PreconditionError):
        uniform_exponents(zero_ideal(2), 3)
    with pytest.raises(PreconditionError):
        uniform_exponents(mono(2, (1, 0)), 0)


def test_uniform_exponents_agrees_with_two_search_oracle():
    assert ideal_power(closure(SPLIT, n=1), 2) != closure(SPLIT, n=2)
    rng = random.Random(2_323)
    cases = [(SPLIT, 3)]
    for _ in range(60):
        dim = rng.choice((2, 3, 4))
        max_exp = 5 if dim < 4 else 2
        ideal = random_monomial_ideal(rng, dim, max_gens=4, max_exp=max_exp)
        cases.append((ideal, rng.randint(1, 3)))
    for ideal, n_max in cases:
        assert uniform_exponents(ideal, n_max) == two_search_uniform_exponents(ideal, n_max)


def test_uniform_exponents_builds_no_power_above_n_max(monkeypatch):
    asked = []

    def recording_power(a, n, generator_cap=DEFAULT_GENERATOR_CAP):
        asked.append(n)
        return ideal_power(a, n, generator_cap)

    monkeypatch.setattr(lab, "ideal_power", recording_power)
    for ideal in (SPLIT, mono(2, (2, 0), (1, 1), (0, 2)), mono(2, (1, 0), (0, 1))):
        for n_max in (1, 2, 3):
            asked.clear()
            uniform_exponents(ideal, n_max)
            assert asked and max(asked) <= n_max, (ideal, n_max, asked)


def test_max_contained_power_rejects_a_candidate_inside_the_next_power():
    for ideal in (SPLIT, mono(2, (2, 0), (1, 1), (0, 2)), mono(2, (3, 0), (0, 1))):
        for n in (1, 2, 3):
            with pytest.raises(InvariantViolationError):
                lab._max_contained_power(
                    ideal, ideal_power(ideal, n + 1), n, DEFAULT_GENERATOR_CAP
                )


def test_witness_pair_generator_patterns():
    pair = witness_pair(2)
    assert pair.j_ideal.gens == ((2, 0), (0, 2))
    assert pair.i_ideal.gens == ((2, 0), (1, 1), (0, 2))
    pair = witness_pair(3)
    assert pair.j_ideal.gens == ((3, 0, 0), (0, 3, 0), (0, 0, 3))
    assert set(pair.i_ideal.gens) == {
        (3, 0, 0),
        (2, 0, 1),
        (0, 3, 0),
        (0, 2, 1),
        (0, 0, 3),
    }
    pair = witness_pair(4)
    assert len(pair.i_ideal.gens) == 7
    with pytest.raises(PreconditionError):
        witness_pair(1)


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_witness_verdicts_pass(d):
    verdict = verify_witness(d)
    assert verdict.integral
    assert verdict.diagonal_outside
    assert verdict.power_not_contained
    assert verdict.passed
    assert verdict.diagonal == (d - 1,) * d


@pytest.mark.parametrize("d", range(2, 8))
def test_witness_check_c_agrees_with_the_power_oracle(d):
    # at d = 7 the oracle builds I^6, 18,564 generators, through the trie
    assert verify_witness(d).power_not_contained == witness_power_not_contained(d)


def test_verify_witness_builds_no_power(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("verify_witness built a power or a product ideal")

    monkeypatch.setattr(lab, "ideal_power", forbidden)
    monkeypatch.setattr(lab, "ideal_contains", forbidden)
    monkeypatch.setattr(monomials, "ideal_product", forbidden)
    for d in (2, 8, 16):
        assert verify_witness(d).passed


def test_lipman_sathaye_worked_examples():
    assert lipman_sathaye_check(mono(2, (2, 0), (0, 2)), 4).ok
    assert lipman_sathaye_check(mono(3, (1, 0, 0), (0, 1, 0), (0, 0, 1)), 3).ok
    with pytest.raises(PreconditionError):
        lipman_sathaye_check(unit_ideal(2), 4)


def test_lipman_sathaye_check_builds_only_its_target_powers(monkeypatch):
    # closure(J^n) is read off J's facets, so the only powers built are the
    # targets J^(n - d + 1)
    ideal = mono(3, (2, 0, 0), (0, 3, 0), (0, 0, 2), (1, 1, 1))
    built = []

    def recording_product(a, b, generator_cap=DEFAULT_GENERATOR_CAP):
        result = ideal_product(a, b, generator_cap)
        built.append(result)
        return result

    ideal_power.cache_clear()
    closure.cache_clear()
    monkeypatch.setattr(monomials, "ideal_product", recording_product)
    assert lipman_sathaye_check(ideal, 6).ok
    monkeypatch.undo()
    assert set(built) == {ideal_power(ideal, m) for m in (2, 3, 4)}


def test_chain_check_worked_examples():
    assert chain_check(mono(2, (2, 0), (0, 3)), 3)
    assert chain_check(mono(2, (1, 0)), 3)
    assert chain_check(mono(2, (3, 0), (0, 3)), 2)


def test_nilpotent_lift_bound_examples():
    assert nilpotent_lift_bound(2, [3, 4]) == 13
    assert nilpotent_lift_bound(0, []) == 0
    assert nilpotent_lift_bound(1, [1]) == 3
    with pytest.raises(PreconditionError):
        nilpotent_lift_bound(-1, [])
    with pytest.raises(PreconditionError):
        nilpotent_lift_bound(1, [-2])


def test_sampler_is_deterministic_and_proper():
    a = [random_monomial_ideal(random.Random(9), 2) for _ in range(5)]
    b = [random_monomial_ideal(random.Random(9), 2) for _ in range(5)]
    assert a == b
    for ideal in a:
        assert not ideal.is_unit and not ideal.is_zero
        assert 1 <= len(ideal.gens) <= 5


@given(st.integers(0, 10_000))
@settings(max_examples=12, deadline=None)
def test_report_invariants_and_dimension_bound(seed):
    rng = random.Random(seed)
    dim = rng.choice((2, 3))
    ideal = random_monomial_ideal(rng, dim, max_gens=5, max_exp=6)
    report = uniform_exponents(ideal, 4)
    for row in report.rows:
        assert row.s_closure <= row.s_bar <= row.n
    assert report.k_bar <= report.k_cl <= dim - 1


def test_dimension_four_instance_respects_bound():
    rng = random.Random(3)
    ideal = random_monomial_ideal(rng, 4, max_gens=5, max_exp=2)
    report = uniform_exponents(ideal, 4)
    assert report.k_bar <= report.k_cl <= 3
    assert chain_check(ideal, 3)


@given(st.integers(0, 10_000))
@settings(max_examples=10, deadline=None)
def test_uniform_exponents_monotone_in_n_max(seed):
    rng = random.Random(seed)
    ideal = random_monomial_ideal(rng, 2, max_exp=5)
    small = uniform_exponents(ideal, 2)
    large = uniform_exponents(ideal, 4)
    assert small.k_bar <= large.k_bar
    assert small.k_cl <= large.k_cl
    assert large.rows[: len(small.rows)] == small.rows


@given(st.integers(0, 10_000))
@settings(max_examples=15, deadline=None)
def test_chain_check_holds_on_samples(seed):
    rng = random.Random(seed)
    dim = rng.choice((2, 3))
    ideal = random_monomial_ideal(rng, dim, max_exp=5)
    assert chain_check(ideal, 4)


def test_sample_suite_is_deterministic_and_clean():
    first = sample_suite(6, 123, n_max=3)
    second = sample_suite(6, 123, n_max=3)
    assert first == second
    assert first.ok and first.failures == 0
    assert [r.index for r in first.results] == list(range(6))
    with pytest.raises(PreconditionError):
        sample_suite(0, 1)
