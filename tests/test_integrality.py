from __future__ import annotations

import random
import sys
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

from closure_lab.errors import InstanceTooLargeError, PreconditionError
from closure_lab import groebner, integrality, monomials
from closure_lab.groebner import PolyIdeal, poly_ideal_power, poly_ideal_sum, to_poly_ideal
from closure_lab.integrality import (
    DET_SIZE_CAP,
    NO,
    YES,
    IntegralityCertificate,
    MembershipProof,
    NotUpTo,
    ReductionWitness,
    TriState,
    bareiss_determinant,
    certify_element,
    certify_ideal,
    cramer_certificate,
    is_integral_element,
    is_integral_ideal,
    monomial_certificate,
    reduction_number,
    unknown,
)
from closure_lab.lab import random_monomial_ideal, witness_pair
from closure_lab.monomials import (
    MonomialIdeal,
    contains_monomial,
    ideal_sum,
    minimalize,
    unit_ideal,
    zero_ideal,
)
from closure_lab.newton import closure, polyhedron_of
from closure_lab.parsing import parse_polynomial
from closure_lab.polynomials import Polynomial
from closure_lab.serialize import canonical_json, certificate_payload, default_variables
from helpers import (
    cofactor_determinant,
    equality_reduction_number,
    mono,
    random_nonzero_polynomial,
    reference_verify,
    sheared_general_pair,
    two_search_certify,
)


def P(text, variables=("x", "y")):
    return parse_polynomial(text, list(variables))


J22 = mono(2, (2, 0), (0, 2))
I22 = mono(2, (2, 0), (1, 1), (0, 2))


# -- reduction numbers ---------------------------------------------------------


def test_reduction_number_worked_examples():
    assert reduction_number(J22, I22, 10) == ReductionWitness(1, True)
    assert reduction_number(J22, J22, 10) == ReductionWitness(0, True)
    assert reduction_number(J22, mono(2, (1, 0), (0, 1)), 10) == NotUpTo(10)


def test_reduction_number_requires_containment():
    with pytest.raises(PreconditionError):
        reduction_number(mono(2, (1, 0)), mono(2, (2, 0)), 5)
    with pytest.raises(PreconditionError):
        reduction_number(
            PolyIdeal(2, (P("x"),)), PolyIdeal(2, (P("x^2"),)), 5
        )


def test_reduction_number_tests_generators_of_j_not_listed_in_i():
    # x^2 is literally a generator of I; y is not and lies outside I.
    with pytest.raises(PreconditionError):
        reduction_number(
            PolyIdeal(2, (P("x^2"), P("y"))), PolyIdeal(2, (P("x^2"), P("x*y"))), 3
        )


def test_reduction_number_accepts_generator_of_j_inside_i_but_not_listed():
    # x^2 = (x^2 + y^2) - y^2 lies in I without being one of its generators.
    j_poly = PolyIdeal(2, (P("x^2"), P("y^2")))
    i_poly = PolyIdeal(2, (P("x^2 + y^2"), P("x*y"), P("y^2")))
    assert reduction_number(j_poly, i_poly, 3) == ReductionWitness(1)


def test_reduction_number_general_path_matches_monomial_path():
    witness = reduction_number(to_poly_ideal(J22), to_poly_ideal(I22), 10)
    assert isinstance(witness, ReductionWitness) and witness.k == 1


def test_reduction_number_mixed_inputs_promote_to_general():
    witness = reduction_number(J22, to_poly_ideal(I22), 10)
    assert isinstance(witness, ReductionWitness) and witness.k == 1


def test_reduction_number_zero_ideals():
    assert reduction_number(zero_ideal(2), zero_ideal(2), 3) == ReductionWitness(0, True)


# (extras, repeat) arguments of sheared_general_pair: I = J + (f) as the
# certify benchmark draws it, two extra generators, and generators of I that
# are none of J's.
GENERAL_PAIR_KINDS = ((1, True), (2, True), (1, False))


def test_reduction_number_agrees_with_equality_oracle_on_seeded_pairs():
    outcomes = set()
    for seed in range(30):
        rng = random.Random(seed)
        for extras, repeat in GENERAL_PAIR_KINDS:
            j_poly, i_poly = sheared_general_pair(rng, extras, repeat)
            expected = equality_reduction_number(j_poly, i_poly, 2)
            assert reduction_number(j_poly, i_poly, 2) == expected
            outcomes.add((extras, repeat, type(expected)))
    assert outcomes == {
        (extras, repeat, outcome)
        for extras, repeat in GENERAL_PAIR_KINDS
        for outcome in (ReductionWitness, NotUpTo)
    }


@given(st.integers(0, 10**6), st.sampled_from(GENERAL_PAIR_KINDS))
@settings(max_examples=30, deadline=None)
def test_reduction_number_agrees_with_equality_oracle(seed, kind):
    j_poly, i_poly = sheared_general_pair(random.Random(seed), *kind)
    assert reduction_number(j_poly, i_poly, 2) == equality_reduction_number(j_poly, i_poly, 2)


def _sample_suite_pair(rng):
    """A pair J in I drawn as sample-suite draws it: J proper and nonzero in
    2 or 3 variables, I = J + (0-2 extra monomials with exponents <= 6)."""
    dim = rng.choice((2, 3))
    j_ideal = random_monomial_ideal(rng, dim)
    extras = [tuple(rng.randint(0, 6) for _ in range(dim)) for _ in range(rng.randint(0, 2))]
    return j_ideal, ideal_sum(j_ideal, minimalize(dim, extras))


@pytest.mark.parametrize("k_max", [4, 10])
def test_monomial_reduction_number_agrees_with_equality_oracle(k_max):
    outcomes = set()
    for seed in range(200):
        j_ideal, i_ideal = _sample_suite_pair(random.Random(seed))
        expected = equality_reduction_number(j_ideal, i_ideal, k_max)
        assert reduction_number(j_ideal, i_ideal, k_max) == expected, seed
        outcomes.add(type(expected))
    assert outcomes == {ReductionWitness, NotUpTo}


@pytest.mark.parametrize(
    "j_ideal, i_ideal",
    [
        (J22, J22),  # J = I answers k = 0
        (zero_ideal(2), I22),
        (zero_ideal(2), zero_ideal(2)),
        (mono(2, (2, 0)), mono(2, (1, 0))),  # (x^2) in (x)
        (mono(2, (1, 0)), unit_ideal(2)),  # a proper J in the unit ideal
    ],
)
def test_monomial_reduction_number_edge_cases(j_ideal, i_ideal):
    expected = equality_reduction_number(j_ideal, i_ideal, 5)
    assert reduction_number(j_ideal, i_ideal, 5) == expected
    assert reduction_number(to_poly_ideal(j_ideal), to_poly_ideal(i_ideal), 5) == expected


def test_reduction_search_multiplies_the_product_below_and_builds_no_power_of_i(monkeypatch):
    # Each step multiplies J * I^(k-1) by I and E^k by E, E the generators of
    # I not among J's, so I is never a first factor.
    monomial = [(J22, I22), (mono(2, (3, 1)), mono(2, (4, 0), (3, 1)))]  # k = 1, none
    pairs = [
        *monomial,
        *((to_poly_ideal(j), to_poly_ideal(i)) for j, i in monomial),
        sheared_general_pair(random.Random(2), 1, True),  # none up to k_max
    ]
    calls = []

    def recording(kernel):
        def wrapped(a, b, *args):
            calls.append((a, b))
            return kernel(a, b, *args)

        return wrapped

    monkeypatch.setattr(integrality, "ideal_product", recording(integrality.ideal_product))
    monkeypatch.setattr(
        integrality, "poly_ideal_product", recording(integrality.poly_ideal_product)
    )
    for j_ideal, i_ideal in pairs:
        extras = tuple(g for g in i_ideal.gens if g not in j_ideal.gens)
        extra = type(i_ideal)(i_ideal.dim, extras)
        calls.clear()
        reduction_number(j_ideal, i_ideal, 4)
        assert calls
        assert all(a != i_ideal and (b == i_ideal or b == extra) for a, b in calls)


# -- integrality of ideals -----------------------------------------------------


def test_is_integral_ideal_witness_family_d3():
    pair = witness_pair(3)
    assert is_integral_ideal(pair.j_ideal, pair.i_ideal) == YES


def test_is_integral_ideal_trivial_and_negative():
    assert is_integral_ideal(J22, J22) == YES
    assert is_integral_ideal(J22, mono(2, (1, 0), (0, 1))) == NO
    assert is_integral_ideal(unit_ideal(2), mono(2, (1, 0))) == YES


def test_is_integral_ideal_general_path():
    j_poly = PolyIdeal(2, (P("x^2"), P("y^2")))
    i_poly = PolyIdeal(2, (P("x*y"),))
    assert is_integral_ideal(j_poly, i_poly, 10) == YES
    hard = PolyIdeal(2, (P("x"),))
    verdict = is_integral_ideal(j_poly, hard, 3)
    assert verdict == unknown(3)
    # a unit J without a constant generator: step k = 0 of the search
    assert is_integral_ideal(PolyIdeal(2, (P("x"), P("1 - x"))), hard, 3) == YES


def test_is_integral_ideal_general_zero_base():
    # the closure of (0) in a domain is (0)
    zero = PolyIdeal(2, ())
    assert is_integral_ideal(zero, PolyIdeal(2, (P("x + y"),)), 3) == NO
    assert is_integral_ideal(zero, zero, 3) == YES


# -- integrality of elements ---------------------------------------------------


def test_is_integral_element_monomial_cases():
    # x_i^(d-1) x_d over (x_i^d, x_d^d) with d = 2
    assert is_integral_element(P("x*y"), J22) == YES
    assert is_integral_element(P("x^2"), J22) == YES  # already inside
    assert is_integral_element(P("x"), J22) == NO


def test_is_integral_element_general_yes():
    # both terms lie in the closure, and the reduction search confirms it
    assert is_integral_element(P("x^2 + x*y"), J22, 10) == YES


def test_is_integral_element_outside_closure_is_unknown():
    # x + y has order 1 while every element integral over (x^2, y^2) has
    # order >= 2, so no equation exists; the general path cannot refute and
    # honestly reports unknown at the cap.
    verdict = is_integral_element(P("x + y"), J22, 3)
    assert verdict == unknown(3)


def test_is_integral_element_degenerate_ideals():
    assert is_integral_element(P("x + y"), unit_ideal(2)) == YES
    assert is_integral_element(P("x"), zero_ideal(2)) == NO
    assert is_integral_element(P("x + y"), zero_ideal(2)) == NO
    assert is_integral_element(P("x + y"), PolyIdeal(2, ())) == NO
    with pytest.raises(PreconditionError):
        is_integral_element(Polynomial.zero(2), J22)


def test_tri_state_validation():
    with pytest.raises(PreconditionError):
        TriState("maybe")
    with pytest.raises(PreconditionError):
        TriState("yes", k_max=3)
    assert unknown(4).is_unknown and unknown(4).k_max == 4


def test_tri_state_monotone_in_k_max():
    j_poly = PolyIdeal(2, (P("x^2"), P("y^2")))
    f = P("x^2 + x*y")
    first_yes = None
    for cap in (1, 2, 4, 8):
        verdict = is_integral_element(f, j_poly, cap)
        if first_yes is not None:
            assert verdict == YES
        elif verdict == YES:
            first_yes = cap


# -- monomial certificates -------------------------------------------------------


def test_monomial_certificate_worked_examples():
    cert = monomial_certificate((1, 1), J22)
    assert cert.degree == 2
    assert cert.coefficients(J22) == (P("0"), P("-x^2*y^2"))
    assert cert.verify(J22)

    inside = monomial_certificate((2, 0), J22)
    assert inside.degree == 1
    assert inside.coefficients(J22) == (P("-x^2"),)
    assert inside.verify(J22)

    divisible = monomial_certificate((2, 1), mono(2, (2, 0)))
    assert divisible.degree == 1
    assert divisible.coefficients(mono(2, (2, 0))) == (P("-x^2*y"),)
    assert divisible.verify(mono(2, (2, 0)))


def test_monomial_certificate_requires_integrality():
    with pytest.raises(PreconditionError):
        monomial_certificate((1, 0), J22)


@given(st.integers(0, 5_000))
@settings(max_examples=60, deadline=None)
def test_monomial_certificates_verify_on_sampled_members(seed):
    rng = random.Random(seed)
    dim = rng.choice((2, 3))
    ideal = random_monomial_ideal(rng, dim, min_gens=2, max_gens=4, max_exp=4)
    closed = closure(ideal, n=1)
    member = closed.gens[rng.randrange(len(closed.gens))]
    cert = monomial_certificate(member, ideal)
    assert cert.verify(ideal)
    assert cert.element == Polynomial.monomial(dim, member)


# -- determinant routes ----------------------------------------------------------


@given(st.integers(0, 3_000))
@settings(max_examples=30, deadline=None)
def test_bareiss_matches_cofactor_expansion(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 4)
    matrix = [
        [random_nonzero_polynomial(rng, 2, max_terms=2, max_exp=2) for _ in range(n)]
        for _ in range(n)
    ]
    assert bareiss_determinant(matrix) == cofactor_determinant(matrix)


def test_bareiss_handles_zero_pivots():
    zero = Polynomial.zero(2)
    x = Polynomial.variable(2, 0)
    y = Polynomial.variable(2, 1)
    matrix = [[zero, x], [y, zero]]
    assert bareiss_determinant(matrix) == -(x * y)
    singular = [[zero, zero], [x, y]]
    assert bareiss_determinant(singular).is_zero


# -- determinant-trick certificates ----------------------------------------------


def test_cramer_certificate_square_pair_case():
    f = P("x*y")
    j_poly = to_poly_ideal(J22)
    i_poly = poly_ideal_sum(j_poly, PolyIdeal(2, (f,)))
    witness = reduction_number(j_poly, i_poly, 10)
    assert isinstance(witness, ReductionWitness) and witness.k == 1
    cert = cramer_certificate(f, j_poly, i_poly, witness.k)
    assert cert.degree == 3
    assert cert.verify(J22)
    # matches the hand expansion t^3 - x^2 y^2 t
    assert cert.coefficients(J22) == (P("0"), P("-x^2*y^2"), P("0"))


def test_cramer_certificate_trivial_cases():
    j_poly = to_poly_ideal(J22)
    cert = cramer_certificate(P("x^2"), j_poly, j_poly, 0)
    assert cert.degree == 1
    assert cert.coefficients(J22) == (P("-x^2"),)
    assert cert.verify(J22)

    single = PolyIdeal(2, (P("x^2"),))
    cert = cramer_certificate(P("x^2"), single, single, 0)
    assert cert.degree == 1
    assert cert.coefficients(single) == (P("-x^2"),)
    assert cert.verify(single)


def test_cramer_certificate_checks_preconditions():
    j_poly = to_poly_ideal(J22)
    i_poly = poly_ideal_sum(j_poly, PolyIdeal(2, (P("x*y"),)))
    with pytest.raises(PreconditionError):
        cramer_certificate(P("x"), j_poly, i_poly, 1)  # x not in I
    with pytest.raises(PreconditionError):
        cramer_certificate(P("x*y"), j_poly, i_poly, 0)  # k=0 is not a reduction
    # x^2*y^2 * I lies in I^2 = J * I, but x^2*y^2 is not in I
    ratliff_rush = to_poly_ideal(mono(2, (4, 0), (3, 1), (1, 3), (0, 4)))
    with pytest.raises(PreconditionError):
        cramer_certificate(P("x^2*y^2"), ratliff_rush, ratliff_rush, 1)


def test_cramer_certificate_determinant_cap_says_it_is_fixed():
    # (x, y, z)^9 has 55 generators, so the determinant would be 55 x 55.
    xyz = ("x", "y", "z")
    ideal = PolyIdeal(3, tuple(P(v, xyz) for v in xyz))
    with pytest.raises(InstanceTooLargeError) as error:
        cramer_certificate(P("x", xyz), ideal, ideal, 9)
    assert str(error.value) == (
        f"certificate needs a 55x55 determinant, cap is {DET_SIZE_CAP} "
        "(fixed: no flag or config field sets it)"
    )


def test_cramer_certificate_general_coefficients():
    j_poly = PolyIdeal(2, (P("x^2"), P("y^2")))
    f = P("x^2 + x*y")
    i_poly = poly_ideal_sum(j_poly, PolyIdeal(2, (f,)))
    witness = reduction_number(j_poly, i_poly, 10)
    assert isinstance(witness, ReductionWitness)
    cert = cramer_certificate(f, j_poly, i_poly, witness.k)
    assert cert.verify(j_poly)


# -- the reduction/integrality equivalence ---------------------------------------


@given(st.integers(0, 50_000))
@settings(max_examples=60, deadline=None)
def test_integrality_decision_matches_reduction_search(seed):
    rng = random.Random(seed)
    dim = rng.choice((2, 3))
    base = random_monomial_ideal(rng, dim, min_gens=2, max_gens=4, max_exp=4)
    extras = [tuple(rng.randint(0, 5) for _ in range(dim)) for _ in range(rng.randint(0, 2))]
    bigger = ideal_sum(base, minimalize(dim, extras)) if extras else base
    decided = is_integral_ideal(base, bigger)
    searched = reduction_number(base, bigger, 10)
    assert decided in (YES, NO)
    assert decided.is_yes == isinstance(searched, ReductionWitness)


@given(st.integers(0, 5_000))
@settings(max_examples=30, deadline=None)
def test_closure_is_a_reduction(seed):
    rng = random.Random(seed)
    dim = rng.choice((2, 3))
    ideal = random_monomial_ideal(rng, dim, min_gens=2, max_gens=4, max_exp=4)
    witness = reduction_number(ideal, closure(ideal, n=1), 10)
    assert isinstance(witness, ReductionWitness)


@given(st.integers(0, 5_000))
@settings(max_examples=25, deadline=None)
def test_reduction_number_respects_degree_sum_bound(seed):
    rng = random.Random(seed)
    dim = rng.choice((2, 3))
    ideal = random_monomial_ideal(rng, dim, min_gens=2, max_gens=3, max_exp=4)
    closed = closure(ideal, n=1)
    member = closed.gens[rng.randrange(len(closed.gens))]
    extended = ideal_sum(ideal, minimalize(dim, [member]))
    witness = reduction_number(ideal, extended, 30)
    assert isinstance(witness, ReductionWitness)
    # one certificate of degree 1 per generator already inside, plus the
    # extracted degree for the adjoined monomial, plus one
    degrees = len(ideal.gens) + monomial_certificate(member, ideal).degree
    assert witness.k <= degrees + 1


# -- certificate plumbing ---------------------------------------------------------


def test_certificate_verify_rejects_damage():
    cert = monomial_certificate((1, 1), J22)
    first, final = cert.proofs
    assert first == MembershipProof((), ()) and final.factors == ((0, 1),)

    def with_proofs(*proofs):
        return IntegralityCertificate(cert.element, proofs)

    padded = PolyIdeal(2, to_poly_ideal(J22).gens + (P("x^2*y^2"),))
    damaged = {
        "a damaged quotient": with_proofs(first, MembershipProof(((0, 1),), (P("-x"),))),
        # x^2 * -y^2 is the right a_2, but x^2 is a product of one generator
        "a multiset of one in the second proof": with_proofs(
            first, MembershipProof(((0,),), (P("-y^2"),))
        ),
        # a zero multiple of x^2*y^2 leaves a_1 zero, but it cites two generators
        "a multiset of two in the first proof": with_proofs(
            MembershipProof(((0, 1),), (P("0"),)), final
        ),
        "an index out of range": with_proofs(first, MembershipProof(((0, 2),), final.quotients)),
        # would read y^2 * x^2 from the end
        "a negative index": with_proofs(first, MembershipProof(((-1, 0),), final.quotients)),
        "fewer multisets than quotients": with_proofs(first, MembershipProof((), final.quotients)),
        # the equation holds, but x^4 has no quotient
        "a multiset without a quotient": with_proofs(
            first, MembershipProof(((0, 1), (0, 0)), final.quotients)
        ),
        # x^4 is not x^2*y^2
        "(0, 0) in place of (0, 1)": with_proofs(first, MembershipProof(((0, 0),), final.quotients)),
        "no proofs": with_proofs(),
    }
    for case, certificate in damaged.items():
        assert not certificate.verify(J22), case
        assert not certificate.verify(to_poly_ideal(J22)), case
        assert not reference_verify(certificate, J22), case
    # x^2*y^2 is itself a generator of the padded base, but the proof of
    # a_2 must cite two factors
    assert cert.verify(padded) and reference_verify(cert, padded)
    named = with_proofs(first, MembershipProof(((2,),), final.quotients))
    assert not named.verify(padded)
    assert not reference_verify(named, padded)


def test_membership_proof_empty_sum_is_zero():
    assert MembershipProof((), ()).value(to_poly_ideal(J22)) == Polynomial.zero(2)


def test_certificate_scale_root():
    cert = monomial_certificate((1, 1), J22)
    scaled = cert.scale_root(Fraction(-3, 2))
    assert scaled.element == P("-3/2*x*y")
    assert scaled.verify(J22)
    assert [p.factors for p in scaled.proofs] == [p.factors for p in cert.proofs]
    with pytest.raises(PreconditionError):
        cert.scale_root(0)


# -- verification by multiplying out ---------------------------------------------


def _general_certificates():
    """Determinant-trick certificates for an added generator f of I over J,
    on seeded sheared pairs of every kind that reduction search settles."""
    rng = random.Random(31)
    found = []
    for _ in range(12):
        for extras, repeat in GENERAL_PAIR_KINDS:
            j_poly, i_poly = sheared_general_pair(rng, extras, repeat)
            witness = reduction_number(j_poly, i_poly, 2)
            if isinstance(witness, ReductionWitness):
                f = i_poly.gens[-1]
                cert = cramer_certificate(f, j_poly, i_poly, witness.k)
                found.append((cert, j_poly, poly_ideal_power(i_poly, witness.k)))
    return found


def _monomial_members(count):
    """(member of closure(J), J) pairs drawn as criterion 5 draws them."""
    rng = random.Random(20_242)
    for _ in range(count):
        dim = rng.choice((2, 3))
        ideal = random_monomial_ideal(rng, dim, min_gens=2, max_gens=4, max_exp=4)
        closed = closure(ideal, n=1)
        yield closed.gens[rng.randrange(len(closed.gens))], ideal


def test_certificates_pass_the_membership_oracle_on_seeded_samples():
    for member, ideal in _monomial_members(50):
        cert = monomial_certificate(member, ideal)
        assert cert.verify(ideal) and reference_verify(cert, ideal)
        # the degree is 1 inside J, else the least common denominator of
        # the convex weights
        _, weights = polyhedron_of(ideal).member(member)
        expected = lcm(*(lam.denominator for lam in weights.lambdas))
        assert cert.degree == expected
        assert (expected == 1) == contains_monomial(ideal, member)
        assert sum(len(p.factors) for p in cert.proofs) == 1
    general = _general_certificates()
    assert len(general) >= 15
    for cert, j_poly, basis_ideal in general:
        assert cert.verify(j_poly) and reference_verify(cert, j_poly)
        assert cert.degree == len(basis_ideal.gens)


def test_certificates_are_built_and_checked_without_powers_or_bases(monkeypatch):
    general = _general_certificates()
    over_monomial = []
    for f, ideal in (("x*y + y^2", J22), ("x^2*y + x*y^2", mono(2, (3, 0), (0, 3)))):
        f = P(f)
        j_poly = to_poly_ideal(ideal)
        i_poly = poly_ideal_sum(j_poly, PolyIdeal(2, (f,)))
        witness = reduction_number(j_poly, i_poly, 10)
        over_monomial.append((cramer_certificate(f, j_poly, i_poly, witness.k), ideal))

    def refuse(name):
        def refused(*args, **kwargs):
            raise AssertionError(f"a certificate path called {name}")

        return refused

    originals = {
        "buchberger": groebner.buchberger,
        "ideal_power": monomials.ideal_power,
        "poly_ideal_power": groebner.poly_ideal_power,
        "poly_ideal_member": groebner.poly_ideal_member,
        "in_poly_ideal": groebner.in_poly_ideal,
    }
    patched = set()
    for module_name, module in list(sys.modules.items()):
        if module_name.split(".")[0] != "closure_lab":
            continue
        for name, original in originals.items():
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, refuse(name))
                patched.add((module_name, name))
    monkeypatch.setattr(PolyIdeal, "groebner", refuse("PolyIdeal.groebner"))
    assert ("closure_lab.integrality", "poly_ideal_power") in patched
    assert ("closure_lab.groebner", "buchberger") in patched

    for member, ideal in _monomial_members(50):
        assert monomial_certificate(member, ideal).verify(ideal)
    for cert, j_poly, _ in general:
        assert cert.verify(j_poly)
    for cert, ideal in over_monomial:
        assert cert.verify(ideal) and cert.verify(to_poly_ideal(ideal))
    # the proof of J^9 over nine pure ninth powers is one cited product
    diagonal = MonomialIdeal(9, [tuple(9 * (j == q) for j in range(9)) for q in range(9)])
    cert = monomial_certificate((1,) * 9, diagonal)
    assert cert.degree == 9 and cert.proofs[-1].factors == (tuple(range(9)),)
    assert cert.verify(diagonal)


# -- one entry point per element query --------------------------------------------


def _certify_queries():
    """(kind, f, J, k_max) element queries: monomial members of closure(J)
    and monomials outside it, members scaled by a coefficient other than 1,
    general elements over a monomial J, and the added generator of seeded
    sheared pairs, some of which the search leaves unknown."""
    rng = random.Random(24)
    for member, ideal in _monomial_members(12):
        yield "monomial", Polynomial.monomial(ideal.dim, member), ideal, 2
        yield "scaled", Polynomial.monomial(ideal.dim, member, Fraction(-2, 3)), ideal, 2
        point = tuple(rng.randint(0, 2) for _ in range(ideal.dim))
        yield "monomial", Polynomial.monomial(ideal.dim, point), ideal, 2
    for text, ideal in (("x*y + y^2", J22), ("x^2*y + x*y^2", mono(2, (3, 0), (0, 3)))):
        yield "over monomial", P(text), ideal, 10
    yield "over monomial", P("x + y"), J22, 2
    for _ in range(6):
        for extras, repeat in GENERAL_PAIR_KINDS:
            j_poly, i_poly = sheared_general_pair(rng, extras, repeat)
            yield "sheared", i_poly.gens[-1], j_poly, 2


def test_certify_element_matches_the_two_search_dispatch():
    seen = set()
    for kind, f, j_ideal, k_max in _certify_queries():
        verdict, certificate = certify_element(f, j_ideal, k_max)
        expected_verdict, expected = two_search_certify(f, j_ideal, k_max)
        assert verdict == expected_verdict, (kind, f, j_ideal)
        assert verdict == is_integral_element(f, j_ideal, k_max)
        assert (certificate is None) == (expected is None) == (not verdict.is_yes)
        if certificate is not None:
            variables = default_variables(f.dim)
            assert canonical_json(certificate_payload(certificate, j_ideal, variables)) == (
                canonical_json(certificate_payload(expected, j_ideal, variables))
            )
            assert certificate.verify(j_ideal)
        seen.add((kind, verdict.kind))
    assert seen >= {
        ("monomial", "yes"),
        ("monomial", "no"),
        ("scaled", "yes"),
        ("over monomial", "yes"),
        ("over monomial", "unknown"),
        ("sheared", "yes"),
        ("sheared", "unknown"),
    }


def test_certify_ideal_certifies_every_generator():
    # (x^4, y^4) in (x, y)^4 after the shear x -> x + y: the search over J + I
    # answers k = 1, but the searches over J + (g) for g = (x+y)^3*y and
    # (x+y)*y^3 need k = 3, so those two come from the determinant trick over
    # J + I at k = 1, of degree 5 = the number of generators of J + I.
    j_ideal = PolyIdeal(2, (P("(x + y)^4"), P("y^4")))
    powers = ("(x+y)^4", "(x+y)^3*y", "y^4", "(x+y)^2*y^2", "(x+y)*y^3")
    i_ideal = PolyIdeal(2, tuple(P(g) for g in powers))
    verdict, certificates = certify_ideal(j_ideal, i_ideal, k_max=2)
    assert verdict == YES
    assert [c.element for c in certificates] == list(i_ideal.gens)
    own = [certify_element(g, j_ideal, k_max=2)[1] for g in i_ideal.gens]
    assert [c is None for c in own] == [False, True, False, False, True]
    assert [c.degree for c in certificates] == [1, 5, 1, 3, 5]
    for certificate, expected in zip(certificates, own):
        assert certificate.verify(j_ideal) and reference_verify(certificate, j_ideal)
        if expected is not None:
            assert certificate == expected


def test_certify_ideal_matches_the_verdict_on_seeded_pairs():
    seen = set()
    for seed in range(12):
        rng = random.Random(seed)
        for extras, repeat in GENERAL_PAIR_KINDS:
            j_poly, i_poly = sheared_general_pair(rng, extras, repeat)
            verdict, certificates = certify_ideal(j_poly, i_poly, k_max=2)
            assert verdict == is_integral_ideal(j_poly, i_poly, k_max=2)
            assert len(certificates) == (len(i_poly.gens) if verdict.is_yes else 0)
            for g, certificate in zip(i_poly.gens, certificates):
                assert certificate.element == g and certificate.verify(j_poly)
            seen.add(verdict.kind)
        j_ideal = random_monomial_ideal(rng, 2, max_exp=3)
        i_ideal = closure(j_ideal, n=1)
        verdict, certificates = certify_ideal(j_ideal, i_ideal)
        assert verdict == YES and len(certificates) == len(i_ideal.gens)
        assert all(c.verify(j_ideal) for c in certificates)
    assert seen == {"yes", "unknown"}
