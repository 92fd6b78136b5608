from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from closure_lab.errors import IdealSyntaxError
from closure_lab.groebner import PolyIdeal
from closure_lab.lab import SuiteReport, random_monomial_ideal, uniform_exponents
from closure_lab.monomials import MonomialIdeal
from closure_lab.parsing import parse_polynomial
from closure_lab.serialize import (
    canonical_json,
    exponent_report_csv,
    format_monomial,
    format_polynomial,
    ideal_payload,
    parse_ideal,
    suite_csv,
)
from helpers import mono, random_polynomial


def test_format_monomial():
    assert format_monomial((2, 1), ["x", "y"]) == "x^2*y"
    assert format_monomial((0, 0), ["x", "y"]) == "1"
    assert format_monomial((0, 3), ["x", "y"]) == "y^3"


def test_format_polynomial_canonical_shapes():
    variables = ["x", "y"]
    poly = parse_polynomial("x^2*y - 3/2*y^3 + 1", variables)
    assert format_polynomial(poly, variables) == "x^2*y - 3/2*y^3 + 1"
    assert format_polynomial(parse_polynomial("-x", variables), variables) == "-x"
    assert format_polynomial(parse_polynomial("0", variables), variables) == "0"
    assert (
        format_polynomial(parse_polynomial("y^2 + x^2", variables), variables)
        == "x^2 + y^2"
    )


@given(st.integers(0, 100_000))
@settings(max_examples=80)
def test_format_parse_round_trip(seed):
    rng = random.Random(seed)
    dim = rng.randint(1, 3)
    variables = [f"v{i}" for i in range(dim)]
    poly = random_polynomial(rng, dim)
    assert parse_polynomial(format_polynomial(poly, variables), variables) == poly


def test_parse_ideal_classification():
    parsed = parse_ideal('{"vars": ["x", "y"], "generators": ["x^2", "y^2"]}')
    assert isinstance(parsed.ideal, MonomialIdeal)
    assert parsed.ideal.gens == ((2, 0), (0, 2))

    parsed = parse_ideal('{"vars": ["x", "y"], "generators": ["x^2 - y"]}')
    assert isinstance(parsed.ideal, PolyIdeal)

    # single terms with scalar coefficients normalize to monomial generators
    parsed = parse_ideal('{"vars": ["x", "y"], "generators": ["3*x^2", "1/2*y"]}')
    assert isinstance(parsed.ideal, MonomialIdeal)
    assert parsed.ideal.gens == ((2, 0), (0, 1))


def test_parse_ideal_errors():
    with pytest.raises(IdealSyntaxError):
        parse_ideal('{"vars": ["x"], "generators": ["y"]}')
    with pytest.raises(IdealSyntaxError):
        parse_ideal('{"vars": [], "generators": ["1"]}')
    with pytest.raises(IdealSyntaxError):
        parse_ideal('{"vars": ["x"], "generators": []}')
    with pytest.raises(IdealSyntaxError):
        parse_ideal('{"vars": ["x", "x"], "generators": ["x"]}')
    with pytest.raises(IdealSyntaxError):
        parse_ideal('{"vars": ["2bad"], "generators": ["1"]}')
    with pytest.raises(IdealSyntaxError):
        parse_ideal('{"vars": ["x"], "generators": ["x - x"]}')
    with pytest.raises(IdealSyntaxError):
        parse_ideal("not json")


@given(st.integers(0, 50_000))
@settings(max_examples=50)
def test_ideal_payload_round_trip(seed):
    rng = random.Random(seed)
    dim = rng.choice((2, 3))
    ideal = random_monomial_ideal(rng, dim, min_gens=1, max_gens=5, max_exp=6)
    variables = [f"x{i + 1}" for i in range(dim)]
    payload = ideal_payload(ideal, variables)
    parsed = parse_ideal(canonical_json(payload))
    assert parsed.variables == tuple(variables)
    assert parsed.ideal == ideal


def test_canonical_json_is_sorted_and_stable():
    text = canonical_json({"b": 1, "a": [1, 2]})
    assert text == '{"a": [1, 2], "b": 1}'


def test_exponent_report_csv_columns():
    report = uniform_exponents(mono(2, (2, 0), (0, 2)), 2)
    lines = exponent_report_csv(report, ["x", "y"]).splitlines()
    assert lines[0] == "ideal_id,n,s_bar,s_closure,k_bar,k_cl"
    assert lines[1] == "x^2;y^2,1,0,0,1,1"
    assert lines[2] == "x^2;y^2,2,1,1,1,1"


def test_suite_csv_of_an_empty_report_is_its_header():
    assert suite_csv(SuiteReport(0, 0, 3, ())) == (
        "trial,dim,ideal_id,chain_ok,shifted_ok,k_bar,k_cl,bound_ok,integrality_agree\n"
    )
