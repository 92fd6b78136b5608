"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines; the assertions enforce the stated tolerances either way.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
import time
from itertools import product as cartesian

import pytest

from closure_lab.groebner import (
    PolyIdeal,
    buchberger,
    poly_ideal_member,
    poly_ideal_sum,
    to_poly_ideal,
)
from closure_lab.integrality import (
    ReductionWitness,
    cramer_certificate,
    monomial_certificate,
    reduction_number,
    is_integral_ideal,
)
from closure_lab.lab import random_monomial_ideal, verify_witness
from closure_lab.lab import chain_check, lipman_sathaye_check
from closure_lab.monomials import contains_monomial, ideal_sum, minimalize
from closure_lab.newton import closure
from closure_lab.parsing import parse_polynomial
from closure_lab.polynomials import Polynomial
from closure_lab.serialize import canonical_json, ideal_payload
from helpers import mono, package_env, scaling_closure_member


def report(number: int, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {number} {status}: {detail}")
    assert passed, detail


@pytest.fixture(scope="module")
def shifted_sample():
    """The 200-ideal seeded sample shared by criteria 2 and 3."""
    rng = random.Random(20_240)
    ideals = []
    for _ in range(200):
        dim = rng.choice((2, 3))
        ideals.append(random_monomial_ideal(rng, dim, min_gens=2, max_gens=4, max_exp=5))
    return ideals


def test_criterion_1_witness_suite():
    start = time.monotonic()
    verdicts = [verify_witness(d) for d in (2, 3, 4, 5)]
    elapsed = time.monotonic() - start
    all_passed = all(v.passed for v in verdicts)
    report(
        1,
        all_passed and elapsed < 10.0,
        f"witness family passes for d=2..5 in {elapsed:.2f}s (< 10s)",
    )


def test_criterion_2_shifted_containments(shifted_sample):
    start = time.monotonic()
    violations = 0
    for ideal in shifted_sample:
        if not lipman_sathaye_check(ideal, 4).ok:
            violations += 1
    elapsed = time.monotonic() - start
    report(
        2,
        violations == 0 and elapsed < 300.0,
        f"closure(J^n) in J^(n-d+1) on 200 seeded ideals, "
        f"{violations} violations, {elapsed:.1f}s (< 300s)",
    )


def test_criterion_3_containment_chain(shifted_sample):
    violations = sum(1 for ideal in shifted_sample if not chain_check(ideal, 4))
    report(3, violations == 0, f"containment chain on the same 200 ideals, {violations} violations")


def test_criterion_4_equivalence_oracle():
    rng = random.Random(20_241)
    disagreements = 0
    for _ in range(100):
        dim = rng.choice((2, 3))
        base = random_monomial_ideal(rng, dim, min_gens=2, max_gens=4, max_exp=4)
        extras = [
            tuple(rng.randint(0, 5) for _ in range(dim))
            for _ in range(rng.randint(0, 2))
        ]
        bigger = ideal_sum(base, minimalize(dim, extras)) if extras else base
        decided = is_integral_ideal(base, bigger)
        searched = reduction_number(base, bigger, 10)
        if decided.is_unknown:
            disagreements += 1
        elif decided.is_yes != isinstance(searched, ReductionWitness):
            disagreements += 1
    report(
        4,
        disagreements == 0,
        f"polyhedral decision vs reduction search on 100 seeded pairs, "
        f"{disagreements} disagreements",
    )


def _cramer_cases():
    """Ten determinant-trick instances, monomial and general coefficients."""
    two = ("x", "y")
    three = ("x", "y", "z")

    def poly(text, variables):
        return parse_polynomial(text, list(variables))

    cases = [
        ("x*y", mono(2, (2, 0), (0, 2)), two),
        ("x^2*y", mono(2, (3, 0), (0, 3)), two),
        ("x*y^2", mono(2, (3, 0), (0, 3)), two),
        ("x^2*y^2", mono(2, (3, 0), (0, 3)), two),
        ("x^2*z", mono(3, (3, 0, 0), (0, 0, 3)), three),
        ("x*y*z", mono(3, (3, 0, 0), (0, 3, 0), (0, 0, 3)), three),
        ("x^2", mono(2, (2, 0), (0, 2)), two),  # k = 0, already a generator
        ("x^3", mono(2, (3, 0)), two),  # principal ideal, degree-1 equation
        ("x^2 + x*y", mono(2, (2, 0), (0, 2)), two),
        ("x*y + y^2", mono(2, (2, 0), (0, 2)), two),
    ]
    for text, ideal, variables in cases:
        yield poly(text, variables), ideal


def test_criterion_5_certificate_soundness():
    rng = random.Random(20_242)
    checked = 0
    for _ in range(50):
        dim = rng.choice((2, 3))
        ideal = random_monomial_ideal(rng, dim, min_gens=2, max_gens=4, max_exp=4)
        closed = closure(ideal, n=1)
        member = closed.gens[rng.randrange(len(closed.gens))]
        certificate = monomial_certificate(member, ideal)
        assert certificate.verify(ideal), f"monomial certificate failed for {member}"
        checked += 1

    cramer_checked = 0
    for f, ideal in _cramer_cases():
        j_poly = to_poly_ideal(ideal)
        i_poly = poly_ideal_sum(j_poly, PolyIdeal(j_poly.dim, (f,)))
        witness = reduction_number(j_poly, i_poly, 10)
        assert isinstance(witness, ReductionWitness), f"no reduction for {f}"
        certificate = cramer_certificate(f, j_poly, i_poly, witness.k)
        assert certificate.verify(ideal), f"determinant certificate failed for {f}"
        cramer_checked += 1
    report(
        5,
        checked == 50 and cramer_checked == 10,
        f"{checked} monomial and {cramer_checked} determinant certificates re-verified exactly",
    )


def test_criterion_6_known_closures_golden():
    goldens = [
        (
            mono(2, (2, 0), (0, 2)),
            '{"generators": ["x^2", "x*y", "y^2"], "vars": ["x", "y"]}',
        ),
        (
            mono(2, (3, 0), (0, 3)),
            '{"generators": ["x^3", "x^2*y", "x*y^2", "y^3"], "vars": ["x", "y"]}',
        ),
    ]
    for ideal, expected in goldens:
        closed = closure(ideal, n=1)
        # scaling oracle must agree on the whole enumeration box before the
        # golden bytes count
        bounds = [max(g[j] for g in ideal.gens) for j in range(2)]
        for point in cartesian(range(bounds[0] + 1), range(bounds[1] + 1)):
            assert contains_monomial(closed, point) == scaling_closure_member(
                ideal, point, n_limit=6
            )
        emitted = canonical_json(ideal_payload(closed, ["x", "y"]))
        assert emitted == expected, f"golden mismatch: {emitted}"
    report(6, True, "known closures agree with the scaling oracle and the frozen JSON bytes")


def test_criterion_7_groebner_consistency():
    rng = random.Random(20_243)
    mismatches = 0
    for _ in range(500):
        dim = rng.choice((2, 3))
        ideal = random_monomial_ideal(rng, dim, min_gens=1, max_gens=4, max_exp=4)
        point = tuple(rng.randint(0, 6) for _ in range(dim))
        monomial = Polynomial.monomial(dim, point)
        gb_answer = poly_ideal_member(monomial, to_poly_ideal(ideal)) is not None
        if gb_answer != contains_monomial(ideal, point):
            mismatches += 1

    unstable = 0
    for index in range(50):
        if index % 2 == 0:
            ideal = random_monomial_ideal(rng, rng.choice((2, 3)), max_exp=4)
            gens = list(to_poly_ideal(ideal).gens)
        else:
            gens = [
                parse_polynomial(text, ["x", "y"])
                for text in (
                    f"x^{rng.randint(1, 3)}*y - {rng.randint(1, 3)}*y^{rng.randint(1, 2)}",
                    f"x^{rng.randint(1, 2)} + {rng.randint(1, 3)}*x*y",
                )
            ]
        reference = buchberger(tuple(gens)).basis
        for _ in range(3):
            rng.shuffle(gens)
            if buchberger(tuple(gens)).basis != reference:
                unstable += 1
                break
    report(
        7,
        mismatches == 0 and unstable == 0,
        f"500 membership queries agree across paths ({mismatches} mismatches); "
        f"reduced bases invariant under permutation on 50 ideals ({unstable} unstable)",
    )


def test_criterion_8_suite_determinism():
    command = [
        sys.executable,
        "-m",
        "closure_lab",
        "sample-suite",
        "--trials",
        "100",
        "--seed",
        "42",
        "--json",
    ]
    first = subprocess.run(command, capture_output=True, env=package_env(), check=False)
    second = subprocess.run(command, capture_output=True, env=package_env(), check=False)
    identical = first.stdout == second.stdout and first.returncode == second.returncode
    payload = json.loads(first.stdout)
    report(
        8,
        identical and payload["trials"] == 100 and first.returncode == 0,
        "two runs of sample-suite --trials 100 --seed 42 are byte-identical "
        f"({len(first.stdout)} bytes, {payload['failures']} failures)",
    )
