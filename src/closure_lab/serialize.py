"""Canonical text and JSON forms for ideals, certificates and lab reports.

Every emitter here is deterministic: generators keep their canonical order,
polynomial terms are printed in descending grevlex order, JSON objects are
dumped with sorted keys and fixed separators. Identical inputs therefore
produce byte-identical output, which the CLI's golden tests rely on.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import IdealSyntaxError
from .groebner import PolyIdeal, to_poly_ideal
from .integrality import IntegralityCertificate, MembershipProof
from .lab import ShiftedContainmentReport, SuiteReport, UniformExponentReport, WitnessVerdict
from .monomials import ExponentVector, MonomialIdeal
from .newton import RationalCertificate
from .parsing import VARIABLE_NAME_RE, parse_polynomial
from .polynomials import GREVLEX, Polynomial


def canonical_json(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(", ", ": "))


# -- polynomial and monomial printing ----------------------------------------


def format_coefficient(value: Fraction) -> str:
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def format_monomial(exps: ExponentVector, variables: Sequence[str]) -> str:
    parts = []
    for name, exponent in zip(variables, exps):
        if exponent == 1:
            parts.append(name)
        elif exponent > 1:
            parts.append(f"{name}^{exponent}")
    return "*".join(parts) if parts else "1"


def format_polynomial(poly: Polynomial, variables: Sequence[str]) -> str:
    """Canonical expression string; re-parses to the same polynomial."""
    if poly.is_zero:
        return "0"
    pieces = []
    for position, (exps, coeff) in enumerate(poly.sorted_terms(GREVLEX)):
        magnitude = abs(coeff)
        body = format_monomial(exps, variables)
        if body == "1":
            text = format_coefficient(magnitude)
        elif magnitude == 1:
            text = body
        else:
            text = f"{format_coefficient(magnitude)}*{body}"
        if position == 0:
            pieces.append(text if coeff > 0 else f"-{text}")
        else:
            pieces.append(f"+ {text}" if coeff > 0 else f"- {text}")
    return " ".join(pieces)


# -- ideal files ---------------------------------------------------------------


@dataclass(frozen=True)
class ParsedIdeal:
    variables: tuple[str, ...]
    ideal: MonomialIdeal | PolyIdeal


def parse_ideal(text: str) -> ParsedIdeal:
    """Parse the ideal-file JSON schema {"vars": [...], "generators": [...]}.

    The ideal is classified as monomial when every generator is a single
    term (the coefficient is normalized away); otherwise it stays general.
    """
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise IdealSyntaxError(
            f"ideal file is not valid JSON: {exc.msg}", exc.lineno, exc.colno
        ) from exc
    except RecursionError as exc:
        raise IdealSyntaxError("ideal file is nested too deeply") from exc
    if not isinstance(raw, dict):
        raise IdealSyntaxError("ideal file must hold a JSON object")
    variables = raw.get("vars")
    generators = raw.get("generators")
    if not isinstance(variables, list) or not variables:
        raise IdealSyntaxError('ideal file needs a nonempty "vars" list')
    for name in variables:
        if not isinstance(name, str) or not VARIABLE_NAME_RE.match(name):
            raise IdealSyntaxError(f"invalid variable name {name!r}")
    if len(set(variables)) != len(variables):
        raise IdealSyntaxError("variable names must be distinct")
    if not isinstance(generators, list) or not generators:
        raise IdealSyntaxError('ideal file needs a nonempty "generators" list')
    polys = []
    for index, expr in enumerate(generators):
        if not isinstance(expr, str):
            raise IdealSyntaxError(f"generator {index} must be a string")
        poly = parse_polynomial(expr, variables)
        if poly.is_zero:
            raise IdealSyntaxError(f"generator {index} is the zero polynomial")
        polys.append(poly)
    variables = tuple(variables)
    if all(p.is_monomial() for p in polys):
        exponents = [next(iter(p.terms)) for p in polys]
        return ParsedIdeal(variables, MonomialIdeal(len(variables), tuple(exponents)))
    return ParsedIdeal(variables, PolyIdeal(len(variables), tuple(polys)))


def load_ideal(path: str) -> ParsedIdeal:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise IdealSyntaxError(f"cannot read ideal file {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise IdealSyntaxError(f"ideal file {path} is not UTF-8: {exc}") from exc
    return parse_ideal(text)


def generator_strings(
    ideal: MonomialIdeal | PolyIdeal, variables: Sequence[str]
) -> list[str]:
    if isinstance(ideal, MonomialIdeal):
        return [format_monomial(g, variables) for g in ideal.gens]
    return [format_polynomial(g, variables) for g in ideal.gens]


def ideal_payload(ideal: MonomialIdeal | PolyIdeal, variables: Sequence[str]) -> dict:
    return {"vars": list(variables), "generators": generator_strings(ideal, variables)}


def ideal_id(ideal: MonomialIdeal | PolyIdeal, variables: Sequence[str]) -> str:
    """A compact single-field identifier: generators joined by semicolons."""
    return ";".join(generator_strings(ideal, variables))


def default_variables(dim: int) -> tuple[str, ...]:
    return tuple(f"x{i + 1}" for i in range(dim))


# -- certificates ---------------------------------------------------------------


def _proof_payload(
    power: int, proof: MembershipProof, base: PolyIdeal, variables: Sequence[str]
) -> dict:
    return {
        "power": power,
        "factors": [list(factor) for factor in proof.factors],
        "generators": [format_polynomial(g, variables) for g in proof.products(base)],
        "quotients": [format_polynomial(q, variables) for q in proof.quotients],
    }


def certificate_payload(
    certificate: IntegralityCertificate,
    base: MonomialIdeal | PolyIdeal,
    variables: Sequence[str],
) -> dict:
    """The certificate with ``base``, the generators of J in the order the
    proofs' factor indices refer to; the coefficients and each proof's
    generators are its multisets multiplied out over ``base``."""
    j_poly = to_poly_ideal(base)
    return {
        "base": generator_strings(base, variables),
        "element": format_polynomial(certificate.element, variables),
        "n": certificate.degree,
        "coefficients": [
            format_polynomial(c, variables) for c in certificate.coefficients(j_poly)
        ],
        "memberships": [
            _proof_payload(i, p, j_poly, variables)
            for i, p in enumerate(certificate.proofs, start=1)
        ],
    }


def weights_payload(
    weights: RationalCertificate, vertices: Sequence[ExponentVector], variables: Sequence[str]
) -> list[dict]:
    return [
        {"generator": format_monomial(v, variables), "weight": format_coefficient(lam)}
        for v, lam in zip(vertices, weights.lambdas)
    ]


# -- lab reports -----------------------------------------------------------------


def exponent_report_payload(
    report: UniformExponentReport, variables: Sequence[str]
) -> dict:
    return {
        "ideal": ideal_payload(report.ideal, variables),
        "n_max": report.n_max,
        "rows": [
            {"n": row.n, "s_bar": row.s_bar, "s_closure": row.s_closure}
            for row in report.rows
        ],
        "k_bar": report.k_bar,
        "k_cl": report.k_cl,
    }


def exponent_report_csv(report: UniformExponentReport, variables: Sequence[str]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["ideal_id", "n", "s_bar", "s_closure", "k_bar", "k_cl"])
    identifier = ideal_id(report.ideal, variables)
    for row in report.rows:
        writer.writerow(
            [identifier, row.n, row.s_bar, row.s_closure, report.k_bar, report.k_cl]
        )
    return buffer.getvalue()


def shifted_report_payload(
    report: ShiftedContainmentReport, variables: Sequence[str]
) -> dict:
    return {
        "ideal": ideal_payload(report.ideal, variables),
        "n_max": report.n_max,
        "rows": [{"n": row.n, "holds": row.holds} for row in report.rows],
        "ok": report.ok,
    }


def witness_verdict_payload(verdict: WitnessVerdict) -> dict:
    variables = default_variables(verdict.d)
    return {
        "d": verdict.d,
        "vars": list(variables),
        "J": ideal_payload(verdict.pair.j_ideal, variables),
        "I": ideal_payload(verdict.pair.i_ideal, variables),
        "integral": verdict.integral,
        "diagonal": format_monomial(verdict.diagonal, variables),
        "diagonal_outside_J": verdict.diagonal_outside,
        "power_not_contained": verdict.power_not_contained,
        "passed": verdict.passed,
    }


# The columns of a sample-suite row, in its JSON and its CSV alike.
_SUITE_FIELDS = (
    "trial",
    "dim",
    "ideal_id",
    "chain_ok",
    "shifted_ok",
    "k_bar",
    "k_cl",
    "bound_ok",
    "integrality_agree",
)


def suite_payload(report: SuiteReport) -> dict:
    rows = []
    for result in report.results:
        values = (
            result.index,
            result.dim,
            ideal_id(result.ideal, default_variables(result.dim)),
            result.chain_ok,
            result.shifted_ok,
            result.k_bar,
            result.k_cl,
            result.bound_ok,
            result.integrality_agree,
        )
        rows.append(dict(zip(_SUITE_FIELDS, values)))
    return {
        "seed": report.seed,
        "trials": report.trials,
        "n_max": report.n_max,
        "results": rows,
        "failures": report.failures,
        "ok": report.ok,
    }


def suite_csv(report: SuiteReport) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(_SUITE_FIELDS)
    writer.writerows(row.values() for row in suite_payload(report)["results"])
    return buffer.getvalue()
