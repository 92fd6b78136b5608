"""Command-line front end.

Exit codes: 0 success, 1 mathematical "no/fail" verdict on check commands,
2 usage or parse errors, 3 resource-cap overflow.

Global configuration comes from built-in defaults, then the JSON file named
by the CLOSURE_LAB_CONFIG environment variable (or --config), then
command-line flags. A command has a flag only for each setting it reads, as
``_COMMANDS`` declares; a config file may hold every setting.
"""

from __future__ import annotations

import argparse
import sys

from . import integrality, lab, newton, serialize
from .config import Config, load_config
from .errors import (
    ClosureLabError,
    ConfigError,
    DimensionMismatchError,
    IdealSyntaxError,
    InstanceTooLargeError,
    PreconditionError,
)
from .groebner import in_poly_ideal, poly_ideal_member, to_poly_ideal
from .monomials import MonomialIdeal, contains_monomial
from .parsing import parse_polynomial
from .polynomials import term_order
from .serialize import ParsedIdeal, canonical_json, load_ideal

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_TOO_LARGE = 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="closure-lab",
        description="Integral closures, reductions and integral-dependence "
        "certificates for ideals in polynomial rings over the rationals.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="path to a JSON config file")
    common.add_argument("--json", action="store_true", help="emit JSON output")
    common.add_argument("--output", choices=("text", "json", "csv"), help="output format")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, help: str) -> argparse.ArgumentParser:
        """The command's parser, with a flag for each setting it reads and no other."""
        p = sub.add_parser(name, parents=[common], help=help)
        for setting in _COMMANDS[name][1]:
            kind = {"choices": ("grevlex", "lex")} if setting == "order" else {"type": int}
            p.add_argument("--" + setting.replace("_", "-"), **kind)
        return p

    p = command("closure", "integral closure of a monomial ideal")
    p.add_argument("ideal", help="ideal JSON file")

    p = command("member", "ideal membership")
    p.add_argument("ideal", help="ideal JSON file")
    p.add_argument("element", help="polynomial expression")

    p = command("closure-member", "membership in the integral closure")
    p.add_argument("ideal", help="monomial ideal JSON file")
    p.add_argument("element", help="monomial expression")

    p = command("is-integral", "integrality of an ideal or element")
    p.add_argument("base", help="ideal JSON file for J")
    p.add_argument("over", nargs="?", help="ideal JSON file for I")
    p.add_argument("--element", help="polynomial expression instead of an ideal")
    p.add_argument("--certify", action="store_true", help="emit integrality certificates")

    p = command("reduction-number", "least k with I^(k+1) = J*I^k")
    p.add_argument("base", help="ideal JSON file for J")
    p.add_argument("over", help="ideal JSON file for I")

    p = command("exponents", "uniform exponent report")
    p.add_argument("ideal", help="monomial ideal JSON file")

    p = command("bs-check", "shifted-containment check closure(J^n) in J^(n-d+1)")
    p.add_argument("ideal", help="monomial ideal JSON file")

    p = command("chain-check", "containment chain J^n in closure(J)^n in closure(J^n)")
    p.add_argument("ideal", help="monomial ideal JSON file")

    p = command("witness", "lower-bound witness pair")
    p.add_argument("d", type=int, help="ambient dimension, at least 2")
    p.add_argument("--verify", action="store_true", help="run the three exact checks")

    p = command("lift-bound", "uniform exponent bound for a nilpotent extension")
    p.add_argument("k", type=int, help="exponent of the reduced ring")
    p.add_argument("constants", help="comma-separated uniform constants, or '' for none")

    p = command("sample-suite", "seeded randomized property run")
    p.add_argument("--trials", type=int, default=20)

    return parser


# The commands with a CSV layout; ``main`` rejects --output csv for the rest
# before any work runs.
_CSV_COMMANDS = ("exponents", "sample-suite")


def _emit(payload: dict, text: str, fmt: str, csv_text: str | None = None) -> None:
    if fmt == "json":
        print(canonical_json(payload))
    elif fmt == "csv":
        sys.stdout.write(csv_text)
    else:
        print(text)


def _require_monomial(parsed: ParsedIdeal, what: str) -> MonomialIdeal:
    if not isinstance(parsed.ideal, MonomialIdeal):
        raise PreconditionError(f"{what} requires a monomial ideal")
    return parsed.ideal


def _require_same_vars(a: ParsedIdeal, b: ParsedIdeal) -> None:
    if a.variables != b.variables:
        raise PreconditionError(
            f"ideal files declare different variables: {list(a.variables)} vs {list(b.variables)}"
        )


def _single_term_exponents(parsed_vars, expr: str):
    poly = parse_polynomial(expr, parsed_vars)
    if not poly.is_monomial():
        raise PreconditionError(f"expected a monomial expression, got {expr!r}")
    return next(iter(poly.terms)), poly


def _search_settings(config: Config) -> tuple:
    """The settings in ``_SEARCH``, as integrality takes them."""
    return config.k_max, term_order(config.order), config.generator_cap, config.spair_cap


# -- command handlers ----------------------------------------------------------


def _cmd_closure(args, config: Config) -> int:
    parsed = load_ideal(args.ideal)
    ideal = _require_monomial(parsed, "closure")
    closed = newton.closure(ideal, config.box_point_cap, n=1)
    payload = serialize.ideal_payload(closed, parsed.variables)
    text = "closure: " + ", ".join(payload["generators"]) if payload["generators"] else "closure: (0)"
    _emit(payload, text, config.output)
    return EXIT_OK


def _cmd_member(args, config: Config) -> int:
    parsed = load_ideal(args.ideal)
    poly = parse_polynomial(args.element, parsed.variables)
    order = term_order(config.order)
    payload: dict = {"element": serialize.format_polynomial(poly, parsed.variables)}
    if isinstance(parsed.ideal, MonomialIdeal) and poly.is_monomial():
        member = contains_monomial(parsed.ideal, next(iter(poly.terms)))
    elif config.output == "json":
        # Only the JSON form prints the lift, so only it computes one.
        quotients = poly_ideal_member(poly, to_poly_ideal(parsed.ideal), order, config.spair_cap)
        member = quotients is not None
        if member:
            payload["quotients"] = [
                serialize.format_polynomial(q, parsed.variables) for q in quotients
            ]
    else:
        member = in_poly_ideal(poly, to_poly_ideal(parsed.ideal), order, config.spair_cap)
    payload["member"] = member
    _emit(payload, f"member: {str(member).lower()}", config.output)
    return EXIT_OK if member else EXIT_CHECK_FAILED


def _cmd_closure_member(args, config: Config) -> int:
    parsed = load_ideal(args.ideal)
    ideal = _require_monomial(parsed, "closure-member")
    exps, poly = _single_term_exponents(parsed.variables, args.element)
    polyhedron = newton.polyhedron_of(ideal)
    member, weights = polyhedron.member(exps)
    payload: dict = {
        "element": serialize.format_polynomial(poly, parsed.variables),
        "member": member,
    }
    if weights is not None:
        payload["combination"] = serialize.weights_payload(
            weights, polyhedron.vertices, parsed.variables
        )
    _emit(payload, f"closure member: {str(member).lower()}", config.output)
    return EXIT_OK if member else EXIT_CHECK_FAILED


def _cmd_is_integral(args, config: Config) -> int:
    if (args.over is None) == (args.element is None):
        raise PreconditionError("provide exactly one of an ideal file or --element")
    parsed_j = load_ideal(args.base)
    settings = _search_settings(config)
    payload: dict = {}
    certificates = []
    if args.element is not None:
        poly = parse_polynomial(args.element, parsed_j.variables)
        payload["element"] = serialize.format_polynomial(poly, parsed_j.variables)
        if args.certify:
            verdict, certificate = integrality.certify_element(poly, parsed_j.ideal, *settings)
            certificates = [certificate]
        else:
            verdict = integrality.is_integral_element(poly, parsed_j.ideal, *settings)
    else:
        parsed_i = load_ideal(args.over)
        _require_same_vars(parsed_j, parsed_i)
        if args.certify:
            verdict, certificates = integrality.certify_ideal(
                parsed_j.ideal, parsed_i.ideal, *settings
            )
        else:
            verdict = integrality.is_integral_ideal(parsed_j.ideal, parsed_i.ideal, *settings)
    payload["verdict"] = verdict.kind
    if verdict.is_unknown:
        payload["k_max"] = verdict.k_max
    if args.certify:
        payload["certificates"] = [
            serialize.certificate_payload(c, parsed_j.ideal, parsed_j.variables)
            for c in certificates
            if c is not None
        ]
    _emit(payload, f"integral: {verdict}", config.output)
    return EXIT_OK if verdict.is_yes else EXIT_CHECK_FAILED


def _cmd_reduction_number(args, config: Config) -> int:
    parsed_j = load_ideal(args.base)
    parsed_i = load_ideal(args.over)
    _require_same_vars(parsed_j, parsed_i)
    outcome = integrality.reduction_number(parsed_j.ideal, parsed_i.ideal, *_search_settings(config))
    if isinstance(outcome, integrality.ReductionWitness):
        payload = {"k": outcome.k, "verified": outcome.verified}
        _emit(payload, f"reduction number: {outcome.k}", config.output)
        return EXIT_OK
    payload = {"not_up_to": outcome.k_max}
    _emit(payload, f"no reduction exponent up to {outcome.k_max}", config.output)
    return EXIT_CHECK_FAILED


def _cmd_exponents(args, config: Config) -> int:
    parsed = load_ideal(args.ideal)
    ideal = _require_monomial(parsed, "exponents")
    report = lab.uniform_exponents(
        ideal, config.n_max, config.generator_cap, config.box_point_cap
    )
    payload = serialize.exponent_report_payload(report, parsed.variables)
    lines = ["n  s_bar  s_closure"]
    for row in report.rows:
        lines.append(f"{row.n}  {row.s_bar}      {row.s_closure}")
    lines.append(f"k_bar = {report.k_bar}, k_cl = {report.k_cl}")
    _emit(
        payload,
        "\n".join(lines),
        config.output,
        serialize.exponent_report_csv(report, parsed.variables),
    )
    return EXIT_OK


def _cmd_bs_check(args, config: Config) -> int:
    parsed = load_ideal(args.ideal)
    ideal = _require_monomial(parsed, "bs-check")
    report = lab.lipman_sathaye_check(
        ideal, config.n_max, config.generator_cap, config.box_point_cap
    )
    payload = serialize.shifted_report_payload(report, parsed.variables)
    rows = ", ".join(f"n={row.n}:{'ok' if row.holds else 'FAIL'}" for row in report.rows)
    _emit(payload, f"shifted containment: {rows or 'no rows'}", config.output)
    return EXIT_OK if report.ok else EXIT_CHECK_FAILED


def _cmd_chain_check(args, config: Config) -> int:
    parsed = load_ideal(args.ideal)
    ideal = _require_monomial(parsed, "chain-check")
    ok = lab.chain_check(ideal, config.n_max, config.generator_cap, config.box_point_cap)
    payload = {"ideal": serialize.ideal_payload(ideal, parsed.variables), "ok": ok}
    _emit(payload, f"chain check: {'ok' if ok else 'FAIL'}", config.output)
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def _cmd_witness(args, config: Config) -> int:
    if args.verify:
        verdict = lab.verify_witness(args.d)
        payload = serialize.witness_verdict_payload(verdict)
        text = (
            f"witness d={args.d}: integral={verdict.integral}, "
            f"diagonal outside J={verdict.diagonal_outside}, "
            f"I^(d-1) not in J={verdict.power_not_contained} -> "
            f"{'pass' if verdict.passed else 'FAIL'}"
        )
        _emit(payload, text, config.output)
        return EXIT_OK if verdict.passed else EXIT_CHECK_FAILED
    pair = lab.witness_pair(args.d)
    variables = serialize.default_variables(args.d)
    payload = {
        "d": args.d,
        "vars": list(variables),
        "J": serialize.ideal_payload(pair.j_ideal, variables),
        "I": serialize.ideal_payload(pair.i_ideal, variables),
    }
    text = (
        f"J = ({', '.join(payload['J']['generators'])})\n"
        f"I = ({', '.join(payload['I']['generators'])})"
    )
    _emit(payload, text, config.output)
    return EXIT_OK


def _cmd_lift_bound(args, config: Config) -> int:
    raw = args.constants.strip()
    try:
        constants = [int(piece) for piece in raw.split(",")] if raw else []
    except ValueError as exc:
        raise PreconditionError(f"constants must be integers: {exc}") from exc
    bound = lab.nilpotent_lift_bound(args.k, constants)
    payload = {"k": args.k, "constants": constants, "bound": bound}
    _emit(payload, f"lift bound: {bound}", config.output)
    return EXIT_OK


def _cmd_sample_suite(args, config: Config) -> int:
    report = lab.sample_suite(
        args.trials,
        config.seed,
        config.n_max,
        min(config.k_max, 10),
        config.generator_cap,
        config.box_point_cap,
    )
    payload = serialize.suite_payload(report)
    lines = [f"suite: seed={report.seed} trials={report.trials} n_max={report.n_max}"]
    for result in report.results:
        lines.append(
            f"trial {result.index}: dim={result.dim} chain={result.chain_ok} "
            f"shifted={result.shifted_ok} k_bar={result.k_bar} k_cl={result.k_cl} "
            f"bound={result.bound_ok} agree={result.integrality_agree}"
        )
    lines.append(f"failures: {report.failures}")
    _emit(payload, "\n".join(lines), config.output, serialize.suite_csv(report))
    return EXIT_OK if report.ok else EXIT_CHECK_FAILED


# Each command's handler and the Config settings that handler reads, which
# are the only settings flags its parser gets and the only ones main passes on.
_SEARCH = ("k_max", "order", "generator_cap", "spair_cap")
_LAB = ("n_max", "generator_cap", "box_point_cap")
_COMMANDS = {
    "closure": (_cmd_closure, ("box_point_cap",)),
    "member": (_cmd_member, ("order", "spair_cap")),
    "closure-member": (_cmd_closure_member, ()),
    "is-integral": (_cmd_is_integral, _SEARCH),
    "reduction-number": (_cmd_reduction_number, _SEARCH),
    "exponents": (_cmd_exponents, _LAB),
    "bs-check": (_cmd_bs_check, _LAB),
    "chain-check": (_cmd_chain_check, _LAB),
    "witness": (_cmd_witness, ()),
    "lift-bound": (_cmd_lift_bound, ()),
    "sample-suite": (
        _cmd_sample_suite, ("seed", "n_max", "k_max", "generator_cap", "box_point_cap")
    ),
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handler, settings = _COMMANDS[args.command]
    try:
        if args.json and args.output not in (None, "json"):
            raise PreconditionError(f"--json conflicts with --output {args.output}")
        config = load_config(
            args.config,
            output=args.output or ("json" if args.json else None),
            **{name: getattr(args, name) for name in settings},
        )
        if config.output == "csv" and args.command not in _CSV_COMMANDS:
            raise PreconditionError("csv output is not defined for this command")
        return handler(args, config)
    except InstanceTooLargeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_TOO_LARGE
    except (
        IdealSyntaxError,
        ConfigError,
        PreconditionError,
        DimensionMismatchError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ClosureLabError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
