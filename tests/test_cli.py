from __future__ import annotations

import csv
import io
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from closure_lab import cli, integrality, newton
from closure_lab.cli import main
from closure_lab.groebner import GroebnerBasis
from closure_lab.newton import polyhedron_of
from closure_lab.parsing import parse_polynomial
from closure_lab.serialize import parse_ideal
from helpers import package_env

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture()
def ideal_file(tmp_path: Path):
    def write(name: str, payload: dict) -> str:
        path = tmp_path / name
        path.write_text(json.dumps(payload), encoding="utf-8")
        return str(path)

    return write


X2Y2 = {"vars": ["x", "y"], "generators": ["x^2", "y^2"]}
FULL = {"vars": ["x", "y"], "generators": ["x^2", "x*y", "y^2"]}


def run_main(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_closure_json_golden(ideal_file, capsys):
    code, out, _ = run_main(capsys, "closure", ideal_file("j.json", X2Y2), "--json")
    assert code == 0
    assert out == '{"generators": ["x^2", "x*y", "y^2"], "vars": ["x", "y"]}\n'


def test_closure_round_trip(ideal_file, capsys):
    code, out, _ = run_main(capsys, "closure", ideal_file("j.json", X2Y2), "--json")
    parsed = parse_ideal(out)
    assert parsed.ideal.gens == ((2, 0), (1, 1), (0, 2))


def test_closure_rejects_general_ideals(ideal_file, capsys):
    path = ideal_file("g.json", {"vars": ["x"], "generators": ["x^2 - x"]})
    code, _, err = run_main(capsys, "closure", path)
    assert code == 2
    assert "monomial" in err


def test_member_exit_codes(ideal_file, capsys):
    path = ideal_file("j.json", X2Y2)
    assert run_main(capsys, "member", path, "x^2*y")[0] == 0
    assert run_main(capsys, "member", path, "x*y")[0] == 1
    code, out, _ = run_main(capsys, "member", path, "x^2 + y^2", "--json")
    assert code == 0
    assert out == '{"element": "x^2 + y^2", "member": true, "quotients": ["1", "1"]}\n'


def test_member_text_is_a_verdict_with_no_lift(ideal_file, capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("a text verdict lifted")

    monkeypatch.setattr(GroebnerBasis, "lift", refuse)
    path = ideal_file("j.json", X2Y2)
    assert run_main(capsys, "member", path, "x^2 + y^2") == (0, "member: true\n", "")
    assert run_main(capsys, "member", path, "x^2 + y")[:2] == (1, "member: false\n")


def test_member_json_lifts_a_generator_to_its_unit_vector(capsys):
    path = str(ROOT / "ideals" / "lex_rows.json")
    code, out, _ = run_main(capsys, "member", path, "x^2*y^2*z^2 - x*z^2", "--order", "lex", "--json")
    assert code == 0
    assert json.loads(out)["quotients"] == ["0", "0", "1"]


def test_member_answers_a_generator_under_any_spair_cap(capsys):
    # A generator needs no basis, so neither form meets the S-pair cap.
    for name, element, order in (
        ("general.json", "x^2 - y", "grevlex"),
        ("lex_rows.json", "x^2*y^2*z^2 - x*z^2", "lex"),
    ):
        path = str(ROOT / "ideals" / name)
        flags = ("--order", order, "--spair-cap", "1")
        assert run_main(capsys, "member", path, element, *flags) == (0, "member: true\n", "")
        code, out, _ = run_main(capsys, "member", path, element, *flags, "--json")
        assert code == 0 and json.loads(out)["member"] is True


def test_closure_member_weights(ideal_file, capsys):
    path = ideal_file("j.json", X2Y2)
    code, out, _ = run_main(capsys, "closure-member", path, "x*y", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["member"] is True
    weights = {row["generator"]: row["weight"] for row in payload["combination"]}
    assert weights == {"x^2": "1/2", "y^2": "1/2"}
    assert run_main(capsys, "closure-member", path, "x")[0] == 1


def test_closure_member_builds_one_polyhedron(ideal_file, capsys, monkeypatch):
    calls = []

    def recording(ideal):
        calls.append(ideal)
        return polyhedron_of(ideal)

    monkeypatch.setattr(newton, "polyhedron_of", recording)
    path = ideal_file("j.json", X2Y2)
    for element, code in (("x*y", 0), ("x", 1)):
        calls.clear()
        assert run_main(capsys, "closure-member", path, element, "--json")[0] == code
        assert len(calls) == 1, element


def test_is_integral_ideal_paths(ideal_file, capsys):
    j_path = ideal_file("j.json", X2Y2)
    i_path = ideal_file("i.json", FULL)
    code, out, _ = run_main(capsys, "is-integral", j_path, i_path, "--json")
    assert code == 0 and json.loads(out)["verdict"] == "yes"

    bad = ideal_file("bad.json", {"vars": ["x", "y"], "generators": ["x", "y"]})
    assert run_main(capsys, "is-integral", j_path, bad)[0] == 1

    code, out, _ = run_main(
        capsys, "is-integral", j_path, "--element", "x + y", "--k-max", "3", "--json"
    )
    assert code == 1
    payload = json.loads(out)
    assert payload["verdict"] == "unknown" and payload["k_max"] == 3


def test_is_integral_requires_exactly_one_target(ideal_file, capsys):
    j_path = ideal_file("j.json", X2Y2)
    assert run_main(capsys, "is-integral", j_path)[0] == 2
    i_path = ideal_file("i.json", FULL)
    assert run_main(capsys, "is-integral", j_path, i_path, "--element", "x")[0] == 2


def test_is_integral_certificates_verify_in_json(ideal_file, capsys):
    j_path = ideal_file("j.json", X2Y2)
    i_path = ideal_file("i.json", FULL)
    code, out, _ = run_main(capsys, "is-integral", j_path, i_path, "--certify", "--json")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["certificates"]) == 3
    for cert in payload["certificates"]:
        assert cert["n"] >= 1
        assert len(cert["coefficients"]) == cert["n"]
        assert len(cert["memberships"]) == cert["n"]


def _recheck_by_multiplying_out(cert: dict, variables: list[str]) -> None:
    """A reader's check of one --certify certificate from its JSON alone:
    each cited product of "base" generators is the listed generator, the
    memberships sum to the coefficients, and the equation vanishes."""
    def poly(text):
        return parse_polynomial(text, variables)

    base = [poly(g) for g in cert["base"]]
    element = poly(cert["element"])
    n = cert["n"]
    total = element ** n
    for i, (coeff, proof) in enumerate(zip(cert["coefficients"], cert["memberships"]), 1):
        assert proof["power"] == i
        combination = poly("0")
        for factor, generator, quotient in zip(
            proof["factors"], proof["generators"], proof["quotients"], strict=True
        ):
            assert len(factor) == i
            product = poly("1")
            for index in factor:
                product = product * base[index]
            assert product == poly(generator)
            combination = combination + poly(quotient) * product
        assert combination == poly(coeff)
        total = total + poly(coeff) * element ** (n - i)
    assert total.is_zero


def test_is_integral_ideal_form_certifies_every_generator(ideal_file, capsys):
    # (x^4, y^4) in (x, y)^4 sheared by x -> x + y: the verdict's search
    # answers k = 1 at k_max 2, but (x+y)^3*y and (x+y)*y^3 over J alone
    # need k = 3, so their certificates come from the search over J + I
    j_path = ideal_file("j.json", {"vars": ["x", "y"], "generators": ["(x+y)^4", "y^4"]})
    powers = ["(x+y)^4", "(x+y)^3*y", "y^4", "(x+y)^2*y^2", "(x+y)*y^3"]
    i_path = ideal_file("i.json", {"vars": ["x", "y"], "generators": powers})
    code, out, _ = run_main(
        capsys, "is-integral", j_path, i_path, "--k-max", "2", "--certify", "--json"
    )
    assert code == 0
    certificates = json.loads(out)["certificates"]
    assert [cert["n"] for cert in certificates] == [1, 5, 1, 3, 5]
    for cert, power in zip(certificates, powers, strict=True):
        assert parse_polynomial(cert["element"], ["x", "y"]) == parse_polynomial(power, ["x", "y"])
        _recheck_by_multiplying_out(cert, ["x", "y"])


def test_certify_json_pins_bytes(capsys):
    x2y2 = str(ROOT / "ideals" / "x2y2.json")
    code, out, _ = run_main(capsys, "is-integral", x2y2, "--element", "x*y", "--certify", "--json")
    assert code == 0
    assert out == (
        '{"certificates": [{"base": ["x^2", "y^2"], "coefficients": ["0", "-x^2*y^2"], '
        '"element": "x*y", "memberships": [{"factors": [], "generators": [], "power": 1, '
        '"quotients": []}, {"factors": [[0, 1]], "generators": ["x^2*y^2"], "power": 2, '
        '"quotients": ["-1"]}], "n": 2}], "element": "x*y", "verdict": "yes"}\n'
    )
    code, out, _ = run_main(
        capsys, "is-integral", x2y2, "--element", "x*y + x^2", "--certify", "--json"
    )
    assert code == 0
    assert out == (
        '{"certificates": [{"base": ["x^2", "y^2"], "coefficients": ["-2*x^2", '
        '"x^4 - x^2*y^2", "0"], "element": "x^2 + x*y", "memberships": [{"factors": [[0]], '
        '"generators": ["x^2"], "power": 1, "quotients": ["-2"]}, {"factors": [[0, 0], '
        '[0, 1]], "generators": ["x^4", "x^2*y^2"], "power": 2, "quotients": ["1", "-1"]}, '
        '{"factors": [], "generators": [], "power": 3, "quotients": []}], "n": 3}], '
        '"element": "x^2 + x*y", "verdict": "yes"}\n'
    )


def test_certify_element_runs_one_reduction_search(capsys, monkeypatch):
    calls = []

    def counting(*args):
        calls.append(args)
        return reduction_number(*args)

    reduction_number = integrality.reduction_number
    monkeypatch.setattr(integrality, "reduction_number", counting)
    x3y3 = str(ROOT / "ideals" / "x3y3.json")
    code, out, _ = run_main(
        capsys, "is-integral", x3y3, "--element", "x^2*y^2+x^3*y", "--certify", "--json"
    )
    assert code == 0 and len(json.loads(out)["certificates"]) == 1
    assert len(calls) == 1


def test_certify_json_is_self_contained(ideal_file, capsys):
    # the file lists J's generators out of canonical order; "base" restores
    # the order the factor indices refer to
    j_path = ideal_file("j.json", {"vars": ["x", "y"], "generators": ["y^2", "x^2"]})
    i_path = ideal_file("i.json", FULL)
    code, out, _ = run_main(capsys, "is-integral", j_path, i_path, "--certify", "--json")
    assert code == 0
    certificates = json.loads(out)["certificates"]
    assert all(cert["base"] == ["x^2", "y^2"] for cert in certificates)
    for element in ("x*y", "x^2 + x*y", "3*x*y - y^2"):
        code, out, _ = run_main(
            capsys, "is-integral", j_path, "--element", element, "--certify", "--json"
        )
        assert code == 0
        certificates += json.loads(out)["certificates"]
    assert len(certificates) == 6
    for cert in certificates:
        _recheck_by_multiplying_out(cert, ["x", "y"])


def test_certify_nine_variables_cites_one_product(capsys):
    # J^9 of (x0^9, ..., x8^9) has 24,310 minimal generators; the proof
    # needs only their product x0^9 * ... * x8^9
    diag9 = str(ROOT / "ideals" / "diag9.json")
    element = "*".join(f"x{i}" for i in range(9))
    code, out, _ = run_main(
        capsys, "is-integral", diag9, "--element", element, "--certify", "--json"
    )
    assert code == 0
    cert = json.loads(out)["certificates"][0]
    assert cert["n"] == 9
    assert [p["factors"] for p in cert["memberships"]] == [[]] * 8 + [[list(range(9))]]
    _recheck_by_multiplying_out(cert, [f"x{i}" for i in range(9)])


def test_reduction_number_exit_codes(ideal_file, capsys):
    j_path = ideal_file("j.json", X2Y2)
    i_path = ideal_file("i.json", FULL)
    code, out, _ = run_main(capsys, "reduction-number", j_path, i_path, "--json")
    assert code == 0 and json.loads(out) == {"k": 1, "verified": True}

    too_big = ideal_file("t.json", {"vars": ["x", "y"], "generators": ["x", "y"]})
    code, out, _ = run_main(capsys, "reduction-number", j_path, too_big, "--k-max", "4", "--json")
    assert code == 1 and json.loads(out) == {"not_up_to": 4}


def test_reduction_number_cap_bounds_the_products_it_builds(ideal_file, capsys):
    # J * I^4 = x^3*y * (x^4, x^3*y)^4 has 5 minimal generators and E^5 = (x^20)
    # has 1; I^5, which the search does not build, would have 6.
    j_path = ideal_file("j.json", {"vars": ["x", "y"], "generators": ["x^3*y"]})
    i_path = ideal_file("i.json", {"vars": ["x", "y"], "generators": ["x^4", "x^3*y"]})
    code, out, _ = run_main(
        capsys, "reduction-number", j_path, i_path, "--k-max", "4", "--generator-cap", "5"
    )
    assert code == 1 and out == "no reduction exponent up to 4\n"
    code, _, err = run_main(
        capsys, "reduction-number", j_path, i_path, "--k-max", "4", "--generator-cap", "4"
    )
    assert code == 3 and "cap is 4 (generator_cap)" in err


def test_exponents_formats(ideal_file, capsys):
    path = ideal_file("j.json", X2Y2)
    code, out, _ = run_main(capsys, "exponents", path, "--n-max", "2", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["k_bar"] == 1 and payload["k_cl"] == 1
    assert payload["rows"] == [
        {"n": 1, "s_bar": 0, "s_closure": 0},
        {"n": 2, "s_bar": 1, "s_closure": 1},
    ]
    code, out, _ = run_main(capsys, "exponents", path, "--n-max", "2", "--output", "csv")
    assert code == 0
    assert out.splitlines()[0] == "ideal_id,n,s_bar,s_closure,k_bar,k_cl"


def test_exponents_cap_meets_no_power_above_n_max(capsys):
    # J = (x^2, x*y, y^2): J^2 has 5 minimal generators and J^3, which no row
    # of n_max = 2 reports, has 7, so cap 6 answers
    path = str(ROOT / "ideals" / "mixed.json")
    code, out, err = run_main(capsys, "exponents", path, "--n-max", "2", "--generator-cap", "6")
    assert code == 0 and not err
    assert out.splitlines()[-1] == "k_bar = 0, k_cl = 0"
    code, _, err = run_main(capsys, "exponents", path, "--n-max", "2", "--generator-cap", "4")
    assert code == 3 and "product has 5 minimal generators, cap is 4 (generator_cap)" in err


def test_checks_and_witness(ideal_file, capsys):
    path = ideal_file("j.json", X2Y2)
    assert run_main(capsys, "bs-check", path, "--n-max", "4")[0] == 0
    assert run_main(capsys, "chain-check", path, "--n-max", "3")[0] == 0
    code, out, _ = run_main(capsys, "witness", "3", "--verify", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert payload["J"]["generators"] == ["x1^3", "x2^3", "x3^3"]
    code, out, _ = run_main(capsys, "witness", "2", "--json")
    assert code == 0
    assert json.loads(out)["I"]["generators"] == ["x1^2", "x1*x2", "x2^2"]


def test_witness_verify_builds_no_power(capsys):
    # (c) cites one product of d - 1 generators of I, so I^7 (116,280
    # generators) is never built at d = 8
    code, out, _ = run_main(capsys, "witness", "8", "--verify", "--json")
    assert code == 0
    assert json.loads(out)["passed"] is True


def test_lift_bound(capsys):
    code, out, _ = run_main(capsys, "lift-bound", "2", "3,4", "--json")
    assert code == 0
    assert json.loads(out) == {"bound": 13, "constants": [3, 4], "k": 2}
    code, out, _ = run_main(capsys, "lift-bound", "0", "", "--json")
    assert code == 0
    assert json.loads(out)["bound"] == 0
    assert run_main(capsys, "lift-bound", "1", "x")[0] == 2


def test_lift_bound_rejects_empty_constants(capsys):
    code, out, _ = run_main(capsys, "lift-bound", "2", "  ")
    assert (code, out) == (0, "lift bound: 2\n")
    for constants in ("1,,2", ",", "3,"):
        code, out, err = run_main(capsys, "lift-bound", "2", constants)
        assert code == 2 and out == "" and "constants must be integers" in err


def test_parse_error_exit_code(ideal_file, capsys):
    path = ideal_file("bad.json", {"vars": ["x"], "generators": ["y"]})
    code, _, err = run_main(capsys, "closure", path)
    assert code == 2 and "y" in err
    assert run_main(capsys, "closure", "/nonexistent/ideal.json")[0] == 2


def _nested(depth: int, inner: str = "x") -> str:
    return "(" * depth + inner + ")" * depth


def test_non_utf8_ideal_file_exit_code(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes('{"vars": ["x"], "generators": ["x^2"]} \u00e9'.encode("latin-1"))
    code, _, err = run_main(capsys, "closure", str(path))
    assert code == 2 and "UTF-8" in err


def test_deeply_nested_ideal_file_exit_code(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
    code, _, err = run_main(capsys, "closure", str(path))
    assert code == 2 and "nested" in err


def test_deeply_nested_expression_in_a_file_exit_code(ideal_file, capsys):
    path = ideal_file("parens.json", {"vars": ["x"], "generators": [_nested(300)]})
    code, _, err = run_main(capsys, "closure", path)
    assert code == 2 and "nested" in err
    path = ideal_file("shallow.json", {"vars": ["x"], "generators": [_nested(50, "x^2")]})
    assert run_main(capsys, "closure", path)[0] == 0


def test_deeply_nested_expression_on_the_command_line_exit_code(ideal_file, capsys):
    path = ideal_file("j.json", X2Y2)
    code, _, err = run_main(capsys, "member", path, _nested(300))
    assert code == 2 and "nested" in err
    assert run_main(capsys, "member", path, _nested(50, "x^2*y"))[0] == 0


def test_non_utf8_config_file_exit_code(ideal_file, capsys, tmp_path, monkeypatch):
    config = tmp_path / "config.json"
    config.write_bytes(b'{"n_max": 2, "output": "\xe9"}')
    monkeypatch.setenv("CLOSURE_LAB_CONFIG", str(config))
    code, _, err = run_main(capsys, "exponents", ideal_file("j.json", X2Y2))
    assert code == 2 and "UTF-8" in err


def test_deeply_nested_config_file_exit_code(ideal_file, capsys, tmp_path, monkeypatch):
    config = tmp_path / "config.json"
    config.write_text('{"n_max": ' + "[" * 100_000 + "]" * 100_000 + "}", encoding="utf-8")
    monkeypatch.setenv("CLOSURE_LAB_CONFIG", str(config))
    code, _, err = run_main(capsys, "exponents", ideal_file("j.json", X2Y2))
    assert code == 2 and "nested" in err


def test_config_rejects_booleans(ideal_file, capsys, tmp_path, monkeypatch):
    path = ideal_file("j.json", X2Y2)
    config = tmp_path / "config.json"
    monkeypatch.setenv("CLOSURE_LAB_CONFIG", str(config))
    fields = ("k_max", "n_max", "generator_cap", "box_point_cap", "spair_cap", "seed")
    for name in fields:
        for value in (True, False):
            config.write_text(json.dumps({name: value}), encoding="utf-8")
            code, out, err = run_main(capsys, "exponents", path)
            assert code == 2 and not out and name in err, (name, value)
    config.write_text(json.dumps({"k_max": True, "n_max": True}), encoding="utf-8")
    assert run_main(capsys, "exponents", path)[0] == 2


def test_cap_overflow_exit_code(ideal_file, capsys):
    # each cap exit names the config key of the cap it hit
    path = ideal_file("big.json", {"vars": ["x", "y"], "generators": ["x^9", "y^9"]})
    general = str(ROOT / "ideals" / "general.json")
    lex_rows = str(ROOT / "ideals" / "lex_rows.json")
    for argv, message in (
        (
            ("closure", path, "--box-point-cap", "5"),
            "closure box has 10 prefixes over the first 1 coordinates, cap is 5 (box_point_cap)",
        ),
        (
            ("is-integral", general, "--element", "x*y", "--generator-cap", "3"),
            "product has 5 generators, cap is 3 (generator_cap)",
        ),
        (
            ("member", general, "x^3 - 1", "--spair-cap", "1"),
            "processed 2 S-pairs, cap is 1 (spair_cap)",
        ),
        (
            ("member", lex_rows, "x", "--order", "lex", "--spair-cap", "3"),
            "S-pair queue reached 4, cap is 3 (spair_cap)",
        ),
    ):
        assert run_main(capsys, *argv) == (3, "", f"error: {message}\n"), argv


def test_json_conflicting_with_output_exits_2(ideal_file, capsys):
    path = ideal_file("j.json", X2Y2)
    for fmt in ("text", "csv"):
        code, out, err = run_main(
            capsys, "is-integral", path, "--element", "x*y", "--json", "--output", fmt
        )
        assert code == 2 and out == ""
        assert "--json" in err and f"--output {fmt}" in err
    code, out, _ = run_main(
        capsys, "is-integral", path, "--element", "x*y", "--json", "--output", "json"
    )
    assert (code, out) == (0, '{"element": "x*y", "verdict": "yes"}\n')


def test_csv_rejected_where_undefined(ideal_file, capsys):
    path = ideal_file("j.json", X2Y2)
    code, _, err = run_main(capsys, "closure", path, "--output", "csv")
    assert code == 2 and "csv" in err
    # the format is rejected before any work, so a cap the work would hit
    # does not answer first
    code, _, err = run_main(capsys, "closure", path, "--box-point-cap", "1", "--output", "csv")
    assert code == 2 and "csv" in err


def test_config_file_and_flag_precedence(ideal_file, capsys, tmp_path, monkeypatch):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"n_max": 2, "output": "json"}), encoding="utf-8")
    monkeypatch.setenv("CLOSURE_LAB_CONFIG", str(config))
    path = ideal_file("j.json", X2Y2)
    code, out, _ = run_main(capsys, "exponents", path)
    assert code == 0
    assert len(json.loads(out)["rows"]) == 2
    # flags override the config file
    code, out, _ = run_main(capsys, "exponents", path, "--n-max", "3")
    assert len(json.loads(out)["rows"]) == 3
    bad = tmp_path / "bad.json"
    bad.write_text('{"weird": 1}', encoding="utf-8")
    monkeypatch.setenv("CLOSURE_LAB_CONFIG", str(bad))
    assert run_main(capsys, "exponents", path)[0] == 2


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as info:
        main(["no-such-command"])
    assert info.value.code == 2


def test_sample_suite_deterministic_bytes():
    command = [
        sys.executable,
        "-m",
        "closure_lab",
        "sample-suite",
        "--trials",
        "3",
        "--seed",
        "7",
        "--json",
    ]
    first = subprocess.run(command, capture_output=True, env=package_env(), check=True)
    second = subprocess.run(command, capture_output=True, env=package_env(), check=True)
    assert first.stdout == second.stdout
    payload = json.loads(first.stdout)
    assert payload["trials"] == 3 and payload["seed"] == 7


def test_sample_suite_csv(capsys):
    args = ("sample-suite", "--trials", "4", "--seed", "5", "--n-max", "2")
    code, out, _ = run_main(capsys, *args, "--output", "csv")
    assert code == 0
    header, *rows = csv.reader(io.StringIO(out))
    assert ",".join(header).startswith("trial,dim,ideal_id,chain_ok")
    code, out, _ = run_main(capsys, *args, "--json")
    assert code == 0
    json_rows = json.loads(out)["results"]
    assert len(rows) == len(json_rows) == 4
    for row, json_row in zip(rows, json_rows):
        assert dict(zip(header, row)) == {key: str(value) for key, value in json_row.items()}


def test_certify_scaled_monomial_element(ideal_file, capsys):
    j_path = ideal_file("j.json", X2Y2)
    code, out, _ = run_main(
        capsys, "is-integral", j_path, "--element", "2*x*y", "--certify", "--json"
    )
    assert code == 0
    payload = json.loads(out)
    cert = payload["certificates"][0]
    assert cert["element"] == "2*x*y"
    assert cert["coefficients"] == ["0", "-4*x^2*y^2"]


# Positional arguments that parse for each command; the files need not exist.
POSITIONALS = {
    "closure": ["j.json"],
    "member": ["j.json", "x"],
    "closure-member": ["j.json", "x"],
    "is-integral": ["j.json", "i.json"],
    "reduction-number": ["j.json", "i.json"],
    "exponents": ["j.json"],
    "bs-check": ["j.json"],
    "chain-check": ["j.json"],
    "witness": ["3"],
    "lift-bound": ["2", "3"],
    "sample-suite": [],
}
SETTINGS = ("k_max", "n_max", "generator_cap", "box_point_cap", "spair_cap", "order", "seed")


def _flag(setting: str) -> str:
    return "--" + setting.replace("_", "-")


def test_every_command_declares_its_settings():
    assert set(cli._COMMANDS) == set(POSITIONALS)
    for _, settings in cli._COMMANDS.values():
        assert set(settings) <= set(SETTINGS)


@pytest.mark.parametrize("command", sorted(POSITIONALS))
@pytest.mark.parametrize("setting", SETTINGS)
def test_settings_flags_exist_only_where_read(command, setting, capsys):
    value = "lex" if setting == "order" else "3"
    argv = [command, *POSITIONALS[command], _flag(setting), value]
    if setting in cli._COMMANDS[command][1]:
        args = cli.build_parser().parse_args(argv)
        assert str(getattr(args, setting)) == value
    else:
        with pytest.raises(SystemExit) as info:
            main(argv)
        captured = capsys.readouterr()
        assert info.value.code == 2 and captured.out == ""
        assert f"unrecognized arguments: {_flag(setting)} {value}" in captured.err


@pytest.mark.parametrize("command", sorted(POSITIONALS))
def test_help_lists_exactly_the_settings_flags(command, capsys):
    with pytest.raises(SystemExit) as info:
        main([command, "--help"])
    assert info.value.code == 0
    listed = set(re.findall(r"--[a-z-]+", capsys.readouterr().out))
    settings = cli._COMMANDS[command][1]
    assert listed & {_flag(s) for s in SETTINGS} == {_flag(s) for s in settings}


class _RecordingConfig:
    """A Config that records which of its fields are read."""

    def __init__(self, config):
        self._config = config
        self.read = set()

    def __getattr__(self, name):
        self.read.add(name)
        return getattr(self._config, name)


def test_handlers_read_only_their_declared_settings(ideal_file, capsys, monkeypatch):
    configs = []
    load_config = cli.load_config

    def recording(*args, **kwargs):
        configs.append(_RecordingConfig(load_config(*args, **kwargs)))
        return configs[-1]

    monkeypatch.setattr(cli, "load_config", recording)
    j_path = ideal_file("j.json", X2Y2)
    i_path = ideal_file("i.json", FULL)
    general = str(ROOT / "ideals" / "general.json")
    runs = [
        ("closure", j_path),
        ("member", j_path, "x^2*y"),
        ("member", general, "x^2 - y", "--json"),
        ("member", general, "x*y"),
        ("closure-member", j_path, "x*y", "--json"),
        ("is-integral", j_path, i_path, "--certify"),
        ("is-integral", j_path, "--element", "x*y + x^2", "--certify"),
        ("is-integral", j_path, "--element", "x + y", "--k-max", "1"),
        ("reduction-number", j_path, i_path),
        ("exponents", j_path, "--n-max", "2", "--output", "csv"),
        ("bs-check", j_path, "--n-max", "2"),
        ("chain-check", j_path, "--n-max", "2"),
        ("witness", "3", "--verify"),
        ("witness", "2"),
        ("lift-bound", "2", "3,4"),
        ("sample-suite", "--trials", "2", "--n-max", "2", "--output", "csv"),
    ]
    for argv in runs:
        configs.clear()
        assert run_main(capsys, *argv)[0] in (0, 1), argv
        (config,) = configs
        assert config.read - {"output"} <= set(cli._COMMANDS[argv[0]][1]), argv
    assert {argv[0] for argv in runs} == set(cli._COMMANDS)
