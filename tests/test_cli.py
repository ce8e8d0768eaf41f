"""End-to-end CLI behaviour: output text, JSON reports, and exit codes."""

from __future__ import annotations

import argparse
import json
import re
from decimal import Decimal, localcontext

import pytest

from qlambert import DivergenceError, SeriesValue, cli, lambert_theta, make_context
from qlambert.cli import main

from _oracles import PELL, PSI


def run_cli(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def json_lines(text: str) -> list[dict]:
    return [json.loads(line) for line in text.splitlines() if line]


class TestEval:
    def test_lambert_at_one_half_prints_thirty_digits(self, capsys) -> None:
        code, out, err = run_cli(
            capsys, "eval", "lambert", "--q", "1/2", "--digits", "30"
        )
        assert code == 0 and err == ""
        assert out.strip() == "1.60669515241529176378330152319"

    def test_report_mode_emits_a_single_json_object(self, capsys) -> None:
        code, out, _ = run_cli(
            capsys, "eval", "lambert", "--q", "1/2", "--digits", "30", "--report"
        )
        assert code == 0
        (payload,) = json_lines(out)
        assert payload["series"] == "lambert"
        assert payload["method"] == "theta"
        assert payload["value"] == "1.60669515241529176378330152319"
        assert payload["terms_used"] > 0
        assert float(payload["tail_bound"]) < 1e-29

    def test_qxt_methods_agree_to_the_printed_digit(self, capsys) -> None:
        outputs = set()
        for method in ("naive", "theta", "alt"):
            code, out, _ = run_cli(
                capsys, "eval", "qxt", "--x", "0.3", "--t", "0.2", "--q", "0.5",
                "--method", method, "--digits", "30",
            )
            assert code == 0
            outputs.add(out.strip())
        assert len(outputs) == 1

    def test_exact_parameters_next_to_a_pole_certify(self, capsys) -> None:
        # 1 - x = 2**-50 is closer to 0 than the peak bound's floats resolve,
        # so it forms the factor 1 - x*q**0, with its default c0, exactly.
        results = []
        for method in ("naive", "theta", "alt"):
            code, out, err = run_cli(
                capsys, "eval", "qxt", "--method", method,
                "--x", "1125899906842623/1125899906842624", "--t", "1/3",
                "--q", "1/3", "--digits", "250", "--report",
            )
            assert code == 0 and err == "", method
            payload = json.loads(out)
            results.append((Decimal(payload["value"]), Decimal(payload["tail_bound"])))
        for a, a_bound in results:
            # The printed digits round each value by at most half a unit in the last.
            unit = Decimal(1).scaleb(a.as_tuple().exponent)
            for b, b_bound in results:
                assert abs(a - b) <= a_bound + b_bound + unit

    @pytest.mark.parametrize(
        "series, flags",
        [
            ("lambert", (("--q", "-115/191"),)),
            ("lambert", (("--q", "-0.6"),)),
            ("glambert", (("--x", "-3/7"), ("--q", "1/2"))),
            ("qxt", (("--x", "0.3"), ("--t", "-2/7"), ("--q", "-0.1"))),
        ],
    )
    def test_a_negative_value_may_be_its_own_argument(self, capsys, series, flags) -> None:
        """``--q -115/191`` prints what ``--q=-115/191`` prints."""
        apart = [arg for flag in flags for arg in flag]
        joined = [f"{flag}={value}" for flag, value in flags]
        results = [
            run_cli(capsys, "eval", series, *argv, "--method", "naive", "--digits", "20")
            for argv in (apart, joined)
        ]
        assert results[0] == results[1] and results[0][0] == 0 and results[0][1]

    def test_a_missing_value_is_still_an_argparse_error(self, capsys) -> None:
        with pytest.raises(SystemExit) as exc:
            main(["eval", "lambert", "--q", "--digits", "20"])
        assert exc.value.code == 2
        assert "argument --q: expected one argument" in capsys.readouterr().err

    def test_bilateral_methods_agree_to_the_printed_digit(self, capsys) -> None:
        outputs = set()
        for method in ("direct", "theta", "form1", "form2"):
            code, out, _ = run_cli(
                capsys, "eval", "bilateral", "--x", "0.5", "--t", "0.6",
                "--q", "0.2", "--method", method, "--digits", "30",
            )
            assert code == 0
            outputs.add(out.strip())
        assert len(outputs) == 1

    def test_short_digit_requests_round_the_full_value(self, capsys) -> None:
        code, out, _ = run_cli(capsys, "eval", "lambert", "--q", "1/2", "--digits", "5")
        assert code == 0
        assert out.strip() == "1.6067"

    def test_q_outside_the_unit_interval_exits_two(self, capsys) -> None:
        code, out, err = run_cli(capsys, "eval", "lambert", "--q", "1.5")
        assert code == 2 and out == ""
        assert err.startswith("qlambert:") and "q" in err

    def test_digits_past_the_exponent_range_exit_two(self, capsys) -> None:
        code, out, err = run_cli(
            capsys, "eval", "lambert", "--q=1/3", "--digits", "20000000"
        )
        assert code == 2 and out == ""
        assert err.startswith("qlambert:") and err.count("\n") == 1

    @pytest.mark.parametrize("command", ["eval lambert --q 1/2", "recip-sum --m1 1 --m2 1"])
    def test_zero_digits_exit_two(self, capsys, command) -> None:
        code, out, err = run_cli(capsys, *command.split(), "--digits", "0")
        assert code == 2 and out == ""
        assert err == "qlambert: --digits must be positive, got 0\n"

    def test_pole_proximity_exits_three(self, capsys) -> None:
        code, _, err = run_cli(
            capsys, "eval", "qxt",
            "--x", "0.999999999999999999999", "--t", "0.2", "--q", "0.5",
            "--digits", "30",
        )
        assert code == 3
        assert err.startswith("qlambert:")

    @pytest.mark.parametrize(
        "q, value",
        [
            ("0.99", "65.5048585368678706274610198113"),
            ("0.999", "93.0638712014419538954326624832"),
        ],
    )
    def test_alternate_expansion_certifies_near_unit_q(self, capsys, q, value) -> None:
        # Its terms cancel, so its peak partial sum (about 10^11 at q = 0.99)
        # sets its digits; naive and theta print the same values.
        code, out, err = run_cli(
            capsys, "eval", "qxt", "--method", "alt",
            "--x", "0.9", "--t", "0.9", "--q", q, "--report",
        )
        assert code == 0 and err == ""
        payload = json.loads(out)
        assert payload["value"] == value
        assert Decimal(payload["tail_bound"]) <= Decimal("1e-30") * Decimal(value)

    def test_uncertified_digits_are_not_printed(self, capsys) -> None:
        ctx = make_context(30)
        args = argparse.Namespace(report=True)
        value = Decimal("93.0638712014419538954326624832")
        ceiling = value.scaleb(-30)
        sv = SeriesValue(value, 1, ceiling, "alt")
        assert cli._emit(args, sv, ctx, 30) == 0
        assert json.loads(capsys.readouterr().out)["value"] == str(value)
        sv = SeriesValue(value, 1, ceiling.next_plus(), "alt")
        with pytest.raises(DivergenceError, match="tail_bound 9.306387E-29 exceeds"):
            cli._emit(args, sv, ctx, 30)
        assert capsys.readouterr().out == ""

    def test_stray_parameters_are_rejected(self, capsys) -> None:
        code, _, err = run_cli(capsys, "eval", "lambert", "--q", "0.5", "--x", "0.3")
        assert code == 2 and "--x" in err

    def test_missing_parameter_is_rejected(self, capsys) -> None:
        code, _, err = run_cli(capsys, "eval", "qxt", "--x", "0.3", "--q", "0.5")
        assert code == 2 and "--t" in err

    def test_unavailable_method_is_rejected(self, capsys) -> None:
        code, _, err = run_cli(
            capsys, "eval", "theta3", "--q", "0.5", "--method", "naive"
        )
        assert code == 2 and "method" in err

    def test_malformed_number_is_rejected(self, capsys) -> None:
        code, _, err = run_cli(capsys, "eval", "lambert", "--q", "abc")
        assert code == 2

    def test_unknown_subcommand_raises_argparse_exit(self, capsys) -> None:
        with pytest.raises(SystemExit) as excinfo:
            main(["frobnicate"])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ("eval", "lambert", "--q", "1/2", "--seed", "5"),
            ("recip-sum", "--m1", "1", "--m2", "1", "--seed", "5"),
            ("bench", "--series", "lambert", "--q", "1/2", "--seed", "3"),
            ("bench", "--series", "lambert", "--q", "1/2", "--report"),
        ],
        ids=["eval-seed", "recip-sum-seed", "bench-seed", "bench-report"],
    )
    def test_options_a_subcommand_would_ignore_are_refused(self, argv, capsys) -> None:
        with pytest.raises(SystemExit) as excinfo:
            main(list(argv))
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


#: The rational 1/10^k, written out in digits.
TINY = {k: "1/1" + "0" * k for k in (200, 400, 450)}
ZERO = "0." + "0" * 30
ONE, TWO = "1." + "0" * 29, "2." + "0" * 29

#: Parameters far outside the float range: (argv, value, terms_used,
#: tail_bound) at 30 digits.
FLOAT_RANGE_EDGES = [
    (("lambert", f"--q={TINY[400]}", "--method", "theta"), ZERO, 2, "1.000000E-35"),
    (("lambert", f"--q={TINY[400]}", "--method", "naive"), ZERO, 2, "1.000000E-35"),
    (("glambert", f"--x={TINY[400]}", "--q=1/2"), ZERO, 2, "1.000000E-35"),
    (("qxt", "--x=1/2", f"--t={TINY[400]}", f"--q={TINY[400]}"), TWO, 2, "2.000000E-35"),
    *(
        (
            ("bilateral", f"--x={TINY[200]}", f"--t={TINY[200]}", f"--q={TINY[450]}")
            + ("--method", method),
            ONE,
            4,
            "3.000000E-35",
        )
        for method in ("theta", "direct")
    ),
    (("theta3", f"--q={TINY[400]}"), ONE, 2, "3.000000E-35"),
]


@pytest.mark.parametrize("args, value, terms, tail", FLOAT_RANGE_EDGES)
def test_parameters_outside_the_float_range_certify(
    capsys, args, value, terms, tail
) -> None:
    code, out, err = run_cli(capsys, "eval", *args, "--digits", "30")
    assert (code, out, err) == (0, value + "\n", "")
    code, out, _ = run_cli(capsys, "eval", *args, "--digits", "30", "--report")
    (payload,) = json_lines(out)
    assert code == 0
    reported = (payload["value"], payload["terms_used"], payload["tail_bound"])
    assert reported == (value, terms, tail)


class TestRecipSum:
    def test_fibonacci_at_seven_digits(self, capsys) -> None:
        code, out, _ = run_cli(
            capsys, "recip-sum", "--m1", "1", "--m2", "1", "--digits", "7"
        )
        assert code == 0
        assert out.strip() == "3.359886"

    def test_pell_at_seven_digits(self, capsys) -> None:
        code, out, _ = run_cli(
            capsys, "recip-sum", "--m1", "2", "--m2", "1", "--digits", "7"
        )
        assert code == 0
        assert out.strip() == "1.842203"

    def test_all_four_methods_print_the_same_thirty_digits(self, capsys) -> None:
        outputs = set()
        for method in ("horadam", "naive", "gosper", "split"):
            code, out, _ = run_cli(
                capsys, "recip-sum", "--m1", "1", "--m2", "1",
                "--method", method, "--digits", "30",
            )
            assert code == 0
            outputs.add(out.strip())
        assert outputs == {"3.35988566624317755317201130292"}
        assert abs(Decimal(outputs.pop()) - PSI) < Decimal("1e-29")

    def test_report_mode_names_the_method(self, capsys) -> None:
        code, out, _ = run_cli(
            capsys, "recip-sum", "--m1", "2", "--m2", "1",
            "--method", "horadam", "--digits", "30", "--report",
        )
        assert code == 0
        (payload,) = json_lines(out)
        assert payload["m1"] == 2 and payload["m2"] == 1
        assert payload["method"] == "horadam"
        assert abs(Decimal(payload["value"]) - PELL) < Decimal("1e-29")

    def test_degenerate_recurrence_exits_two(self, capsys) -> None:
        code, _, err = run_cli(capsys, "recip-sum", "--m1", "1", "--m2", "-1")
        assert code == 2 and err.startswith("qlambert:")

    def test_the_parser_offers_the_table_methods_in_its_order(self) -> None:
        assert tuple(cli._recip_table()) == cli.RECIP_METHODS

    def test_gosper_method_is_fibonacci_only(self, capsys) -> None:
        code, _, err = run_cli(
            capsys, "recip-sum", "--m1", "2", "--m2", "1", "--method", "gosper"
        )
        assert code == 2 and "Fibonacci" in err


class TestVerify:
    def test_single_identity_emits_one_passing_line(self, capsys) -> None:
        code, out, _ = run_cli(
            capsys, "verify", "--identity", "symm", "--trials", "10", "--seed", "7"
        )
        assert code == 0
        (payload,) = json_lines(out)
        assert payload["name"] == "symm"
        assert payload["trials"] == 10
        assert payload["seed"] == 7
        assert payload["pass"] is True
        assert float(payload["worst_deviation"]) <= 4e-30

    def test_all_runs_the_registry_plus_the_matrix_check(self, capsys) -> None:
        code, out, _ = run_cli(
            capsys, "verify", "--all", "--trials", "5", "--seed", "3"
        )
        assert code == 0
        payloads = json_lines(out)
        assert len(payloads) == 12
        assert payloads[-1]["name"] == "gosper-matrix"
        assert all(payload["pass"] for payload in payloads)

    def test_unknown_identity_exits_two(self, capsys) -> None:
        code, _, err = run_cli(capsys, "verify", "--identity", "nope")
        assert code == 2 and "nope" in err

    def test_identity_and_all_are_mutually_exclusive(self, capsys) -> None:
        with pytest.raises(SystemExit) as excinfo:
            main(["verify", "--identity", "symm", "--all"])
        assert excinfo.value.code == 2


class TestBench:
    def test_lambert_report_shape_and_agreement(self, capsys) -> None:
        code, out, _ = run_cli(
            capsys, "bench", "--series", "lambert", "--q", "1/2", "--digits", "30"
        )
        assert code == 0
        (payload,) = json_lines(out)
        assert payload["series"] == "lambert"
        assert payload["parameters"] == {"q": "0.5"}
        tags = [record["method_tag"] for record in payload["methods"]]
        assert tags == ["naive", "theta"]
        values = {record["value"] for record in payload["methods"]}
        assert len(values) == 1
        naive, theta = (record["terms_used"] for record in payload["methods"])
        assert naive > theta
        assert float(payload["term_ratio"]) > 1

    def test_bench_exits_one_when_its_methods_disagree(self, capsys, monkeypatch) -> None:
        def shifted(q, ctx):
            sv = lambert_theta(q, ctx)
            value = ctx.dec.add(sv.value, 5 * ctx.epsilon)
            return SeriesValue(value, sv.terms_used, sv.tail_bound, "theta")

        monkeypatch.setattr(cli, "lambert_theta", shifted)
        code, out, err = run_cli(capsys, "bench", "--series", "lambert", "--q", "1/2")
        assert code == 1 and out == ""
        disagree = r"qlambert: bench methods disagree by [45]\.\d*E-30 \(allowed 4E-30\)\n"
        assert re.fullmatch(disagree, err)

    def test_qxt_bench_includes_the_alternate_expansion(self, capsys) -> None:
        code, out, _ = run_cli(
            capsys, "bench", "--series", "qxt",
            "--x", "0", "--t", "1/2", "--q", "1/2", "--digits", "30",
        )
        assert code == 0
        (payload,) = json_lines(out)
        tags = [record["method_tag"] for record in payload["methods"]]
        assert tags == ["naive", "theta", "alt"]
        for record in payload["methods"]:
            assert record["value"] == "2.00000000000000000000000000000"

    def test_long_rationals_print_as_their_working_precision_decimals(
        self, capsys
    ) -> None:
        # Above 200 working digits -115/191 and 70/139 stay exact Fractions;
        # the report prints each as the 325-digit Decimal it rounds to.
        code, out, _ = run_cli(
            capsys, "bench", "--series", "glambert",
            "--x=-115/191", "--q=70/139", "--digits", "300",
        )
        assert code == 0
        (payload,) = json_lines(out)
        with localcontext(prec=325):
            expected = {"x": str(Decimal(-115) / 191), "q": str(Decimal(70) / 139)}
        assert payload["parameters"] == expected
        assert len(expected["x"]) == 328

    def test_bench_takes_a_negative_value_as_its_own_argument(self, capsys) -> None:
        argv = ["bench", "--series", "glambert", "--q", "0.5", "--digits", "20"]
        code, out, _ = run_cli(capsys, *argv, "--x", "-3/7")
        assert code == 0
        assert json.loads(out)["parameters"]["x"].startswith("-0.428571")

    def test_bench_requires_its_series_parameters(self, capsys) -> None:
        code, _, err = run_cli(capsys, "bench", "--series", "glambert", "--q", "0.5")
        assert code == 2 and "--x" in err


class TestOneParserPerProcess:
    #: Interleaved commands of every kind, with an error in between.
    COMMANDS = (
        ("eval", "lambert", "--q", "1/2", "--digits", "30", "--report"),
        ("recip-sum", "--m1", "1", "--m2", "1", "--method", "naive", "--report"),
        ("verify", "--identity", "symm", "--trials", "2", "--digits", "30"),
        ("eval", "qxt", "--x", "0.3", "--t", "0.2", "--q", "0.5", "--method", "alt"),
        ("eval", "lambert", "--q", "1.5"),
        ("recip-sum", "--m1", "2", "--m2", "1", "--digits", "40"),
        ("verify", "--identity", "gosper-matrix", "--digits", "30", "--report"),
        ("eval", "theta3", "--q=-2/7", "--digits", "40"),
    )

    def test_interleaved_calls_print_what_fresh_calls_print(
        self, capsys, monkeypatch
    ) -> None:
        fresh = []
        for argv in self.COMMANDS:
            monkeypatch.setattr(cli, "_PARSER", None)
            fresh.append(run_cli(capsys, *argv))
        assert [code for code, _, _ in fresh] == [0, 0, 0, 0, 2, 0, 0, 0]
        # One process from here on: the parser is built on the first call.
        monkeypatch.setattr(cli, "_PARSER", None)
        built = []
        original = cli.build_parser

        def counted():
            built.append(1)
            return original()

        monkeypatch.setattr(cli, "build_parser", counted)
        reused = [run_cli(capsys, *argv) for argv in self.COMMANDS * 2]
        assert reused == fresh * 2
        assert len(built) == 1

    def test_handlers_are_looked_up_on_every_call(self, capsys, monkeypatch) -> None:
        argv = ("eval", "lambert", "--q", "1/2", "--digits", "5")
        assert run_cli(capsys, *argv) == (0, "1.6067\n", "")
        seen = []
        monkeypatch.setattr(cli, "cmd_eval", lambda args: seen.append(args.q) or 0)
        assert run_cli(capsys, *argv) == (0, "", "")
        assert seen == ["1/2"]

    def test_build_parser_returns_a_new_parser(self) -> None:
        assert cli.build_parser() is not cli.build_parser()
