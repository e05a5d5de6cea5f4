"""CLI contract: subcommand output, literal parsing, exit codes, and the
stability of JSON reports.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sumdiv.cli import main, parse_set
from sumdiv.errors import ParseError
from sumdiv.sets import FiniteSet, interval, interval_positive


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSetLiterals:
    def test_comma_separated(self):
        assert parse_set("0,2,3") == FiniteSet((0, 2, 3))
        assert parse_set(" 1 , 4 ") == FiniteSet((1, 4))

    def test_intervals(self):
        assert parse_set("[5]") == interval(5)
        assert parse_set("[5+]") == interval_positive(5)
        assert parse_set("[0]") == FiniteSet((0,))

    def test_empty(self):
        assert parse_set("") == FiniteSet()

    def test_malformed(self):
        for bad in ("[x]", "[-1]", "[0+]", "1,a", "[5"):
            with pytest.raises(ParseError):
                parse_set(bad)


class TestCompute:
    def test_count(self, capsys):
        code, out, _ = run(capsys, "count", "0,1,2,3")
        assert (code, out.strip()) == (0, "5")

    def test_count_interval_literal(self, capsys):
        code, out, _ = run(capsys, "count", "[9]")
        assert (code, out.strip()) == (0, "140")

    def test_sum(self, capsys):
        code, out, _ = run(capsys, "sum", "0,2", "0,1,3")
        assert (code, out.strip()) == (0, "{0, 1, 2, 3, 5}")

    def test_divisors(self, capsys):
        code, out, _ = run(capsys, "divisors", "[3]")
        assert code == 0
        assert out.splitlines() == [
            "{0}",
            "{0, 1}",
            "{0, 2}",
            "{0, 1, 2}",
            "{0, 1, 2, 3}",
        ]

    def test_divisors_json(self, capsys):
        code, out, _ = run(capsys, "divisors", "[3]", "--json")
        assert code == 0
        assert json.loads(out) == [
            [0],
            [0, 1],
            [0, 2],
            [0, 1, 2],
            [0, 1, 2, 3],
        ]

    def test_irreducible(self, capsys):
        code, out, _ = run(capsys, "irreducible", "0,2")
        assert (code, out.strip()) == (0, "true")
        code, out, _ = run(capsys, "irreducible", "[3]")
        assert (code, out.strip()) == (0, "false")

    def test_promote(self, capsys):
        code, out, _ = run(capsys, "promote", "0,2,3,4,5,6", "6", "0,2,3", "3")
        assert (code, out.strip()) == (0, "{0, 1, 2, 3}")

    def test_compositions_count(self, capsys):
        code, out, _ = run(capsys, "compositions", "10", "--count")
        assert (code, out.strip()) == (0, "140")

    def test_compositions_by_parts(self, capsys):
        code, out, _ = run(capsys, "compositions", "10", "--parts", "5")
        assert (code, out.strip()) == (0, "32")

    def test_compositions_list(self, capsys):
        code, out, _ = run(capsys, "compositions", "4")
        assert code == 0
        assert out.splitlines() == [
            "(4)",
            "(2,2)",
            "(3,1)",
            "(2,1,1)",
            "(1,1,1,1)",
        ]


class TestLunarCommands:
    def test_mul(self, capsys):
        code, out, _ = run(capsys, "lunar", "mul", "169@10", "248@10")
        assert (code, out.strip()) == (0, "12468@10")

    def test_add(self, capsys):
        code, out, _ = run(capsys, "lunar", "add", "169@10", "248@10")
        assert (code, out.strip()) == (0, "269@10")

    def test_divisors(self, capsys):
        code, out, _ = run(capsys, "lunar", "divisors", "11@3")
        assert code == 0
        lines = out.splitlines()
        assert lines[-1] == "count: 6"
        assert lines[:-1] == ["1@3", "2@3", "11@3", "12@3", "21@3", "22@3"]

    def test_beta(self, capsys):
        code, out, _ = run(capsys, "beta", "0,2,3")
        assert (code, out.strip()) == (0, "1101@2")

    def test_beta_inverse(self, capsys):
        code, out, _ = run(capsys, "beta", "1101@2", "--inverse")
        assert (code, out.strip()) == (0, "{0, 2, 3}")


class TestTables:
    def test_f_table_plain(self, capsys):
        code, out, _ = run(capsys, "table", "F", "--rows", "5", "--cols", "10")
        assert code == 0
        assert out.splitlines()[1] == "0 1 1 2 3 5 8 13 21 34"

    def test_h_table_csv(self, capsys):
        code, out, _ = run(capsys, "table", "H", "--rows", "10", "--format", "csv")
        assert code == 0
        assert out.splitlines()[-1] == "1,5,13,26,32,31,22,8,1,1"

    def test_table_json(self, capsys):
        code, out, _ = run(capsys, "table", "H", "--rows", "3", "--format", "json")
        assert code == 0
        assert json.loads(out) == [[1], [1, 1], [1, 1, 1]]


class TestVerifyCommand:
    def test_pass_and_tie_note(self, capsys):
        code, out, _ = run(capsys, "verify", "crleven", "--max-k", "3")
        assert code == 0
        assert "status: pass" in out
        assert "{2, 3}" in out  # the documented tie at k = 3

    def test_json_data_section_stable(self, capsys):
        args = ("verify", "L15", "--max-k", "6", "--json")
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert json.loads(out1)["data"] == json.loads(out2)["data"]
        assert "elapsed_seconds" in json.loads(out1)["meta"]

    def test_conjecture_reports_evidence_only(self, capsys):
        code, out, _ = run(capsys, "verify", "odd2", "--max-k", "6", "--json")
        assert code == 0
        assert json.loads(out)["data"]["status"] == "evidence-only"

    def test_worker_independence(self, capsys, monkeypatch):
        # SUMDIV_WORKERS, once the worker count, is ignored.
        args = ("verify", "crlodd", "--max-k", "6", "--promotion-max-k", "5", "--json")
        _, out1, _ = run(capsys, *args)
        monkeypatch.setenv("SUMDIV_WORKERS", "3")
        _, out2, _ = run(capsys, *args)
        assert json.loads(out1)["data"] == json.loads(out2)["data"]
        assert json.loads(out2)["meta"]["worker_count"] == 1

    def test_no_workers_option(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "crlodd", "--workers", "2"])
        assert exc.value.code == 2


class TestExitCodes:
    def test_domain_error_is_1(self, capsys):
        code, _, err = run(capsys, "count", "")
        assert code == 1
        assert "error:" in err

    def test_parse_error_is_1(self, capsys):
        code, _, err = run(capsys, "lunar", "mul", "19@5", "1@5")
        assert code == 1
        assert "error:" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("F", "--rows", "-1"),
            ("H", "--rows", "-3"),
            ("F", "--rows", "2", "--cols", "-4"),
        ],
    )
    def test_table_size_error_is_1(self, capsys, argv):
        code, out, err = run(capsys, "table", *argv)
        assert (code, out) == (1, "")
        assert err.startswith("error:")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ("compositions", "3000", "--parts", "2"),
            ("compositions", "1200", "--parts", "3"),
            ("table", "H", "--rows", "2000"),
            ("table", "F", "--rows", "3000"),
            ("irreducible", ",".join(map(str, [*range(31), 63]))),
            ("irreducible", "[42]"),
        ],
    )
    def test_size_budget_error_is_1(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.startswith("error:")
        assert err.count("\n") == 1

    def test_deep_headstrong_count(self, capsys):
        code, out, _ = run(capsys, "compositions", "3000", "--count")
        assert code == 0
        assert int(out) > 0

    @pytest.mark.parametrize("max_k", ["-1", "1000000000"])
    def test_verify_range_error_is_1(self, capsys, max_k):
        code, out, err = run(capsys, "verify", "crlodd", "--max-k", max_k)
        assert (code, out) == (1, "")
        assert err.startswith("error:")
        assert err.count("\n") == 1

    def test_usage_error_is_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["nosuch"])
        assert exc.value.code == 2

    def test_missing_subcommand_is_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2


# ---------------------------------------------------------------------------
# Fuzzing: every subcommand, small bounded arguments, no escaping exception.

_small = st.integers(min_value=-2, max_value=9).map(str)
_set_literal = st.one_of(
    st.lists(st.integers(min_value=-1, max_value=10), max_size=5).map(
        lambda xs: ",".join(map(str, xs))
    ),
    st.integers(min_value=-1, max_value=8).map(lambda k: f"[{k}]"),
    st.integers(min_value=-1, max_value=8).map(lambda k: f"[{k}+]"),
    st.sampled_from(["", "[", "[x]", "1,,a", "0;1"]),
)
_lunar_literal = st.builds(
    lambda digits, base: f"{digits}@{base}",
    st.text("0123456789", max_size=4),
    st.integers(min_value=-1, max_value=11),
) | st.sampled_from(["", "12", "@10", "1@x", "1@@2"])
_json = st.sampled_from([[], ["--json"]])


def _verify_argv(target, max_k, promotion_max_k, json_flag):
    argv = ["verify", target, "--max-k", max_k] + json_flag
    if promotion_max_k is not None:
        argv += ["--promotion-max-k", promotion_max_k]
    return argv


_argv = st.one_of(
    st.tuples(st.just("sum"), _set_literal, _set_literal).map(list),
    st.tuples(
        st.sampled_from(["divisors", "count", "irreducible"]), _set_literal
    ).map(list),
    st.tuples(
        st.just("lunar"), st.sampled_from(["add", "mul"]), _lunar_literal, _lunar_literal
    ).map(list),
    st.tuples(st.just("lunar"), st.just("divisors"), _lunar_literal).map(list),
    st.builds(lambda s: ["beta", s], _set_literal),
    st.builds(lambda n: ["beta", n, "--inverse"], _lunar_literal),
    st.builds(
        lambda a, k, f, m: ["promote", a, k, f, m],
        _set_literal, _small, _set_literal, _small,
    ),
    st.builds(
        lambda n, extra: ["compositions", n] + extra,
        st.integers(min_value=-2, max_value=12).map(str),
        st.sampled_from([[], ["--count"]]) | _small.map(lambda m: ["--parts", m]),
    ),
    st.builds(
        lambda kind, rows, cols, fmt: ["table", kind, "--rows", rows]
        + ([] if cols is None else ["--cols", cols])
        + ["--format", fmt],
        st.sampled_from(["F", "H", "G"]),
        _small,
        st.none() | _small,
        st.sampled_from(["plain", "csv", "json"]),
    ),
    st.builds(
        _verify_argv,
        st.sampled_from(["crlodd", "crleven", "L15", "bases", "odd2", "pi2"]),
        st.integers(min_value=-1, max_value=4).map(str),
        st.none() | st.integers(min_value=-1, max_value=6).map(str),
        _json,
    ),
    st.lists(st.sampled_from(["verify", "table", "--rows", "x", "-1"]), max_size=3),
)


@settings(max_examples=300, deadline=None)
@given(argv=_argv)
def test_fuzz_exit_codes(argv):
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    assert code in (0, 1, 2, 3), argv
