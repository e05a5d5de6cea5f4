"""CLI contract: subcommand output, literal parsing, exit codes, and the
stability of JSON reports.
"""

import argparse
import itertools
import json
import os
import resource
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sumdiv import cli, compositions, sets
from sumdiv.cli import main, parse_set
from sumdiv.compositions import enumerate_headstrong
from sumdiv.errors import ParseError
from sumdiv.lunar import LunarNumber, lunar_divisors
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
        assert parse_set("[ 5 ]") == interval(5)
        assert parse_set("[5+]") == interval_positive(5)
        assert parse_set("[0]") == FiniteSet((0,))

    def test_empty(self):
        assert parse_set("") == FiniteSet()
        assert parse_set(" ") == FiniteSet()

    def test_malformed(self):
        # Naturals are ASCII digits: int() would read "1_0" as 10.
        # An empty item is refused, as inside a set-array coordinate.
        for bad in (
            "[x]", "[-1]", "[0+]", "1,a", "[5", "1_0", "١,٢", "+1", "[١]",
            "0,,3", "0,", ",0", ",",
        ):
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

    @pytest.mark.parametrize(
        "literal, answer",
        [
            ("[42]", "false"),
            ("[63]", "false"),
            (",".join(map(str, [*range(31), 63])), "true"),
        ],
    )
    def test_irreducible_large_sets(self, capsys, literal, answer):
        code, out, _ = run(capsys, "irreducible", literal)
        assert (code, out.strip()) == (0, answer)

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

    def test_binary_divisors_past_candidate_budget(self, capsys):
        # 22 binary digits are 2^22 candidates, the whole budget of the
        # candidate loop, about 20 s; base 2 runs on the set search instead.
        n = "1101101101101101101101@2"
        code, out, _ = run(capsys, "lunar", "divisors", n)
        assert code == 0
        lines = out.splitlines()
        assert lines[:3] == ["1@2", "1001@2", "1101@2"]
        assert lines[-1] == "count: 263"

    @pytest.mark.parametrize(
        "argv",
        [
            ("lunar", "divisors", "1²@3"),
            ("lunar", "add", "1٣@10", "1@10"),
            ("lunar", "mul", "²@3", "1@3"),
            ("beta", "1²@2", "--inverse"),
            ("count", "1_0"),
            ("count", "١,٢"),
        ],
    )
    def test_non_ascii_digit_is_parse_error(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.startswith("error:")
        assert err.count("\n") == 1

    def test_beta(self, capsys):
        code, out, _ = run(capsys, "beta", "0,2,3")
        assert (code, out.strip()) == (0, "1101@2")

    def test_beta_inverse(self, capsys):
        code, out, _ = run(capsys, "beta", "1101@2", "--inverse")
        assert (code, out.strip()) == (0, "{0, 2, 3}")


class TestTables:
    @pytest.mark.parametrize(
        "argv",
        [
            ("compositions", "10", "--parts", "3", "--count"),
            ("compositions", "10", "--count", "--parts", "3"),
            ("table", "H", "--rows", "3", "--cols", "99"),
        ],
    )
    def test_ignored_option_is_usage_error(self, capsys, argv):
        # --count beside --parts, and --cols with H, used to be dropped.
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""

    def test_f_table_plain(self, capsys):
        code, out, _ = run(capsys, "table", "F", "--rows", "5", "--cols", "10")
        assert code == 0
        assert out.splitlines()[1] == "0 1 1 2 3 5 8 13 21 34"

    def test_h_table_csv(self, capsys):
        code, out, _ = run(capsys, "table", "H", "--rows", "10", "--format", "csv")
        assert code == 0
        assert out.splitlines()[-1] == "1,5,13,26,32,31,22,8,1,1"

    def test_f_table_csv(self, capsys):
        code, out, _ = run(capsys, "table", "F", "--rows", "3", "--cols", "4", "--format", "csv")
        assert (code, out) == (0, "1,1,1,1\n0,1,1,2\n0,0,1,1\n")

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

    def test_crlodd_phase_seconds(self, capsys):
        _, out, _ = run(capsys, "verify", "crlodd", "--max-k", "6", "--json")
        meta = json.loads(out)["meta"]
        phases = meta["phase_seconds"]
        assert sorted(phases) == ["blocks", "promotion"]
        assert all(t >= 0 for t in phases.values())
        assert sum(phases.values()) <= meta["elapsed_seconds"]

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
            ("compositions", "5001", "--count"),
            # {44, ..., 63} has 45 * d([19]) divisors, too many to list.
            ("divisors", ",".join(map(str, range(44, 64)))),
            # 447 rows of the triangle hold 100 128 cells.
            ("table", "H", "--rows", "447"),
        ],
    )
    def test_size_budget_error_is_1(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.startswith("error:")
        assert err.count("\n") == 1

    @pytest.mark.stretch
    def test_real_node_budget_error_is_1_stretch(self, capsys):
        # d([25]) passes the real node budget of the divisor search, after
        # seconds of search; test_node_budget_error_is_1 checks the same
        # exit code under a lowered budget.
        code, out, err = run(capsys, "count", "[25]")
        assert (code, out) == (1, "")
        assert err.startswith("error:")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("command", ["count", "divisors", "irreducible"])
    def test_node_budget_error_is_1(self, capsys, monkeypatch, command):
        monkeypatch.setattr(sets, "NODE_BUDGET", 50)
        # Its search takes 66 nodes; a cached count would skip it.
        sets._core_divisor_count.cache_clear()
        literal = "0,1,2,3,4,5,8,9,10,11,12,14,16,17,18"
        code, out, err = run(capsys, command, literal)
        assert (code, out) == (1, "")
        assert err.startswith("error:")
        assert err.count("\n") == 1

    def test_lunar_mul_budget_error_is_1(self, capsys):
        # 4e8 digit products would take about 30 s; the check comes first.
        x = "1" * 20_000 + "@2"
        start = time.perf_counter()
        code, out, err = run(capsys, "lunar", "mul", x, x)
        assert time.perf_counter() - start < 2
        assert (code, out) == (1, "")
        assert err.startswith("error:")
        assert err.count("\n") == 1

    def test_binary_lunar_node_budget_error_is_1(self, capsys, monkeypatch):
        monkeypatch.setattr(sets, "NODE_BUDGET", 50)
        code, out, err = run(capsys, "lunar", "divisors", "1" * 16 + "@2")
        assert (code, out) == (1, "")
        assert err.startswith("error:")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ("count", "[10000000000]"),
            ("sum", "[10000000000+]", "0"),
            ("beta", "[10000000000]"),
            ("promote", "0", "10000000000", "0", "0"),
            ("count", "[64]"),
        ],
    )
    def test_interval_past_element_bound_is_1(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.startswith("error:")
        assert err.count("\n") == 1

    def test_interval_past_element_bound_allocates_nothing(self):
        # Under 512 MiB of address space, building [10^12] (a 125 GB mask)
        # would end in a MemoryError traceback; the bound is checked first.
        def limit():
            resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))

        proc = subprocess.run(
            [sys.executable, "-m", "sumdiv.cli", "count", "[1000000000000]"],
            capture_output=True,
            text=True,
            preexec_fn=limit,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        )
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr == "error: element 1000000000000 exceeds the element bound 63\n"

    @pytest.mark.parametrize(
        "argv",
        [["divisors", "[16]"], ["table", "F", "--rows", "3", "--cols", "3000"]],
    )
    def test_reader_closing_early_is_1(self, argv):
        # `sumdiv ... | head -1`: the reader closes the pipe after one line,
        # long before the output is written.
        with subprocess.Popen(
            [sys.executable, "-m", "sumdiv.cli", *argv],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        ) as proc:
            proc.stdout.readline()
            proc.stdout.close()
            err = proc.stderr.read()
            assert (proc.wait(timeout=60), err) == (1, b"")

    def test_enumeration_bound_checked_first(self, capsys, monkeypatch):
        # h(26) = 3 643 570 is 1.9 times h(25), whose list takes 11-15 s and
        # 527 MB; the cap must refuse it before any composition is built.
        def no_work(*args):
            raise AssertionError("enumeration started")

        monkeypatch.setattr(compositions, "_bounded_parts", no_work)
        code, out, err = run(capsys, "compositions", "26")
        assert (code, out) == (1, "")
        assert err == (
            "error: enumerating headstrong compositions of 26 exceeds the "
            "budget of 2097152 listed compositions\n"
        )

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

    def test_unknown_verify_target_is_2(self, capsys):
        # The target names are read only when argparse checks a choice.
        with pytest.raises(SystemExit) as exc:
            main(["verify", "nosuch"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice" in err and "nosuch" in err

    def test_verify_help_lists_every_target(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--help"])
        assert exc.value.code == 0
        help_text = " ".join(capsys.readouterr().out.split())
        assert "one of: crlodd, crleven, L15, bases, odd2, pi2" in help_text

    def test_missing_subcommand_is_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2


class TestParserReuse:
    def test_no_option_leaks_into_the_next_call(self, capsys):
        run(capsys, "verify", "odd2", "--max-k", "5", "--json")
        _, out, _ = run(capsys, "verify", "odd2", "--json")
        assert json.loads(out)["data"]["range"] == {"max_k": 14}

    def test_json_then_plain(self, capsys):
        run(capsys, "count", "[3]", "--json")
        _, out, _ = run(capsys, "divisors", "[1]")
        assert out == "{0}\n{0, 1}\n"
        run(capsys, "lunar", "divisors", "11@2", "--json")
        _, out, _ = run(capsys, "lunar", "divisors", "11@2")
        assert out == "1@2\n11@2\ncount: 2\n"

    def test_valid_call_after_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["count", "[3]", "--nosuch"])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert run(capsys, "count", "[3]") == (0, "5\n", "")

    def test_second_call_builds_no_parser(self, capsys, monkeypatch):
        main(["count", "[3]"])
        built = []
        init = argparse.ArgumentParser.__init__

        def spy(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", spy)
        assert run(capsys, "verify", "odd2", "--max-k", "4")[0] == 0
        assert built == []


class TestStreamedListings:
    """Listings are written in chunks; the text is the one a single print of
    the whole list writes, built here from the library's list.  A chunk of
    7 items puts boundaries inside every list longer than 7."""

    @pytest.fixture
    def small_chunk(self, monkeypatch):
        monkeypatch.setattr(cli, "_CHUNK", 7)

    @staticmethod
    def _sets_text(divs, as_json):
        if as_json:
            return json.dumps([list(d) for d in divs], sort_keys=True) + "\n"
        rows = ("{" + ", ".join(str(e) for e in d) + "}" for d in divs)
        return "\n".join(rows) + "\n"

    @staticmethod
    def _lunar_text(n, as_json):
        texts = [
            "".join(str(x) for x in reversed(d.digits)) + f"@{d.base}"
            for d in lunar_divisors(n)
        ]
        if as_json:
            payload = {"divisors": texts, "count": len(texts)}
            return json.dumps(payload, sort_keys=True) + "\n"
        return "\n".join(texts) + f"\ncount: {len(texts)}\n"

    @pytest.mark.usefixtures("small_chunk")
    @pytest.mark.parametrize("as_json", [False, True])
    def test_divisors(self, capsys, as_json):
        flag = ["--json"] if as_json else []
        for core in range(1, 256, 2):
            for shift in range(3):
                a = FiniteSet.from_mask(core << shift)
                code = main(["divisors", ",".join(map(str, a))] + flag)
                expected = self._sets_text(sets.divisors(a), as_json)
                assert (code, capsys.readouterr().out) == (0, expected), a

    @pytest.mark.usefixtures("small_chunk")
    @pytest.mark.parametrize("as_json", [False, True])
    def test_lunar_divisors(self, capsys, as_json):
        flag = ["--json"] if as_json else []
        numbers = [
            LunarNumber(2, map(int, f"{m:b}"[::-1])) for m in range(1, 256)
        ]
        numbers += [
            LunarNumber(3, digits)
            for length in range(1, 6)
            for digits in itertools.product(range(3), repeat=length)
            if digits[-1]
        ]
        for n in numbers:
            code = main(["lunar", "divisors", str(n)] + flag)
            expected = self._lunar_text(n, as_json)
            assert (code, capsys.readouterr().out) == (0, expected), n

    def test_lunar_divisors_build_no_number_each(self, capsys, monkeypatch):
        # 10111@6 has 630 divisors; the one LunarNumber built is the parsed n.
        built = []
        init = LunarNumber.__init__

        def counted(self, *args):
            built.append(args)
            init(self, *args)

        monkeypatch.setattr(LunarNumber, "__init__", counted)
        assert main(["lunar", "divisors", "10111@6", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["count"] == 630
        assert len(built) == 1

    @pytest.mark.usefixtures("small_chunk")
    @pytest.mark.parametrize("as_json", [False, True])
    def test_compositions(self, capsys, as_json):
        flag = ["--json"] if as_json else []
        for n in range(1, 11):
            comps = enumerate_headstrong(n)
            if as_json:
                payload = [list(c.parts) for c in comps]
                expected = json.dumps(payload, sort_keys=True) + "\n"
            else:
                expected = "\n".join(str(c) for c in comps) + "\n"
            code = main(["compositions", str(n)] + flag)
            assert (code, capsys.readouterr().out) == (0, expected), n

    @pytest.mark.parametrize("as_json", [False, True])
    def test_longer_than_a_chunk(self, capsys, as_json):
        flag = ["--json"] if as_json else []
        divs = sets.divisors(interval(16))
        assert len(divs) > 2 * cli._CHUNK
        code = main(["divisors", "[16]"] + flag)
        expected = self._sets_text(divs, as_json)
        assert (code, capsys.readouterr().out) == (0, expected)


# ---------------------------------------------------------------------------
# Fuzzing: every subcommand, small bounded arguments, no escaping exception.

_small = st.integers(min_value=-2, max_value=9).map(str)
# Interval endpoints: small ones, either side of the element bound 63, and
# ones whose mask would take gigabytes if it were built before the check.
_endpoint = st.one_of(
    st.integers(min_value=-1, max_value=8),
    st.sampled_from([63, 64]),
    st.integers(min_value=65, max_value=10**12),
)
_set_literal = st.one_of(
    st.lists(st.integers(min_value=-1, max_value=10), max_size=5).map(
        lambda xs: ",".join(map(str, xs))
    ),
    _endpoint.map(lambda k: f"[{k}]"),
    _endpoint.map(lambda k: f"[{k}+]"),
    st.sampled_from(["", "[", "[x]", "1,,a", "0;1"]),
)
_lunar_literal = st.builds(
    lambda digits, base: f"{digits}@{base}",
    st.text("0123456789²٣", max_size=4),
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
        _set_literal, _small | _endpoint.map(str), _set_literal, _small,
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
    # count and divisors of [63] take 12 s to reach the real node budget; a
    # small one keeps each case fast.  The real budget's bound is tested on
    # fixed inputs above.
    try:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sets, "NODE_BUDGET", 20000)
            code = main(argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    assert code in (0, 1, 2, 3), argv


_wide_literal = st.one_of(
    st.frozensets(st.integers(min_value=0, max_value=63), max_size=64).map(
        lambda xs: ",".join(map(str, sorted(xs)))
    ),
    st.integers(min_value=0, max_value=63).map(lambda k: f"[{k}]"),
    st.integers(min_value=1, max_value=63).map(lambda k: f"[{k}+]"),
)


@settings(max_examples=150, deadline=None)
@given(
    command=st.sampled_from(["count", "divisors", "irreducible"]),
    literal=_wide_literal,
)
def test_fuzz_set_commands_up_to_63(command, literal):
    # A small node budget keeps each case fast; the real budget's bound is
    # tested on fixed inputs above.
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sets, "NODE_BUDGET", 20000)
        assert main([command, literal]) in (0, 1), (command, literal)
