"""Verification harness: report structure, target dispatch, range checks,
and agreement between the divisor table in both modes, the direct counter
and the library's divisor counting.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import sumdiv
from sumdiv import (
    CapacityError,
    FiniteSet,
    PreconditionError,
    count_irreducible,
    divisor_count,
    headstrong_count,
    verify,
)
from sumdiv.verify import (
    CONJECTURE_TARGETS,
    THEOREM_TARGETS,
    _divisor_table,
    _general_table,
    _multiset_divisor_counts,
    run_target,
)

from .oracles import direct_divisor_count, naive_divisors, naive_lunar_divisors


class TestCounters:
    def test_table_matches_direct_count(self):
        rooted = _divisor_table(10)
        every = _divisor_table(10, rooted=False)
        assert len(rooted) == len(every) == 1 << 11
        assert rooted[0] == every[0] == 0
        for mask in range(1, 1 << 11):
            d = direct_divisor_count(mask)
            assert every[mask] == d, mask
            assert rooted[mask] == (d if mask & 1 else 0), mask

    def test_all_pairs_table_matches_naive_divisors(self):
        every = _divisor_table(6, rooted=False)
        for mask in range(1, 1 << 7):
            a = frozenset(FiniteSet.from_mask(mask).elements)
            assert every[mask] == len(naive_divisors(a)), mask

    def test_table_interval_is_headstrong_count(self):
        table = _divisor_table(18)
        for k in range(19):
            assert table[(2 << k) - 1] == headstrong_count(k + 1)

    def test_general_table_matches_library(self):
        general = _general_table(_divisor_table(8))
        for mask in range(1, 1 << 9):
            assert general[mask] == divisor_count(FiniteSet.from_mask(mask))

    def test_pi2_rows_match_count_irreducible(self):
        rows = run_target("pi2", max_k=12).details["rows"]
        assert [r["irreducible"] for r in rows] == [
            count_irreducible(k) for k in range(1, 13)
        ]

    def test_multiset_counts_match_naive_lunar_divisors(self):
        counts = _multiset_divisor_counts(3, 2)
        assert len(counts) == 3**4 - 1
        for mults, d in counts.items():
            digits = list(mults)
            while not digits[-1]:
                digits.pop()
            assert d == len(naive_lunar_divisors(tuple(digits), 3)), mults

    def test_direct_matches_library(self):
        for mask in range(1, 1 << 8):
            a = FiniteSet.from_mask(mask)
            assert direct_divisor_count(mask) == divisor_count(a)


class TestDispatch:
    def test_unknown_target(self):
        with pytest.raises(PreconditionError):
            run_target("nope")

    def test_unknown_parameter(self):
        with pytest.raises(PreconditionError):
            run_target("L15", workers=1, bogus=3)

    def test_all_targets_run_small(self):
        for name in THEOREM_TARGETS:
            r = run_target(name, workers=1, max_k=4)
            assert r.status == "pass"
            assert r.counterexamples == []
        for name in CONJECTURE_TARGETS:
            r = run_target(name, workers=1, max_k=5)
            assert r.status == "evidence-only"

    def test_report_sections(self):
        r = run_target("L15", workers=1, max_k=5)
        d = r.to_dict()
        assert set(d) == {"data", "meta"}
        assert "elapsed_seconds" in d["meta"]
        assert d["data"]["target"] == "L15"

    def test_crleven_records_documented_ties(self):
        r = run_target("crleven", workers=1, max_k=4)
        assert r.status == "pass"
        assert set(r.details["ties"]) == {1, 3}

    def test_negative_range_rejected(self):
        with pytest.raises(PreconditionError):
            run_target("crlodd", workers=1, max_k=-1)
        with pytest.raises(PreconditionError):
            run_target("crlodd", workers=1, max_k=4, promotion_max_k=-1)

    def test_range_upper_bounds(self):
        for name in THEOREM_TARGETS + CONJECTURE_TARGETS:
            with pytest.raises(CapacityError):
                run_target(name, workers=1, max_k=10**9)
        with pytest.raises(CapacityError):
            run_target("crlodd", workers=1, max_k=4, promotion_max_k=10**9)

    def test_no_promotion_tasks(self):
        r = run_target("crlodd", workers=4, max_k=4, promotion_max_k=0)
        assert r.status == "pass"
        assert r.worker_count == 1

    def test_worker_count_reports_workers_used(self):
        for name in ("crleven", "L15", "bases", "odd2", "pi2"):
            assert run_target(name, workers=5, max_k=3).worker_count == 1
        # k = 1 holds two promotion tasks, so two chunks.
        r = run_target("crlodd", workers=5, max_k=3, promotion_max_k=1)
        assert r.worker_count == min(2, os.cpu_count() or 1)

    def test_workers_clamped_to_cpu_count(self):
        r = run_target("crlodd", workers=64, max_k=2, promotion_max_k=2)
        assert r.status == "pass"
        assert 1 <= r.worker_count <= (os.cpu_count() or 1)

    def test_worker_count_does_not_change_data(self):
        one = run_target("crlodd", workers=1, max_k=6, promotion_max_k=4)
        two = run_target("crlodd", workers=2, max_k=6, promotion_max_k=4)
        assert one.data_dict() == two.data_dict()

    def test_l15_stretch_range(self):
        r = run_target("L15", max_k=16)
        assert r.status == "pass"
        assert r.counterexamples == []

    def test_l15_reports_planted_fault(self, monkeypatch):
        # A wrong expected side at one mask must surface as exactly that
        # counterexample, with the true count from the all-pairs side.
        mask = 0b1011000
        true_d = divisor_count(FiniteSet.from_mask(mask))
        general = verify._general_table

        def planted(table):
            out = general(table)
            out[mask] += 1
            return out

        monkeypatch.setattr(verify, "_general_table", planted)
        r = run_target("L15", max_k=8)
        assert r.status == "fail"
        assert r.counterexamples == [
            {"set": "{3, 4, 6}", "d": true_d, "formula": true_d + 1}
        ]

    def test_odd2_prediction_rows(self):
        r = run_target("odd2", workers=1, max_k=8)
        for row in r.details["rows"]:
            if row["covered_by_conjecture"]:
                assert row["predicted_hit"]
            else:
                assert row["k"] == 5


def test_import_does_not_load_numpy():
    src = str(Path(sumdiv.__file__).resolve().parents[1])
    code = "import sys, sumdiv, sumdiv.cli; print('numpy' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={"PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    assert out.stdout.strip() == "False"
