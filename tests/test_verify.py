"""Verification harness: report structure, target dispatch, range checks,
and agreement between the block sieve in both modes, the whole-range table
oracle, the direct counter and the library's divisor counting, between the
promotion sieve and promotion.py, and between the chain sieve and the lunar
divisor lists.
"""

import argparse
import inspect
import io
import itertools
import json
import sys
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from sumdiv import (
    CapacityError,
    FiniteSet,
    PreconditionError,
    divisor_count,
    divisors,
    headstrong_count,
    interval,
    promoted_family,
    promotion,
    setarray_divisor_count_formula,
    setarray_divisors,
    to_set_array,
    verify,
    verify_promotion_disjointness,
)
from sumdiv.cli import build_parser, main
from sumdiv.sets import _sum_masks
from sumdiv.verify import (
    CONJECTURE_TARGETS,
    THEOREM_TARGETS,
    _block_counts,
    _block_summary,
    _chain_table,
    run_target,
)

from .fresh import fresh
from .oracles import (
    count_irreducible,
    direct_divisor_count,
    divisor_table,
    naive_divisors,
    naive_lunar_divisors,
)


def _nonzero_multisets(max_k: int, height: int):
    """Every nonzero multiplicity tuple (m_0, ..., m_max_k), m_e <= height."""
    tuples = itertools.product(range(height + 1), repeat=max_k + 1)
    return [mults for mults in tuples if any(mults)]


def _pack(mults: tuple) -> int:
    """The chain of a multiplicity tuple in _chain_table's layout: element
    e of coordinate i at bit i * len(mults) + e."""
    width = len(mults)
    return sum(1 << (i * width + e) for e, m in enumerate(mults) for i in range(m))


@pytest.fixture
def fresh_blocks():
    """An empty block-summary cache before and after the test, so planted
    counts neither meet cached summaries nor outlive the test."""
    _block_summary.cache_clear()
    yield
    _block_summary.cache_clear()


def _blocks_agree_with_oracle(max_k: int):
    rooted, every = divisor_table(max_k), divisor_table(max_k, rooted=False)
    for m in range(max_k + 1):
        assert (_block_counts(m) == rooted[1 << m | 1 : 2 << m : 2]).all(), m
        assert (_block_counts(m, rooted=False) == every[1 << m : 2 << m]).all(), m


def _oracle_summary(table, m: int) -> tuple:
    """The fields of _block_summary(m), read off the whole-range table."""
    masks = range(1 << m | 1, 2 << m, 2)
    d = {mask: int(table[mask]) for mask in masks}
    top = max(d.values())
    second = max((v for v in d.values() if v < top), default=0)
    full = d[(2 << m) - 1]
    return (
        top,
        tuple(mask for mask in masks if d[mask] == top),
        second,
        tuple(mask for mask in masks if second and d[mask] == second),
        full,
        tuple((mask, d[mask]) for mask in masks if d[mask] >= full),
        sum(v == 2 for v in d.values()),
    )


class TestCounters:
    def test_table_matches_direct_count(self):
        rooted = divisor_table(10)
        every = divisor_table(10, rooted=False)
        assert len(rooted) == len(every) == 1 << 11
        assert rooted[0] == every[0] == 0
        for mask in range(1, 1 << 11):
            d = direct_divisor_count(mask)
            assert every[mask] == d, mask
            assert rooted[mask] == (d if mask & 1 else 0), mask

    def test_all_pairs_table_matches_naive_divisors(self):
        every = divisor_table(6, rooted=False)
        for mask in range(1, 1 << 7):
            a = frozenset(FiniteSet.from_mask(mask).elements)
            assert every[mask] == len(naive_divisors(a)), mask

    def test_block_counts_match_oracle(self):
        # Every mask of every block, rooted and all-pairs, for max_k <= 16.
        _blocks_agree_with_oracle(16)

    @pytest.mark.stretch
    def test_block_counts_match_oracle_stretch(self):
        _blocks_agree_with_oracle(20)

    def test_block_summary_matches_oracle(self, fresh_blocks):
        table = divisor_table(16)
        for m in range(17):
            assert tuple(_block_summary(m)) == _oracle_summary(table, m), m

    def test_table_interval_is_headstrong_count(self, fresh_blocks):
        # [m] is the unique top of block m, at d([m]) = H(m + 1).
        for m in range(19):
            block = _block_summary(m)
            assert block.top == block.full == headstrong_count(m + 1)
            assert block.top_masks == ((2 << m) - 1,)

    @pytest.mark.stretch
    def test_block_top_is_headstrong_count_through_bounds(self, fresh_blocks):
        # Every block a table target reads at its bound; odd2 reads blocks
        # up to max_k - 1.
        bounds = {name: row.sizes["max_k"][1] for name, row in verify._TARGETS.items()}
        top = max(bounds["crlodd"], bounds["crleven"], bounds["pi2"], bounds["odd2"] - 1)
        for m in range(top + 1):
            block = _block_summary(m)
            assert block.top == block.full == headstrong_count(m + 1), m
            assert block.top_masks == ((2 << m) - 1,), m

    def test_block_counts_in_small_chunks(self, monkeypatch):
        # Chunks that end inside rows and span several rows fill and count
        # the same.
        monkeypatch.setattr(verify, "_CHUNK", 24)
        _blocks_agree_with_oracle(11)

    @pytest.mark.parametrize("rooted", [True, False])
    @pytest.mark.parametrize("m", range(11))
    def test_block_pairs_yield_the_inner_pairs(self, monkeypatch, m, rooted):
        # Read back as (B_i, A), the flagged entries are every inner pair
        # (B, B + C), 0 < max B < m, once each: fill and dedupe together,
        # with chunks that end inside rows and span several rows.  The
        # pairs B = {0} and B = A are left to the callers.
        first = 1 if rooted else 0
        expected = set()
        for b in range(1, m):
            bs, cs = (range(1 << t | first, 2 << t, 1 + first) for t in (b, m - b))
            expected |= {(x, _sum_masks(x, y)) for x in bs for y in cs}
        for chunk in (verify._CHUNK, 24, 3):
            monkeypatch.setattr(verify, "_CHUNK", chunk)
            seen, pairs = [], []
            for b, s, width, part, distinct in verify._block_pairs(m, rooted):
                if b not in seen:
                    seen.append(b)
                assert width == 1 << (m - b - first), (chunk, b)
                assert part.min() >= 1 << m and part.max() < 2 << m, (chunk, b)
                for p in distinct.nonzero()[0].tolist():
                    row = (s + p) // width
                    pairs.append((1 << b | row << first | first, int(part[p])))
            assert seen == list(range(1, m)), chunk
            assert len(pairs) == len(set(pairs)), chunk
            assert set(pairs) == expected, chunk

    def test_general_table_matches_library(self):
        # The all-pairs blocks hold d of every nonempty set.
        for m in range(9):
            counts = _block_counts(m, rooted=False)
            for i, d in enumerate(counts.tolist()):
                assert d == divisor_count(FiniteSet.from_mask(1 << m | i))

    def test_pi2_rows_match_count_irreducible(self):
        rows = run_target("pi2", max_k=14).details["rows"]
        assert [r["irreducible"] for r in rows] == [
            count_irreducible(k) for k in range(1, 15)
        ]

    @pytest.mark.parametrize("max_k, height", [(3, 2), (2, 3)])
    def test_chain_table_matches_naive_lunar_divisors(self, max_k, height):
        table = _chain_table(max_k, height)
        assert len(table) == (height + 1) ** (max_k + 1) - 1
        for mults in _nonzero_multisets(max_k, height):
            digits = list(mults)
            while not digits[-1]:
                digits.pop()
            naive = naive_lunar_divisors(tuple(digits), height + 1)
            assert table[_pack(mults)] == len(naive), mults

    def test_chain_table_matches_setarray_divisors(self):
        table = _chain_table(5, 2)
        for mults in _nonzero_multisets(5, 2):
            x = to_set_array(dict(enumerate(mults)), 2)
            assert table[_pack(mults)] == len(setarray_divisors(x)), mults

    def test_direct_matches_library(self):
        for mask in range(1, 1 << 8):
            a = FiniteSet.from_mask(mask)
            assert direct_divisor_count(mask) == divisor_count(a)


_ALL_TARGETS = THEOREM_TARGETS + CONJECTURE_TARGETS


def _verify_choices() -> tuple:
    """The choices of `sumdiv verify TARGET`."""
    actions = build_parser()._actions
    sub = next(a for a in actions if isinstance(a, argparse._SubParsersAction))
    verify_actions = sub.choices["verify"]._actions
    return tuple(next(a for a in verify_actions if a.dest == "target").choices)


class TestTargetTable:
    def test_rows_are_the_targets(self):
        assert tuple(verify._TARGETS) == _ALL_TARGETS == _verify_choices()

    def test_runners_take_the_size_parameters(self):
        for row in verify._TARGETS.values():
            params = inspect.signature(row.runner).parameters
            assert list(params) == list(row.sizes)
            assert all(p.default is inspect.Parameter.empty for p in params.values())

    @pytest.mark.parametrize(
        "name, want",
        [
            ("crlodd", {"max_k": 14, "promotion_max_k": 10}),
            ("crleven", {"max_k": 12}),
            ("L15", {"max_k": 12}),
            (
                "bases",
                {"max_k": 5, "formula_max_element": 5, "formula_heights": [2, 3]},
            ),
            ("odd2", {"max_k": 14}),
            ("pi2", {"max_k": 14}),
        ],
    )
    def test_default_range(self, monkeypatch, name, want):
        # The runner is handed the table's defaults; None means the default.
        row = verify._TARGETS[name]
        seen = []

        def runner(**kwargs):
            seen.append(kwargs)
            return [], {}

        monkeypatch.setitem(verify._TARGETS, name, row._replace(runner=runner))
        r = run_target(name, max_k=None, promotion_max_k=None)
        defaults = {key: default for key, (default, _) in row.sizes.items()}
        assert seen == [defaults]
        assert r.range == {**defaults, **row.fixed} == want

    def test_reference_file_covers_defaults_and_bounds(self):
        # BENCH_verify.json holds each target at its defaults, then each
        # size parameter at its bound with the others at their defaults,
        # so a bound that moves without a rebuilt file fails here.
        want = []
        for name, row in verify._TARGETS.items():
            defaults = {key: default for key, (default, _) in row.sizes.items()}
            want.append((name, {**defaults, **row.fixed}))
            for key, (_, bound) in row.sizes.items():
                want.append((name, {**defaults, key: bound, **row.fixed}))
        with open(Path(__file__).resolve().parents[1] / "BENCH_verify.json") as f:
            runs = json.load(f)["runs"]
        assert [(r["target"], r["range"]) for r in runs] == want

    @pytest.mark.parametrize("name", _ALL_TARGETS)
    def test_planted_counterexample(self, monkeypatch, capsys, name):
        # A theorem target fails (exit 3) on any counterexample; a probe
        # stays evidence-only (exit 0).
        row = verify._TARGETS[name]
        planted = row._replace(runner=lambda **kw: ([{"planted": 1}], {}))
        monkeypatch.setitem(verify._TARGETS, name, planted)
        theorem = name in THEOREM_TARGETS
        r = run_target(name, max_k=0)
        assert r.counterexamples == [{"planted": 1}]
        assert r.status == ("fail" if theorem else "evidence-only")
        assert main(["verify", name, "--max-k", "0"]) == (3 if theorem else 0)


class TestDispatch:
    def test_unknown_target(self):
        with pytest.raises(PreconditionError):
            run_target("nope")

    def test_unknown_parameter(self):
        with pytest.raises(PreconditionError):
            run_target("L15", bogus=3)

    def test_all_targets_run_small(self):
        for name in THEOREM_TARGETS:
            r = run_target(name, max_k=4)
            assert r.status == "pass"
            assert r.counterexamples == []
        for name in CONJECTURE_TARGETS:
            r = run_target(name, max_k=5)
            assert r.status == "evidence-only"

    def test_report_sections(self):
        r = run_target("L15", max_k=5)
        d = r.to_dict()
        assert set(d) == {"data", "meta"}
        assert "elapsed_seconds" in d["meta"]
        assert d["data"]["target"] == "L15"

    def test_crleven_records_documented_ties(self):
        r = run_target("crleven", max_k=4)
        assert r.status == "pass"
        assert set(r.details["ties"]) == {1, 3}

    def test_negative_range_rejected(self):
        with pytest.raises(PreconditionError):
            run_target("crlodd", max_k=-1)
        with pytest.raises(PreconditionError):
            run_target("crlodd", max_k=4, promotion_max_k=-1)
        # A size that is not an int is refused before any work, bool too.
        for size in (2.5, "3", True):
            with pytest.raises(PreconditionError):
                run_target("pi2", max_k=size)
            with pytest.raises(PreconditionError):
                run_target("crlodd", max_k=4, promotion_max_k=size)

    def test_crleven_reports_planted_rival(self, monkeypatch, fresh_blocks):
        # Raise {0, 2, 5} to 2 d([4]) = 16, past d([5]) = 14: at k = 5 it
        # ties with [5+] = {1, ..., 5}, and that k must be the one row.
        block_counts = verify._block_counts

        def planted(m, rooted=True):
            counts = block_counts(m, rooted)
            if rooted and m == 5:
                counts[0b0010] = 16  # {0, 2, 5} = 1 | 1 << 5 | 0b0010 << 1
            return counts

        monkeypatch.setattr(verify, "_block_counts", planted)
        r = run_target("crleven", max_k=5)
        assert r.status == "fail"
        assert r.counterexamples == [
            {"k": 5, "max_d": 16, "maximizers": ["{0, 2, 5}", "{1, 2, 3, 4, 5}"]}
        ]

    def test_range_upper_bounds(self):
        for name in THEOREM_TARGETS + CONJECTURE_TARGETS:
            with pytest.raises(CapacityError):
                run_target(name, max_k=10**9)
        with pytest.raises(CapacityError):
            run_target("crlodd", max_k=4, promotion_max_k=10**9)

    def test_no_promotion_tasks(self):
        r = run_target("crlodd", max_k=4, promotion_max_k=0)
        assert r.status == "pass"
        assert r.counterexamples == []

    def test_crlodd_stretch_promotion_range(self):
        r = run_target("crlodd", promotion_max_k=14)
        assert r.status == "pass"
        assert r.counterexamples == []

    def test_crlodd_promotion_at_bound(self):
        # At its bound the promotion phase passes, in a fresh process, and
        # peaks near the 133 MB measured on 2 cores.
        bound = verify._TARGETS["crlodd"].sizes["promotion_max_k"][1]
        argv = ["verify", "crlodd", "--promotion-max-k", str(bound), "--json"]
        out, peak = fresh(f"from sumdiv.cli import main\nmain({argv!r})")
        data = json.loads(out)["data"]
        assert (data["status"], data["counterexamples"]) == ("pass", [])
        assert peak is None or peak <= 170 << 10, peak

    def test_promotion_sieve_matches_oracle(self):
        # Per (k, A): the total size of the promoted families, the size of
        # their union, and the verdict, against promotion.py.
        total, union = Counter(), set()
        for k, _, a, member in verify._promotion_members(7):
            total.update((k, m) for m in a.tolist())
            union.update(zip([k] * len(a), a.tolist(), member.tolist()))
        union = Counter((k, m) for k, m, _ in union)
        failures = []
        for k in range(1, 8):
            for mask in range(1, 1 << (k + 1), 2):
                a = FiniteSet.from_mask(mask)
                families = [promoted_family(a, k, b).members for b in divisors(a)]
                assert total[k, mask] == sum(map(len, families)), (k, mask)
                assert union[k, mask] == len(frozenset().union(*families)), (k, mask)
                if not verify_promotion_disjointness(a, k):
                    failures.append({"set": str(a), "k": k, "issue": "promotion families"})
        assert verify._promotion_failures(7) == failures

    def test_promotion_sieve_in_small_chunks(self, monkeypatch):
        # Chunks of 3 end inside rows and span several, so each pair's B
        # is read from the chunk's offset; the members are the same.
        def members():
            return [(k, m, a.tolist(), member.tolist())
                    for k, m, a, member in verify._promotion_members(9)]

        whole = members()
        monkeypatch.setattr(verify, "_CHUNK", 3)
        assert members() == whole

    @pytest.mark.parametrize(
        "planted_member",
        [
            (0, 1, 2),  # the family of {0, 1, 2}: an overlap
            (0, 5),  # not a divisor of [6]
            (0, 1, 3, 5),  # the witness factor of A
        ],
    )
    def test_promotion_reports_planted_fault(self, monkeypatch, planted_member):
        # Within A = {0, 1, 2, 4, 5, 6} and k = 6, the family of {0, 4} is
        # {{0, 1, 4}}.  Promote {0, 4} to the planted member instead; each
        # breaks one check, and the sweep must report exactly that (k, A).
        # The family rule sees A only through missing = [k] - A = {3}, and
        # no other A with max <= k <= 7 and that missing has {0, 4} as a
        # divisor.
        k, a = 6, FiniteSet((0, 1, 2, 4, 5, 6))
        missing = interval(k).mask & ~a.mask
        victim, stolen = FiniteSet((0, 4)).mask, FiniteSet(planted_member).mask
        family = promotion._family

        def planted(b, miss, top, low):
            hit = (miss == missing) & (b == victim)
            return [np.where(hit, stolen, member) for member in family(b, miss, top, low)]

        monkeypatch.setattr(promotion, "_family", planted)
        r = run_target("crlodd", max_k=7, promotion_max_k=7)
        assert r.status == "fail"
        assert r.counterexamples == [
            {"set": str(a), "k": k, "issue": "promotion families"}
        ]

    def test_l15_stretch_range(self):
        r = run_target("L15", max_k=16)
        assert r.status == "pass"
        assert r.counterexamples == []

    def test_l15_at_20_peak(self):
        # The all-pairs blocks hold the sieve's widest rows for each m; at
        # 20, L15 passes in a fresh process and peaks near the 49 MB
        # measured on 2 cores.
        argv = ["verify", "L15", "--max-k", "20", "--json"]
        out, peak = fresh(f"from sumdiv.cli import main\nmain({argv!r})")
        assert json.loads(out)["data"]["status"] == "pass"
        assert peak is None or peak <= 65 << 10, peak

    def test_l15_reports_planted_fault(self, monkeypatch):
        # A wrong count for the core {0, 1, 3} on the rooted side must
        # surface at each of its shifts within [8], and nowhere else, with
        # the true count from the all-pairs side.
        core = 0b1011
        block_counts = verify._block_counts

        def planted(m, rooted=True):
            counts = block_counts(m, rooted)
            if rooted and m == 3:
                counts[(core >> 1) & 3] += 1
            return counts

        monkeypatch.setattr(verify, "_block_counts", planted)
        r = run_target("L15", max_k=8)
        d = divisor_count(FiniteSet.from_mask(core))
        want = [
            {
                "set": str(FiniteSet.from_mask(core << s)),
                "d": (s + 1) * d,
                "formula": (s + 1) * (d + 1),
            }
            for s in range(6)
        ]
        assert r.status == "fail"
        assert r.counterexamples == sorted(want, key=lambda c: c["set"])

    @staticmethod
    def _plant_rivals(monkeypatch, rivals: dict):
        # Rooted block counts with each mask of rivals raised to its d.
        block_counts = verify._block_counts

        def planted(m, rooted=True):
            counts = block_counts(m, rooted)
            for mask, d in rivals.items():
                if rooted and mask.bit_length() == m + 1:
                    counts[(mask >> 1) & ((1 << m - 1) - 1)] = d
            return counts

        monkeypatch.setattr(verify, "_block_counts", planted)

    def test_crlodd_lists_planted_rivals(self, monkeypatch, fresh_blocks):
        # Raise {0, 2, 5} to d([6]) and {0, 1, 2, 3, 4, 6} past it: the
        # block summaries of blocks 5 and 6 keep them, and crlodd must list
        # exactly these rivals, of [5] and of [6], sieving each block once.
        limit = headstrong_count(7)
        self._plant_rivals(monkeypatch, {0b100101: limit, 0b1011111: limit + 5})
        r = run_target("crlodd", max_k=6, promotion_max_k=0)
        assert r.status == "fail"
        assert r.details == {"d_full_interval": limit}
        assert r.counterexamples == [
            {"k": 5, "set": "{0, 2, 5}", "d": limit, "limit": headstrong_count(6)},
            {"k": 6, "set": "{0, 1, 2, 3, 4, 6}", "d": limit + 5, "limit": limit},
            {"k": 6, "set": "{0, 2, 5}", "d": limit, "limit": limit},
        ]
        assert r.meta["blocks_sieved"] == 7

    def test_crlodd_lists_rivals_below_the_top(self, monkeypatch, fresh_blocks):
        # Two rivals in block 5 with different d, both past d([7]): the
        # summary keeps every set at or above d([m]), not only its top
        # sets, so the lower one is listed too, at every k from 5 to 7.
        limit = headstrong_count(8)
        self._plant_rivals(monkeypatch, {0b100101: limit, 0b101011: limit + 3})
        r = run_target("crlodd", max_k=7, promotion_max_k=0)
        assert _block_summary(5).top_masks == (0b101011,)
        assert r.counterexamples == [
            {"k": k, "set": s, "d": d, "limit": headstrong_count(k + 1)}
            for k in (5, 6, 7)
            for s, d in (("{0, 1, 3, 5}", limit + 3), ("{0, 2, 5}", limit))
        ]
        assert r.meta["blocks_sieved"] == 8

    def test_crlodd_checks_every_k_up_to_max_k(self, monkeypatch, fresh_blocks):
        # {0, 2, 5} raised to d([6]) ties [6] and beats [5], but stays below
        # d([7]): checking only k = 7 would miss both.
        d6 = headstrong_count(7)
        self._plant_rivals(monkeypatch, {0b100101: d6})
        r = run_target("crlodd", max_k=7, promotion_max_k=0)
        assert r.status == "fail"
        assert r.details == {"d_full_interval": headstrong_count(8)}
        assert r.counterexamples == [
            {"k": 5, "set": "{0, 2, 5}", "d": d6, "limit": headstrong_count(6)},
            {"k": 6, "set": "{0, 2, 5}", "d": d6, "limit": d6},
        ]

    def test_later_targets_reuse_block_summaries(self, monkeypatch, fresh_blocks):
        # crlodd sieves blocks 0..14; the table targets after it in the
        # same process read their summaries and sieve no rooted block.
        first = run_target("crlodd").to_dict()["meta"]
        assert first["blocks_sieved"] == 15
        sieved = []
        block_counts = verify._block_counts

        def spy(m, rooted=True):
            sieved.append((m, rooted))
            return block_counts(m, rooted)

        monkeypatch.setattr(verify, "_block_counts", spy)
        for name in ("crleven", "odd2", "pi2", "crlodd"):
            meta = run_target(name).to_dict()["meta"]
            assert meta["blocks_sieved"] == 0, name
            assert meta["blocks_reused"] > 0, name
        assert sieved == []
        # L15 streams whole blocks, rooted and all-pairs, every time.
        meta = run_target("L15", max_k=5).to_dict()["meta"]
        assert sorted(sieved) == [(m, r) for m in range(6) for r in (False, True)]
        assert meta["blocks_sieved"] == 12

    def test_meta_reports_blocks_and_memory(self, fresh_blocks):
        # In this order, crlodd sieves the rooted blocks 0..3 and the
        # later table targets reuse them; L15 sieves 0..3 in both modes.
        # A reused count is of blocks read again, not of lookups: crlodd
        # reads each of its blocks once, though its rival loop visits
        # block m for every k >= m.
        sieved = {"crlodd": 4, "crleven": 0, "L15": 8, "bases": 0, "odd2": 0, "pi2": 0}
        reused = {"crlodd": 0, "crleven": 4, "L15": 0, "bases": 0, "odd2": 1, "pi2": 3}
        for name in _ALL_TARGETS:
            meta = run_target(name, max_k=3).to_dict()["meta"]
            assert meta["peak_rss_mb"] > 0
            assert meta["blocks_sieved"] == sieved[name], name
            assert meta["blocks_reused"] == reused[name], name

    def test_bases_formula_knobs_removed(self):
        with pytest.raises(PreconditionError):
            run_target("bases", formula_max_element=4)
        with pytest.raises(PreconditionError):
            run_target("bases", formula_heights=(2,))

    def test_bases_stretch_range(self):
        r = run_target("bases", max_k=8)
        assert r.status == "pass"
        assert r.counterexamples == []

    def test_bases_reports_planted_rival(self, monkeypatch):
        # Raise one height-2 multiset within [4] to d([4]_2): it must show
        # up as exactly one rival of [4]_2, and of no other [k]_2.
        victim = (2, 0, 1, 0, 2, 0)  # {0: 2, 2: 1, 4: 2}, elements <= 5
        d4 = setarray_divisor_count_formula(interval(4), 2)
        chain_table = verify._chain_table

        def planted(max_k, height):
            table = chain_table(max_k, height)
            if height == 2:
                assert max_k == 5
                table[_pack(victim)] = d4
            return table

        monkeypatch.setattr(verify, "_chain_table", planted)
        r = run_target("bases")
        assert r.status == "fail"
        assert r.counterexamples == [
            {"k": 4, "multiset": {0: 2, 2: 1, 4: 2}, "d": d4, "d_max": d4}
        ]

    def test_bases_reports_planted_formula_mismatch(self, monkeypatch):
        # A wrong height-3 count for ({0, 2, 3}, {}, {}) must surface as
        # exactly that formula record.
        a = FiniteSet((0, 2, 3))
        formula = setarray_divisor_count_formula(a, 3)
        chain_table = verify._chain_table

        def planted(max_k, height):
            table = chain_table(max_k, height)
            if height == 3:
                table[a.mask] += 1
            return table

        monkeypatch.setattr(verify, "_chain_table", planted)
        r = run_target("bases", max_k=3)
        assert r.status == "fail"
        assert r.counterexamples == [
            {"set": "{0, 2, 3}", "height": 3, "oracle": formula + 1, "formula": formula}
        ]

    def test_bases_reports_planted_maximum_mismatch(self, monkeypatch):
        # A wrong height-2 count for ([6], {}) must surface as exactly one
        # mismatch with the formula at k = 6.  [6] is past the formula
        # sets, whose elements are at most 5, so no formula record shows.
        full = interval(6).mask
        chain_table = verify._chain_table

        def planted(max_k, height):
            table = chain_table(max_k, height)
            if height == 2:
                table[full] += 1
            return table

        monkeypatch.setattr(verify, "_chain_table", planted)
        r = run_target("bases", max_k=6)
        assert r.status == "fail"
        assert r.counterexamples == [{"k": 6, "issue": "formula mismatch at [k]_2"}]

    def test_odd2_prediction_rows(self):
        r = run_target("odd2", max_k=8)
        for row in r.details["rows"]:
            if row["covered_by_conjecture"]:
                assert row["predicted_hit"]
            else:
                assert row["k"] == 5


def test_peak_rss_is_the_process_own():
    # A parent holding 200 MB starts verify: the child reports its own peak,
    # not the parent's, which ru_maxrss carries over exec on Linux.
    argv = [sys.executable, "-m", "sumdiv.cli", "verify", "crleven", "--max-k", "3", "--json"]
    code = (
        "import subprocess, sys\n"
        "held = b'x' * (200 << 20)\n"
        f"out = subprocess.run({argv!r}, capture_output=True, text=True, check=True)\n"
        "print(out.stdout)\n"
    )
    out, peak = fresh(code)
    assert peak is None or peak > 200 << 10
    assert 0 < json.loads(out)["meta"]["peak_rss_mb"] < 100


@pytest.mark.parametrize("status", [None, "Name:\tpython\n"])
def test_peak_rss_without_proc(monkeypatch, status):
    # With no /proc, or no VmHWM line in its status file, the peak is
    # ru_maxrss, which only grows.
    import resource

    def no_proc(path, *args, **kwargs):
        if status is None:
            raise FileNotFoundError(path)
        return io.StringIO(status)

    monkeypatch.setattr(verify, "open", no_proc, raising=False)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    peak = verify._peak_rss_kib()
    assert 0 < before <= peak <= resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # macOS reports ru_maxrss in bytes.
    monkeypatch.setattr(resource, "getrusage", lambda who: SimpleNamespace(ru_maxrss=300 << 20))
    monkeypatch.setattr(sys, "platform", "darwin")
    assert verify._peak_rss_kib() == 300 << 10
