"""Closed-form evaluation and the discrepancy verifier."""

import os
import subprocess
import sys
from fractions import Fraction

import pytest

import oracle
from rindices import (
    Family,
    OrderBelowValidityError,
    RIndex,
    Source,
    closed_form,
    full_report,
    generate_family,
    r1_index,
    r2_index,
    r3_index,
    r_degree_table,
    report_summary,
    report_to_csv,
    verify_family,
)
from rindices import families, indices
from rindices.families import variants_for


def variant(family, index, source):
    for v in variants_for(family):
        if v.index is index and v.source is source:
            return v
    raise LookupError((family, index, source))


class TestClosedForm:
    def test_complete_r3_at_4(self):
        v = variant(Family.COMPLETE, RIndex.R3, Source.PAPER_STATEMENT)
        assert closed_form(v, 4) == 432

    def test_cycle_r1_at_10(self):
        v = variant(Family.CYCLE, RIndex.R1, Source.PAPER_STATEMENT)
        assert closed_form(v, 10) == 640

    def test_path_statement_r1_fractional(self):
        v = variant(Family.PATH, RIndex.R1, Source.PAPER_STATEMENT)
        assert closed_form(v, 5) == Fraction(15, 2)

    def test_below_validity(self):
        v = variant(Family.CYCLE, RIndex.R1, Source.PAPER_STATEMENT)
        with pytest.raises(OrderBelowValidityError):
            closed_form(v, 2)


class TestVerifyFamily:
    def test_cycle_all_match(self):
        report = verify_family(Family.CYCLE, range(3, 51))
        assert report.rows
        assert not report.mismatches()

    def test_complete_all_match_past_word_size(self):
        report = verify_family(Family.COMPLETE, range(3, 26))
        assert not report.mismatches()
        big = [r for r in report.rows if r.n == 25 and r.index is RIndex.R1]
        assert big[0].computed > 2 ** 64

    def test_star_r1_statement_always_mismatches(self):
        report = verify_family(Family.STAR, range(3, 51))
        for row in report.rows:
            if row.index is RIndex.R1 and row.source is Source.PAPER_STATEMENT:
                assert not row.match
            else:
                assert row.match

    def test_star_spot_value(self):
        report = verify_family(Family.STAR, [3])
        row = [r for r in report.rows if r.index is RIndex.R1
               and r.source is Source.PAPER_STATEMENT][0]
        assert row.claimed == 9 and row.computed == 41

    def test_path_statement_and_proof_both_wrong(self):
        report = verify_family(Family.PATH, range(3, 61))
        for row in report.rows:
            if row.source is Source.CORRECTED:
                assert row.match
            else:
                assert not row.match

    def test_path_statement_proof_disagree_with_each_other(self):
        for n in range(3, 61):
            for index in RIndex:
                a = closed_form(
                    variant(Family.PATH, index, Source.PAPER_STATEMENT), n)
                b = closed_form(
                    variant(Family.PATH, index, Source.PAPER_PROOF), n)
                assert a != b

    def test_computed_matches_independent_oracle(self):
        for family in Family:
            for n in range(3, 31):
                g = generate_family(family, n)
                assert r1_index(g) == oracle.naive_r1(g)
                assert r2_index(g) == oracle.naive_r2(g)
                assert r3_index(g) == oracle.naive_r3(g)

    def test_corrected_path_small_n_exceptions(self):
        report = verify_family(Family.PATH, [3, 4])
        corrected = {(r.index, r.n): r for r in report.rows
                     if r.source is Source.CORRECTED}
        assert corrected[(RIndex.R1, 3)].claimed == 41
        assert corrected[(RIndex.R2, 4)].claimed == 65
        assert all(r.match for r in corrected.values())

    def test_rows_sorted_and_shared_computed(self):
        report = verify_family(Family.PATH, range(3, 10))
        keys = [(r.index.value, r.n) for r in report.rows]
        assert keys == sorted(keys)
        by_pair = {}
        for row in report.rows:
            by_pair.setdefault((row.index, row.n), set()).add(row.computed)
        assert all(len(vals) == 1 for vals in by_pair.values())

    def test_variants_listed_in_source_order(self):
        # verify_family emits each (index, n)'s rows in VARIANTS order,
        # which must be Source order.
        rank = list(Source).index
        for family in Family:
            for index in RIndex:
                sources = [v.source for v in variants_for(family)
                           if v.index is index]
                assert sources == sorted(sources, key=rank)
                assert sources

    def test_one_build_per_order(self, monkeypatch):
        orders = []

        def counting(family, n):
            orders.append(n)
            return generate_family(family, n)

        monkeypatch.setattr(families, "generate_family", counting)
        verify_family(Family.COMPLETE, range(3, 10))
        assert orders == list(range(3, 10))
        # Orders below 3, where no claim holds, are neither built nor
        # reported; a path of order 2 could be built.
        orders.clear()
        report = verify_family(Family.PATH, range(1, 6))
        assert orders == [3, 4, 5]
        assert sorted({row.n for row in report.rows}) == [3, 4, 5]

    def test_one_r_degree_table_per_order(self, monkeypatch):
        # The three claims of an order read one table, so the verifier's
        # R degrees are all computed, and timed, in r_degree_table.
        orders = []

        def counting(g):
            orders.append(g.n)
            return r_degree_table(g)

        monkeypatch.setattr(indices, "r_degree_table", counting)
        for family in Family:
            orders.clear()
            verify_family(family, range(1, 12))
            assert orders == list(range(3, 12))

    def test_cycle_row_count(self):
        # one source per index for cycles
        report = verify_family(Family.CYCLE, range(3, 101))
        assert len(report.rows) == 294


class TestSerialization:
    def test_csv_shape(self):
        report = verify_family(Family.STAR, [3])
        lines = report_to_csv(report).strip().split("\n")
        assert lines[0] == "family,index,n,source,claimed,computed,verdict"
        assert "star,r1,3,statement,9,41,Mismatch" in lines

    def test_rational_rendering(self):
        report = verify_family(Family.PATH, [5])
        csv_text = report_to_csv(report)
        assert "path,r1,5,statement,15/2,146,Mismatch" in csv_text

    @pytest.mark.parametrize("family", list(Family))
    def test_csv_equals_rows_built_from_full_report(self, family):
        orders = range(3, 41)
        lines = [families.VERIFY_CSV_HEADER]
        for index in RIndex:
            for n in orders:
                computed = getattr(
                    full_report(generate_family(family, n)), index.value)
                for source in Source:
                    for v in variants_for(family):
                        if (v.index, v.source) == (index, source):
                            claimed = v.evaluate(n)
                            verdict = ("Match" if claimed == computed
                                       else "Mismatch")
                            lines.append(
                                f"{family.value},{index.value},{n},"
                                f"{source.value},{claimed},{computed},"
                                f"{verdict}")
        assert report_to_csv(verify_family(family, orders)) == \
            "\n".join(lines) + "\n"

    def test_summary_counts(self):
        report = verify_family(Family.CYCLE, range(3, 13))
        summary = report_summary(report)
        assert "cycle" in summary and "30" in summary

    # Star statements mismatch at r1 only, and the corrected star form
    # never does; path statements and proofs never match.
    @pytest.mark.parametrize("family, body", [
        (Family.STAR, "star       corrected        3         0\n"
                      "star       statement        6         3\n"),
        (Family.PATH, "path       corrected        9         0\n"
                      "path       proof            0         9\n"
                      "path       statement        0         9\n"),
    ])
    def test_summary_exact_text(self, family, body):
        report = verify_family(family, range(3, 6))
        assert report_summary(report) == (
            "family     source       match  mismatch\n" + body)


# The package imports families on first use of one of these names.
LAZY_NAMES = ["ClosedFormVariant", "DiscrepancyReport", "DiscrepancyRow",
              "RIndex", "Source", "closed_form", "report_summary",
              "report_to_csv", "verify_family", "families"]


def test_lazy_reexports_resolve_to_the_families_objects():
    # In a fresh interpreter, where families is not loaded yet.
    code = """if True:
        import sys
        sys.path.insert(0, sys.argv[1])
        import rindices
        assert "rindices.families" not in sys.modules
        for name in sys.argv[2:]:
            ns = {}
            exec(f"from rindices import {name}", ns)
            fam = sys.modules["rindices.families"]
            want = fam if name == "families" else getattr(fam, name)
            assert ns[name] is want and getattr(rindices, name) is want, name
        ns = {}
        exec("from rindices import *", ns)
        assert all(ns[name] is getattr(rindices, name)
                   for name in sys.argv[2:])
        try:
            rindices.no_such_name
        except AttributeError:
            pass
        else:
            raise SystemExit("rindices.no_such_name resolved")
    """
    src = os.path.dirname(os.path.dirname(families.__file__))
    result = subprocess.run([sys.executable, "-c", code, src, *LAZY_NAMES],
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
