"""Truncation rule, RSE measure, and parameter-block study."""

import math

import numpy as np
import pytest

from negocc import (
    DomainError,
    OccupancyParams,
    WorkBudgetError,
    approx_pmf,
    estimate_block_work,
    pmf_vector,
    rse,
    rse_block,
    rse_summaries,
    truncation_point,
)


class TestTruncationPoint:
    def test_examples(self):
        assert truncation_point(OccupancyParams(3, 2, 1.0)) == 5
        assert truncation_point(OccupancyParams(2, 2, 1.0)) == 9

    def test_degenerate(self):
        assert truncation_point(OccupancyParams(1, 1, 1.0)) == 0

    def test_captures_bulk_of_mass(self):
        for theta in (0.25, 0.6, 1.0):
            for m in (5, 20, 50):
                for k in (1, m // 2 or 1, m):
                    params = OccupancyParams(m, k, theta)
                    t_cut = truncation_point(params)
                    assert pmf_vector(params, t_cut).sum() >= 0.99


class TestRse:
    def test_identical_vectors(self):
        assert rse([0.2, 0.8], [0.2, 0.8]) == 0.0

    def test_hand_value(self):
        assert rse([1.0, 0.0], [0.5, 0.5]) == pytest.approx(math.sqrt(0.5), rel=1e-15)

    def test_length_mismatch(self):
        with pytest.raises(DomainError):
            rse([1.0, 0.0], [1.0])

    def test_bounded_by_sqrt_two(self):
        params = OccupancyParams(7, 4, 0.6)
        t_cut = truncation_point(params)
        value = rse(pmf_vector(params, t_cut), approx_pmf(params, t_cut))
        assert 0.0 <= value <= math.sqrt(2.0)

    def test_truncated_rse_is_lower_bound(self):
        # extending the support can only grow the sum of squares
        for (m, k, theta) in [(6, 3, 0.6), (10, 10, 1.0), (8, 2, 0.25)]:
            params = OccupancyParams(m, k, theta)
            t_cut = truncation_point(params)
            short = rse(pmf_vector(params, t_cut), approx_pmf(params, t_cut))
            longer = rse(
                pmf_vector(params, 2 * t_cut), approx_pmf(params, 2 * t_cut)
            )
            assert longer >= short
            assert longer - short < 1e-6


class TestRseBlock:
    def test_single_cell_block(self):
        reports = rse_block(1, 1.0)
        assert reports.dtype.names == ("m", "k", "truncation", "rse")
        assert reports.tolist() == [(1, 1, 0, 0.0)]

    def test_rows_match_direct_computation(self):
        # bit for bit: one kernel pass per m gives each cell its own bits
        for theta in (1.0, 0.6, 0.05):
            reports = rse_block(8, theta)
            assert [(r.m, r.k) for r in reports] == [
                (m, k) for m in range(1, 9) for k in range(1, m + 1)
            ]
            for m, k, t_cut, value in reports.tolist():
                params = OccupancyParams(m, k, theta)
                assert t_cut == truncation_point(params)
                direct = rse(pmf_vector(params, t_cut), approx_pmf(params, t_cut))
                assert value == direct, ((m, k), value, direct)

    def test_one_kernel_call_per_m(self, monkeypatch):
        import negocc.accuracy
        import negocc.gamma_approx
        import negocc.numerics

        calls = []
        kernel = negocc.numerics._gamma_log_cdf

        def counted(x, shape, rate):
            calls.append(np.size(x))
            return kernel(x, shape, rate)

        expected = rse_block(9, 0.6)
        for module in (negocc.numerics, negocc.gamma_approx):
            monkeypatch.setattr(module, "_gamma_log_cdf", counted)
        assert np.array_equal(rse_block(9, 0.6), expected)
        assert len(calls) <= 9
        assert sum(calls) == sum(r.truncation + 2 for r in expected)
        # a small chunk splits each m's cells over several calls, same bits;
        # only a cell past the chunk is a call alone
        calls.clear()
        monkeypatch.setattr(negocc.accuracy, "_GRID_CHUNK", 40)
        assert np.array_equal(rse_block(9, 0.6), expected)
        assert len(calls) > 9
        assert sum(calls) == sum(r.truncation + 2 for r in expected)
        lone = {r.truncation + 2 for r in expected}
        assert all(n <= 40 or n in lone for n in calls)

    def test_bit_exact_reproducibility(self):
        assert np.array_equal(rse_block(8, 0.6), rse_block(8, 0.6))

    def test_streaming_sink_in_order(self):
        # each m's slice is a view of the result, handed over when m is done
        seen = []
        reports = rse_block(5, 1.0, sink=lambda rows: seen.append((rows, rows.copy())))
        assert all(np.shares_memory(view, reports) for view, _ in seen)
        copies = [copy for _, copy in seen]
        assert [rows.m.tolist() for rows in copies] == [[m] * m for m in range(1, 6)]
        assert np.array_equal(np.concatenate(copies), reports)

    def test_one_exact_block_alive_at_a_time(self, monkeypatch):
        # each m's block and the temporaries built from it die before the
        # next m's block is made
        import weakref

        import negocc.accuracy

        made = []
        make = negocc.accuracy.log_pmf_block

        def tracked(*args):
            assert all(ref() is None for ref in made), "an earlier block is alive"
            block = make(*args)
            made.append(weakref.ref(block))
            return block

        monkeypatch.setattr(negocc.accuracy, "log_pmf_block", tracked)
        rse_block(12, 0.6)
        assert len(made) == 12

    def test_budget_refusal(self):
        # the count stops where it passes the budget: a lower bound
        estimate = estimate_block_work(12, 1.0)
        with pytest.raises(WorkBudgetError, match="at least") as err:
            rse_block(12, 1.0, budget=estimate / 2.0)
        assert err.value.budget == estimate / 2.0
        assert err.value.budget < err.value.estimated <= estimate

    def test_huge_refusal_stops_counting_at_the_budget(self, monkeypatch):
        # at the default budget the running total passes 1e12 at m = 1241,
        # so refusing M = 1e6 builds no table past it
        import negocc.accuracy

        built = []
        table = negocc.accuracy._moment_table

        def counted(m, theta):
            assert m <= 1241, "the refusal counted past the budget"
            built.append(m)
            return table(m, theta)

        monkeypatch.setattr(negocc.accuracy, "_moment_table", counted)
        with pytest.raises(WorkBudgetError):
            rse_block(10**6, 1.0)
        assert built == list(range(1, 1242))

    def test_budget_must_be_non_negative(self):
        for budget in (float("nan"), -1.0):
            with pytest.raises(DomainError, match="budget"):
                rse_block(3, 1.0, budget=budget)
        assert len(rse_block(3, 1.0, budget=math.inf)) == 6

    def test_work_estimate_is_sum_of_squares(self):
        for M in (4, 60):
            for theta in (0.7, 1.0, 0.05):
                expected = sum(
                    truncation_point(OccupancyParams(m, k, theta)) ** 2
                    for m in range(1, M + 1)
                    for k in range(1, m + 1)
                )
                assert estimate_block_work(M, theta) == expected

    def test_work_estimate_holds_one_table_at_a_time(self):
        # M = 1000 has 500,500 cells; every table at once would be megabytes
        import tracemalloc

        tracemalloc.start()
        try:
            with pytest.raises(WorkBudgetError):
                rse_block(1000, 1.0, budget=1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_cells_read_the_moment_table(self, monkeypatch):
        # one table per m serves every cell: no per-cell moments, truncation
        # or parameter object; only the exact block of each m builds one
        import negocc.accuracy

        expected = rse_block(9, 0.6)

        def per_cell(*args):
            raise AssertionError("rse_block computed a cell's moments on its own")

        for name in ("truncation_point", "mean_variance"):
            monkeypatch.setattr(negocc.accuracy, name, per_cell)
        built = []
        check = OccupancyParams.__post_init__
        monkeypatch.setattr(OccupancyParams, "__post_init__",
                            lambda self: built.append(check(self)))
        assert np.array_equal(rse_block(9, 0.6), expected)
        assert len(built) == 9


class TestRseSummaries:
    def test_single_report(self):
        reports = rse_block(1, 1.0)
        (summary,) = rse_summaries(reports)
        assert summary.m == 1
        assert summary.max_rse == summary.mean_rse == summary.diag_rse == 0.0

    def test_reductions(self):
        reports = rse_block(6, 1.0)
        summaries = rse_summaries(reports)
        by_m = {}
        for rep in reports:
            by_m.setdefault(rep.m, []).append(rep.rse)
        for summary in summaries:
            values = by_m[summary.m]
            assert summary.max_rse == max(values)
            assert summary.mean_rse == sum(values) / len(values)  # sequential sum
            assert summary.diag_rse == values[-1]
            assert summary.max_rse >= summary.mean_rse
            assert summary.diag_rse <= summary.max_rse

    def test_incomplete_coverage_rejected(self):
        reports = rse_block(4, 1.0)
        with pytest.raises(DomainError):
            rse_summaries(reports[:-1])
        with pytest.raises(DomainError):
            rse_summaries(np.concatenate([reports, reports[-1:]]))
