"""Bottleneck curves and the ScalTool façade on the mini campaign."""

import pytest

from repro.core import ScalTool
from repro.core.validation import validate_mp
from repro.errors import InsufficientDataError
from repro.runner.campaign import CampaignData


@pytest.fixture(scope="module")
def analysis(mini_campaign):
    return ScalTool(mini_campaign).analyze()


class TestCurves:
    def test_base_is_measured(self, analysis, mini_campaign):
        for n, rec in mini_campaign.base_runs().items():
            assert analysis.curves.base[n] == pytest.approx(rec.counters.cycles)

    def test_curve_ordering(self, analysis):
        c = analysis.curves
        for n in c.processor_counts:
            assert c.base[n] >= c.base_minus_l2lim[n] >= c.base_minus_l2lim_mp[n] >= 0
            assert c.base_minus_l2lim[n] >= c.base_minus_l2lim_sync[n]
            assert c.base_minus_l2lim[n] >= c.base_minus_l2lim_imb[n]

    def test_costs_are_differences(self, analysis):
        c = analysis.curves
        for n in c.processor_counts:
            assert c.l2lim_cost[n] == pytest.approx(c.base[n] - c.base_minus_l2lim[n])
            assert c.mp_cost(n) == pytest.approx(c.sync_cost[n] + c.imb_cost[n])

    def test_no_mp_cost_on_uniprocessor(self, analysis):
        assert analysis.curves.imb_cost[1] == 0.0
        assert analysis.curves.sync_cost[1] < 0.05 * analysis.curves.base[1]

    def test_l2lim_shrinks_with_processors(self, analysis):
        c = analysis.curves
        assert c.l2lim_cost[4] < c.l2lim_cost[1]

    def test_speedups_start_at_one(self, analysis):
        series = analysis.curves.speedups()
        assert series[0] == (1, pytest.approx(1.0))
        assert series[-1][1] > 1.0

    def test_rows_complete(self, analysis):
        rows = analysis.curves.rows()
        assert len(rows) == 3
        assert {"n", "base", "Sync", "Imb", "L2Lim"} <= set(rows[0])


class TestFacade:
    def test_only_counters_consumed(self, analysis):
        # the analysis must be reproducible from ground-truth-stripped records
        assert analysis.workload == "synthetic"

    def test_stripped_campaign_analyzes_identically(self, mini_campaign):
        stripped = CampaignData(
            workload=mini_campaign.workload,
            s0=mini_campaign.s0,
            records=[r.without_ground_truth() for r in mini_campaign.records],
        )
        a1 = ScalTool(mini_campaign).analyze()
        a2 = ScalTool(stripped).analyze()
        for n in a1.curves.processor_counts:
            assert a1.curves.mp_cost(n) == pytest.approx(a2.curves.mp_cost(n))

    def test_report_renders(self, analysis):
        text = analysis.report()
        assert "Scal-Tool analysis" in text
        assert "base-L2Lim" in text
        assert "speedup" in text

    def test_dominant_bottleneck_named(self, analysis):
        assert analysis.dominant_bottleneck(4) in (
            "insufficient caching space",
            "synchronization",
            "load imbalance",
        )

    def test_mp_fraction_bounded(self, analysis):
        for n in analysis.curves.processor_counts:
            assert 0.0 <= analysis.mp_fraction(n) <= 1.0

    def test_empty_campaign_rejected(self):
        with pytest.raises(InsufficientDataError):
            ScalTool(CampaignData(workload="x", s0=1024, records=[])).analyze()


class TestValidation:
    def test_divergence_small_on_mini_campaign(self, analysis, mini_campaign):
        v = validate_mp(analysis, mini_campaign, exact=True)
        _, worst = v.max_divergence()
        assert worst < 0.30

    def test_rows_and_summary(self, analysis, mini_campaign):
        v = validate_mp(analysis, mini_campaign, exact=True)
        rows = v.rows()
        assert len(rows) == 3
        assert "divergence" in rows[0]
        assert "MP validation" in v.summary()

    def test_estimated_vs_measured_both_present(self, analysis, mini_campaign):
        v = validate_mp(analysis, mini_campaign, exact=True)
        for n in v.processor_counts:
            assert v.estimated_base_minus_mp(n) <= v.base[n]
            assert v.measured_base_minus_mp(n) <= v.base[n]

    def test_parallel_profiling_matches_serial(self, analysis, mini_campaign):
        from repro.runner.engine import ParallelExecutor, SerialExecutor

        serial = validate_mp(analysis, mini_campaign, exact=True, executor=SerialExecutor())
        parallel = validate_mp(
            analysis, mini_campaign, exact=True, executor=ParallelExecutor(jobs=2)
        )
        assert serial.rows() == parallel.rows()
