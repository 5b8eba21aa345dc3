"""What-if engine (Section 2.6)."""

import pytest

from repro.core import ScalTool, WhatIf
from repro.errors import InsufficientDataError


@pytest.fixture(scope="module")
def whatif(mini_campaign):
    analysis = ScalTool(mini_campaign).analyze()
    return WhatIf(analysis, mini_campaign)


class TestParameterScaling:
    def test_identity_returns_measured(self, whatif, mini_campaign):
        pred = whatif.scale_parameters()
        for n, rec in mini_campaign.base_runs().items():
            assert pred.predicted[n] == pytest.approx(rec.counters.cycles)
            assert pred.change(n) == pytest.approx(0.0)

    def test_slower_memory_slower_run(self, whatif):
        pred = whatif.scale_parameters(tm_factor=2.0)
        assert all(pred.predicted[n] >= pred.baseline[n] for n in pred.baseline)

    def test_faster_memory_faster_run(self, whatif):
        pred = whatif.scale_parameters(tm_factor=0.5)
        assert any(pred.predicted[n] < pred.baseline[n] for n in pred.baseline)

    def test_faster_sync_helps_more_at_scale(self, whatif):
        pred = whatif.scale_parameters(tsyn_factor=0.25)
        saved = {n: pred.baseline[n] - pred.predicted[n] for n in pred.baseline}
        assert saved[4] >= saved[1]

    def test_wider_issue_scales_compute(self, whatif):
        pred = whatif.scale_parameters(cpi0_factor=0.5)
        assert pred.predicted[1] < pred.baseline[1]

    def test_rows(self, whatif):
        rows = whatif.scale_parameters(t2_factor=2.0).rows()
        assert {"n", "baseline", "predicted", "change"} <= set(rows[0])


class TestL2Scaling:
    def test_bigger_l2_lowers_miss_rate(self, whatif):
        for n in (1, 2, 4):
            now = 1.0 - whatif.analysis.cache.measured_l2hitr_by_n[n]
            with_4x = whatif.l2_miss_rate_with_factor(n, 4.0)
            assert with_4x <= now + 0.05

    def test_coherence_component_preserved(self, whatif):
        # even an infinite L2 keeps the coherence misses
        for n in (2, 4):
            rate = whatif.l2_miss_rate_with_factor(n, 1e6)
            assert rate >= whatif.analysis.cache.coherence(n) - 1e-9

    def test_prediction_cycles_drop(self, whatif):
        pred = whatif.scale_l2(8.0)
        assert pred.predicted[1] <= pred.baseline[1]
        assert pred.note  # "the application is not re-run"

    def test_bad_factor(self, whatif):
        with pytest.raises(InsufficientDataError):
            whatif.l2_miss_rate_with_factor(1, 0.0)


class TestNewSyncPrimitive:
    def test_free_sync_saves_cost(self, whatif):
        pred = whatif.new_sync_primitive(tsyn_new=0.0)
        assert all(pred.predicted[n] <= pred.baseline[n] for n in pred.baseline)

    def test_notes_imbalance_caveat(self, whatif):
        assert "imbalance" in whatif.new_sync_primitive(1.0).note


class TestBatchExecution:
    EXPERIMENTS = [
        {"kind": "scale", "tm_factor": 0.5},
        {"kind": "l2", "k": 4.0},
        {"kind": "sync", "tsyn": 0.0, "label": "free sync"},
    ]

    def test_predict_dispatches_by_kind(self, whatif):
        scale, l2, sync = whatif.run_experiments(self.EXPERIMENTS)
        assert scale.label == whatif.scale_parameters(tm_factor=0.5).label
        assert l2.label == whatif.scale_l2(4.0).label
        assert sync.label == "free sync"

    def test_unknown_kind_rejected(self, whatif):
        with pytest.raises(InsufficientDataError, match="kind"):
            whatif.predict({"kind": "overclock"})

    def test_parallel_matches_serial(self, whatif):
        from repro.runner.engine import ParallelExecutor, SerialExecutor

        serial = whatif.run_experiments(self.EXPERIMENTS, executor=SerialExecutor())
        parallel = whatif.run_experiments(
            self.EXPERIMENTS, executor=ParallelExecutor(jobs=2)
        )
        assert serial == parallel
