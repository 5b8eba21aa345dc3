"""Sensitivity analysis of the model's estimated inputs."""

import pytest

from repro.core import ScalTool
from repro.core.sensitivity import PERTURBABLE, analyze_sensitivity
from repro.errors import InsufficientDataError


@pytest.fixture(scope="module")
def analysis(mini_campaign):
    return ScalTool(mini_campaign).analyze()


class TestSensitivity:
    def test_covers_all_parameters(self, analysis, mini_campaign):
        report = analyze_sensitivity(analysis, mini_campaign)
        assert [r.parameter for r in report.results] == list(PERTURBABLE)

    def test_baseline_unchanged(self, analysis, mini_campaign):
        before = analysis.curves.mp_cost(4)
        analyze_sensitivity(analysis, mini_campaign)
        assert analysis.curves.mp_cost(4) == before  # deep-copied, not mutated

    def test_elasticities_finite(self, analysis, mini_campaign):
        report = analyze_sensitivity(analysis, mini_campaign)
        for r in report.results:
            assert abs(r.elasticity) < 100

    def test_tsyn_moves_sync_estimate(self, analysis, mini_campaign):
        report = analyze_sensitivity(analysis, mini_campaign, parameters=("tsyn",))
        r = report.results[0]
        assert r.mp_cost_perturbed != pytest.approx(r.mp_cost_base, rel=1e-6)

    def test_compulsory_moves_l2lim(self, analysis, mini_campaign):
        report = analyze_sensitivity(
            analysis, mini_campaign, parameters=("compulsory",), probe_n=1, delta=0.5
        )
        r = report.results[0]
        # more compulsory misses -> less of the gap attributed to conflicts
        assert r.l2lim_perturbed <= r.l2lim_base + 1e-6

    def test_direction_symmetry(self, analysis, mini_campaign):
        up = analyze_sensitivity(analysis, mini_campaign, delta=0.1, parameters=("tm",))
        down = analyze_sensitivity(analysis, mini_campaign, delta=-0.1, parameters=("tm",))
        assert up.results[0].mp_change * down.results[0].mp_change <= 1e-12

    def test_probe_count_selectable(self, analysis, mini_campaign):
        report = analyze_sensitivity(analysis, mini_campaign, probe_n=2)
        assert report.probe_n == 2

    def test_unknown_parameter_rejected(self, analysis, mini_campaign):
        with pytest.raises(InsufficientDataError):
            analyze_sensitivity(analysis, mini_campaign, parameters=("voltage",))

    def test_bad_delta_rejected(self, analysis, mini_campaign):
        with pytest.raises(InsufficientDataError):
            analyze_sensitivity(analysis, mini_campaign, delta=0.0)

    def test_bad_probe_rejected(self, analysis, mini_campaign):
        with pytest.raises(InsufficientDataError):
            analyze_sensitivity(analysis, mini_campaign, probe_n=999)

    def test_summary_renders(self, analysis, mini_campaign):
        report = analyze_sensitivity(analysis, mini_campaign)
        text = report.summary()
        assert "sensitivity" in text and "most sensitive input" in text

    def test_most_sensitive_is_perturbable(self, analysis, mini_campaign):
        report = analyze_sensitivity(analysis, mini_campaign)
        assert report.most_sensitive() in PERTURBABLE


class TestExecutorRouting:
    def test_parallel_matches_serial(self, analysis, mini_campaign):
        from repro.runner.engine import ParallelExecutor, SerialExecutor

        serial = analyze_sensitivity(
            analysis, mini_campaign, delta=0.1, executor=SerialExecutor()
        )
        parallel = analyze_sensitivity(
            analysis, mini_campaign, delta=0.1, executor=ParallelExecutor(jobs=2)
        )
        assert serial.rows() == parallel.rows()
